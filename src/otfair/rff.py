"""Random Fourier feature maps and dual potentials built on them.

The feature map approximates a Gaussian kernel: with frequencies drawn from
Normal(0, 2/sigma2) and phases from U[0, 2pi], the expected inner product
psi(x).psi(x') equals exp(-(x - x')^2 / sigma2).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class RffMap:
    omegas: np.ndarray
    phases: np.ndarray
    sigma2: float

    def __post_init__(self):
        object.__setattr__(self, "omegas", np.asarray(self.omegas, dtype=float))
        object.__setattr__(self, "phases", np.asarray(self.phases, dtype=float))
        if self.num_features < 1:
            raise ValueError("feature count must be >= 1")
        if self.sigma2 <= 0:
            raise ValueError("kernel variance must be positive")
        if self.omegas.shape != self.phases.shape:
            raise ValueError("omegas and phases must have equal shapes")

    @property
    def num_features(self):
        return self.omegas.shape[-1]


@dataclass
class DualPotential:
    """A dual variable lambda(x) = coeffs . psi(x) over a shared RffMap. A map
    of (G, D) frequencies and phases stacks G maps: its potentials hold (G, D)
    coefficients and take (G, n) inputs, each row through its own map."""

    coeffs: np.ndarray
    map: RffMap

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=float)
        if self.coeffs.shape != self.map.omegas.shape:
            raise ValueError("coefficient shape must match the feature map's")
        if not np.isfinite(self.coeffs).all():
            raise ValueError("coefficients must be finite")

    @classmethod
    def zeros(cls, rff_map):
        return cls(np.zeros(rff_map.omegas.shape), rff_map)


def make_rff(D, sigma2, seed):
    """Sample a frozen feature map; deterministic under the seed."""
    if sigma2 <= 0:
        raise ValueError("kernel variance must be positive")
    rng = np.random.default_rng(seed)
    omegas = rng.normal(0.0, np.sqrt(2.0 / sigma2), size=D)
    phases = rng.uniform(0.0, 2.0 * np.pi, size=D)
    return RffMap(omegas, phases, float(sigma2))


def _argument(m, x):
    """omega x + b: (D,) for scalar x, (..., n, D) for (..., n) arrays."""
    if x.ndim == 0:
        return m.omegas * x + m.phases
    return x[..., None] * m.omegas[..., None, :] + m.phases[..., None, :]


def eval_features(m, x):
    """Feature rows sqrt(2/D) cos(omega x + b); (D,) for scalar x, (..., n, D)
    for (..., n) arrays."""
    x = np.asarray(x, dtype=float)
    return np.sqrt(2.0 / m.num_features) * np.cos(_argument(m, x))


def eval_potential(p, x):
    return eval_features(p.map, x) @ p.coeffs


def _grad_rows(m, x):
    """Rows -sqrt(2/D) sin(omega x + b); numpy only, so any thread may run it."""
    return -np.sqrt(2.0 / m.num_features) * np.sin(_argument(m, x))


def _contract(p, rows):
    """The input gradient sum_i c_i omega_i rows_i from _grad_rows(p.map, x)."""
    return (rows @ (p.coeffs * p.map.omegas)[..., None])[..., 0]


def grad_potential_input(p, x):
    """d/dx of eval_potential: -sqrt(2/D) sum_i c_i omega_i sin(omega_i x + b_i)."""
    x = np.asarray(x, dtype=float)
    out = _contract(p, _grad_rows(p.map, x))
    return float(out) if x.ndim == 0 else out
