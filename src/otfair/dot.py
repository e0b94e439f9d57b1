"""Discrete-OT baseline: sorted monotone coupling between uniform empirical
batches and the corresponding model parameter update."""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .cot import DivergenceError, _fit_loop, _fit_phases
from .model import LogisticModel

DOT_EPS_THETA = 5e-3  # default parameter step when OtConfig.eps_theta is None


@dataclass
class Coupling:
    """Sparse optimal coupling under uniform marginals.

    rows index the score batch, or each row of a stack as shape (G, K); cols
    index the target batch. Masses are positive and sum to 1: each of the n
    score atoms carries 1/n of it and each of the m target atoms 1/m.
    """

    rows: np.ndarray
    cols: np.ndarray
    mass: np.ndarray


@lru_cache(maxsize=8)
def _rank_grid(n, m):
    """Sorted ranks and integer mass units of the monotone coupling of n
    atoms with m atoms, each of total mass n*m units.

    x atom i owns the units [i*m, (i+1)*m) and y atom j the units
    [j*n, (j+1)*n); the coupling's entries are the pieces of [0, n*m] cut
    at both atoms' breakpoints. Depends only on (n, m), which a fit keeps
    fixed, so it is cached; the arrays are read-only because every caller
    shares them.
    """
    ends = np.union1d(np.arange(1, n + 1) * m, np.arange(1, m + 1) * n)
    starts = np.concatenate(([0], ends[:-1]))
    grid = (starts // m, starts // n, ends - starts)
    for a in grid:
        a.flags.writeable = False
    return grid


def optimal_coupling_1d(xs, ys):
    """Optimal coupling for cost |x - y| by sorted monotone mass splitting.

    Couples xs, (n,) or each row of a (G, n) stack, with ys, sorted once;
    exact for 1-D convex costs, O(n log n) per row. Masses are in integer
    units of 1/(n*m), so the marginals are exact; ties break by index.
    """
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    ys = np.asarray(ys, dtype=float).ravel()
    if xs.size == 0 or ys.size == 0:
        raise ValueError("batches must be non-empty")
    n, m = xs.shape[-1], ys.size
    x_rank, y_rank, units = _rank_grid(n, m)
    return Coupling(np.argsort(xs, axis=-1, kind="stable")[..., x_rank],
                    np.argsort(ys, kind="stable")[y_rank],
                    units / (n * m))


def dot_theta_update(model, coupling, Z, s, sbar, eps_theta, keys):
    """One descent step using only the sparse coupling entries of G groups.

    s, (G, n), are the model's scores of the design rows Z, (G, n, d), as
    the fit loop computed them; coupling couples each row of s with the
    target batch sbar, and keys name the groups in errors.
    """
    if Z.shape[-1] != model.theta.shape[0]:
        raise ValueError("design width does not match model dimension")
    if s.shape != Z.shape[:-1]:
        raise ValueError(f"groups {', '.join(map(str, keys))}: {s.shape[-1]} "
                         f"scores for {Z.shape[-2]} design rows")
    flat = coupling.rows + s.shape[-1] * np.arange(s.shape[0])[:, None]
    sign = np.sign(s.ravel()[flat] - sbar[coupling.cols])  # sign(0) = 0
    w = np.bincount(flat.ravel(), (coupling.mass * sign).ravel(),
                    minlength=s.size).reshape(s.shape)
    grad = ((w * s * (1.0 - s))[:, None, :] @ Z)[:, 0, :].sum(axis=0)
    if not np.isfinite(grad).all():
        raise DivergenceError("non-finite parameter gradient; reduce eps_theta")
    return LogisticModel(model.theta - eps_theta * grad, model.names,
                         model.converged)


def dot_run(model, data, target, cfg, trace_every=50, include_sensitive=True):
    """Alternate coupling re-estimation and parameter updates (cot_run analog).

    One coupling and one step per update serve all groups' stacked batches.
    Uses cfg batch sizes, seed, eps_theta and num_updates; the regularized
    dual machinery is not involved. Deterministic under cfg.seed.
    """
    eps_theta = DOT_EPS_THETA if cfg.eps_theta is None else cfg.eps_theta

    def step(model, idx, keys, Z, s):
        sbar = target.samples[idx]
        return dot_theta_update(model, optimal_coupling_1d(s, sbar), Z, s,
                                sbar, eps_theta, keys)

    return _fit_loop(model, _fit_phases(data, target, trace_every), target, cfg,
                     trace_every, include_sensitive, step, {})
