"""Logistic score model: training, scoring and persistence."""
from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

_CLIP = np.finfo(float).eps  # keeps scores strictly inside (0, 1)
LR_MAX_ITERS = 500  # cap on train_lr's Newton iterations
LR_TOL = 1e-8  # train_lr stops once ||grad||_inf <= LR_TOL


class DegenerateLabelsError(ValueError):
    """Training data contains a single class."""


@dataclass
class LogisticModel:
    """Weights over the design row [encoded sensitive, features, intercept]."""

    theta: np.ndarray
    names: list = field(default_factory=list)
    converged: bool = True

    def __post_init__(self):
        self.theta = np.asarray(self.theta, dtype=float)
        if not np.isfinite(self.theta).all():
            raise ValueError("model weights must be finite")

    def save(self, path):
        payload = {
            "coefficients": {n: float(t) for n, t in zip(self.names, self.theta)}
            if self.names else {str(i): float(t) for i, t in enumerate(self.theta)},
            "converged": bool(self.converged),
        }
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=2)

    @classmethod
    def load(cls, path):
        with open(path) as fh:
            payload = json.load(fh)
        names = list(payload["coefficients"])
        theta = np.array([payload["coefficients"][n] for n in names])
        return cls(theta, names, payload.get("converged", True))


def sigmoid(z):
    z = np.asarray(z, dtype=float)
    e = np.exp(-np.abs(z))  # never overflows
    return np.clip(np.where(z >= 0, 1.0, e) / (1.0 + e), _CLIP, 1.0 - _CLIP)


def score_batch(model, Z):
    Z = np.atleast_2d(np.asarray(Z, dtype=float))
    if Z.shape[-1] != model.theta.shape[0]:
        raise ValueError(f"input width {Z.shape[-1]} != model dim {model.theta.shape[0]}")
    return sigmoid(Z @ model.theta)


def _nll(theta, Z, y, l2, penalize):
    margins = (2.0 * y - 1.0) * (Z @ theta)
    nll = np.logaddexp(0.0, -margins).sum()
    w = theta * penalize
    return nll + 0.5 * l2 * (w @ w)


def _nll_grad(theta, Z, y, l2, penalize):
    p = sigmoid(Z @ theta)
    return Z.T @ (p - y) + l2 * theta * penalize


def train_lr(d, l2_strength=1.0, include_sensitive=True):
    """Fit L2-regularized logistic regression by damped Newton from zero weights.

    The intercept is unpenalized; at most LR_MAX_ITERS steps run. converged
    means ||grad||_inf <= max(LR_TOL, 1e-6) at the returned weights, else False.
    """
    if not 0.0 <= l2_strength < np.inf:
        raise ValueError(f"lr_l2 must be finite and >= 0, got {l2_strength}")
    if d.n == 0:
        raise ValueError("dataset is empty")
    if len(np.unique(d.y)) < 2:
        raise DegenerateLabelsError("training data contains a single class")
    Z = d.design_matrix(include_sensitive=include_sensitive)
    names = d.design_names(include_sensitive=include_sensitive)
    y = d.y.astype(float)
    penalize = np.ones(Z.shape[1])
    penalize[-1] = 0.0  # intercept
    args = (Z, y, l2_strength, penalize)
    theta = np.zeros(Z.shape[1])
    loss, grad = _nll(theta, *args), _nll_grad(theta, *args)
    for _ in range(LR_MAX_ITERS):
        if np.abs(grad).max() <= LR_TOL:
            break
        p = sigmoid(Z @ theta)
        hess = (Z.T * (p * (1.0 - p))) @ Z + np.diag(l2_strength * penalize)
        step = np.linalg.lstsq(hess, -grad, rcond=None)[0]  # minimum norm if singular
        t, slope = 1.0, grad @ step  # halve t until the Armijo condition holds
        while ((new := _nll(theta + t * step, *args)) > loss + 1e-4 * t * slope
               and t > 1e-10):
            t *= 0.5
        if not new < loss:
            break
        theta, loss = theta + t * step, new
        grad = _nll_grad(theta, *args)
    converged = bool(np.abs(grad).max() <= max(LR_TOL, 1e-6))
    return LogisticModel(theta, names, converged=converged)
