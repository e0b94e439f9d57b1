"""Discrete-OT baseline: sorted monotone coupling between uniform empirical
batches and the corresponding model parameter update."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cot import DivergenceError, _fit_loop
from .model import LogisticModel, score_batch

DOT_EPS_THETA = 5e-3  # default parameter step when OtConfig.eps_theta is None


@dataclass
class Coupling:
    """Sparse optimal coupling under uniform marginals.

    rows/cols index the score/target batches; mass entries are positive and
    sum to 1, with row sums 1/n_rows and column sums 1/n_cols.
    """

    rows: np.ndarray
    cols: np.ndarray
    mass: np.ndarray
    n_rows: int
    n_cols: int


def optimal_coupling_1d(xs, ys):
    """Optimal coupling for cost |x - y| by sorted monotone mass splitting.

    Exact for 1-D convex costs; runs in O(n log n). Masses are computed in
    integer units of 1/(n*m) so the marginals are exact. Sort ties break by
    original index (stable sort).
    """
    xs = np.asarray(xs, dtype=float).ravel()
    ys = np.asarray(ys, dtype=float).ravel()
    if xs.size == 0 or ys.size == 0:
        raise ValueError("batches must be non-empty")
    n, m = xs.size, ys.size
    xi = np.argsort(xs, kind="stable")
    yj = np.argsort(ys, kind="stable")
    rows, cols, units = [], [], []
    i = j = 0
    rem_x, rem_y = m, n  # units left on the current x / y atom (out of n*m total)
    while i < n and j < m:
        take = min(rem_x, rem_y)
        rows.append(xi[i])
        cols.append(yj[j])
        units.append(take)
        rem_x -= take
        rem_y -= take
        if rem_x == 0:
            i += 1
            rem_x = m
        if rem_y == 0:
            j += 1
            rem_y = n
    return Coupling(np.array(rows), np.array(cols),
                    np.array(units, dtype=float) / (n * m), n, m)


def coupling_cost(c, xs, ys):
    """Transport cost <T, C> for cost |x - y|; equals the exact empirical W1."""
    xs = np.asarray(xs, dtype=float).ravel()
    ys = np.asarray(ys, dtype=float).ravel()
    return float(np.sum(c.mass * np.abs(xs[c.rows] - ys[c.cols])))


def dot_theta_update(model, couplings, batches, target_scores, eps_theta):
    """One descent step using only the sparse coupling entries per group."""
    sbar = np.asarray(target_scores, dtype=float).ravel()
    grad = np.zeros_like(model.theta)
    for key, Z in batches.items():
        Z = np.atleast_2d(np.asarray(Z, dtype=float))
        if Z.shape[1] != model.theta.shape[0]:
            raise ValueError("design width does not match model dimension")
        c = couplings[key]
        s = score_batch(model, Z)
        sign = np.sign(s[c.rows] - sbar[c.cols])  # sign(0) = 0
        w = np.zeros(s.size)
        np.add.at(w, c.rows, c.mass * sign)
        grad += Z.T @ (w * s * (1.0 - s))
    if not np.isfinite(grad).all():
        raise DivergenceError("non-finite parameter gradient; reduce eps_theta")
    return LogisticModel(model.theta - eps_theta * grad, model.names,
                         model.converged)


def dot_run(model, data, target, cfg, trace_every=50, include_sensitive=True):
    """Alternate coupling re-estimation and parameter updates (cot_run analog).

    Uses cfg batch sizes, seed, eps_theta and num_updates; the regularized
    dual machinery is not involved. Deterministic under cfg.seed.
    """
    eps_theta = DOT_EPS_THETA if cfg.eps_theta is None else cfg.eps_theta

    def step(model, sbar, batches, scores):
        couplings = {key: optimal_coupling_1d(s, sbar) for key, s in scores.items()}
        return dot_theta_update(model, couplings, batches, sbar, eps_theta)

    return _fit_loop(model, data, target, cfg, trace_every, include_sensitive,
                     step, {})
