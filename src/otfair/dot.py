"""Discrete-OT baseline: sorted monotone coupling between uniform empirical
batches and the corresponding model parameter update."""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .cot import DivergenceError, _fit_loop
from .model import LogisticModel

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

    Exact for 1-D convex costs; runs in O(n log n). Masses are computed in
    integer units of 1/(n*m) so the marginals are exact. Sort ties break by
    original index (stable sort).
    """
    xs = np.asarray(xs, dtype=float).ravel()
    ys = np.asarray(ys, dtype=float).ravel()
    if xs.size == 0 or ys.size == 0:
        raise ValueError("batches must be non-empty")
    n, m = xs.size, ys.size
    x_rank, y_rank, units = _rank_grid(n, m)
    return Coupling(np.argsort(xs, kind="stable")[x_rank],
                    np.argsort(ys, kind="stable")[y_rank],
                    units / (n * m), n, m)


def coupling_cost(c, xs, ys):
    """Transport cost <T, C> for cost |x - y|; equals the exact empirical W1."""
    xs = np.asarray(xs, dtype=float).ravel()
    ys = np.asarray(ys, dtype=float).ravel()
    return float(np.sum(c.mass * np.abs(xs[c.rows] - ys[c.cols])))


def dot_theta_update(model, couplings, batches, scores, target_scores,
                     eps_theta):
    """One descent step using only the sparse coupling entries per group.

    scores[key] are the model's scores of the design rows batches[key], as
    the fit loop computed them; couplings[key] couples them with the
    target batch.
    """
    sbar = np.asarray(target_scores, dtype=float).ravel()
    grad = np.zeros_like(model.theta)
    for key, Z in batches.items():
        Z = np.atleast_2d(np.asarray(Z, dtype=float))
        if Z.shape[1] != model.theta.shape[0]:
            raise ValueError("design width does not match model dimension")
        s = np.asarray(scores[key], dtype=float).ravel()
        if s.size != Z.shape[0]:
            raise ValueError(f"group {key}: {s.size} scores for "
                             f"{Z.shape[0]} design rows")
        c = couplings[key]
        sign = np.sign(s[c.rows] - sbar[c.cols])  # sign(0) = 0
        w = np.bincount(c.rows, c.mass * sign, minlength=s.size)
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
        return dot_theta_update(model, couplings, batches, scores, sbar,
                                eps_theta)

    return _fit_loop(model, data, target, cfg, trace_every, include_sensitive,
                     step, {})
