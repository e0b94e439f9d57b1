"""Exact 1-D evaluation machinery: empirical distributions, Wasserstein-1,
disparity metrics, classification error, and the W1 barycenter target."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class EmpiricalDistribution:
    """Uniformly-weighted sorted sample on [0, 1]."""

    samples: np.ndarray

    def __post_init__(self):
        s = np.sort(np.asarray(self.samples, dtype=float).ravel())
        if s.size < 1:
            raise ValueError("empirical distribution needs at least one sample")
        if not (s[0] >= -1e-12 and s[-1] <= 1 + 1e-12):  # NaN sorts last, fails too
            raise ValueError("samples must be finite and lie in [0, 1]")
        self.samples = np.clip(s, 0.0, 1.0)

    @property
    def n(self):
        return self.samples.size

    def quantile(self, u):
        """Left-continuous generalized inverse CDF."""
        u = np.asarray(u, dtype=float)
        ranks = np.clip(np.ceil(u * self.n).astype(int) - 1, 0, self.n - 1)
        return self.samples[ranks]


def wasserstein1_1d(p, q):
    """Exact W1 between two empirical distributions: the integral of |F_p - F_q|.

    A stable argsort merges the two sorted samples in linear time. Between
    consecutive merged points n m (F_p - F_q) is an integer count, so only
    the widths carry rounding; ties add zero width in either order. The sum
    is numpy's, not a BLAS dot, so it does not depend on the thread count.
    """
    n, m = p.n, q.n
    x = np.concatenate([p.samples, q.samples])
    order = np.argsort(x, kind="stable")
    gap = np.cumsum(np.where(order < n, m, -n))[:-1]
    return float(np.sum(np.abs(gap) * np.diff(x[order]))) / (n * m)


def err_at_threshold(scores, labels):
    """Err-.5: fraction of threshold predictions 1_{s > 0.5} disagreeing with
    labels. Ties s == 0.5 predict class 0."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels, dtype=int)
    if scores.size == 0:
        raise ValueError("empty score array")
    preds = (scores > 0.5).astype(int)
    return float((preds != labels).mean())


def sdd(groups):
    """Sum over groups of the threshold-averaged disparity versus the pool.

    The integral over tau of |P(A > tau) - P(B > tau)| is W1(A, B) in 1-D.
    """
    pool = pooled(groups)
    return sum(wasserstein1_1d(g, pool) for g in groups.values())


def spdd(groups):
    """Threshold-averaged disparity summed over unordered pairs of groups
    (the ordered-pair double count halved): a sum of pairwise W1."""
    keys = sorted(groups)
    return sum((wasserstein1_1d(groups[ka], groups[kb])
                for i, ka in enumerate(keys) for kb in keys[i + 1:]), 0.0)


def pooled(groups):
    """Pooled distribution: the groups' samples together, each point weighted
    equally, so each group weighs by its size."""
    return EmpiricalDistribution(
        np.concatenate([groups[k].samples for k in sorted(groups)]))


def w1_barycenter(groups):
    """W1 barycenter on 1000 quantile levels: per level, the median of the
    group quantile functions with each group weighted by its size.

    Ties in the weighted median resolve to the smaller quantile value.
    """
    keys = sorted(groups)
    w = np.array([groups[k].n for k in keys], dtype=float)
    w /= w.sum()
    levels = (np.arange(1000) + 0.5) / 1000
    Q = np.stack([groups[k].quantile(levels) for k in keys])  # (G, 1000)
    order = np.argsort(Q, axis=0, kind="stable")
    qs = np.take_along_axis(Q, order, axis=0)
    ws = np.cumsum(w[order], axis=0)
    first = np.argmax(ws >= 0.5 - 1e-12, axis=0)
    bary = qs[first, np.arange(levels.size)]
    return EmpiricalDistribution(bary)


def evaluate(ds, scores, target):
    """Table row: Err-.5, Wass1 (vs target), SDD (vs pool), SPDD."""
    dists = {k: EmpiricalDistribution(scores[idx]) for k, idx in ds.groups.items()}
    return {
        "err05": err_at_threshold(scores, ds.y),
        "wass1": sum(wasserstein1_1d(g, target) for g in dists.values()),
        "sdd": sdd(dists),
        "spdd": spdd(dists),
    }
