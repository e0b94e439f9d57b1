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

    def cdf(self, v):
        """Right-continuous empirical CDF, rank/n."""
        return np.searchsorted(self.samples, np.asarray(v, dtype=float),
                               side="right") / self.n


def wasserstein1_1d(p, q):
    """Exact W1 between two empirical distributions (L1 between quantiles)."""
    xs, ys = p.samples, q.samples
    if xs.size == ys.size:
        return float(np.abs(xs - ys).mean())
    # Merge the quantile breakpoints k/n and l/m; quantiles are constant between.
    levels = np.union1d(np.arange(1, xs.size + 1) / xs.size,
                        np.arange(1, ys.size + 1) / ys.size)
    widths = np.diff(np.concatenate([[0.0], levels]))
    mids = levels - widths / 2.0
    return float(np.sum(widths * np.abs(p.quantile(mids) - q.quantile(mids))))


def err_at_threshold(scores, labels, tau=0.5):
    """Fraction of threshold predictions 1_{s > tau} disagreeing with labels.

    Ties s == tau predict class 0.
    """
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels, dtype=int)
    if scores.size == 0:
        raise ValueError("empty score array")
    preds = (scores > tau).astype(int)
    return float((preds != labels).mean())


def _survival_gap_integral(a, b):
    """Integral over tau in [0,1] of |P(A > tau) - P(B > tau)|, exact."""
    pts = np.unique(np.concatenate([[0.0], a.samples, b.samples, [1.0]]))
    widths = np.diff(pts)
    mids = (pts[:-1] + pts[1:]) / 2.0
    # Survival at the midpoint equals survival on the whole open interval.
    surv_a = 1.0 - a.cdf(mids)
    surv_b = 1.0 - b.cdf(mids)
    return float(np.sum(widths * np.abs(surv_a - surv_b)))


def sdd(groups, pooled):
    """Sum over groups of the threshold-averaged disparity versus the pool."""
    return sum(_survival_gap_integral(g, pooled) for g in groups.values())


def spdd(groups):
    """Pairwise disparity with the ordered-pair double-count halved."""
    keys = sorted(groups)
    total = 0.0
    for i, ka in enumerate(keys):
        for kb in keys[i + 1:]:
            total += _survival_gap_integral(groups[ka], groups[kb])
    return total  # (1/2) * sum over ordered pairs = sum over unordered pairs


def pooled(groups, equal_weights=False, grid=1000):
    """Pooled distribution; empirical group frequencies by default.

    With equal_weights each group is resampled onto a common quantile grid
    so every group contributes the same mass.
    """
    keys = sorted(groups)
    if not equal_weights:
        return EmpiricalDistribution(
            np.concatenate([groups[k].samples for k in keys]))
    levels = (np.arange(grid) + 0.5) / grid
    return EmpiricalDistribution(
        np.concatenate([groups[k].quantile(levels) for k in keys]))


def w1_barycenter(groups, weights=None, grid=1000):
    """W1 barycenter: per-level weighted median of the group quantile functions.

    Ties in the weighted median resolve to the smaller quantile value.
    """
    keys = sorted(groups)
    if weights is None:
        total = sum(groups[k].n for k in keys)
        weights = {k: groups[k].n / total for k in keys}
    w = np.array([weights[k] for k in keys], dtype=float)
    if abs(w.sum() - 1.0) > 1e-9:
        raise ValueError("group weights must sum to 1")
    levels = (np.arange(grid) + 0.5) / grid
    Q = np.stack([groups[k].quantile(levels) for k in keys])  # (G, grid)
    order = np.argsort(Q, axis=0, kind="stable")
    qs = np.take_along_axis(Q, order, axis=0)
    ws = np.cumsum(w[order], axis=0)
    first = np.argmax(ws >= 0.5 - 1e-12, axis=0)
    bary = qs[first, np.arange(grid)]
    return EmpiricalDistribution(bary)


def evaluate(ds, scores, target):
    """Table row: Err-.5, Wass1 (vs target), SDD (vs pool), SPDD."""
    dists = {k: EmpiricalDistribution(scores[idx]) for k, idx in ds.groups.items()}
    return {
        "err05": err_at_threshold(scores, ds.y),
        "wass1": sum(wasserstein1_1d(g, target) for g in dists.values()),
        "sdd": sdd(dists, pooled(dists)),
        "spdd": spdd(dists),
    }


def wass1_total(group_scores, target):
    """Reported unfairness: sum over groups of W1(group scores, target)."""
    return sum(
        wasserstein1_1d(EmpiricalDistribution(s), target)
        for s in group_scores.values())
