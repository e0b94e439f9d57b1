"""Quantile post-processing baseline: map each group's scores onto the
target distribution via empirical CDF / quantile composition."""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .metrics import EmpiricalDistribution


@dataclass
class QuantileMap:
    """Per-group sorted source samples plus the shared target quantiles.

    Conventions: source CDF is right-continuous rank/n; target quantile is
    the left-continuous generalized inverse, so outputs stay inside
    [min target, max target] and the map is non-decreasing.

    The composition is a step function of the score, stored per group as
    steps[key] = (j0, cuts): a score s maps to target sample
    j0 + #{cuts <= s}, with at most n_target - 1 cuts.
    """

    group_samples: dict  # GroupKey -> sorted np.ndarray
    target: EmpiricalDistribution
    steps: dict = field(init=False, repr=False)

    def __post_init__(self):
        self.steps = {key: _steps(src, self.target.n)
                      for key, src in self.group_samples.items()}


def _steps(src, n_t):
    """(j0, cuts) of one group: j(r) is the target index of source rank r,
    in the float arithmetic of Q_target(max(r / n_src, 1 / n_t)).

    j never decreases in r, so j(rank(s)) >= k exactly when
    s >= src[r_k - 1], r_k being the first rank with j(r_k) >= k.
    """
    u = np.arange(src.size + 1) / src.size
    j = np.clip(np.ceil(np.maximum(u, 1.0 / n_t) * n_t).astype(int) - 1,
                0, n_t - 1)
    r = np.searchsorted(j, np.arange(j[0] + 1, j[-1] + 1))
    return int(j[0]), src[r - 1]


def fit_dpp(group_scores, target):
    """Store sorted per-group score samples and the target distribution."""
    samples = {}
    for key, vals in group_scores.items():
        arr = np.sort(np.asarray(vals, dtype=float).ravel())
        if arr.size == 0:
            raise ValueError(f"group {key} has no score samples")
        samples[key] = arr
    if not samples:
        raise ValueError("no groups provided")
    return QuantileMap(samples, target)


def dpp_transform(m, key, s):
    """Q_target(F_group(s)); scalar in, scalar out (arrays broadcast)."""
    if key not in m.steps:
        raise KeyError(f"unknown group {key}")
    j0, cuts = m.steps[key]
    out = m.target.samples[j0 + np.searchsorted(cuts, np.asarray(s, dtype=float),
                                                side="right")]
    return float(out) if out.ndim == 0 else out
