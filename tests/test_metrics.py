"""Distribution metrics: W1 oracles, disparity integrals, barycenter."""
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import wasserstein_distance

import otfair
from otfair.metrics import (EmpiricalDistribution, err_at_threshold, pooled,
                            sdd, spdd, w1_barycenter, wasserstein1_1d)
from oracles import survival_gap_integral

unit_samples = st.lists(st.floats(min_value=0.0, max_value=1.0,
                                  allow_nan=False), min_size=1, max_size=30)


def _ed(vals):
    return EmpiricalDistribution(np.asarray(vals))


def test_distribution_validates_range():
    with pytest.raises(ValueError):
        _ed([0.5, 1.2])
    with pytest.raises(ValueError):
        _ed([])


@pytest.mark.parametrize("vals", [[0.2, np.nan, 0.5], [np.inf], [-np.inf, 0.5]])
def test_distribution_rejects_non_finite(vals):
    with pytest.raises(ValueError, match="finite"):
        _ed(vals)


def test_quantile_left_continuous():
    d = _ed([0.1, 0.5, 0.9])
    assert d.quantile(1.0 / 3.0) == 0.1
    assert d.quantile(1.0 / 3.0 + 1e-9) == 0.5
    assert d.quantile(0.0) == 0.1
    assert d.quantile(1.0) == 0.9


@settings(deadline=None, max_examples=100)
@given(unit_samples, unit_samples)
def test_w1_matches_reference_solver(a, b):
    got = wasserstein1_1d(_ed(a), _ed(b))
    assert got == pytest.approx(wasserstein_distance(a, b), abs=1e-9)


@settings(deadline=None, max_examples=50)
@given(unit_samples, unit_samples, unit_samples)
def test_w1_metric_axioms(a, b, c):
    da, db, dc = _ed(a), _ed(b), _ed(c)
    assert wasserstein1_1d(da, da) == pytest.approx(0.0, abs=1e-12)
    assert wasserstein1_1d(da, db) == pytest.approx(wasserstein1_1d(db, da))
    assert (wasserstein1_1d(da, dc)
            <= wasserstein1_1d(da, db) + wasserstein1_1d(db, dc) + 1e-9)


def test_w1_equal_sizes_is_sorted_mean():
    a, b = [0.9, 0.1, 0.5], [0.2, 0.6, 1.0]
    expect = np.abs(np.sort(a) - np.sort(b)).mean()
    assert wasserstein1_1d(_ed(a), _ed(b)) == pytest.approx(expect)


@pytest.mark.parametrize("n, m", [(400, 400), (400, 173), (1, 250), (250, 1),
                                  (1, 1)])
def test_w1_matches_both_oracles_on_tie_heavy_samples(n, m):
    # Values on a 1000-point grid, so most samples tie within and across sides.
    rng = np.random.default_rng(n * 1000 + m)
    a = rng.integers(0, 1001, n) / 1000
    b = np.minimum(rng.integers(0, 1001, m) + rng.integers(0, 300, m), 1000) / 1000
    got = wasserstein1_1d(_ed(a), _ed(b))
    assert got == pytest.approx(survival_gap_integral(_ed(a), _ed(b)), abs=1e-12)
    assert got == pytest.approx(wasserstein_distance(a, b), abs=1e-12)


def test_w1_is_exact_on_dyadic_samples():
    # Samples and the size product are powers of two, so every step is exact.
    a, b = [0.25, 0.5, 0.5, 1.0], [0.0, 0.75]
    # |F_a - F_b| is 1/2 on [0, .25) and 1/4 on [.25, 1)
    assert wasserstein1_1d(_ed(a), _ed(b)) == 0.3125
    assert wasserstein1_1d(_ed(b), _ed(a)) == 0.3125


def test_err_at_threshold_tie_predicts_zero():
    scores = np.array([0.5, 0.5, 0.6, 0.4])
    labels = np.array([0, 1, 1, 0])
    # ties predict 0, so only the second point is wrong
    assert err_at_threshold(scores, labels) == pytest.approx(0.25)


def test_err_at_threshold_rejects_empty():
    with pytest.raises(ValueError):
        err_at_threshold(np.array([]), np.array([]))


def test_survival_gap_equals_w1():
    # integral of |F_a - F_b| over [0,1] is the same quantity as W1 in 1-D
    rng = np.random.default_rng(0)
    for _ in range(20):
        a = _ed(rng.uniform(0, 1, rng.integers(1, 12)))
        b = _ed(rng.uniform(0, 1, rng.integers(1, 12)))
        assert survival_gap_integral(a, b) == pytest.approx(
            wasserstein1_1d(a, b), abs=1e-10)


@pytest.mark.parametrize("seed", range(5))
def test_sdd_and_spdd_match_the_survival_oracle(seed):
    rng = np.random.default_rng(seed)
    groups = {(k,): _ed(np.round(rng.beta(2, 1 + k, rng.integers(1, 60)), 2))
              for k in range(rng.integers(1, 6))}
    pool = pooled(groups)
    keys = sorted(groups)
    assert sdd(groups) == pytest.approx(
        sum(survival_gap_integral(g, pool) for g in groups.values()), abs=1e-12)
    assert spdd(groups) == pytest.approx(
        sum(survival_gap_integral(groups[x], groups[y])
            for i, x in enumerate(keys) for y in keys[i + 1:]), abs=1e-12)


def test_sdd_monte_carlo_oracle(rng):
    groups = {("a",): _ed(rng.uniform(0, 0.6, 40)),
              ("b",): _ed(rng.uniform(0.3, 1.0, 25))}
    pool = pooled(groups)
    taus = rng.uniform(0, 1, 200_000)
    mc = sum(np.mean(np.abs((g.samples[None, :] > taus[:, None]).mean(axis=1)
                            - (pool.samples[None, :] > taus[:, None]).mean(axis=1)))
             for g in groups.values())
    assert sdd(groups) == pytest.approx(mc, abs=5e-3)


def test_spdd_two_groups_is_their_w1(rng):
    groups = {("a",): _ed(rng.uniform(0, 1, 17)),
              ("b",): _ed(rng.uniform(0, 1, 9))}
    assert spdd(groups) == pytest.approx(
        wasserstein1_1d(groups[("a",)], groups[("b",)]), abs=1e-12)


def test_spdd_three_groups_sums_unordered_pairs(rng):
    groups = {k: _ed(rng.uniform(0, 1, 10)) for k in [("a",), ("b",), ("c",)]}
    expect = sum(wasserstein1_1d(groups[x], groups[y])
                 for x, y in [(("a",), ("b",)), (("a",), ("c",)), (("b",), ("c",))])
    assert spdd(groups) == pytest.approx(expect, abs=1e-12)


def test_pooled_concatenates_by_default(rng):
    groups = {("a",): _ed([0.1, 0.2]), ("b",): _ed([0.9])}
    assert pooled(groups).samples.tolist() == [0.1, 0.2, 0.9]


def test_barycenter_of_identical_groups_is_the_group(rng):
    s = np.sort(rng.uniform(0, 1, 25))
    groups = {("a",): _ed(s), ("b",): _ed(s)}
    bary = w1_barycenter(groups)
    assert wasserstein1_1d(bary, _ed(s)) < 2e-3


def test_barycenter_beats_random_candidates(rng):
    groups = {("a",): _ed(rng.beta(2, 5, 40)),
              ("b",): _ed(rng.beta(5, 2, 60)),
              ("c",): _ed(rng.uniform(0, 1, 20))}
    bary = w1_barycenter(groups)
    best = sum(wasserstein1_1d(g, bary) for g in groups.values())
    for _ in range(50):
        cand = _ed(rng.uniform(0, 1, rng.integers(5, 80)))
        cost = sum(wasserstein1_1d(g, cand) for g in groups.values())
        assert best <= cost + 1e-9


def test_barycenter_weights_groups_by_size():
    # With equal weights the tie would resolve to the small, lower group.
    small, large = _ed([0.1, 0.2, 0.3]), _ed(np.linspace(0.7, 0.9, 297))
    bary = w1_barycenter({("a",): small, ("b",): large})
    assert wasserstein1_1d(bary, large) < 1e-3


# 50 000 rows in four groups: each group-to-pool W1 merges about 12 500 +
# 50 000 samples, long enough for a threaded BLAS to split a dot product.
_EVALUATE_SCRIPT = """
import numpy as np
from otfair.data import Dataset
from otfair.metrics import EmpiricalDistribution, evaluate
rng = np.random.default_rng(11)
n = 50_000
A = rng.integers(0, 4, size=(n, 1))
y = (rng.random(n) < 0.4).astype(int)
ds = Dataset(A, rng.normal(size=(n, 1)), y, ["x"], ["g"], [list("abcd")])
scores = rng.beta(2.0 + A[:, 0], 3.0)
target = EmpiricalDistribution(np.linspace(0.0, 1.0, 1000))
print({k: v.hex() for k, v in evaluate(ds, scores, target).items()})
"""


def test_evaluate_does_not_depend_on_the_blas_thread_count():
    src = os.path.dirname(os.path.dirname(os.path.abspath(otfair.__file__)))
    outs = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "OMP_NUM_THREADS": threads, "MKL_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join(
                   [src] + os.environ.get("PYTHONPATH", "").split(os.pathsep))}
        out = subprocess.run([sys.executable, "-c", _EVALUATE_SCRIPT], env=env,
                             capture_output=True, check=True, timeout=120)
        outs.append(out.stdout)
    assert outs[0] == outs[1]
