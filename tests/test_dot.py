"""Discrete couplings: exact W1 oracle, marginal exactness, update oracle."""
from fractions import Fraction
from math import ceil

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import wasserstein_distance

from otfair.cot import OtConfig
from otfair.data import Dataset
from otfair.dot import (coupling_cost, dot_run, dot_theta_update,
                        optimal_coupling_1d)
from otfair.metrics import EmpiricalDistribution
from otfair.model import LogisticModel, score_batch

from oracles import loop_coupling_1d

unit_batch = st.lists(st.floats(min_value=0.0, max_value=1.0,
                                allow_nan=False), min_size=1, max_size=8)


def exact_w1(xs, ys):
    """W1 between the uniform empirical distributions, in exact rationals.

    Integrates |F_x^-1(u) - F_y^-1(u)| over the merged quantile breakpoints
    k/n and l/m; both quantile functions are constant between breakpoints.
    """
    xs, ys = sorted(map(Fraction, xs)), sorted(map(Fraction, ys))
    n, m = len(xs), len(ys)
    levels = sorted({Fraction(k, n) for k in range(1, n + 1)}
                    | {Fraction(k, m) for k in range(1, m + 1)})
    total, prev = Fraction(0), Fraction(0)
    for u in levels:
        total += (u - prev) * abs(xs[ceil(u * n) - 1] - ys[ceil(u * m) - 1])
        prev = u
    return float(total)


def _dense(c):
    T = np.zeros((c.n_rows, c.n_cols))
    T[c.rows, c.cols] = c.mass
    return T


@settings(deadline=None, max_examples=60)
@given(unit_batch, unit_batch)
def test_coupling_cost_matches_lp(xs, ys):
    """The transport LP's optimum, which in 1-D is the quantile W1, taken exactly."""
    c = optimal_coupling_1d(xs, ys)
    assert coupling_cost(c, xs, ys) == pytest.approx(exact_w1(xs, ys), abs=1e-10)


@settings(deadline=None, max_examples=60)
@given(unit_batch, unit_batch)
def test_coupling_marginals_exact(xs, ys):
    c = optimal_coupling_1d(xs, ys)
    T = _dense(c)
    assert np.allclose(T.sum(axis=1), 1.0 / len(xs), atol=1e-15)
    assert np.allclose(T.sum(axis=0), 1.0 / len(ys), atol=1e-15)
    assert np.all(c.mass > 0)


@settings(deadline=None, max_examples=60)
@given(unit_batch, unit_batch)
def test_coupling_sparsity_bound(xs, ys):
    c = optimal_coupling_1d(xs, ys)
    assert len(c.mass) <= len(xs) + len(ys) - 1


def test_coupling_cost_matches_reference_w1(rng):
    for _ in range(20):
        xs = rng.uniform(0, 1, rng.integers(1, 40))
        ys = rng.uniform(0, 1, rng.integers(1, 40))
        c = optimal_coupling_1d(xs, ys)
        assert coupling_cost(c, xs, ys) == pytest.approx(
            wasserstein_distance(xs, ys), abs=1e-12)


def test_coupling_identity_is_diagonal():
    xs = np.array([0.3, 0.1, 0.7])
    c = optimal_coupling_1d(xs, xs)
    assert coupling_cost(c, xs, xs) == pytest.approx(0.0, abs=1e-15)


def _assert_matches_loop(xs, ys):
    c = optimal_coupling_1d(xs, ys)
    for got, want in zip((c.rows, c.cols, c.mass), loop_coupling_1d(xs, ys)):
        assert np.array_equal(got, want)
        assert got.dtype == want.dtype


quarter_batch = st.lists(st.integers(0, 4).map(lambda k: k / 4), min_size=1,
                         max_size=256)


@settings(deadline=None, max_examples=60)
@given(st.one_of(unit_batch, quarter_batch), st.one_of(unit_batch, quarter_batch))
def test_coupling_matches_the_loop_oracle(xs, ys):
    _assert_matches_loop(xs, ys)


def test_coupling_matches_the_loop_oracle_on_seeded_batches(rng):
    # Sizes 1-256, n != m in most cases, every other case tie-heavy
    # (values on a grid of 1/4).
    for k in range(200):
        n, m = rng.integers(1, 257, 2)
        if k % 2:
            xs, ys = rng.integers(0, 5, n) / 4, rng.integers(0, 5, m) / 4
        else:
            xs, ys = rng.random(n), rng.random(m)
        _assert_matches_loop(xs, ys)


def test_couplings_of_one_shape_share_no_writable_array(rng):
    xs, ys = rng.random(7), rng.random(5)
    first = optimal_coupling_1d(xs, ys)
    for a in (first.rows, first.cols, first.mass):
        a[:] = 0
    _assert_matches_loop(xs, ys)


def test_coupling_rejects_empty():
    with pytest.raises(ValueError):
        optimal_coupling_1d(np.array([]), np.array([0.5]))


def _naive_dot_gradient(model, coupling, Z, sbar):
    s = score_batch(model, Z)
    grad = np.zeros_like(model.theta)
    T = _dense(coupling)
    for i in range(Z.shape[0]):
        for j in range(sbar.size):
            grad += T[i, j] * np.sign(s[i] - sbar[j]) * s[i] * (1 - s[i]) * Z[i]
    return grad


def test_dot_theta_update_matches_dense_loop(rng):
    model = LogisticModel(rng.normal(size=3) * 0.5)
    Z = rng.normal(size=(5, 3))
    sbar = rng.uniform(0.1, 0.9, 4)
    s = score_batch(model, Z)
    c = optimal_coupling_1d(s, sbar)
    expect = _naive_dot_gradient(model, c, Z, sbar)
    new = dot_theta_update(model, {("g",): c}, {("g",): Z}, {("g",): s},
                           sbar, 0.01)
    assert np.allclose(new.theta, model.theta - 0.01 * expect, atol=1e-12)


def test_dot_theta_update_width_mismatch():
    model = LogisticModel(np.zeros(3))
    c = optimal_coupling_1d(np.array([0.5]), np.array([0.5]))
    with pytest.raises(ValueError):
        dot_theta_update(model, {("g",): c}, {("g",): np.zeros((1, 5))},
                         {("g",): np.array([0.5])}, np.array([0.5]), 0.01)


def test_dot_theta_update_names_the_group_whose_scores_do_not_fit():
    model = LogisticModel(np.zeros(3))
    c = optimal_coupling_1d(np.array([0.5, 0.5]), np.array([0.5]))
    with pytest.raises(ValueError, match=r"\('g',\).*3 scores for 2 design rows"):
        dot_theta_update(model, {("g",): c}, {("g",): np.zeros((2, 3))},
                         {("g",): np.full(3, 0.5)}, np.array([0.5]), 0.01)


def _tiny_dataset(seed=0, n=80):
    rng = np.random.default_rng(seed)
    A = rng.integers(0, 2, size=(n, 1))
    X = rng.normal(size=(n, 2))
    y = (rng.random(n) < 0.3 + 0.4 * A[:, 0]).astype(int)
    y[:2] = [0, 1]
    return Dataset(A, X, y, ["x0", "x1"], ["g"], [["a", "b"]])


def test_dot_run_traces_and_is_deterministic():
    ds = _tiny_dataset()
    model = LogisticModel(np.array([0.2, 0.5, -0.5, 0.0]))
    target = EmpiricalDistribution(np.linspace(0.1, 0.9, 40))
    cfg = OtConfig(num_updates=30, batch_scores=8, batch_target=8, seed=1)
    m1, trace = dot_run(model, ds, target, cfg, trace_every=10)
    assert [r["update"] for r in trace] == [0, 10, 20, 30]
    m2, trace2 = dot_run(model, ds, target, cfg, trace_every=10)
    assert np.array_equal(m1.theta, m2.theta)
    assert trace == trace2
