"""Logistic model: training oracle checks, scoring, persistence."""
import numpy as np
import pytest
from scipy.optimize import approx_fprime

from otfair.data import Dataset
from otfair.model import (DegenerateLabelsError, LogisticModel, score_batch,
                          sigmoid, train_lr, _nll, _nll_grad)
from oracles import sigmoid_two_branch


def _toy(n=400, seed=0):
    rng = np.random.default_rng(seed)
    A = rng.integers(0, 2, size=(n, 1))
    X = rng.normal(size=(n, 2))
    logits = 1.5 * X[:, 0] - 1.0 * X[:, 1] + 0.5 * A[:, 0] - 0.2
    y = (rng.random(n) < sigmoid(logits)).astype(int)
    return Dataset(A, X, y, ["x0", "x1"], ["g"], [["a", "b"]])


def test_sigmoid_stable_at_extremes():
    out = sigmoid(np.array([-1000.0, 0.0, 1000.0]))
    assert 0.0 < out[0] < out[1] < out[2] < 1.0
    assert out[1] == pytest.approx(0.5)


def test_sigmoid_is_bit_identical_to_the_two_branch_form():
    rng = np.random.default_rng(0)
    z = np.concatenate([rng.normal(0, 5, 100_000), rng.uniform(-800, 800, 100_000),
                        [0.0, -0.0, 745.0, -745.0, 746.0, -746.0, 1e-300,
                         -1e-300, 36.7, -36.7, np.inf, -np.inf]])
    assert sigmoid(z).tobytes() == sigmoid_two_branch(z).tobytes()
    assert sigmoid(z.reshape(4, -1)).tobytes() == sigmoid_two_branch(z).tobytes()
    assert np.isnan(sigmoid(np.nan))


def test_score_batch_matches_manual():
    m = LogisticModel(np.array([2.0, -1.0, 0.5]))
    Z = np.array([[1.0, 2.0, 1.0], [0.0, 0.0, 1.0]])
    expect = 1.0 / (1.0 + np.exp(-(Z @ m.theta)))
    assert np.allclose(score_batch(m, Z), expect)


def test_score_batch_scores_a_stack_as_its_rows(rng):
    m = LogisticModel(rng.normal(size=4))
    Z = rng.normal(size=(3, 6, 4))
    s = score_batch(m, Z)
    assert s.shape == (3, 6)
    for g in range(3):
        assert np.array_equal(s[g], score_batch(m, Z[g]))
    with pytest.raises(ValueError, match="input width 5"):
        score_batch(m, np.zeros((3, 6, 5)))


def test_score_batch_rejects_wrong_width():
    m = LogisticModel(np.zeros(3))
    with pytest.raises(ValueError):
        score_batch(m, np.zeros((2, 5)))


def test_train_recovers_signs():
    ds = _toy(4000)
    m = train_lr(ds, l2_strength=0.1)
    i0 = m.names.index("x0")
    i1 = m.names.index("x1")
    assert m.theta[i0] > 0 > m.theta[i1]
    assert m.converged


def test_train_gradient_vanishes_at_optimum():
    ds = _toy()
    m = train_lr(ds, l2_strength=1.0)
    Z = ds.design_matrix()
    penalize = np.ones(Z.shape[1])
    penalize[-1] = 0.0
    g = _nll_grad(m.theta, Z, ds.y.astype(float), 1.0, penalize)
    assert np.abs(g).max() < 1e-4


def test_nll_grad_matches_finite_differences():
    ds = _toy(50)
    Z = ds.design_matrix()
    penalize = np.ones(Z.shape[1])
    penalize[-1] = 0.0
    theta = np.random.default_rng(1).normal(size=Z.shape[1])
    fd = approx_fprime(theta, _nll, 1e-7, Z, ds.y.astype(float), 1.0, penalize)
    g = _nll_grad(theta, Z, ds.y.astype(float), 1.0, penalize)
    assert np.allclose(g, fd, rtol=1e-4, atol=1e-4)


def test_train_beats_zero_weights():
    ds = _toy()
    m = train_lr(ds)
    Z = ds.design_matrix()
    penalize = np.ones(Z.shape[1])
    penalize[-1] = 0.0
    y = ds.y.astype(float)
    assert _nll(m.theta, Z, y, 1.0, penalize) < _nll(np.zeros_like(m.theta),
                                                     Z, y, 1.0, penalize)


def test_train_deterministic():
    ds = _toy()
    assert np.array_equal(train_lr(ds).theta, train_lr(ds).theta)


def test_train_single_class_raises():
    ds = _toy()
    ds = Dataset(ds.A, ds.X, np.zeros(ds.n, dtype=int),
                 ds.feature_names, ds.sensitive_names, ds.sensitive_levels)
    with pytest.raises(DegenerateLabelsError):
        train_lr(ds)


def test_save_load_round_trip(tmp_path):
    m = LogisticModel(np.array([1.25, -3.5]), ["a", "intercept"], converged=False)
    p = tmp_path / "model.json"
    m.save(p)
    m2 = LogisticModel.load(p)
    assert np.array_equal(m.theta, m2.theta)
    assert m2.names == m.names
    assert m2.converged is False


def test_model_rejects_non_finite_weights():
    with pytest.raises(ValueError):
        LogisticModel(np.array([np.nan, 1.0]))
