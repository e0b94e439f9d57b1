"""Logistic model: training oracle checks, scoring, persistence."""
import subprocess
import sys
import warnings

import numpy as np
import pytest
from scipy.optimize import approx_fprime

from otfair import model as model_mod
from otfair.data import Dataset
from otfair.model import (DegenerateLabelsError, LogisticModel, score_batch,
                          sigmoid, train_lr, _nll, _nll_grad)
from oracles import sigmoid_two_branch, train_lr_lbfgsb, train_lr_two_sigmoids


def _toy(n=400, seed=0):
    rng = np.random.default_rng(seed)
    A = rng.integers(0, 2, size=(n, 1))
    X = rng.normal(size=(n, 2))
    logits = 1.5 * X[:, 0] - 1.0 * X[:, 1] + 0.5 * A[:, 0] - 0.2
    y = (rng.random(n) < sigmoid(logits)).astype(int)
    return Dataset(A, X, y, ["x0", "x1"], ["g"], [["a", "b"]])


def _with_zero_column(ds):
    X = np.column_stack([ds.X, np.zeros(ds.n)])
    return Dataset(ds.A, X, ds.y, [*ds.feature_names, "zero"], ds.sensitive_names,
                   ds.sensitive_levels)


def _separable(ds):
    return Dataset(ds.A, ds.X, (ds.X[:, 0] > 0).astype(int), ds.feature_names,
                   ds.sensitive_names, ds.sensitive_levels)


def _objective(ds, l2=1.0):
    """The (Z, y, l2, penalize) arguments of _nll and _nll_grad for ds."""
    Z = ds.design_matrix()
    penalize = np.ones(Z.shape[1])
    penalize[-1] = 0.0
    return Z, ds.y.astype(float), l2, penalize


@pytest.fixture(params=["toy", "census"])
def lr_data(request):
    """The toy data and the census fixture's training split."""
    if request.param == "toy":
        return _toy()
    return request.getfixturevalue("census_split")[0]


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


def test_train_gradient_vanishes_at_optimum(lr_data):
    m = train_lr(lr_data, l2_strength=1.0)
    assert np.abs(_nll_grad(m.theta, *_objective(lr_data))).max() <= 1e-8
    assert m.converged


def test_train_matches_the_lbfgsb_oracle(lr_data):
    m, oracle = train_lr(lr_data), train_lr_lbfgsb(lr_data)
    assert m.names == oracle.names
    assert np.abs(m.theta - oracle.theta).max() <= 1e-6
    args = _objective(lr_data)
    assert _nll(m.theta, *args) <= _nll(oracle.theta, *args) * (1.0 + 1e-9)


def test_train_stops_well_before_the_iteration_cap(census_split, monkeypatch):
    train, _ = census_split
    full = train_lr(train).theta.tobytes()
    monkeypatch.setattr(model_mod, "LR_MAX_ITERS", 10)
    assert train_lr(train).theta.tobytes() == full
    monkeypatch.setattr(model_mod, "LR_MAX_ITERS", 1)
    assert not train_lr(train).converged


@pytest.mark.parametrize("make,kwargs", [
    pytest.param(_toy, {}, id="toy"),
    pytest.param(lambda: _toy(4000), {"l2_strength": 0.1}, id="toy-4000-l2-0.1"),
    pytest.param(lambda: _with_zero_column(_toy()), {"l2_strength": 0.0},
                 id="zero-column-l2-0"),
    pytest.param(lambda: _separable(_toy()), {"l2_strength": 0.0}, id="separable-l2-0"),
    pytest.param(None, {}, id="census"),
    pytest.param(None, {"include_sensitive": False}, id="census-without-sensitive"),
])
def test_train_is_bit_identical_to_the_two_sigmoid_loop(census_split, make, kwargs):
    # Scoring the rows once per accepted theta, for both the gradient and the
    # Hessian, must not change a bit of the fit.
    ds = census_split[0] if make is None else make()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        m, ref = train_lr(ds, **kwargs), train_lr_two_sigmoids(ds, **kwargs)
    assert m.theta.tobytes() == ref.theta.tobytes()
    assert (m.names, m.converged) == (ref.names, ref.converged)


def test_nll_grad_matches_finite_differences():
    ds = _toy(50)
    Z, y, l2, penalize = _objective(ds)
    theta = np.random.default_rng(1).normal(size=Z.shape[1])
    fd = approx_fprime(theta, _nll, 1e-7, Z, y, l2, penalize)
    g = _nll_grad(theta, Z, y, l2, penalize)
    assert np.allclose(g, fd, rtol=1e-4, atol=1e-4)


def test_train_beats_zero_weights():
    ds = _toy()
    m = train_lr(ds)
    args = _objective(ds)
    assert _nll(m.theta, *args) < _nll(np.zeros_like(m.theta), *args)


def test_train_deterministic():
    ds = _toy()
    assert train_lr(ds).theta.tobytes() == train_lr(ds).theta.tobytes()


def test_train_without_penalty_keeps_an_all_zero_column_at_zero():
    ds = _with_zero_column(_toy())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        m = train_lr(ds, l2_strength=0.0)  # the Hessian is singular
    assert np.isfinite(m.theta).all()
    assert m.theta[m.names.index("zero")] == 0.0
    assert np.abs(_nll_grad(m.theta, *_objective(ds, 0.0))).max() <= 1e-8


def test_train_without_penalty_on_separable_data_returns_a_finite_model():
    ds = _separable(_toy())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        m = train_lr(ds, l2_strength=0.0)  # no finite optimum
    assert np.isfinite(m.theta).all()
    args = _objective(ds, 0.0)
    assert _nll(m.theta, *args) < _nll(np.zeros_like(m.theta), *args)


@pytest.mark.parametrize("l2", [-1.0, np.nan, np.inf])
def test_train_rejects_a_negative_or_non_finite_penalty(l2):
    with pytest.raises(ValueError, match=r"^lr_l2 must be finite and >= 0, got "):
        train_lr(_toy(), l2_strength=l2)


def test_importing_otfair_loads_no_scipy():
    code = ("import otfair.cli, sys; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"


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
