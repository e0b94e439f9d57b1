"""The per-fit target-feature table of cot_run and the entropy objective's
reuse of alpha: both must give the bits of the per-batch arithmetic."""
import numpy as np
import pytest

from otfair import cot
from otfair.cot import (EXP_CLIP, OtConfig, Regularizer, _objective,
                        _target_features, alpha, conjugate, cot_run)
from otfair.data import Dataset
from otfair.metrics import EmpiricalDistribution
from otfair.model import LogisticModel
from otfair.rff import RffMap, eval_features, make_rff

ENT = Regularizer("entropy", 0.05)
L2 = Regularizer("l2", 0.05)


def _stacked_map(G, D, seed=0):
    maps = [make_rff(D, 0.1, np.random.SeedSequence(seed, spawn_key=(g,)))
            for g in range(G)]
    return RffMap(np.stack([m.omegas for m in maps]),
                  np.stack([m.phases for m in maps]), 0.1)


@pytest.mark.parametrize("G", [None, 4])
def test_table_gather_equals_the_evaluation_of_the_batch(G):
    rng = np.random.default_rng(5)
    rff_map = make_rff(100, 0.1, 3) if G is None else _stacked_map(G, 100)
    samples = np.sort(rng.uniform(0.0, 1.0, 1000))
    table = eval_features(rff_map, samples)
    for _ in range(2000):
        idx = rng.integers(0, samples.size, rng.integers(1, 129))
        got = _target_features(table, idx)
        expect = eval_features(rff_map, samples[idx])
        assert got.flags["C_CONTIGUOUS"]
        assert np.array_equal(got, expect)


@pytest.mark.parametrize("strength", [0.01, 0.05, 0.3, 2.0])
def test_entropy_penalty_from_alpha_equals_the_conjugate(strength):
    reg = Regularizer("entropy", strength)
    rng = np.random.default_rng(6)
    pot = rng.normal(0.0, 2.0, (3, 64, 64))
    pot[0, 0, :8] = [40.0, -40.0, 1e3, -1e3, EXP_CLIP * strength, 0.0, 1e-300,
                     -1e-300]  # clipped, underflowing and boundary arguments
    cost = np.abs(rng.normal(0.0, 1.0, (64, 64)))
    penalty = reg.strength * conjugate(reg, (pot - cost) / reg.strength)
    assert np.array_equal(reg.strength * alpha(reg, pot, cost), penalty)


@pytest.mark.parametrize("reg", [ENT, L2])
@pytest.mark.parametrize("pair_mode", ["full", "diagonal"])
def test_objective_given_alpha_is_the_objective(reg, pair_mode):
    rng = np.random.default_rng(7)
    lx, ly = rng.normal(size=(3, 16)), rng.normal(size=(3, 16))
    pot = (lx + ly if pair_mode == "diagonal"
           else lx[..., None] + ly[..., None, :])
    cost = np.abs(rng.normal(size=pot.shape[-1:] if pair_mode == "diagonal"
                             else pot.shape[-2:]))
    a = alpha(reg, pot, cost)
    assert np.array_equal(_objective(reg, lx, ly, pot, cost, pair_mode, a),
                          _objective(reg, lx, ly, pot, cost, pair_mode))


def _dataset(seed, n=120):
    rng = np.random.default_rng(seed)
    A = rng.integers(0, 3, size=(n, 1))
    A[:3, 0] = [0, 1, 2]  # every group present in every phase
    X = rng.normal(size=(n, 2))
    y = (rng.random(n) < 0.3 + 0.2 * A[:, 0]).astype(int)
    return Dataset(A, X, y, ["x0", "x1"], ["g"], [["a", "b", "c"]])


def _fit(monkeypatch, bound, data, cfg, target):
    """cot_run under the given table bound; also returns the byte sizes of
    the tables the step gathered from."""
    real, tables = cot._target_features, []

    def spy(table, idx):
        tables.append(table.nbytes)
        return real(table, idx)

    model = LogisticModel(np.array([0.2, 0.5, -0.5, 0.1, -0.1]))
    with monkeypatch.context() as mp:
        mp.setattr(cot, "TARGET_TABLE_BYTES", bound)
        mp.setattr(cot, "_target_features", spy)
        return cot_run(model, data, target, cfg, trace_every=4), tables


@pytest.mark.parametrize("reg", [ENT, L2])
@pytest.mark.parametrize("pair_mode", ["full", "diagonal"])
@pytest.mark.parametrize("drift", [False, True])
def test_table_and_per_batch_fits_are_identical(monkeypatch, reg, pair_mode,
                                                drift):
    data = ([(_dataset(0), 7), (_dataset(1), 6), (_dataset(2), 7)] if drift
            else _dataset(0))
    target = EmpiricalDistribution(np.random.default_rng(8).uniform(0, 1, 150))
    cfg = OtConfig(reg=reg, D=16, num_updates=20, batch_scores=8,
                   batch_target=8, pair_mode=pair_mode, seed=4)
    size = 3 * target.n * cfg.D * 8  # G * n_t * D float64s
    (model, trace, pairs), tables = _fit(monkeypatch, size, data, cfg, target)
    assert tables == [size] * cfg.num_updates
    for bound in (size - 1, 0):
        (m2, trace2, pairs2), tables2 = _fit(monkeypatch, bound, data, cfg,
                                             target)
        assert tables2 == []
        assert np.array_equal(model.theta, m2.theta)
        assert trace == trace2
        assert list(pairs) == list(pairs2)
        for key, pair in pairs.items():
            for side in ("score_side", "target_side"):
                assert (getattr(pair, side).coeffs.tobytes()
                        == getattr(pairs2[key], side).coeffs.tobytes())


def test_the_default_bound_holds_the_barycenter_table():
    # 4 groups and a 1000-point barycenter target at the default D.
    assert 4 * 1000 * OtConfig().D * 8 <= cot.TARGET_TABLE_BYTES
