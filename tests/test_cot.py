"""Regularized-OT dual: conjugates, hand values, naive-loop oracles,
finite-difference gradient checks, and the alternating run loop."""
import re

import numpy as np
import pytest

from otfair import cot
from otfair.cot import (EXP_CLIP, DivergenceError, DualPair, OtConfig,
                        Regularizer, alpha, conjugate, cot_run,
                        dual_objective, dual_update, estimate_reg_w1,
                        group_step, theta_update)
from otfair.data import Dataset
from otfair.dot import dot_run
from otfair.metrics import EmpiricalDistribution
from otfair.model import LogisticModel, score_batch
from otfair.rff import DualPotential, RffMap, eval_features, eval_potential, \
    grad_potential_input, make_rff

from oracles import theta_gradient

ENT = Regularizer("entropy", 0.5)
L2 = Regularizer("l2", 0.5)


def _pair(D=6, seed=0, scale=0.1):
    m = make_rff(D, 0.1, seed)
    rng = np.random.default_rng(seed + 100)
    return DualPair(DualPotential(scale * rng.normal(size=D), m),
                    DualPotential(scale * rng.normal(size=D), m))


def test_regularizer_validation():
    with pytest.raises(ValueError):
        Regularizer("cubic", 1.0)
    with pytest.raises(ValueError):
        Regularizer("entropy", 0.0)


def test_conjugate_hand_values():
    assert conjugate(ENT, 0.0) == pytest.approx(1.0)
    assert conjugate(ENT, 1.0) == pytest.approx(np.e)
    assert conjugate(L2, 2.0) == pytest.approx(1.0)
    assert conjugate(L2, -3.0) == pytest.approx(0.0)


def test_conjugate_entropy_clips_large_arguments():
    assert np.isfinite(conjugate(ENT, 1e9))
    assert conjugate(ENT, 1e9) == pytest.approx(np.exp(EXP_CLIP))


def test_alpha_hand_values():
    # u = (pot_sum - cost) / strength
    assert alpha(ENT, 0.5, 0.0) == pytest.approx(np.e)
    assert alpha(L2, 1.0, 0.0) == pytest.approx(1.0)
    assert alpha(L2, 0.0, 1.0) == pytest.approx(0.0)


def test_dual_objective_hand_values():
    pair = DualPair.zeros(make_rff(4, 0.1, seed=0))
    reg = Regularizer("entropy", 1.0)
    # zero potentials, zero cost: 0 + 0 - 1 * exp(0)
    assert dual_objective(pair, reg, np.zeros(3), np.zeros(2)) == pytest.approx(-1.0)
    # zero potentials, unit cost: 0 + 0 - 1 * exp(-1)
    assert dual_objective(pair, reg, np.zeros(3), np.ones(2)) == pytest.approx(
        -np.exp(-1.0))


def test_dual_objective_l2_zero_potentials():
    pair = DualPair.zeros(make_rff(4, 0.1, seed=0))
    reg = Regularizer("l2", 1.0)
    # conjugate of a negative argument vanishes
    assert dual_objective(pair, reg, np.zeros(3), np.ones(2)) == pytest.approx(0.0)


def _naive_dual_grads(pair, reg, xs, ys, pair_mode):
    fx = eval_features(pair.score_side.map, xs)
    fy = eval_features(pair.target_side.map, ys)
    D = fx.shape[1]
    gx, gy = np.zeros(D), np.zeros(D)
    if pair_mode == "diagonal":
        for i in range(xs.size):
            pot = fx[i] @ pair.score_side.coeffs + fy[i] @ pair.target_side.coeffs
            a = alpha(reg, pot, abs(xs[i] - ys[i]))
            gx += (1.0 - a) * fx[i] / xs.size
            gy += (1.0 - a) * fy[i] / ys.size
        return gx, gy
    for i in range(xs.size):
        abar = np.mean([alpha(reg,
                              fx[i] @ pair.score_side.coeffs
                              + fy[j] @ pair.target_side.coeffs,
                              abs(xs[i] - ys[j]))
                        for j in range(ys.size)])
        gx += (1.0 - abar) * fx[i] / xs.size
    for j in range(ys.size):
        abar = np.mean([alpha(reg,
                              fx[i] @ pair.score_side.coeffs
                              + fy[j] @ pair.target_side.coeffs,
                              abs(xs[i] - ys[j]))
                        for i in range(xs.size)])
        gy += (1.0 - abar) * fy[j] / ys.size
    return gx, gy


@pytest.mark.parametrize("reg", [ENT, L2])
@pytest.mark.parametrize("pair_mode", ["full", "diagonal"])
def test_dual_update_matches_naive_loops(reg, pair_mode):
    rng = np.random.default_rng(4)
    pair = _pair()
    xs, ys = rng.uniform(0, 1, 5), rng.uniform(0, 1, 5)
    gx, gy = _naive_dual_grads(pair, reg, xs, ys, pair_mode)
    new = dual_update(pair, reg, xs, ys, 0.1, antisymmetric=False,
                      pair_mode=pair_mode)
    assert np.allclose(new.score_side.coeffs,
                       pair.score_side.coeffs + 0.1 * gx, atol=1e-12)
    assert np.allclose(new.target_side.coeffs,
                       pair.target_side.coeffs + 0.1 * gy, atol=1e-12)


@pytest.mark.parametrize("reg", [ENT, L2])
def test_dual_update_is_objective_gradient(reg):
    rng = np.random.default_rng(5)
    pair = _pair()
    xs, ys = rng.uniform(0, 1, 4), rng.uniform(0, 1, 3)
    new = dual_update(pair, reg, xs, ys, 1.0)
    step_x = new.score_side.coeffs - pair.score_side.coeffs
    step_y = new.target_side.coeffs - pair.target_side.coeffs
    h = 1e-6
    for d in range(pair.score_side.coeffs.size):
        for side, step in (("score_side", step_x), ("target_side", step_y)):
            def perturbed(delta):
                cx = pair.score_side.coeffs.copy()
                cy = pair.target_side.coeffs.copy()
                (cx if side == "score_side" else cy)[d] += delta
                p = DualPair(DualPotential(cx, pair.score_side.map),
                             DualPotential(cy, pair.target_side.map))
                return dual_objective(p, reg, xs, ys)
            fd = (perturbed(h) - perturbed(-h)) / (2 * h)
            assert step[d] == pytest.approx(fd, rel=1e-5, abs=1e-9)


def test_antisymmetric_ties_the_sides():
    rng = np.random.default_rng(6)
    pair = DualPair.zeros(make_rff(8, 0.1, seed=0))
    for _ in range(5):
        pair = dual_update(pair, ENT, rng.uniform(0, 1, 6),
                           rng.uniform(0, 1, 6), 0.05, antisymmetric=True)
    assert np.array_equal(pair.target_side.coeffs, -pair.score_side.coeffs)


def test_dual_update_rejects_empty_batches():
    pair = _pair()
    with pytest.raises(ValueError):
        dual_update(pair, ENT, np.array([]), np.ones(3), 0.1)
    with pytest.raises(ValueError):
        dual_objective(pair, ENT, np.ones(3), np.array([]))


@pytest.mark.parametrize("reg", [ENT, L2])
def test_dual_update_nan_score_is_divergence(reg):
    with pytest.raises(DivergenceError, match="pairing weights"):
        dual_update(_pair(), reg, np.array([0.2, np.nan]), np.ones(2), 0.1)


def test_diagonal_requires_equal_batches():
    pair = _pair()
    with pytest.raises(ValueError):
        dual_update(pair, ENT, np.ones(3), np.ones(4), 0.1, pair_mode="diagonal")


def _mc_objective(model, pair, Z, sbar, reg, pair_mode):
    s = score_batch(model, Z)
    lx = np.array([eval_potential(pair.score_side, float(v)) for v in s])
    ly = np.array([eval_potential(pair.target_side, float(v)) for v in sbar])
    if pair_mode == "diagonal":
        u = (lx + ly - np.abs(s - sbar)) / reg.strength
    else:
        u = (lx[:, None] + ly[None, :]
             - np.abs(s[:, None] - sbar[None, :])) / reg.strength
    return lx.mean() + ly.mean() - reg.strength * conjugate(reg, u).mean()


def _naive_theta_gradient(model, pair, Z, sbar, reg):
    grad = np.zeros_like(model.theta)
    s = score_batch(model, Z)
    for i in range(Z.shape[0]):
        for j in range(sbar.size):
            pot = (eval_potential(pair.score_side, float(s[i]))
                   + eval_potential(pair.target_side, float(sbar[j])))
            a = alpha(reg, pot, abs(s[i] - sbar[j]))
            w = ((1.0 - a) * grad_potential_input(pair.score_side, float(s[i]))
                 + a * np.sign(s[i] - sbar[j]))
            grad += w * s[i] * (1.0 - s[i]) * Z[i]
    return grad


@pytest.mark.parametrize("reg", [ENT, L2])
def test_theta_update_matches_naive_triple_loop(reg):
    rng = np.random.default_rng(7)
    model = LogisticModel(rng.normal(size=3) * 0.5)
    pair = _pair()
    Z = rng.normal(size=(4, 3))
    sbar = rng.uniform(0.1, 0.9, 3)
    expect = _naive_theta_gradient(model, pair, Z, sbar, reg)
    grad = theta_gradient(model, {("g",): pair}, {("g",): Z}, sbar, reg, "full")
    new = theta_update(model, grad, 0.01)
    assert np.allclose(new.theta, model.theta - 0.01 * expect, atol=1e-12)


@pytest.mark.parametrize("reg", [ENT, L2])
@pytest.mark.parametrize("pair_mode", ["full", "diagonal"])
def test_theta_gradient_matches_finite_differences(reg, pair_mode):
    rng = np.random.default_rng(8)
    model = LogisticModel(rng.normal(size=3) * 0.5)
    pair = _pair()
    Z = rng.normal(size=(4, 3))
    sbar = rng.uniform(0.1, 0.9, 4)
    pairs_norm = Z.shape[0] * sbar.size if pair_mode == "full" else Z.shape[0]
    grad = theta_gradient(model, {("g",): pair}, {("g",): Z}, sbar, reg,
                          pair_mode) / pairs_norm
    h = 1e-6
    for d in range(3):
        def shifted(delta):
            t = model.theta.copy()
            t[d] += delta
            return _mc_objective(LogisticModel(t), pair, Z, sbar, reg, pair_mode)
        fd = (shifted(h) - shifted(-h)) / (2 * h)
        # descent direction on the objective value being transported down
        assert grad[d] == pytest.approx(fd, rel=1e-4, abs=1e-8)


def test_theta_update_width_mismatch():
    model = LogisticModel(np.zeros(3))
    with pytest.raises(ValueError):
        theta_gradient(model, {("g",): _pair()}, {("g",): np.zeros((2, 5))},
                       np.array([0.5]), ENT, "full")
    with pytest.raises(ValueError):
        theta_update(model, np.zeros(5), 0.01)


def test_theta_update_non_finite_gradient_is_divergence():
    with pytest.raises(DivergenceError, match="gradient"):
        theta_update(LogisticModel(np.zeros(3)), np.array([0.0, np.nan, 1.0]),
                     0.01)


@pytest.mark.parametrize("reg", [ENT, L2])
@pytest.mark.parametrize("pair_mode", ["full", "diagonal"])
@pytest.mark.parametrize("antisymmetric", [False, True])
def test_group_step_is_update_then_objective_then_gradient(reg, pair_mode,
                                                           antisymmetric):
    rng = np.random.default_rng(9)
    model = LogisticModel(rng.normal(size=3) * 0.5)
    pair = _pair()
    Z = rng.normal(size=(5, 3))
    sbar = rng.uniform(0.1, 0.9, 5)
    s = score_batch(model, Z)
    new, obj, term = group_step(pair, reg, Z, s, sbar, 0.1, antisymmetric,
                                pair_mode)
    expect = dual_update(pair, reg, s, sbar, 0.1, antisymmetric, pair_mode)
    assert np.array_equal(new.score_side.coeffs, expect.score_side.coeffs)
    assert np.array_equal(new.target_side.coeffs, expect.target_side.coeffs)
    assert obj == dual_objective(expect, reg, s, sbar, pair_mode)
    assert np.array_equal(term, theta_gradient(model, {0: expect}, {0: Z},
                                               sbar, reg, pair_mode))


def _stack(pairs):
    maps = [p.score_side.map for p in pairs]
    m = RffMap(np.stack([q.omegas for q in maps]),
               np.stack([q.phases for q in maps]), maps[0].sigma2)
    return DualPair(
        DualPotential(np.stack([p.score_side.coeffs for p in pairs]), m),
        DualPotential(np.stack([p.target_side.coeffs for p in pairs]), m))


@pytest.mark.parametrize("reg", [ENT, L2])
@pytest.mark.parametrize("pair_mode", ["full", "diagonal"])
@pytest.mark.parametrize("antisymmetric", [False, True])
def test_stacked_group_step_equals_the_step_of_each_group(reg, pair_mode,
                                                          antisymmetric):
    rng = np.random.default_rng(10)
    model = LogisticModel(rng.normal(size=3) * 0.5)
    pairs = [_pair(seed=g, scale=0.3) for g in range(4)]
    Z = rng.normal(size=(4, 6, 3))
    s = np.stack([score_batch(model, Zg) for Zg in Z])
    sbar = rng.uniform(0.1, 0.9, 6)
    new, obj, term = group_step(_stack(pairs), reg, Z, s, sbar, 0.1,
                                antisymmetric, pair_mode)
    assert obj.shape == (4,) and term.shape == (4, 3)
    for g, pair in enumerate(pairs):
        one, one_obj, one_term = group_step(pair, reg, Z[g], s[g], sbar, 0.1,
                                            antisymmetric, pair_mode)
        assert np.array_equal(new.score_side.coeffs[g], one.score_side.coeffs)
        assert np.array_equal(new.target_side.coeffs[g],
                              one.target_side.coeffs)
        assert obj[g] == one_obj
        assert np.array_equal(term[g], one_term)


def test_dual_update_non_finite_coefficients_is_divergence():
    with pytest.raises(DivergenceError, match="dual coefficients"):
        dual_update(_pair(), ENT, np.array([0.2, 0.4]), np.array([0.7, 0.9]),
                    np.inf)


def test_config_validation():
    with pytest.raises(ValueError):
        OtConfig(batch_scores=0)
    with pytest.raises(ValueError):
        OtConfig(pair_mode="grid")
    with pytest.raises(ValueError):
        OtConfig(pair_mode="diagonal", batch_scores=8, batch_target=16)
    for bad in ({"D": 0}, {"sigma2": 0.0}, {"sigma2": np.nan},
                {"eps_dual": 0.0}, {"eps_dual": -0.01}, {"eps_theta": -1.0},
                {"num_updates": 0}, {"num_updates": -5}):
        with pytest.raises(ValueError, match=next(iter(bad))):
            OtConfig(**bad)
    with pytest.raises(ValueError, match="strength"):
        Regularizer("entropy", np.nan)


def test_estimate_reg_w1_deterministic():
    cfg = OtConfig(reg=Regularizer("entropy", 0.05), num_updates=200,
                   batch_scores=16, batch_target=16, seed=3)
    sampler = lambda r, n: r.uniform(0, 1, n)
    v1, p1 = estimate_reg_w1(sampler, sampler, cfg)
    v2, p2 = estimate_reg_w1(sampler, sampler, cfg)
    assert v1 == v2
    assert np.array_equal(p1.score_side.coeffs, p2.score_side.coeffs)


def test_estimate_reg_w1_diverges_with_huge_step():
    cfg = OtConfig(reg=Regularizer("entropy", 0.01), eps_dual=50.0,
                   num_updates=2000, batch_scores=8, batch_target=8, seed=0)
    with pytest.raises(DivergenceError):
        estimate_reg_w1(lambda r, n: np.zeros(n), lambda r, n: np.ones(n), cfg)


def _tiny_dataset(seed=0, n=80):
    rng = np.random.default_rng(seed)
    A = rng.integers(0, 2, size=(n, 1))
    X = rng.normal(size=(n, 2))
    y = (rng.random(n) < 0.3 + 0.4 * A[:, 0]).astype(int)
    y[:2] = [0, 1]  # keep both classes present
    return Dataset(A, X, y, ["x0", "x1"], ["g"], [["a", "b"]])


def test_cot_run_traces_and_is_deterministic():
    ds = _tiny_dataset()
    model = LogisticModel(np.array([0.2, 0.5, -0.5, 0.0]))
    target = EmpiricalDistribution(np.linspace(0.1, 0.9, 40))
    cfg = OtConfig(num_updates=30, batch_scores=8, batch_target=8, seed=1)
    m1, trace, pairs = cot_run(model, ds, target, cfg, trace_every=10)
    assert [r["update"] for r in trace] == [0, 10, 20, 30]
    assert set(pairs) == set(ds.group_keys)
    for key in ("wass1", "err05", "sdd", "spdd"):
        assert all(np.isfinite(r[key]) for r in trace)
    m2, trace2, _ = cot_run(model, ds, target, cfg, trace_every=10)
    assert np.array_equal(m1.theta, m2.theta)
    assert trace == trace2


def test_cot_run_over_phases():
    ds1, ds2 = _tiny_dataset(0), _tiny_dataset(1)
    model = LogisticModel(np.array([0.2, 0.5, -0.5, 0.0]))
    target = EmpiricalDistribution(np.linspace(0.1, 0.9, 40))
    cfg = OtConfig(num_updates=20, batch_scores=8, batch_target=8, seed=1)
    _, trace, _ = cot_run(model, [(ds1, 10), (ds2, 10)], target, cfg,
                          trace_every=5)
    assert trace[-1]["update"] == 20


def test_cot_run_nan_objective_names_the_update(monkeypatch):
    # The fit calls alpha twice per update, for all groups at once: on the
    # old potentials (ascent), then on the new ones, where the entropy
    # objective takes its penalty from it; a NaN there makes the objectives
    # NaN.
    real, calls = cot.alpha, []

    def nan_on_fourth(*args):
        calls.append(1)
        out = real(*args)
        return out * np.nan if len(calls) == 4 else out

    monkeypatch.setattr(cot, "alpha", nan_on_fourth)
    ds = _tiny_dataset()  # the fourth call is on update 2's new potentials
    model = LogisticModel(np.array([0.2, 0.5, -0.5, 0.0]))
    target = EmpiricalDistribution(np.linspace(0.1, 0.9, 40))
    cfg = OtConfig(num_updates=5, batch_scores=8, batch_target=8, seed=1)
    with pytest.raises(DivergenceError, match=r"update 2\b.*dual objective"):
        cot_run(model, ds, target, cfg)


def test_cot_run_non_finite_dual_coefficients_names_the_update(monkeypatch):
    # After two updates the dual step becomes infinite, so the third
    # ascent yields non-finite coefficients.
    cfg = OtConfig(num_updates=5, batch_scores=8, batch_target=8, seed=1)
    real, calls = cot.theta_update, []

    def blow_up_after_second(*args):
        calls.append(1)
        if len(calls) == 2:
            cfg.eps_dual = np.inf
        return real(*args)

    monkeypatch.setattr(cot, "theta_update", blow_up_after_second)
    model = LogisticModel(np.array([0.2, 0.5, -0.5, 0.0]))
    target = EmpiricalDistribution(np.linspace(0.1, 0.9, 40))
    with pytest.raises(DivergenceError, match=r"update 3\b.*dual coefficients"):
        cot_run(model, _tiny_dataset(), target, cfg)


def _three_level_dataset(codes, seed=0, n=40):
    """Groups of the given codes of one sensitive column with levels a, b, c."""
    rng = np.random.default_rng(seed)
    A = np.resize(np.asarray(codes), n)[:, None]
    y = (rng.random(n) < 0.5).astype(int)
    y[:2] = [0, 1]
    return Dataset(A, rng.normal(size=(n, 2)), y, ["x0", "x1"], ["g"],
                   [["a", "b", "c"]])


@pytest.mark.parametrize("later", [[0, 2], [0]])
def test_cot_run_rejects_a_phase_with_other_groups(later):
    # Dual pairs are kept across phases, so each phase must have the first
    # phase's groups; a different set would silently get other groups' maps.
    phases = [(_three_level_dataset([0, 1]), 3),
              (_three_level_dataset(later, seed=1), 3)]
    model = LogisticModel(np.zeros(5))
    target = EmpiricalDistribution(np.linspace(0.1, 0.9, 40))
    cfg = OtConfig(D=8, num_updates=6, batch_scores=4, batch_target=4, seed=1)
    first = r"\[\(0,\), \(1,\)\]"
    other = re.escape(str([(c,) for c in later]))
    with pytest.raises(ValueError, match=f"{other}.*{first}"):
        cot_run(model, phases, target, cfg, trace_every=1)


def _count_feature_calls(monkeypatch, levels):
    """Shapes of the inputs cot_run passes to eval_features in a 7-update
    fit of `levels` groups, batches of 4 scores and 3 target samples."""
    real, calls = cot.eval_features, []

    def counted(rff_map, x):
        calls.append(np.shape(x))
        return real(rff_map, x)

    monkeypatch.setattr(cot, "eval_features", counted)
    ds = _grid_dataset(levels, 1, per_group=6)
    assert len(ds.group_keys) == levels
    model = LogisticModel(np.zeros(len(ds.design_names())))
    target = EmpiricalDistribution(np.linspace(0.1, 0.9, 40))
    cfg = OtConfig(D=8, num_updates=7, batch_scores=4, batch_target=3, seed=2)
    cot_run(model, ds, target, cfg, trace_every=3)
    return calls


@pytest.mark.parametrize("levels", [2, 5])
def test_cot_run_evaluates_features_twice_per_update(monkeypatch, levels):
    # One evaluation of the 40 target samples for the fit's feature table,
    # then one score-batch evaluation per update for all groups at once.
    assert _count_feature_calls(monkeypatch, levels) == (
        [(40,)] + [(levels, 4)] * 7)


@pytest.mark.parametrize("levels", [2, 5])
def test_cot_run_above_the_table_bound_evaluates_each_target_batch(
        monkeypatch, levels):
    # No table: a score-batch and a target-batch evaluation per update.
    monkeypatch.setattr(cot, "TARGET_TABLE_BYTES", 0)
    assert _count_feature_calls(monkeypatch, levels) == (
        [(levels, 4), (3,)] * 7)


def _grid_dataset(levels_a=9, levels_b=8, per_group=3, seed=0):
    """One group per combination of two sensitive columns."""
    rng = np.random.default_rng(seed)
    combos = [(a, b) for a in range(levels_a) for b in range(levels_b)]
    A = np.repeat(np.array(combos), per_group, axis=0)
    n = A.shape[0]
    X = rng.normal(size=(n, 2))
    y = (rng.random(n) < 0.5).astype(int)
    return Dataset(A, X, y, ["x0", "x1"], ["a", "b"],
                   [[f"a{i}" for i in range(levels_a)],
                    [f"b{i}" for i in range(levels_b)]])


def test_cot_run_fits_more_than_64_groups():
    ds = _grid_dataset()
    assert len(ds.group_keys) == 72
    model = LogisticModel(np.zeros(len(ds.design_names())))
    target = EmpiricalDistribution(np.linspace(0.1, 0.9, 40))
    cfg = OtConfig(D=8, num_updates=2, batch_scores=4, batch_target=4, seed=2)
    fitted, trace, pairs = cot_run(model, ds, target, cfg, trace_every=1)
    assert list(pairs) == ds.group_keys
    assert len({p.score_side.map.omegas.tobytes() for p in pairs.values()}) == 72
    assert np.isfinite(fitted.theta).all()
    assert [row["update"] for row in trace] == [0, 1, 2]


def test_cot_map_seeds_match_the_spawned_children():
    # Group i's map comes from child i + 1 of SeedSequence(cfg.seed), as
    # when the seeds were spawn(65)[1:]; fits of up to 64 groups are unchanged.
    ds = _grid_dataset(8, 8)
    model = LogisticModel(np.zeros(len(ds.design_names())))
    target = EmpiricalDistribution(np.linspace(0.1, 0.9, 40))
    cfg = OtConfig(D=8, num_updates=1, batch_scores=4, batch_target=4, seed=7)
    _, _, pairs = cot_run(model, ds, target, cfg, trace_every=1)
    spawned = np.random.SeedSequence(cfg.seed).spawn(65)[1:]
    for i in (0, 1, 5, 63):
        expect = make_rff(cfg.D, cfg.sigma2, spawned[i])
        got = pairs[ds.group_keys[i]].score_side.map
        assert np.array_equal(got.omegas, expect.omegas)
        assert np.array_equal(got.phases, expect.phases)


@pytest.mark.parametrize("trace_every", [0, -3])
def test_fit_rejects_trace_every_below_one(trace_every):
    model = LogisticModel(np.array([0.2, 0.5, -0.5, 0.0]))
    target = EmpiricalDistribution(np.linspace(0.1, 0.9, 40))
    cfg = OtConfig(num_updates=5, batch_scores=8, batch_target=8, seed=1)
    for run in (cot_run, dot_run):
        with pytest.raises(ValueError, match="trace_every"):
            run(model, _tiny_dataset(), target, cfg, trace_every=trace_every)


class _EmptyTarget:
    n = 0


def test_cot_run_rejects_empty_target():
    ds = _tiny_dataset()
    model = LogisticModel(np.array([0.2, 0.5, -0.5, 0.0]))
    with pytest.raises(ValueError):
        cot_run(model, ds, _EmptyTarget(), OtConfig())
