"""The fit loop COT and DOT share, against the two loops it replaced.

The reference loops below are the earlier separate `cot_run` / `dot_run`
bodies, with the removed resume and dual-reset options fixed at the only
values any caller used. The COT reference carries its own copy of the
earlier per-update arithmetic (three feature passes per group: ascent,
objective, parameter gradient), so it does not share code with the fused
step it checks. The DOT reference likewise couples with the merge loop of
tests/oracles.py, accumulates the gradient weights with np.add.at and
re-scores each batch inside the gradient. The shared loop must reproduce
them bit for bit.
"""
import numpy as np
import pytest

from otfair import cot, dot
from otfair.cot import (COT_EPS_THETA, DivergenceError, DualPair, OtConfig,
                        Regularizer, _iter_phases, alpha, conjugate, cot_run)
from otfair.data import Dataset
from otfair.dot import DOT_EPS_THETA, dot_run
from otfair.metrics import (EmpiricalDistribution, err_at_threshold, sdd, spdd,
                            wasserstein1_1d)
from otfair.model import LogisticModel, score_batch
from otfair.rff import (DualPotential, eval_features, grad_potential_input,
                        make_rff)

from oracles import estimate_reg_w1, loop_coupling_1d


def ref_pot_sum_and_cost(pair, xs, ys, pair_mode):
    fx = eval_features(pair.score_side.map, xs)
    fy = eval_features(pair.target_side.map, ys)
    lx = fx @ pair.score_side.coeffs
    ly = fy @ pair.target_side.coeffs
    if pair_mode == "diagonal":
        return fx, fy, lx + ly, np.abs(xs - ys)
    return fx, fy, lx[:, None] + ly[None, :], np.abs(xs[:, None] - ys[None, :])


def ref_dual_objective(pair, reg, xs, ys, pair_mode="full"):
    xs = np.asarray(xs, dtype=float).ravel()
    ys = np.asarray(ys, dtype=float).ravel()
    fx, fy, pot, cost = ref_pot_sum_and_cost(pair, xs, ys, pair_mode)
    penalty = reg.strength * conjugate(reg, (pot - cost) / reg.strength)
    lx = fx @ pair.score_side.coeffs
    ly = fy @ pair.target_side.coeffs
    return float(lx.mean() + ly.mean() - penalty.mean())


def ref_dual_update(pair, reg, xs, ys, eps_dual, antisymmetric=False,
                    pair_mode="full"):
    xs = np.asarray(xs, dtype=float).ravel()
    ys = np.asarray(ys, dtype=float).ravel()
    fx, fy, pot, cost = ref_pot_sum_and_cost(pair, xs, ys, pair_mode)
    a = alpha(reg, pot, cost)
    if pair_mode == "diagonal":
        gx = (1.0 - a) @ fx / xs.size
        gy = (1.0 - a) @ fy / ys.size
    else:
        gx = (1.0 - a.mean(axis=1)) @ fx / xs.size
        gy = (1.0 - a.mean(axis=0)) @ fy / ys.size
    if antisymmetric:
        cx = pair.score_side.coeffs + eps_dual * (gx - gy)
        cy = -cx
    else:
        cx = pair.score_side.coeffs + eps_dual * gx
        cy = pair.target_side.coeffs + eps_dual * gy
    return DualPair(DualPotential(cx, pair.score_side.map),
                    DualPotential(cy, pair.target_side.map))


def ref_theta_gradient(model, pairs, batches, target_scores, reg, pair_mode):
    sbar = np.asarray(target_scores, dtype=float).ravel()
    grad = np.zeros_like(model.theta)
    for key, Z in batches.items():
        pair = pairs[key]
        s = score_batch(model, Z)
        _, _, pot, cost = ref_pot_sum_and_cost(pair, s, sbar, pair_mode)
        a = alpha(reg, pot, cost)
        dlam = grad_potential_input(pair.score_side, s)
        if pair_mode == "diagonal":
            sign = np.sign(s - sbar)
            w = (1.0 - a) * dlam + a * sign
        else:
            sign = np.sign(s[:, None] - sbar[None, :])
            w = (1.0 - a).sum(axis=1) * dlam + (a * sign).sum(axis=1)
        grad += Z.T @ (w * s * (1.0 - s))
    return grad


def ref_theta_update(model, pairs, batches, target_scores, reg, eps_theta,
                     pair_mode):
    grad = ref_theta_gradient(model, pairs, batches, target_scores, reg,
                              pair_mode)
    assert np.isfinite(grad).all()
    return LogisticModel(model.theta - eps_theta * grad, model.names,
                         model.converged)


def _ref_eval_row(update, model, eval_data, target, include_sensitive, objs):
    Z = eval_data.design_matrix(include_sensitive=include_sensitive)
    s = score_batch(model, Z)
    group_dists = {k: EmpiricalDistribution(s[idx])
                   for k, idx in eval_data.groups.items()}
    row = {
        "update": update,
        "wass1": sum(wasserstein1_1d(g, target) for g in group_dists.values()),
        "err05": err_at_threshold(s, eval_data.y),
        "sdd": sdd(group_dists),
        "spdd": spdd(group_dists),
    }
    for k in sorted(objs):
        row[f"obj_{'_'.join(map(str, k))}"] = objs[k]
    return row


def ref_cot_run(model, data, target, cfg, trace_every, include_sensitive=True):
    eps_theta = COT_EPS_THETA if cfg.eps_theta is None else cfg.eps_theta
    stream_seed, *map_seeds = np.random.SeedSequence(cfg.seed).spawn(65)
    rng = np.random.default_rng(stream_seed)
    pairs, trace, objs = {}, [], {}
    k_total = 0
    for phase_data, duration, phase_eval in _iter_phases(data):
        keys = phase_data.group_keys
        if not pairs:
            for i, key in enumerate(keys):
                pairs[key] = DualPair.zeros(make_rff(cfg.D, cfg.sigma2, map_seeds[i]))
        group_Z = {key: phase_data.design_matrix(
                       phase_data.groups[key], include_sensitive=include_sensitive)
                   for key in keys}
        ev = phase_eval if phase_eval is not None else phase_data
        if k_total == 0:
            trace.append(_ref_eval_row(0, model, ev, target, include_sensitive, objs))
        steps = duration if duration is not None else cfg.num_updates - k_total
        steps = min(steps, cfg.num_updates - k_total)
        for _ in range(steps):
            k_total += 1
            sbar = target.samples[rng.integers(0, target.n, cfg.batch_target)]
            batches = {}
            for key in keys:
                Zg = group_Z[key]
                Z = Zg[rng.integers(0, Zg.shape[0], cfg.batch_scores)]
                s = score_batch(model, Z)
                pairs[key] = ref_dual_update(pairs[key], cfg.reg, s, sbar,
                                             cfg.eps_dual, cfg.antisymmetric,
                                             cfg.pair_mode)
                objs[key] = ref_dual_objective(pairs[key], cfg.reg, s, sbar,
                                               cfg.pair_mode)
                if abs(objs[key]) > 1e12:
                    raise DivergenceError("dual objective diverged")
                batches[key] = Z
            pairing_count = (cfg.batch_scores * cfg.batch_target
                             if cfg.pair_mode == "full" else cfg.batch_scores)
            model = ref_theta_update(model, pairs, batches, sbar, cfg.reg,
                                     eps_theta / pairing_count, cfg.pair_mode)
            if np.abs(model.theta).max() > 1e12:
                raise DivergenceError("model parameters diverged")
            if k_total % trace_every == 0:
                trace.append(_ref_eval_row(k_total, model, ev, target,
                                           include_sensitive, objs))
        if k_total >= cfg.num_updates:
            break
    return model, trace, pairs


def ref_dot_theta_update(model, couplings, batches, target_scores, eps_theta):
    sbar = np.asarray(target_scores, dtype=float).ravel()
    grad = np.zeros_like(model.theta)
    for key, Z in batches.items():
        rows, cols, mass = couplings[key]
        s = score_batch(model, Z)
        sign = np.sign(s[rows] - sbar[cols])
        w = np.zeros(s.size)
        np.add.at(w, rows, mass * sign)
        grad += Z.T @ (w * s * (1.0 - s))
    assert np.isfinite(grad).all()
    return LogisticModel(model.theta - eps_theta * grad, model.names,
                         model.converged)


def ref_dot_run(model, data, target, cfg, trace_every, include_sensitive=True):
    eps_theta = DOT_EPS_THETA if cfg.eps_theta is None else cfg.eps_theta
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed).spawn(1)[0])
    trace = []
    k_total = 0
    for phase_data, duration, phase_eval in _iter_phases(data):
        keys = phase_data.group_keys
        group_Z = {key: phase_data.design_matrix(
                       phase_data.groups[key], include_sensitive=include_sensitive)
                   for key in keys}
        ev = phase_eval if phase_eval is not None else phase_data
        if k_total == 0:
            trace.append(_ref_eval_row(0, model, ev, target, include_sensitive, {}))
        steps = duration if duration is not None else cfg.num_updates - k_total
        steps = min(steps, cfg.num_updates - k_total)
        for _ in range(steps):
            k_total += 1
            sbar = target.samples[rng.integers(0, target.n, cfg.batch_target)]
            couplings, batches = {}, {}
            for key in keys:
                Zg = group_Z[key]
                Z = Zg[rng.integers(0, Zg.shape[0], cfg.batch_scores)]
                s = score_batch(model, Z)
                couplings[key] = loop_coupling_1d(s, sbar)
                batches[key] = Z
            model = ref_dot_theta_update(model, couplings, batches, sbar,
                                         eps_theta)
            if np.abs(model.theta).max() > 1e12:
                raise DivergenceError("model parameters diverged")
            if k_total % trace_every == 0:
                trace.append(_ref_eval_row(k_total, model, ev, target,
                                           include_sensitive, {}))
        if k_total >= cfg.num_updates:
            break
    return model, trace


def _dataset(seed, n=120):
    """Three groups from one sensitive column, two features."""
    rng = np.random.default_rng(seed)
    A = rng.integers(0, 3, size=(n, 1))
    X = rng.normal(size=(n, 2))
    y = (rng.random(n) < 0.2 + 0.25 * A[:, 0]).astype(int)
    y[:2] = [0, 1]
    return Dataset(A, X, y, ["x0", "x1"], ["g"], [["a", "b", "c"]])


MODEL = LogisticModel(np.array([0.3, -0.2, 0.5, -0.5, 0.1]))
TARGET = EmpiricalDistribution(np.linspace(0.1, 0.9, 40))


def _data(shape):
    """One dataset, or phases without / with their own held-out sets; the
    phases last 8 + 20 updates, so a 22-update fit stops inside the second."""
    if shape == "dataset":
        return _dataset(0)
    ds1, ds2 = _dataset(1), _dataset(2)
    if shape == "phases":
        return [(ds1, 8), (ds2, 20)]
    return [(ds1, 8, _dataset(3)), (ds2, 20, _dataset(4))]


def _rows(trace):
    return [list(row.items()) for row in trace]


COT_CONFIGS = {
    "full-entropy": {},
    "diagonal-entropy": {"pair_mode": "diagonal"},
    "full-l2": {"reg": Regularizer("l2", 0.1)},
    "full-entropy-not-antisymmetric": {"antisymmetric": False},
    "diagonal-l2-not-antisymmetric": {"pair_mode": "diagonal",
                                      "reg": Regularizer("l2", 0.1),
                                      "antisymmetric": False},
}
SHAPES = ["dataset", "phases", "phases-with-eval"]


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("name", sorted(COT_CONFIGS))
def test_cot_run_matches_the_reference_loop(name, shape):
    cfg = OtConfig(D=12, num_updates=22, batch_scores=8, batch_target=8, seed=4,
                   **COT_CONFIGS[name])
    model, trace, pairs = cot_run(MODEL, _data(shape), TARGET, cfg, trace_every=5)
    ref_model, ref_trace, ref_pairs = ref_cot_run(MODEL, _data(shape), TARGET,
                                                  cfg, trace_every=5)
    assert np.array_equal(model.theta, ref_model.theta)
    assert _rows(trace) == _rows(ref_trace)
    assert list(pairs) == list(ref_pairs)
    for key, pair in pairs.items():
        ref = ref_pairs[key]
        assert np.array_equal(pair.score_side.map.omegas, ref.score_side.map.omegas)
        assert np.array_equal(pair.score_side.coeffs, ref.score_side.coeffs)
        assert np.array_equal(pair.target_side.coeffs, ref.target_side.coeffs)


def ref_estimate_reg_w1(xs_sampler, ys_sampler, cfg):
    map_seed, stream_seed = np.random.SeedSequence(cfg.seed).spawn(2)
    pair = DualPair.zeros(make_rff(cfg.D, cfg.sigma2, map_seed))
    rng = np.random.default_rng(stream_seed)
    acc, count = 0.0, 0
    for k in range(cfg.num_updates):
        xs = np.asarray(xs_sampler(rng, cfg.batch_scores), dtype=float)
        ys = np.asarray(ys_sampler(rng, cfg.batch_target), dtype=float)
        pair = ref_dual_update(pair, cfg.reg, xs, ys, cfg.eps_dual,
                               cfg.antisymmetric, cfg.pair_mode)
        obj = ref_dual_objective(pair, cfg.reg, xs, ys, cfg.pair_mode)
        if k >= cfg.num_updates // 2:
            acc += obj
            count += 1
    return acc / max(count, 1), pair


@pytest.mark.parametrize("name", sorted(COT_CONFIGS))
def test_estimate_reg_w1_matches_the_reference_arithmetic(name):
    cfg = OtConfig(D=12, num_updates=40, batch_scores=8, batch_target=8,
                   seed=5, **COT_CONFIGS[name])
    xs = lambda r, n: r.beta(2.0, 5.0, n)
    ys = lambda r, n: r.uniform(0.2, 0.9, n)
    value, pair = estimate_reg_w1(xs, ys, cfg)
    ref_value, ref_pair = ref_estimate_reg_w1(xs, ys, cfg)
    assert value == ref_value
    assert np.array_equal(pair.score_side.coeffs, ref_pair.score_side.coeffs)
    assert np.array_equal(pair.target_side.coeffs, ref_pair.target_side.coeffs)


@pytest.mark.parametrize("pair_mode", ["full", "diagonal"])
def test_estimate_reg_w1_evaluates_features_once_per_batch(monkeypatch,
                                                           pair_mode):
    # One ascent plus one objective per update share each side's features.
    real, calls = cot.eval_features, []

    def counted(rff_map, xs):
        calls.append(len(xs))
        return real(rff_map, xs)

    monkeypatch.setattr(cot, "eval_features", counted)
    cfg = OtConfig(D=12, num_updates=15, batch_scores=8, batch_target=8,
                   seed=5, pair_mode=pair_mode)
    estimate_reg_w1(lambda r, n: r.beta(2.0, 5.0, n),
                    lambda r, n: r.uniform(0.2, 0.9, n), cfg)
    assert calls == [8, 8] * 15


@pytest.mark.parametrize("shape", SHAPES)
def test_dot_run_matches_the_reference_loop(shape):
    # Two batch shapes in one test, so the kernel's cached rank grid serves
    # more than one (n, m) in the same process.
    for batch_scores, batch_target in [(8, 6), (64, 37)]:
        cfg = OtConfig(num_updates=22, batch_scores=batch_scores,
                       batch_target=batch_target, seed=4)
        model, trace = dot_run(MODEL, _data(shape), TARGET, cfg, trace_every=5)
        ref_model, ref_trace = ref_dot_run(MODEL, _data(shape), TARGET, cfg,
                                           trace_every=5)
        assert np.array_equal(model.theta, ref_model.theta)
        assert _rows(trace) == _rows(ref_trace)


@pytest.mark.parametrize("b", [1, 10, 256])
def test_one_stacked_draw_equals_one_draw_per_group(b):
    # The fit loop draws all groups' score rows in one call. It must give
    # the integers of one call per group in key order, and leave the
    # generator in the same state, buffered 32-bit half included.
    sizes = np.array([1, 7, 100_000, 1, 64])
    stacked_rng, looped_rng = (np.random.default_rng(
        np.random.SeedSequence(3).spawn(1)[0]) for _ in range(2))
    stacked = stacked_rng.integers(0, sizes[:, None], (sizes.size, b))
    looped = np.stack([looped_rng.integers(0, n, b) for n in sizes])
    assert np.array_equal(stacked, looped)
    assert stacked_rng.bit_generator.state == looped_rng.bit_generator.state
    assert stacked_rng.integers(0, 2**40) == looped_rng.integers(0, 2**40)


def test_dot_run_scores_each_batch_once(monkeypatch):
    # One stacked score of all groups' batches per update, (G, b, d), plus
    # one per trace row.
    real, calls = score_batch, []

    def counted(model, Z):
        calls.append(np.shape(Z))
        return real(model, Z)

    for module in (cot, dot):
        if hasattr(module, "score_batch"):
            monkeypatch.setattr(module, "score_batch", counted)
    cfg = OtConfig(num_updates=22, batch_scores=8, batch_target=6, seed=4)
    _, trace = dot_run(MODEL, _dataset(0), TARGET, cfg, trace_every=5)
    assert len(trace) == 5
    assert calls.count((3, 8, MODEL.theta.size)) == 22
    assert len(calls) == 22 + len(trace)


@pytest.mark.parametrize("shape", ["dataset", "phases"])
@pytest.mark.parametrize("module, step, run", [
    (cot, "theta_update", cot_run), (dot, "dot_theta_update", dot_run)])
def test_fit_calls_the_module_update_step_once_per_update(
        monkeypatch, module, step, run, shape):
    # The benchmark times a fit by wrapping these module globals.
    real, calls = getattr(module, step), []

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, step, counted)
    cfg = OtConfig(D=12, num_updates=22, batch_scores=8, batch_target=8, seed=4)
    run(MODEL, _data(shape), TARGET, cfg, trace_every=5)
    assert len(calls) == 22
