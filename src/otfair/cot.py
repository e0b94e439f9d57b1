"""Regularized continuous-OT dual objective, stochastic dual ascent with
random-Fourier-feature potentials, and the alternating post-training loop
that drives per-group score distributions toward a target distribution."""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .metrics import evaluate
from .model import LogisticModel, score_batch
from .rff import DualPotential, eval_features, grad_potential_input, make_rff

EXP_CLIP = 30.0  # ceiling on the exp argument in the entropy conjugate

PAIR_MODES = ("full", "diagonal")

COT_EPS_THETA = 2e-3  # default parameter step when OtConfig.eps_theta is None


class DivergenceError(RuntimeError):
    """Dual ascent diverged; retry with a smaller dual step size."""


@dataclass(frozen=True)
class Regularizer:
    """Coupling regularizer: relative entropy or squared (L2) density ratio."""

    kind: str
    strength: float

    def __post_init__(self):
        if self.kind not in ("entropy", "l2"):
            raise ValueError(f"unknown regularizer kind {self.kind!r}")
        if self.strength <= 0:
            raise ValueError("regularization strength must be positive")


def conjugate(reg, u):
    """Legendre conjugate phi*: exp(u) for entropy, max(u,0)^2/4 for L2."""
    u = np.asarray(u, dtype=float)
    if reg.kind == "entropy":
        return np.exp(np.minimum(u, EXP_CLIP))
    return np.square(np.maximum(u, 0.0)) / 4.0


def alpha(reg, pot_sum, cost):
    """Pairing weight alpha = phi*'((pot_sum - cost) / strength)."""
    u = (np.asarray(pot_sum, dtype=float) - np.asarray(cost, dtype=float)) / reg.strength
    if reg.kind == "entropy":
        return np.exp(np.minimum(u, EXP_CLIP))
    return np.maximum(u, 0.0) / 2.0


@dataclass
class OtConfig:
    """Solver hyperparameters.

    eps_theta is the step size on the per-pair Monte-Carlo objective (mean
    normalization); the run loops divide by the pairing count when invoking
    the raw absorbed-normalization update, so it is batch-size independent.
    None picks the method default (COT_EPS_THETA here, DOT_EPS_THETA for the
    discrete baseline); the two solvers see gradients on different scales.
    """

    reg: Regularizer = field(default_factory=lambda: Regularizer("entropy", 0.05))
    D: int = 100
    sigma2: float = 0.1
    eps_dual: float = 0.02
    eps_theta: float = None
    num_updates: int = 100_000
    batch_scores: int = 64
    batch_target: int = 64
    antisymmetric: bool = True
    pair_mode: str = "full"
    seed: int = 0

    def __post_init__(self):
        if self.batch_scores < 1 or self.batch_target < 1:
            raise ValueError("batch sizes must be >= 1")
        if self.pair_mode not in PAIR_MODES:
            raise ValueError(f"pair_mode must be one of {PAIR_MODES}")
        if self.pair_mode == "diagonal" and self.batch_scores != self.batch_target:
            raise ValueError("diagonal pairing requires equal batch sizes")


@dataclass
class DualPair:
    """Potentials for one group comparison, sharing a single feature map."""

    score_side: DualPotential
    target_side: DualPotential

    def __post_init__(self):
        if self.score_side.map is not self.target_side.map:
            raise ValueError("paired potentials must share one feature map")

    @classmethod
    def zeros(cls, rff_map):
        return cls(DualPotential.zeros(rff_map), DualPotential.zeros(rff_map))


def _pot_sum_and_cost(pair, xs, ys, pair_mode):
    fx = eval_features(pair.score_side.map, xs)
    fy = eval_features(pair.target_side.map, ys)
    lx = fx @ pair.score_side.coeffs
    ly = fy @ pair.target_side.coeffs
    if pair_mode == "diagonal":
        return fx, fy, lx + ly, np.abs(xs - ys)
    return fx, fy, lx[:, None] + ly[None, :], np.abs(xs[:, None] - ys[None, :])


def dual_objective(pair, reg, xs, ys, pair_mode="full"):
    """Monte-Carlo regularized dual: mean potentials minus the conjugate penalty."""
    xs = np.asarray(xs, dtype=float).ravel()
    ys = np.asarray(ys, dtype=float).ravel()
    if xs.size == 0 or ys.size == 0:
        raise ValueError("batches must be non-empty")
    if pair_mode == "diagonal" and xs.size != ys.size:
        raise ValueError("diagonal pairing requires equal batch sizes")
    fx, fy, pot, cost = _pot_sum_and_cost(pair, xs, ys, pair_mode)
    penalty = reg.strength * conjugate(reg, (pot - cost) / reg.strength)
    lx = fx @ pair.score_side.coeffs
    ly = fy @ pair.target_side.coeffs
    return float(lx.mean() + ly.mean() - penalty.mean())


def dual_update(pair, reg, xs, ys, eps_dual, antisymmetric=False, pair_mode="full"):
    """One stochastic ascent step on the dual coefficients; returns a new pair."""
    xs = np.asarray(xs, dtype=float).ravel()
    ys = np.asarray(ys, dtype=float).ravel()
    if xs.size == 0 or ys.size == 0:
        raise ValueError("batches must be non-empty")
    if pair_mode == "diagonal" and xs.size != ys.size:
        raise ValueError("diagonal pairing requires equal batch sizes")
    fx, fy, pot, cost = _pot_sum_and_cost(pair, xs, ys, pair_mode)
    a = alpha(reg, pot, cost)
    if not np.isfinite(a).all():
        raise DivergenceError("non-finite pairing weights after clipping")
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


def estimate_reg_w1(xs_sampler, ys_sampler, cfg):
    """Estimate the regularized W1 between two sampled distributions.

    Samplers are callables (rng, n) -> array. Runs cfg.num_updates dual
    ascent steps and returns (running-average dual objective over the second
    half of the run, final DualPair).
    """
    ss = np.random.SeedSequence(cfg.seed)
    map_seed, stream_seed = ss.spawn(2)
    rff_map = make_rff(cfg.D, cfg.sigma2, map_seed)
    pair = DualPair.zeros(rff_map)
    rng = np.random.default_rng(stream_seed)
    burn_in = cfg.num_updates // 2
    acc, count = 0.0, 0
    for k in range(cfg.num_updates):
        xs = np.asarray(xs_sampler(rng, cfg.batch_scores), dtype=float)
        ys = np.asarray(ys_sampler(rng, cfg.batch_target), dtype=float)
        pair = dual_update(pair, cfg.reg, xs, ys, cfg.eps_dual,
                           cfg.antisymmetric, cfg.pair_mode)
        obj = dual_objective(pair, cfg.reg, xs, ys, cfg.pair_mode)
        if not np.isfinite(obj) or abs(obj) > 1e12:
            raise DivergenceError(
                f"dual objective diverged at update {k}; reduce eps_dual")
        if k >= burn_in:
            acc += obj
            count += 1
    return acc / max(count, 1), pair


def _theta_gradient(model, pairs, batches, target_scores, reg, pair_mode):
    sbar = np.asarray(target_scores, dtype=float).ravel()
    grad = np.zeros_like(model.theta)
    for key, Z in batches.items():
        Z = np.atleast_2d(np.asarray(Z, dtype=float))
        pair = pairs[key]
        if Z.shape[1] != model.theta.shape[0]:
            raise ValueError("design width does not match model dimension")
        s = score_batch(model, Z)
        if pair_mode == "diagonal" and s.size != sbar.size:
            raise ValueError("diagonal pairing requires equal batch sizes")
        _, _, pot, cost = _pot_sum_and_cost(pair, s, sbar, pair_mode)
        a = alpha(reg, pot, cost)
        dlam = grad_potential_input(pair.score_side, s)
        if pair_mode == "diagonal":
            sign = np.sign(s - sbar)  # sign(0) = 0 by convention
            w = (1.0 - a) * dlam + a * sign
        else:
            sign = np.sign(s[:, None] - sbar[None, :])
            w = (1.0 - a).sum(axis=1) * dlam + (a * sign).sum(axis=1)
        grad += Z.T @ (w * s * (1.0 - s))
    return grad


def theta_update(model, pairs, batches, target_scores, reg, eps_theta,
                 pair_mode="full"):
    """One descent step on the model parameters, duals held fixed.

    batches maps each group key to its design-matrix rows; the per-pair
    1/(N_s N_target) normalization is absorbed into eps_theta.
    """
    grad = _theta_gradient(model, pairs, batches, target_scores, reg, pair_mode)
    if not np.isfinite(grad).all():
        raise DivergenceError("non-finite parameter gradient; reduce step sizes")
    return LogisticModel(model.theta - eps_theta * grad, model.names,
                         model.converged)


def _iter_phases(data):
    """Normalize `data` into (Dataset, duration or None, eval Dataset or None).

    Accepts a plain Dataset, an iterable of (Dataset, duration), or an
    iterable of (Dataset, duration, eval_dataset) for per-phase evaluation.
    """
    if hasattr(data, "groups"):
        yield data, None, None
    else:
        for phase in data:
            if len(phase) == 2:
                yield phase[0], phase[1], None
            else:
                yield phase


def _eval_row(update, model, eval_data, target, include_sensitive, objs):
    s = score_batch(model, eval_data.design_matrix(include_sensitive=include_sensitive))
    m = evaluate(eval_data, s, target)
    row = {"update": update, "wass1": m["wass1"], "err05": m["err05"],
           "sdd": m["sdd"], "spdd": m["spdd"]}
    for k in sorted(objs):
        row[f"obj_{'_'.join(map(str, k))}"] = objs[k]
    return row


def _fit_loop(model, data, target, cfg, trace_every, include_sensitive, step,
              objs):
    """The alternating scheme COT and DOT share; returns (model, trace rows).

    Per update: sample a target batch, then one score batch per group of the
    current phase, score them, and let step(model, sbar, batches, scores)
    return the next model. Trace rows are taken at update 0 and every
    trace_every updates on the phase's held-out set (else its train set);
    objs holds the per-group columns they report.
    """
    if target.n < 1:
        raise ValueError("target distribution is empty")
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed).spawn(1)[0])
    trace = []
    k_total = 0
    for phase_data, duration, phase_eval in _iter_phases(data):
        group_Z = {key: phase_data.design_matrix(
                       phase_data.groups[key], include_sensitive=include_sensitive)
                   for key in phase_data.group_keys}
        ev = phase_eval if phase_eval is not None else phase_data
        if k_total == 0:
            trace.append(_eval_row(0, model, ev, target, include_sensitive, objs))
        left = cfg.num_updates - k_total
        for _ in range(left if duration is None else min(duration, left)):
            k_total += 1
            sbar = target.samples[rng.integers(0, target.n, cfg.batch_target)]
            batches = {key: Zg[rng.integers(0, Zg.shape[0], cfg.batch_scores)]
                       for key, Zg in group_Z.items()}
            scores = {key: score_batch(model, Z) for key, Z in batches.items()}
            try:
                model = step(model, sbar, batches, scores)
            except DivergenceError as err:
                raise DivergenceError(f"update {k_total}: {err}") from err
            if np.abs(model.theta).max() > 1e12:
                raise DivergenceError(
                    f"model parameters diverged at update {k_total}; "
                    "reduce eps_theta")
            if k_total % trace_every == 0:
                trace.append(_eval_row(k_total, model, ev, target,
                                       include_sensitive, objs))
        if k_total >= cfg.num_updates:
            break
    return model, trace


def cot_run(model, data, target, cfg, trace_every=50, include_sensitive=True):
    """Alternating dual/parameter updates over a dataset or dataset schedule.

    Per iteration: sample a target batch; for each group sample a score
    batch, ascend its dual pair, then descend the model parameters. Dual
    pairs are kept across phase shifts. Returns (final model, trace rows,
    final dual pairs). Deterministic under cfg.seed.
    """
    eps_theta = COT_EPS_THETA if cfg.eps_theta is None else cfg.eps_theta
    pairing_count = (cfg.batch_scores * cfg.batch_target
                     if cfg.pair_mode == "full" else cfg.batch_scores)
    map_seeds = np.random.SeedSequence(cfg.seed).spawn(65)[1:]
    pairs, objs = {}, {}

    def step(model, sbar, batches, scores):
        for i, (key, s) in enumerate(scores.items()):
            if key not in pairs:
                pairs[key] = DualPair.zeros(make_rff(cfg.D, cfg.sigma2, map_seeds[i]))
            pairs[key] = dual_update(pairs[key], cfg.reg, s, sbar, cfg.eps_dual,
                                     cfg.antisymmetric, cfg.pair_mode)
            obj = objs[key] = dual_objective(pairs[key], cfg.reg, s, sbar,
                                             cfg.pair_mode)
            if not np.isfinite(obj) or abs(obj) > 1e12:
                raise DivergenceError("dual objective diverged; reduce eps_dual")
        return theta_update(model, pairs, batches, sbar, cfg.reg,
                            eps_theta / pairing_count, cfg.pair_mode)

    model, trace = _fit_loop(model, data, target, cfg, trace_every,
                             include_sensitive, step, objs)
    return model, trace, pairs
