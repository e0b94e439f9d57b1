"""Regularized continuous-OT dual objective, stochastic dual ascent with
random-Fourier-feature potentials, and the alternating post-training loop
that drives per-group score distributions toward a target distribution."""
from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from .metrics import evaluate
from .model import LogisticModel, score_batch
from .rff import (DualPotential, RffMap, _contract, _grad_rows, eval_features,
                  make_rff)

EXP_CLIP = 30.0  # ceiling on the exp argument in the entropy conjugate

PAIR_MODES = ("full", "diagonal")

COT_EPS_THETA = 2e-3  # default parameter step when OtConfig.eps_theta is None

# Largest per-fit table of target-sample features (G * n_t * D float64s).
# Within it, cot_run gathers each target batch's features from the table;
# above it, it evaluates them per update.
TARGET_TABLE_BYTES = 32 << 20

# Smallest score-batch stack (G * b * D argument entries) whose sin rows
# a fit computes on a worker thread of its own, given a second CPU.
WORKER_MIN_ENTRIES = 1 << 14


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
        if not 0 < self.strength < np.inf:
            raise ValueError("strength must be finite and positive, "
                             f"got {self.strength}")


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
        if self.D < 1:
            raise ValueError(f"D (feature count) must be >= 1, got {self.D}")
        if self.num_updates < 1:
            raise ValueError(f"num_updates must be >= 1, got {self.num_updates}")
        for name in ("sigma2", "eps_dual", "eps_theta"):
            value = getattr(self, name)
            if not (value is None and name == "eps_theta" or 0 < value < np.inf):
                raise ValueError(f"{name} must be finite and positive, "
                                 f"got {value}")
        if self.pair_mode not in PAIR_MODES:
            raise ValueError(f"pair_mode must be one of {PAIR_MODES}")
        if self.pair_mode == "diagonal" and self.batch_scores != self.batch_target:
            raise ValueError("diagonal pairing requires equal batch sizes")


@dataclass
class DualPair:
    """Potentials for one group comparison, or a stack of G (rff.DualPotential),
    sharing a single feature map."""

    score_side: DualPotential
    target_side: DualPotential

    def __post_init__(self):
        if self.score_side.map is not self.target_side.map:
            raise ValueError("paired potentials must share one feature map")

    @classmethod
    def zeros(cls, rff_map):
        return cls(DualPotential.zeros(rff_map), DualPotential.zeros(rff_map))


def _as_batches(xs, ys, pair_mode):
    xs = np.asarray(xs, dtype=float).ravel()
    ys = np.asarray(ys, dtype=float).ravel()
    if xs.size == 0 or ys.size == 0:
        raise ValueError("batches must be non-empty")
    if pair_mode == "diagonal" and xs.size != ys.size:
        raise ValueError("diagonal pairing requires equal batch sizes")
    return xs, ys


def _features(rff_map, xs, ys, pair_mode, fy=None):
    """Feature rows of both batches and the paired score differences xs - ys.
    fy, if given, are the target batch's feature rows (_target_features)."""
    fx = eval_features(rff_map, xs)
    if fy is None:
        fy = eval_features(rff_map, ys)
    diff = xs - ys if pair_mode == "diagonal" else xs[..., None] - ys[..., None, :]
    return fx, fy, diff


def _potentials(pair, fx, fy, pair_mode):
    """Potential values on each batch and their paired sums."""
    lx = (fx @ pair.score_side.coeffs[..., None])[..., 0]
    ly = (fy @ pair.target_side.coeffs[..., None])[..., 0]
    pot = lx + ly if pair_mode == "diagonal" else lx[..., None] + ly[..., None, :]
    return lx, ly, pot


def _ascend(pair, reg, fx, fy, pot, cost, eps_dual, antisymmetric, pair_mode):
    a = alpha(reg, pot, cost)
    if not np.isfinite(a).all():
        raise DivergenceError("non-finite pairing weights after clipping")
    if pair_mode == "diagonal":
        wx = wy = 1.0 - a
    else:
        wx, wy = 1.0 - a.mean(axis=-1), 1.0 - a.mean(axis=-2)
    gx = (wx[..., None, :] @ fx)[..., 0, :] / fx.shape[-2]
    gy = (wy[..., None, :] @ fy)[..., 0, :] / fy.shape[-2]
    if antisymmetric:
        cx = pair.score_side.coeffs + eps_dual * (gx - gy)
        cy = -cx
    else:
        cx = pair.score_side.coeffs + eps_dual * gx
        cy = pair.target_side.coeffs + eps_dual * gy
    if not (np.isfinite(cx).all() and np.isfinite(cy).all()):
        raise DivergenceError("non-finite dual coefficients; reduce eps_dual")
    return DualPair(DualPotential(cx, pair.score_side.map),
                    DualPotential(cy, pair.target_side.map))


def _target_features(table, idx):
    """Feature rows of target samples idx, gathered from the rows
    eval_features(map, target.samples) of a table: the same bits as
    eval_features(map, target.samples[idx]), and C-contiguous like them."""
    return np.take(table, idx, axis=-2)


def _objective(reg, lx, ly, pot, cost, pair_mode, a=None):
    """Dual objective per pair: a scalar for one pair, (G,) for a stack.

    a, if given, is alpha(reg, pot, cost); for entropy the conjugate equals
    its derivative, so the penalty is strength * a, bit for bit."""
    if a is not None and reg.kind == "entropy":
        penalty = reg.strength * a
    else:
        penalty = reg.strength * conjugate(reg, (pot - cost) / reg.strength)
    paired = (-1,) if pair_mode == "diagonal" else (-2, -1)
    return lx.mean(axis=-1) + ly.mean(axis=-1) - penalty.mean(axis=paired)


def _theta_term(pair, Z, s, a, diff, pair_mode, rows):
    """Each group's term Z.T @ (w s (1 - s)) of the parameter gradient, for
    pairing weights a = alpha(reg, pot, cost) on the pair's potentials and
    rows = _grad_rows(map, s), which the pair's coefficients contract."""
    dlam = _contract(pair.score_side, rows)
    sign = np.sign(diff)  # sign(0) = 0 by convention
    if pair_mode == "diagonal":
        w = (1.0 - a) * dlam + a * sign
    else:
        w = (1.0 - a).sum(axis=-1) * dlam + (a * sign).sum(axis=-1)
    return ((w * s * (1.0 - s))[..., None, :] @ Z)[..., 0, :]


def group_step(pair, reg, Z, s, sbar, eps_dual, antisymmetric, pair_mode,
               fy=None, pool=None):
    """One COT update for one dual pair or a stack of G, with each batch's
    features evaluated once.

    s are the model's scores of the design rows Z, (n,) and (n, d) or
    (G, n) and (G, n, d), and sbar the target batch; fy, if given, are its
    feature rows, (m, D) or (G, m, D), as eval_features gives them. Ascends
    the pair, then evaluates on the new potentials the dual objective and
    the gradient term: the arithmetic of dual_update, then dual_objective on
    the new pair. Returns (new pair, objective, term); for a stack, (G,) and
    (G, d). The term's sin rows need only s and the map, so pool, an
    executor or None (inline), may compute them while this thread ascends.
    """
    job = None if pool is None else pool.submit(_grad_rows,
                                                pair.score_side.map, s)
    fx, fy, diff = _features(pair.score_side.map, s, sbar, pair_mode, fy)
    cost = np.abs(diff)
    pair = _ascend(pair, reg, fx, fy, _potentials(pair, fx, fy, pair_mode)[2],
                   cost, eps_dual, antisymmetric, pair_mode)
    lx, ly, pot = _potentials(pair, fx, fy, pair_mode)
    a = alpha(reg, pot, cost)
    obj = _objective(reg, lx, ly, pot, cost, pair_mode, a)
    # Never wait on the worker: drop a job it has not started, and compute
    # the rows here if it has not finished.
    done = job is not None and not job.cancel() and job.done()
    rows = job.result() if done else _grad_rows(pair.score_side.map, s)
    return pair, obj, _theta_term(pair, Z, s, a, diff, pair_mode, rows)


def dual_objective(pair, reg, xs, ys, pair_mode="full"):
    """Monte-Carlo regularized dual: mean potentials minus the conjugate penalty."""
    xs, ys = _as_batches(xs, ys, pair_mode)
    fx, fy, diff = _features(pair.score_side.map, xs, ys, pair_mode)
    lx, ly, pot = _potentials(pair, fx, fy, pair_mode)
    return float(_objective(reg, lx, ly, pot, np.abs(diff), pair_mode))


def dual_update(pair, reg, xs, ys, eps_dual, antisymmetric=False, pair_mode="full"):
    """One stochastic ascent step on the dual coefficients; returns a new pair."""
    xs, ys = _as_batches(xs, ys, pair_mode)
    fx, fy, diff = _features(pair.score_side.map, xs, ys, pair_mode)
    pot = _potentials(pair, fx, fy, pair_mode)[2]
    return _ascend(pair, reg, fx, fy, pot, np.abs(diff), eps_dual,
                   antisymmetric, pair_mode)


def theta_update(model, grad, eps_theta):
    """One descent step theta - eps_theta * grad on the model parameters.

    grad is the parameter gradient of the summed dual objectives with the
    duals held fixed: the sum of the groups' group_step terms. The per-pair
    1/(N_s N_target) normalization is absorbed into eps_theta. A non-finite
    gradient raises DivergenceError.
    """
    grad = np.asarray(grad, dtype=float)
    if grad.shape != model.theta.shape:
        raise ValueError("gradient length does not match model dimension")
    if not np.isfinite(grad).all():
        raise DivergenceError("non-finite parameter gradient; reduce step sizes")
    return LogisticModel(model.theta - eps_theta * grad, model.names,
                         model.converged)


def _iter_phases(data):
    """Normalize a Dataset, or an iterable of (Dataset, duration) or of
    (Dataset, duration, eval Dataset), into a list of (Dataset, duration or
    None, eval Dataset or None), reading an iterable once."""
    if hasattr(data, "groups"):
        return [(data, None, None)]
    return [(*phase, None)[:3] for phase in data]  # a pair gets eval None


def _fit_phases(data, target, trace_every):
    """Check a fit's inputs; return the phases of `data` (_iter_phases).
    A phase's duration is None (the rest of the run) or at least 1."""
    if trace_every < 1:
        raise ValueError(f"trace_every must be >= 1, got {trace_every}")
    if target.n < 1:
        raise ValueError("target distribution is empty")
    if not (phases := _iter_phases(data)):
        raise ValueError("no phases to fit")
    for k, (_, duration, _) in enumerate(phases):
        if duration is not None and duration < 1:
            raise ValueError(f"phase {k} has duration {duration}; "
                             "a phase must run at least 1 update")
    return phases


def _eval_row(update, model, eval_data, Z_eval, target, objs):
    m = evaluate(eval_data, score_batch(model, Z_eval), target)
    row = {"update": update, "wass1": m["wass1"], "err05": m["err05"],
           "sdd": m["sdd"], "spdd": m["spdd"]}
    for k in sorted(objs):
        row[f"obj_{'_'.join(map(str, k))}"] = objs[k]
    return row


def _fit_loop(model, phases, target, cfg, trace_every, include_sensitive,
              step, objs):
    """The alternating scheme COT and DOT share; returns (model, trace rows).

    phases are _fit_phases(data, target, trace_every). Per update: draw a
    target batch's indices idx in target.samples, then all G groups' score
    rows in one draw (key order), gather them as Z, (G, b, d), score them in
    one call as s, (G, b), and let step(model, idx, keys, Z, s) return the
    next model. Trace rows are taken at update 0 and every trace_every
    updates on the phase's held-out set (else its train set); objs holds
    the per-group columns they report.
    """
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed).spawn(1)[0])
    trace = []
    k_total = 0
    for phase_data, duration, phase_eval in phases:
        keys = phase_data.group_keys
        members = [phase_data.groups[key] for key in keys]
        sizes = np.array([m.size for m in members])[:, None]
        starts = np.cumsum(sizes, axis=0) - sizes
        Z_all = phase_data.design_matrix(np.concatenate(members),
                                         include_sensitive=include_sensitive)
        ev = phase_eval if phase_eval is not None else phase_data
        Z_ev = ev.design_matrix(include_sensitive=include_sensitive)
        if k_total == 0:
            trace.append(_eval_row(0, model, ev, Z_ev, target, objs))
        left = cfg.num_updates - k_total
        for _ in range(left if duration is None else min(duration, left)):
            k_total += 1
            idx = rng.integers(0, target.n, cfg.batch_target)
            Z = Z_all[starts + rng.integers(0, sizes, (len(keys),
                                                       cfg.batch_scores))]
            try:
                model = step(model, idx, keys, Z, score_batch(model, Z))
            except DivergenceError as err:
                raise DivergenceError(f"update {k_total}: {err}") from err
            if np.abs(model.theta).max() > 1e12:
                raise DivergenceError(
                    f"model parameters diverged at update {k_total}; "
                    "reduce eps_theta")
            if k_total % trace_every == 0:
                trace.append(_eval_row(k_total, model, ev, Z_ev, target, objs))
        if k_total >= cfg.num_updates:
            break
    return model, trace


def cot_run(model, data, target, cfg, trace_every=50, include_sensitive=True):
    """Alternating dual/parameter updates over a dataset or dataset schedule.

    Per update, take one group_step on all groups' stacked batches (ascend
    their stacked dual pairs, evaluate the objectives and the groups'
    gradient terms), then one theta_update on the summed gradient. The
    target batch's features are gathered from a table of the features of
    every target sample unless that table would exceed TARGET_TABLE_BYTES;
    either way they are the same bits. Dual pairs are kept across phase shifts,
    so every phase must have the first phase's groups. The checks, pairs, table
    and worker come before the first update. Returns (final model, trace rows,
    final dual pairs by group key). Deterministic under cfg.seed.
    """
    phases = _fit_phases(data, target, trace_every)
    keys = phases[0][0].group_keys
    for phase_data, _, _ in phases[1:]:
        if phase_data.group_keys != keys:
            raise ValueError(f"phase groups {phase_data.group_keys} differ from "
                             f"the first phase's {keys}; "
                             "every phase must have the same groups")
    eps_theta = COT_EPS_THETA if cfg.eps_theta is None else cfg.eps_theta
    pairing_count = (cfg.batch_scores * cfg.batch_target
                     if cfg.pair_mode == "full" else cfg.batch_scores)
    # map g: child g + 1 of cfg.seed; child 0 is the batch stream
    maps = [make_rff(cfg.D, cfg.sigma2,
                     np.random.SeedSequence(cfg.seed, spawn_key=(g + 1,)))
            for g in range(len(keys))]
    state = DualPair.zeros(RffMap(np.stack([m.omegas for m in maps]),
                                  np.stack([m.phases for m in maps]),
                                  maps[0].sigma2))
    table = (eval_features(state.score_side.map, target.samples)
             if len(keys) * target.n * cfg.D * 8 <= TARGET_TABLE_BYTES else None)
    threaded = len(keys) * cfg.batch_scores * cfg.D >= WORKER_MIN_ENTRIES and (
        len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count() or 1) >= 2
    objs = {}

    def step(model, idx, phase_keys, Z, s):
        nonlocal state
        state, obj, terms = group_step(
            state, cfg.reg, Z, s, target.samples[idx], cfg.eps_dual,
            cfg.antisymmetric, cfg.pair_mode,
            None if table is None else _target_features(table, idx), pool)
        objs.update(zip(keys, obj.tolist()))
        if not np.isfinite(obj).all() or np.abs(obj).max() > 1e12:
            raise DivergenceError("dual objective diverged; reduce eps_dual")
        return theta_update(model, terms.sum(axis=0), eps_theta / pairing_count)

    with ThreadPoolExecutor(1) if threaded else nullcontext() as pool:
        model, trace = _fit_loop(model, phases, target, cfg, trace_every,
                                 include_sensitive, step, objs)
    return model, trace, {
        key: DualPair(DualPotential(state.score_side.coeffs[g], m),
                      DualPotential(state.target_side.coeffs[g], m))
        for g, (key, m) in enumerate(zip(keys, maps))}
