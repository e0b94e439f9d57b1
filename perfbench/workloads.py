"""The benchmark's workloads and the stages every one of them runs.

Each workload is one deployment of a fairness method on generated census
data: set-up (generate, load, split, train the LR base model, build the
barycenter target), fit (COT, DOT or DPP), serve (closed loop, one client,
fixed-size request batches scored by the fitted model) and audit
(``harness.evaluate`` over the served population). The reasons behind each
workload are in README.md next to this file.

All calls into otfair go through module attributes (``model.score_batch``),
so the tracer's wrappers see the benchmark's own calls as well as the
package's internal ones.
"""
from __future__ import annotations

import bisect
import math
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, replace

import numpy as np

from otfair import cot, data, dot, dpp, harness, metrics, model, synthetic

FEMALE_RATES = (0.2, 0.3, 0.4, 0.1, 0.4, 0.2)
TEST_FRAC = 0.5        # held-out share of the census rows; the served population
REQUEST_ROWS = 1000    # rows per served request
UNIT_REQUESTS = 200    # requests in one traced work unit


@dataclass(frozen=True)
class Workload:
    name: str
    method: str                # "COT", "DOT" or "DPP"
    rows: int                  # generated census rows per set-up
    batch: int = 64            # score and target minibatch size of a fit
    updates: int = 1           # parameter updates per fit (DPP: one refit)
    phase_rates: tuple = ()    # drift: female positive rate of each phase
    trace_every: int = 0       # trace-row period; 0 = only at start and end
    block: int = 1             # updates per timed block of a fit
    shares: tuple = (0.7, 0.2, 0.1)  # fit / serve / audit share of --seconds

    @property
    def drift(self):
        return bool(self.phase_rates)


WORKLOADS = {
    w.name: w for w in (
        Workload("cot_b64", "COT", rows=40_000, batch=64, updates=300, block=25),
        Workload("cot_drift_b10", "COT", rows=40_000, batch=10, updates=600,
                 phase_rates=FEMALE_RATES, trace_every=25, block=25),
        Workload("dot_b256", "DOT", rows=40_000, batch=256, updates=1500,
                 block=100),
        Workload("serve_audit", "DPP", rows=100_000, shares=(0.1, 0.6, 0.3)),
    )
}


def tiny(w):
    """A few-second version of a workload, for the smoke test."""
    updates = len(w.phase_rates) * 5 if w.drift else min(w.updates, 10)
    return replace(w, rows=3_000, updates=updates, block=5,
                   trace_every=5 if w.trace_every else 0)


@dataclass
class Setup:
    cfg: harness.ExperimentConfig
    train: data.Dataset
    test: data.Dataset
    lr: model.LogisticModel
    target: metrics.EmpiricalDistribution


@dataclass
class Fitted:
    model: model.LogisticModel
    qmap: object               # dpp.QuantileMap for DPP, else None
    population: data.Dataset   # rows served and audited
    keys: list                 # group keys; a row's group code indexes this
    target: metrics.EmpiricalDistribution


def setup(w, seed, workdir):
    """Generate the seed's census file and build everything a fit starts from.

    The steps after writing the file are those at the top of
    ``harness.run_experiment`` and ``harness.run_drift``, which also fit, so
    they cannot time set-up apart from the fit.
    """
    path = os.path.join(workdir, f"census-{w.name}-{seed}-{os.getpid()}.csv")
    cfg = harness.ExperimentConfig(
        dataset=path, schema=synthetic.SCHEMA, method=w.method,
        ot=cot.OtConfig(batch_scores=w.batch, batch_target=w.batch,
                        num_updates=w.updates, seed=seed),
        split_seed=seed, test_frac=TEST_FRAC,
        trace_every=w.trace_every or w.updates)
    try:
        synthetic.write_csv(path, w.rows, seed=seed)
        train, test = harness._load_and_split(cfg)
    finally:
        if os.path.exists(path):
            os.remove(path)
    lr = model.train_lr(train, cfg.lr_l2, include_sensitive=cfg.include_sensitive)
    target = harness.build_target(train, lr, cfg.target, cfg.include_sensitive)
    return Setup(cfg, train, test, lr, target)


def drift_phases(w, st):
    """(shifted train, duration, shifted held-out set) per phase, as
    ``harness.run_drift`` builds them from a schedule on gender=female."""
    female = harness._match_groups(st.train, "gender=female")
    duration = w.updates // len(w.phase_rates)
    seeds = np.random.SeedSequence(st.cfg.ot.seed).spawn(len(w.phase_rates))
    phases = []
    for rate, ss in zip(w.phase_rates, seeds):
        rates = {k: rate for k in female}
        child = ss.spawn(2)
        phases.append((data.resample_positive_rate(st.train, rates, child[0]),
                       duration,
                       data.resample_positive_rate(st.test, rates, child[1])))
    return phases


@contextmanager
def stamped_updates(stamps):
    """Append ``time.perf_counter()`` to ``stamps`` after every parameter update.

    Wraps the update step of COT and DOT in the module namespace their fit
    loops call it from, so a fit runs uninterrupted, as in the program, and
    can still be timed in blocks of updates.
    """
    steps = [(cot, "theta_update"), (dot, "dot_theta_update")]
    saved = [getattr(mod, name) for mod, name in steps]

    def stamped(step):
        def update(*args, **kwargs):
            out = step(*args, **kwargs)
            stamps.append(time.perf_counter())
            return out
        return update

    for (mod, name), step in zip(steps, saved):
        setattr(mod, name, stamped(step))
    try:
        yield
    finally:
        for (mod, name), step in zip(steps, saved):
            setattr(mod, name, step)


def fit(w, st, stamps):
    """Run one complete fit the way ``harness.run_experiment`` (drift:
    ``harness.run_drift``) does after its set-up.

    ``stamps`` receives ``time.perf_counter()`` when the fit loop starts,
    after each of its ``w.updates`` updates and when it ends; a DPP fit is
    one update, the refit of the quantile map.
    """
    cfg = st.cfg
    if w.method == "DPP":
        stamps.append(time.perf_counter())
        _, dists = harness.group_score_distributions(st.train, st.lr,
                                                     cfg.include_sensitive)
        qmap = dpp.fit_dpp({k: d.samples for k, d in dists.items()}, st.target)
        stamps += [time.perf_counter()] * 2
        return Fitted(st.lr, qmap, st.test, st.test.group_keys, st.target)

    if w.drift:
        fit_data = drift_phases(w, st)
        population = fit_data[-1][2]
    else:
        fit_data, population = st.train, st.test
    stamps.append(time.perf_counter())
    with stamped_updates(stamps):
        if w.method == "COT":
            fair, _, _ = cot.cot_run(st.lr, fit_data, st.target, cfg.ot,
                                     cfg.trace_every,
                                     include_sensitive=cfg.include_sensitive)
        else:
            fair, _ = dot.dot_run(st.lr, fit_data, st.target, cfg.ot,
                                  cfg.trace_every,
                                  include_sensitive=cfg.include_sensitive)
    stamps.append(time.perf_counter())
    return Fitted(fair, None, population, population.group_keys, st.target)


def block_times(stamps, updates, block):
    """(updates, seconds) per block of ``block`` updates of one fit's stamps.

    The first block also holds the fit's start-up and the last block its
    final trace row, as in an uninterrupted run.
    """
    if len(stamps) != updates + 2:
        raise ValueError(f"fit recorded {len(stamps) - 2} updates, not {updates}")
    edges = list(range(0, updates, block)) + [updates + 1]
    return [(min(b, updates) - a, stamps[b] - stamps[a])
            for a, b in zip(edges, edges[1:])]


def population_inputs(fitted):
    """Design rows of the served population and each row's group code."""
    pop = fitted.population
    codes = np.empty(pop.n, dtype=np.int64)
    for g, key in enumerate(fitted.keys):
        codes[pop.groups[key]] = g
    return pop.design_matrix(), codes


def serve(fitted, Z, codes):
    """Answer one request: model scores, then per-group DPP when fitted."""
    s = model.score_batch(fitted.model, Z)
    if fitted.qmap is None:
        return s
    out = np.empty_like(s)
    for g, key in enumerate(fitted.keys):
        idx = np.flatnonzero(codes == g)
        if idx.size:
            out[idx] = dpp.dpp_transform(fitted.qmap, key, s[idx])
    return out


def audit(fitted, scores):
    return harness.evaluate(fitted.population, scores, fitted.target)


# -- output checks: independent per-row recomputation ----------------------

def naive_serve(fitted, z, code):
    """One row through plain-Python scoring and quantile mapping."""
    t = sum(float(a) * float(b) for a, b in zip(z, fitted.model.theta))
    s = 1.0 / (1.0 + math.exp(-t)) if t >= 0 else math.exp(t) / (1.0 + math.exp(t))
    eps = np.finfo(float).eps
    s = min(max(s, eps), 1.0 - eps)
    if fitted.qmap is None:
        return s
    src = fitted.qmap.group_samples[fitted.keys[code]].tolist()
    tgt = fitted.qmap.target.samples
    u = max(bisect.bisect_right(src, s) / len(src), 1.0 / tgt.size)
    rank = min(max(math.ceil(u * tgt.size) - 1, 0), tgt.size - 1)
    return float(tgt[rank])


def check_fit(st, fitted, Z, row):
    """A fit must end finite and fairer (lower Wass1) than the LR model it started from."""
    problems = []
    if not np.isfinite(fitted.model.theta).all():
        problems.append("non-finite model parameters")
    lr_row = harness.evaluate(fitted.population, model.score_batch(st.lr, Z),
                              fitted.target)
    if not row["wass1"] < lr_row["wass1"]:
        problems.append(f"test Wass1 {row['wass1']:.6g} not below the LR "
                        f"model's {lr_row['wass1']:.6g}")
    return problems


def check_outputs(fitted, out, Z=None, codes=None, rows=()):
    """Served scores lie in [0, 1] (DPP: in the target's support), and the
    listed rows match a per-row recomputation."""
    problems = []
    if not (np.all(out >= 0.0) and np.all(out <= 1.0)):
        problems.append("served score outside [0, 1]")
    if fitted.qmap is not None:
        tgt = fitted.qmap.target.samples
        if out.min() < tgt[0] or out.max() > tgt[-1]:
            problems.append("DPP output outside the target's support")
    for r in rows:
        want = naive_serve(fitted, Z[r], int(codes[r]))
        if abs(out[r] - want) > 1e-9:
            problems.append(f"row output {out[r]!r} != per-row recomputation {want!r}")
    return problems


def check_audit(fitted, scores, row):
    """SPDD must equal the sum of pairwise W1 between the group distributions."""
    pop = fitted.population
    dists = {k: metrics.EmpiricalDistribution(scores[idx])
             for k, idx in pop.groups.items()}
    keys = sorted(dists)
    pairwise = sum(metrics.wasserstein1_1d(dists[a], dists[b])
                   for i, a in enumerate(keys) for b in keys[i + 1:])
    if abs(row["spdd"] - pairwise) > 1e-9:
        return [f"SPDD {row['spdd']!r} != sum of pairwise W1 {pairwise!r}"]
    if not all(np.isfinite(v) for v in row.values()):
        return ["non-finite audit metric"]
    return []
