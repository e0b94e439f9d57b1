"""Experiment orchestration: configs, runs, traces, manifests, exports."""
from __future__ import annotations

import configparser
import csv
import json
import os
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import dpp as dpp_mod
from .cot import DualPair, OtConfig, cot_run
from .data import (UnfairnessSchedule, load_dataset, resample_positive_rate,
                   train_test_split)
from .dot import dot_run
from .metrics import EmpiricalDistribution, evaluate, w1_barycenter
from .model import LogisticModel, score_batch, train_lr
from .rff import DualPotential, RffMap, eval_potential

METHODS = ("LR", "COT", "DOT", "DPP")
OT_METHODS = ("COT", "DOT")  # the methods that fit, and so can run a drift

OUT_ROOT_ENV = "OTFAIR_OUT"

DESK_ROWS = 10_000  # rows kept by desk_scale, drawn with split_seed
DESK_UPDATES = 20_000  # desk_scale's cap on the updates


@dataclass
class ExperimentConfig:
    dataset: str = ""
    schema: dict = field(default_factory=dict)
    delimiter: str = None
    method: str = "COT"
    ot: OtConfig = field(default_factory=OtConfig)
    target: str = "barycenter"  # barycenter | pooled | group:<col>=<value>
    schedule: UnfairnessSchedule = None
    schedule_group: str = ""  # "<col>=<value>" selector the schedule applies to
    split_seed: int = 0
    test_frac: float = 0.3
    lr_l2: float = 1.0
    include_sensitive: bool = True
    trace_every: int = 50
    desk_scale: bool = False
    out: str = ""

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}")
        if (self.target not in ("barycenter", "pooled")
                and not self.target.startswith("group:")):
            raise ValueError("target must be barycenter, pooled or "
                             f"group:<col>=<value>, got {self.target!r}")
        if self.trace_every < 1:
            raise ValueError(f"trace_every must be >= 1, got {self.trace_every}")
        if not 0.0 <= self.lr_l2 < np.inf:
            raise ValueError(f"lr_l2 must be finite and >= 0, got {self.lr_l2}")
        if self.desk_scale and self.ot.num_updates > DESK_UPDATES:
            self.ot = replace(self.ot, num_updates=DESK_UPDATES)

    def out_dir(self, name):
        if self.out:
            return self.out
        return os.path.join(os.environ.get(OUT_ROOT_ENV, "runs"), name)


def write_rows(path, rows):
    """Write dict rows as CSV. Columns are the union of the rows' keys in
    first-seen order (later trace rows add per-group columns); a row lacking
    a column leaves its cell empty."""
    if not rows:
        raise ValueError(f"no rows to write to {path}")
    fields = list(rows[0])
    for row in rows[1:]:
        fields.extend(k for k in row if k not in fields)
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields, restval="")
        writer.writeheader()
        writer.writerows(rows)


def _parse(key, parse, value):
    """parse(value); a ValueError names the key and the value."""
    try:
        return parse(value)
    except ValueError as err:
        raise ValueError(f"{key} = {value!r}: {err}") from None


def _flag(value):
    """configparser's boolean words; anything else is a ValueError."""
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[value.strip().lower()]
    except KeyError:
        raise ValueError("not one of 1/yes/true/on or 0/no/false/off") from None


# [experiment] key -> (config field, parser). A dotted field is on the nested
# config: "ot.D" on OtConfig, "ot.reg.kind" on its Regularizer. An absent key
# keeps the dataclass default.
EXPERIMENT_KEYS = {
    "dataset": ("dataset", str),
    "delimiter": ("delimiter", lambda v: v or None),  # empty: detect it
    "method": ("method", str),
    "target": ("target", str),
    "split_seed": ("split_seed", int),
    "test_frac": ("test_frac", float),
    "lr_l2": ("lr_l2", float),
    "include_sensitive": ("include_sensitive", _flag),
    "trace_every": ("trace_every", int),
    "desk_scale": ("desk_scale", _flag),
    "out": ("out", str),
    "reg": ("ot.reg.kind", str),
    "reg_strength": ("ot.reg.strength", float),
    "rff_features": ("ot.D", int),
    "kernel_variance": ("ot.sigma2", float),
    "eps_dual": ("ot.eps_dual", float),
    "eps_theta": ("ot.eps_theta", float),
    "updates": ("ot.num_updates", int),
    "batch_scores": ("ot.batch_scores", int),
    "batch_target": ("ot.batch_target", int),
    "antisymmetric": ("ot.antisymmetric", _flag),
    "pair_mode": ("ot.pair_mode", str),
    "seed": ("ot.seed", int),
}


def load_config(path, overrides=None):
    """Parse an INI experiment file into an ExperimentConfig, with the
    [experiment] keys in `overrides` (key -> text) replacing the file's
    values. Keys, defaults and rules: README, "Experiment files"."""
    parser = configparser.ConfigParser()
    parser.optionxform = str  # schema column names are case-sensitive
    with open(path) as fh:
        parser.read_file(fh)
    exp = dict(parser["experiment"]) if parser.has_section("experiment") else {}
    exp.update(overrides or {})
    unknown = [k for k in exp if k not in EXPERIMENT_KEYS]
    if unknown:
        raise ValueError(f"unknown key(s) in [experiment]: {', '.join(unknown)}")
    fields = {"": {}, "ot": {}, "ot.reg": {}}
    for key, value in exp.items():
        name, parse = EXPERIMENT_KEYS[key]
        scope, _, attr = name.rpartition(".")
        fields[scope][attr] = _parse(key, parse, value)
    if parser.has_section("schema"):
        fields[""]["schema"] = dict(parser["schema"])
    ot = OtConfig(**fields["ot"])
    if fields["ot.reg"]:
        ot = replace(ot, reg=replace(ot.reg, **fields["ot.reg"]))
    cfg = ExperimentConfig(ot=ot, **fields[""])
    if parser.has_section("schedule"):
        sched = dict(parser["schedule"])
        cfg.schedule_group = sched.pop("group", "")
        rates = [_parse("rates", float, r)
                 for r in sched.pop("rates", "").replace(",", " ").split()]
        duration = _parse("duration", int, sched.pop("duration", "5000"))
        if sched:
            raise ValueError(f"unknown key(s) in [schedule]: {', '.join(sched)}")
        cfg.schedule = UnfairnessSchedule([({}, duration) for _ in rates])
        # Rates are resolved against realized groups at run time.
        cfg.schedule._raw_rates = rates
    return cfg


def resolve_manifest(cfg):
    """Flatten the resolved configuration for reproducibility."""
    man = asdict(cfg)
    man["schedule"] = (
        {"group": cfg.schedule_group,
         "rates": getattr(cfg.schedule, "_raw_rates", None),
         "phases": [(list(map(list, r.keys())), d) for r, d in cfg.schedule.phases]}
        if cfg.schedule else None)
    return man


def _match_groups(ds, selector):
    """Group keys whose sensitive value matches '<column>=<value>'."""
    col, _, val = selector.partition("=")
    col, val = col.strip(), val.strip()
    if col not in ds.sensitive_names:
        raise ValueError(f"unknown sensitive column {col!r}")
    j = ds.sensitive_names.index(col)
    levels = ds.sensitive_levels[j]
    if val not in levels:
        raise ValueError(f"unknown level {val!r} for column {col!r}")
    code = levels.index(val)
    return [k for k in ds.group_keys if k[j] == code]


def group_score_distributions(ds, model, include_sensitive=True):
    Z = ds.design_matrix(include_sensitive=include_sensitive)
    s = score_batch(model, Z)
    return s, {k: EmpiricalDistribution(s[idx]) for k, idx in ds.groups.items()}


def build_target(ds, model, spec, include_sensitive=True):
    """Target score distribution from the trained model on a dataset."""
    return _target(ds, *group_score_distributions(ds, model, include_sensitive),
                   spec)


def _target(ds, s, dists, spec):
    """build_target from group_score_distributions(ds, model) = (s, dists)."""
    if spec == "barycenter":
        return w1_barycenter(dists)
    if spec == "pooled":
        return EmpiricalDistribution(s)
    if spec.startswith("group:"):
        keys = _match_groups(ds, spec[len("group:"):])
        samples = np.concatenate([dists[k].samples for k in keys])
        return EmpiricalDistribution(samples)
    raise ValueError(f"unknown target spec {spec!r}")


def _load_and_split(cfg):
    ds = load_dataset(cfg.dataset, cfg.schema, cfg.delimiter)
    if cfg.desk_scale and ds.n > DESK_ROWS:
        rng = np.random.default_rng(cfg.split_seed)
        ds = ds.subset(np.sort(rng.choice(ds.n, DESK_ROWS, replace=False)))
    return train_test_split(ds, cfg.test_frac, cfg.split_seed)


def _resolve_schedule(cfg, ds):
    """Fill per-phase rate maps against the realized groups."""
    raw = getattr(cfg.schedule, "_raw_rates", None)
    if raw is None:
        return cfg.schedule
    keys = _match_groups(ds, cfg.schedule_group)
    phases = [({k: r for k in keys}, d)
              for r, (_, d) in zip(raw, cfg.schedule.phases)]
    return UnfairnessSchedule(phases)


def setup(cfg):
    """(train, test, LR model, target, training-score distributions): the
    start of every run and drift. Group selectors, and for DPP the test
    groups, are checked on the split before training: fail fast."""
    train, test = _load_and_split(cfg)
    if cfg.target.startswith("group:"):
        _match_groups(train, cfg.target[len("group:"):])
    _resolve_schedule(cfg, train)
    if cfg.method == "DPP":  # DPP maps each test group by its training scores
        for k in test.group_keys:
            if k not in train.groups:
                name = ", ".join(f"{c}={levels[v]}" for c, levels, v in zip(
                    test.sensitive_names, test.sensitive_levels, k))
                raise ValueError(f"DPP: test group {k} ({name}) has no training rows")
    model = train_lr(train, cfg.lr_l2, include_sensitive=cfg.include_sensitive)
    s, dists = group_score_distributions(train, model, cfg.include_sensitive)
    return train, test, model, _target(train, s, dists, cfg.target), dists


def _fit_ot(cfg, model, data, target, ot):
    """Fit COT or DOT on a dataset or drift phases: (model, rows, pairs).
    DOT has no dual pairs, so its pairs are None."""
    if cfg.method == "COT":
        return cot_run(model, data, target, ot, cfg.trace_every,
                       include_sensitive=cfg.include_sensitive)
    final, rows = dot_run(model, data, target, ot, cfg.trace_every,
                          include_sensitive=cfg.include_sensitive)
    return final, rows, None


def fit_and_evaluate(cfg, train, test, model, target, train_dists):
    """Dispatch cfg.method from a set-up and evaluate on test: (trace rows,
    metrics row, final model, dual pairs), with pairs only for COT."""
    final, rows, pairs = model, [], None
    if cfg.method in OT_METHODS:
        final, rows, pairs = _fit_ot(cfg, model, train, target, cfg.ot)
    s_test = score_batch(final, test.design_matrix(
        include_sensitive=cfg.include_sensitive))
    if cfg.method == "DPP":
        qmap = dpp_mod.fit_dpp({k: d.samples for k, d in train_dists.items()},
                               target)
        for k, idx in test.groups.items():
            s_test[idx] = dpp_mod.dpp_transform(qmap, k, s_test[idx])
    metrics_row = evaluate(test, s_test, target)
    metrics_row["method"] = cfg.method
    return rows, metrics_row, final, pairs


def run_experiment(cfg, return_state=False):
    """Train LR, build the target, dispatch the method, evaluate on test.

    Returns (trace rows, metrics row). With return_state=True also returns
    the final model and dual pairs (pairs only for COT).
    """
    result = fit_and_evaluate(cfg, *setup(cfg))
    return result if return_state else result[:2]


def persist_run(out_dir, cfg, rows, summary, model=None, pairs=None):
    """Write a run's artifacts to out_dir and return it. `summary` is a
    metrics row (metrics.json) or run_drift's phase stats (phase_stats.json)."""
    os.makedirs(out_dir, exist_ok=True)
    if rows:
        write_rows(os.path.join(out_dir, "trace.csv"), rows)
    with open(os.path.join(out_dir, "manifest.json"), "w") as fh:
        json.dump(resolve_manifest(cfg), fh, indent=2, default=str)
    drift = isinstance(summary, list)
    name = "phase_stats.json" if drift else "metrics.json"
    with open(os.path.join(out_dir, name), "w") as fh:
        json.dump(summary, fh, indent=2)
    if model is not None:
        model.save(os.path.join(out_dir, "model.json"))
    if pairs is not None:
        save_checkpoint(os.path.join(out_dir, "checkpoint.json"), model, pairs,
                        cfg.ot, cfg.schedule.total_updates if drift
                        else cfg.ot.num_updates)
    return out_dir


def run_batch_sweep(cfg, batch_sizes):
    """Final Wass1/Err-.5 of COT and DOT per batch size, all fitted from one
    set-up (load, split, LR model, target), with every cell checked first."""
    cells = [replace(cfg, method=method,
                     ot=replace(cfg.ot, batch_scores=size, batch_target=size))
             for size in batch_sizes for method in OT_METHODS]
    if not cells:
        raise ValueError("no batch sizes to sweep")
    start = setup(cells[0])  # an OT cell, so an INI method = DPP adds no check
    rows = []
    for c in cells:
        _, metrics_row, _, _ = fit_and_evaluate(c, *start)
        rows.append({"method": c.method, "batch_size": c.ot.batch_scores,
                     "wass1": metrics_row["wass1"],
                     "err05": metrics_row["err05"]})
    return rows


def phase_stats(rows, phases):
    """Per-phase minimum Wass1, its position, and updates-to-recovery.

    Recovery is the first in-phase update where Wass1 drops to 1.5 times
    the previous phase's minimum. Every phase must have a row.
    """
    stats = []
    start = 0
    prev_min = None
    for p, (_, duration) in enumerate(phases):
        end = start + duration
        in_phase = [r for r in rows if start < r["update"] <= end]
        wass = np.array([r["wass1"] for r in in_phase])
        upd = np.array([r["update"] for r in in_phase])
        i_min = int(np.argmin(wass))
        rec = None
        if prev_min is not None:
            hit = np.nonzero(wass <= 1.5 * prev_min)[0]
            rec = int(upd[hit[0]] - start) if hit.size else None
        stats.append({"phase": p, "min_wass1": float(wass[i_min]),
                      "updates_to_min": int(upd[i_min] - start),
                      "updates_to_recovery": rec})
        prev_min = float(wass[i_min])
        start = end
    return stats


def run_drift(cfg):
    """Run the configured method over the unfairness schedule.

    Evaluates on each phase's held-out subset, resampled to the phase's
    rates. trace_every may not exceed the shortest phase, so every phase has
    a trace row. Returns (trace rows, per-phase stats, final model, dual
    pairs), with pairs only for COT.
    """
    if cfg.schedule is None:
        raise ValueError("drift run requires a schedule")
    if cfg.method not in OT_METHODS:
        raise ValueError("drift runs support COT and DOT only")
    shortest = min(int(d) for _, d in cfg.schedule.phases)
    if cfg.trace_every > shortest:
        raise ValueError(f"trace_every = {cfg.trace_every} is longer than the "
                         f"shortest phase ({shortest} updates)")
    train, test, model, target, _ = setup(cfg)
    schedule = _resolve_schedule(cfg, train)

    train_seeds = np.random.SeedSequence(cfg.ot.seed).spawn(len(schedule.phases))
    phases = []
    for (rates, duration), ss in zip(schedule.phases, train_seeds):
        child = ss.spawn(2)
        phases.append((resample_positive_rate(train, rates, child[0]), duration,
                       resample_positive_rate(test, rates, child[1])))

    final, rows, pairs = _fit_ot(
        cfg, model, phases, target,
        replace(cfg.ot, num_updates=schedule.total_updates))
    return rows, phase_stats(rows, schedule.phases), final, pairs


def export_dual_snapshot(pairs, grid):
    """Rows (x, potential value per group and side) on a score grid."""
    grid = np.asarray(grid, dtype=float)
    rows = []
    for x in grid:
        row = {"x": float(x)}
        for key in sorted(pairs):
            tag = "_".join(map(str, key))
            row[f"lambda_scores_{tag}"] = float(
                eval_potential(pairs[key].score_side, x))
            row[f"lambda_target_{tag}"] = float(
                eval_potential(pairs[key].target_side, x))
        rows.append(row)
    return rows


def save_checkpoint(path, model, pairs, ot_cfg, iteration):
    """Text checkpoint: model weights, dual coefficients, feature maps.

    It feeds `export-duals`; it does not hold the sampling state, so a run
    cannot resume from it.
    """
    payload = {
        "iteration": int(iteration),
        "theta": [float(t) for t in model.theta],
        "names": list(model.names),
        "ot": {"D": ot_cfg.D, "sigma2": ot_cfg.sigma2, "seed": ot_cfg.seed,
               "reg": ot_cfg.reg.kind, "reg_strength": ot_cfg.reg.strength},
        "groups": {},
    }
    for key, pair in pairs.items():
        m = pair.score_side.map
        payload["groups"]["|".join(map(str, key))] = {
            "coeffs_scores": [float(c) for c in pair.score_side.coeffs],
            "coeffs_target": [float(c) for c in pair.target_side.coeffs],
            "omegas": [float(w) for w in m.omegas],
            "phases": [float(b) for b in m.phases],
            "sigma2": m.sigma2,
        }
    with open(path, "w") as fh:
        json.dump(payload, fh)


def load_checkpoint(path):
    """(model, dual pairs by group key, payload) of a save_checkpoint file.
    A missing field is a ValueError naming the file and the field."""
    with open(path) as fh:
        payload = json.load(fh)
    try:
        model = LogisticModel(np.array(payload["theta"]), payload["names"])
        pairs = {}
        for tag, g in payload["groups"].items():
            key = tuple(int(v) for v in tag.split("|"))
            m = RffMap(np.array(g["omegas"]), np.array(g["phases"]), g["sigma2"])
            pairs[key] = DualPair(DualPotential(np.array(g["coeffs_scores"]), m),
                                  DualPotential(np.array(g["coeffs_target"]), m))
    except KeyError as err:
        raise ValueError(f"checkpoint {path} has no field {err.args[0]!r}") from None
    return model, pairs, payload


def summary_table(run_dirs):
    """Aggregate metrics.json rows into Table-style summary rows. Directories
    without one (drift and sweep runs) are skipped."""
    rows = []
    for d in run_dirs:
        path = os.path.join(d, "metrics.json")
        if os.path.isfile(path):
            with open(path) as fh:
                rows.append({**json.load(fh), "run": d})
    if not rows:
        raise ValueError(f"no metrics.json in any of {list(run_dirs)}")
    return rows
