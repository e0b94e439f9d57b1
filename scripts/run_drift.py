#!/usr/bin/env python3
"""Run COT or DOT over a schedule of changing group positive rates.

The default schedule shifts the female positive rate through
.2, .3, .4, .1, .4, .2 with 5,000 updates per phase, evaluating on a
held-out subset resampled to each phase's rate. The run directory gets the
same artifacts as `otfair drift`.
"""
import argparse

from otfair import synthetic
from otfair.cot import OtConfig
from otfair.data import UnfairnessSchedule
from otfair.harness import ExperimentConfig, persist_run, run_drift


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--dataset", default="data/census.csv")
    ap.add_argument("--method", choices=("COT", "DOT"), default="COT")
    ap.add_argument("--rates", default="0.2,0.3,0.4,0.1,0.4,0.2")
    ap.add_argument("--duration", type=int, default=5000)
    ap.add_argument("--group", default="gender=female")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--trace-every", type=int, default=50)
    ap.add_argument("--out", default="runs/drift")
    args = ap.parse_args()

    rates = [float(r) for r in args.rates.replace(",", " ").split()]
    schedule = UnfairnessSchedule([({}, args.duration) for _ in rates])
    schedule._raw_rates = rates
    cfg = ExperimentConfig(
        dataset=args.dataset, schema=synthetic.SCHEMA, method=args.method,
        ot=OtConfig(seed=args.seed), schedule=schedule,
        schedule_group=args.group, trace_every=args.trace_every,
        split_seed=args.seed, out=args.out,
    )
    rows, stats, model, pairs = run_drift(cfg)
    persist_run(args.out, cfg, rows, stats, model, pairs)
    for s in stats:
        print(f"phase {s['phase']}: min Wass1 {s['min_wass1']:.3f} "
              f"at update {s['updates_to_min']}, recovery "
              f"{s['updates_to_recovery']}")


if __name__ == "__main__":
    main()
