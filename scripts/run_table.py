#!/usr/bin/env python3
"""Run LR, COT, DOT and DPP on one dataset and print the summary table.

Example:
    python scripts/make_data.py --out data/census.csv
    python scripts/run_table.py --dataset data/census.csv --updates 20000
"""
import argparse
from dataclasses import replace

from otfair import harness, synthetic
from otfair.cot import OtConfig


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--dataset", default="data/census.csv")
    ap.add_argument("--updates", type=int, default=20_000)
    ap.add_argument("--batch-size", type=int, default=64)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--trace-every", type=int, default=200)
    args = ap.parse_args()

    cfg = harness.ExperimentConfig(
        dataset=args.dataset, schema=synthetic.SCHEMA,
        ot=OtConfig(num_updates=args.updates, batch_scores=args.batch_size,
                    batch_target=args.batch_size, seed=args.seed),
        trace_every=args.trace_every, split_seed=args.seed,
    )
    header = f"{'method':6s} {'Err-.5':>8s} {'Wass1':>8s} {'SDD':>8s} {'SPDD':>8s}"
    print(header)
    setup = harness._setup(cfg)  # one load, split, LR model and target
    for method in ("LR", "COT", "DOT", "DPP"):
        _, row, _, _ = harness._fit_and_evaluate(replace(cfg, method=method),
                                                 *setup)
        print(f"{method:6s} {row['err05']:8.3f} {row['wass1']:8.3f} "
              f"{row['sdd']:8.3f} {row['spdd']:8.3f}")


if __name__ == "__main__":
    main()
