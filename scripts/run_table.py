#!/usr/bin/env python3
"""Run LR, COT, DOT and DPP from one set-up and print the summary table.
With --out, also write the table's rows (method, err05, wass1, sdd, spdd)
to that CSV file.

Example:
    python scripts/make_data.py --out data/census.csv
    python scripts/run_table.py --config configs/census.ini --out table.csv
"""
import argparse
from dataclasses import replace

from otfair import cli, harness


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    cli.add_config_options(ap)
    args = ap.parse_args()
    try:  # bad input is one error line, as in the otfair command
        table(args)
    except cli.INPUT_ERRORS as err:
        ap.error(" ".join(str(err).split()))


def table(args):
    """Print (and with --out, write) the table for the parsed options."""
    cfg = cli.config_from_args(args)
    print(f"{'method':6s} {'Err-.5':>8s} {'Wass1':>8s} {'SDD':>8s} {'SPDD':>8s}")
    start = harness.setup(cfg)  # one load, split, LR model and target
    rows = []
    for method in harness.METHODS:
        _, row, _, _ = harness.fit_and_evaluate(replace(cfg, method=method),
                                                *start)
        print(f"{method:6s} {row['err05']:8.3f} {row['wass1']:8.3f} "
              f"{row['sdd']:8.3f} {row['spdd']:8.3f}")
        rows.append({f: row[f] for f in ("method", "err05", "wass1", "sdd",
                                         "spdd")})
    if args.out:
        harness.write_rows(args.out, rows)


if __name__ == "__main__":
    main()
