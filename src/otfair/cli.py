"""Command-line entry points for runs, drift, sweeps, tables and exports."""
from __future__ import annotations

import argparse
import configparser
import json
import os
import sys

import numpy as np

from .harness import (METHODS, OT_METHODS, export_dual_snapshot,
                      load_checkpoint, load_config, persist_run, run_batch_sweep,
                      run_drift, run_experiment, summary_table, write_rows)

# option (argparse dest) -> the [experiment] keys its value sets
OPTION_KEYS = {"seed": ("seed", "split_seed"),
               "batch_size": ("batch_scores", "batch_target"),
               "updates": ("updates",), "trace_every": ("trace_every",),
               "method": ("method",), "out": ("out",),
               "desk_scale": ("desk_scale",)}


def add_config_options(p):
    """--config and the options that set its keys (--method aside)."""
    p.add_argument("--config", required=True, help="experiment INI file")
    for option in ("--seed", "--out", "--batch-size", "--updates",
                   "--trace-every"):
        p.add_argument(option)
    p.add_argument("--desk-scale", action="store_const", const="true")


def config_from_args(args):
    """The --config file's config with the keys of each given option set."""
    overrides = {key: value for dest, keys in OPTION_KEYS.items()
                 if (value := getattr(args, dest, None)) not in (None, "")
                 for key in keys}
    return load_config(args.config, overrides)


def _run(args):
    """Carry out one parsed command."""
    if args.command == "export-duals":
        _, pairs, _ = load_checkpoint(args.checkpoint)
        rows = export_dual_snapshot(pairs, np.linspace(0.0, 1.0, args.grid))
        out = args.out or os.path.join(
            os.path.dirname(args.checkpoint) or ".", "duals.csv")
        write_rows(out, rows)
        print(out)
    elif args.command == "table":
        fields = ["run", "method", "err05", "wass1", "sdd", "spdd"]
        lines = ["\t".join(fields)] + [
            "\t".join(f"{r[f]:.3f}" if isinstance(r.get(f), float)
                      else str(r.get(f, "")) for f in fields)
            for r in summary_table(args.dirs)]
        text = "\n".join(lines)
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(text + "\n")
        print(text)
    elif args.command == "sweep-batch":
        cfg = config_from_args(args)
        sizes = [int(s) for s in args.sizes.replace(",", " ").split()]
        rows = run_batch_sweep(cfg, sizes)
        out = cfg.out_dir("sweep")
        os.makedirs(out, exist_ok=True)
        write_rows(os.path.join(out, "sweep.csv"), rows)
        print(os.path.join(out, "sweep.csv"))
    else:  # run, drift
        cfg = config_from_args(args)
        if args.command == "run":
            rows, summary, model, pairs = run_experiment(cfg, return_state=True)
        else:
            rows, summary, model, pairs = run_drift(cfg)
        name = ("" if args.command == "run" else "drift-") + cfg.method.lower()
        out = persist_run(cfg.out_dir(name), cfg, rows, summary, model, pairs)
        print(json.dumps(summary))
        print(out)


def main(argv=None):
    parser = argparse.ArgumentParser(prog="otfair")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="run one experiment (LR/COT/DOT/DPP)")
    add_config_options(p)
    p.add_argument("--method", choices=METHODS)

    p = sub.add_parser("sweep-batch", help="batch-size sweep over COT and DOT")
    add_config_options(p)
    p.add_argument("--sizes", default="10,20,64",
                   help="comma-separated batch sizes")

    p = sub.add_parser("drift", help="run over a changing-unfairness schedule")
    add_config_options(p)
    p.add_argument("--method", choices=OT_METHODS)

    p = sub.add_parser("export-duals", help="evaluate potentials on a grid")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--grid", type=int, default=101)
    p.add_argument("--out")

    p = sub.add_parser("table", help="aggregate run metrics into one table")
    p.add_argument("dirs", nargs="+")
    p.add_argument("--out")

    args = parser.parse_args(argv)
    try:  # bad input is one error line; other exceptions propagate
        _run(args)
    except (ValueError, OSError, configparser.Error) as err:
        parser.error(" ".join(str(err).split()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
