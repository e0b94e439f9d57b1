"""Command-line entry points for runs, drift, sweeps, tables and exports."""
from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace

import numpy as np

from .harness import (export_dual_snapshot, load_checkpoint, load_config,
                      persist_run, run_batch_sweep, run_drift, run_experiment,
                      summary_table, write_rows)


def _apply_overrides(cfg, args):
    ot = cfg.ot
    if args.seed is not None:
        ot = replace(ot, seed=args.seed)
        cfg = replace(cfg, split_seed=args.seed)
    if args.batch_size is not None:
        ot = replace(ot, batch_scores=args.batch_size, batch_target=args.batch_size)
    if args.updates is not None:
        ot = replace(ot, num_updates=args.updates)
    cfg = replace(cfg, ot=ot)
    if args.trace_every is not None:
        cfg = replace(cfg, trace_every=args.trace_every)
    if getattr(args, "method", None):
        cfg = replace(cfg, method=args.method)
    if args.desk_scale:
        cfg = replace(cfg, desk_scale=True,
                      ot=replace(cfg.ot, num_updates=min(cfg.ot.num_updates, 20_000)))
    if args.out:
        cfg = replace(cfg, out=args.out)
    return cfg


def _add_common(p):
    p.add_argument("--config", required=True, help="experiment INI file")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default="")
    p.add_argument("--batch-size", type=int, default=None)
    p.add_argument("--updates", type=int, default=None)
    p.add_argument("--trace-every", type=int, default=None)
    p.add_argument("--desk-scale", action="store_true")


def main(argv=None):
    parser = argparse.ArgumentParser(prog="otfair")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="run one experiment (LR/COT/DOT/DPP)")
    _add_common(p)
    p.add_argument("--method", choices=("LR", "COT", "DOT", "DPP"))

    p = sub.add_parser("sweep-batch", help="batch-size sweep over COT and DOT")
    _add_common(p)
    p.add_argument("--sizes", default="10,20,64",
                   help="comma-separated batch sizes")

    p = sub.add_parser("drift", help="run over a changing-unfairness schedule")
    _add_common(p)
    p.add_argument("--method", choices=("COT", "DOT"))

    p = sub.add_parser("export-duals", help="evaluate potentials on a grid")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--grid", type=int, default=101)
    p.add_argument("--out", default="")

    p = sub.add_parser("table", help="aggregate run metrics into one table")
    p.add_argument("dirs", nargs="+")
    p.add_argument("--out", default="")

    args = parser.parse_args(argv)

    if args.command == "export-duals":
        _, pairs, _ = load_checkpoint(args.checkpoint)
        rows = export_dual_snapshot(pairs, np.linspace(0.0, 1.0, args.grid))
        out = args.out or os.path.join(
            os.path.dirname(args.checkpoint) or ".", "duals.csv")
        write_rows(out, rows)
        print(out)
        return 0

    if args.command == "table":
        rows = summary_table(args.dirs)
        fields = ["run", "method", "err05", "wass1", "sdd", "spdd"]
        lines = ["\t".join(fields)]
        lines += ["\t".join(f"{r[f]:.3f}" if isinstance(r.get(f), float)
                            else str(r.get(f, "")) for f in fields)
                  for r in rows]
        text = "\n".join(lines)
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(text + "\n")
        print(text)
        return 0

    try:
        cfg = _apply_overrides(load_config(args.config), args)
        sizes = getattr(args, "sizes", "").replace(",", " ").split()
        sizes = [int(s) for s in sizes]
        for size in sizes:  # each sweep cell's config, checked before any fit
            replace(cfg.ot, batch_scores=size, batch_target=size)
    except ValueError as err:
        parser.error(str(err))

    try:  # a missing dataset file fails in load_dataset, before train_lr
        if args.command == "sweep-batch":
            rows = run_batch_sweep(cfg, sizes)
        elif args.command == "run":
            rows, summary, model, pairs = run_experiment(cfg, return_state=True)
        else:
            rows, summary, model, pairs = run_drift(cfg)
    except FileNotFoundError as err:
        parser.error(f"dataset file {err.filename!r} not found")

    if args.command == "sweep-batch":
        out = cfg.out_dir("sweep")
        os.makedirs(out, exist_ok=True)
        write_rows(os.path.join(out, "sweep.csv"), rows)
        print(os.path.join(out, "sweep.csv"))
        return 0
    name = cfg.method.lower() if args.command == "run" else "drift"
    out = persist_run(cfg.out_dir(name), cfg, rows, summary, model, pairs)
    print(json.dumps(summary))
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
