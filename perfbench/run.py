#!/usr/bin/env python3
"""Run one otfair benchmark workload in this process and report its metrics.

    python3 perfbench/run.py --workload cot_b64 --seed 1 --seconds 18 --trace 0

--trace 0 measures the end-to-end metrics named in BENCHMARK.json; --trace 1
wraps otfair's public functions (see tracer.py) and reports the per-layer
metrics instead, including the tracing overhead against untraced runs of the
same work. A readable report goes first; the last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics.
Workloads, metrics and the layer-to-metric mapping are described in
perfbench/README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback
from contextlib import nullcontext
from statistics import median

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKDIR = os.path.join(ROOT, ".perfbench_work")

SETUP_REPEATS = 5       # set-ups per untraced run; setup_s is their median
MIN_FITS = 3
MIN_REQUESTS = 1000     # so serve_p99_ms has at least 10 samples above it
MIN_AUDITS = 5
TURN_S = 0.25           # length of one serve or audit turn
# The host alternates, for tens of seconds at a time, between its usual speed
# and a state about 1.4x faster. A run's median flips to the fast state once
# half the run falls in it; the 75th percentile of operation times (25th of
# rates) flips only past three quarters, so per-operation timings are reported
# at this quantile.
SLOW_QUANTILE = 75


BLAS_THREADS = 1        # the operations are small; a second BLAS thread
                        # mostly adds run-to-run noise on a shared host


def fix_blas_threads():
    """Fix the BLAS/OpenMP thread count before numpy loads; returns nproc."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    return len(os.sched_getaffinity(0))


class Ledger:
    """Attempted and failed operations (set-ups, fits, requests, audits)."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def run(self, what, fn, *args):
        """Call fn(*args) as one operation; returns (result, seconds) or (None, None)."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            out = fn(*args)
        except Exception:
            self.fail(what, traceback.format_exc())
            return None, None
        return out, time.perf_counter() - t0

    def fail(self, what, detail):
        """Count the latest attempt of ``what`` as failed."""
        self.failed += 1
        if len(self.problems) < 10:
            self.problems.append(f"{what}: {detail}")

    def check(self, what, problems):
        if problems:
            self.fail(what, "; ".join(problems))


def spot_rows(n):
    """Rows recomputed one at a time to check a served batch."""
    return (0, n // 2, n - 1)


class Bench:
    def __init__(self, w, seed, seconds, ledger):
        import numpy as np
        import workloads
        self.np, self.wl = np, workloads
        self.w, self.seed, self.seconds, self.ledger = w, seed, seconds, ledger

    def requests(self, Z, codes):
        """Endless seeded stream of request batches (rows, group codes)."""
        rng = self.np.random.default_rng(self.np.random.SeedSequence([self.seed, 3]))
        while True:
            idx = rng.integers(0, Z.shape[0], self.wl.REQUEST_ROWS)
            yield Z[idx], codes[idx]

    def setup(self, first=None):
        """One timed set-up; returns (Setup or None, seconds)."""
        st, dt = self.ledger.run("setup", self.wl.setup, self.w, self.seed, WORKDIR)
        if st is None and first is None:
            raise SystemExit("set-up failed:\n" + "\n".join(self.ledger.problems))
        if st is not None and first is not None and not (
                self.np.array_equal(st.lr.theta, first.lr.theta)
                and self.np.array_equal(st.target.samples, first.target.samples)):
            self.ledger.fail("setup", "set-up is not deterministic under the seed")
        return st, dt

    def timed_fit(self, st):
        """One complete fit; returns (Fitted, [(updates, seconds) per block])."""
        stamps = []
        fitted = self.wl.fit(self.w, st, stamps)
        return fitted, self.wl.block_times(stamps, self.w.updates, self.w.block)

    # -- untraced run: end-to-end metrics -------------------------------
    def plain(self):
        """Set-ups, fits, requests and audits, interleaved over the run.

        Host noise on a shared machine drifts over seconds, so instead of
        giving each stage its own slice of the run, a scheduler repeatedly
        runs one turn of whichever stage is furthest below its share of the
        measured time (fit: one complete fit; serve and audit: TURN_S of
        requests or audits, long enough that the cold first request after
        another stage is far below the 99th percentile). Set-ups are spread
        evenly over the run and do not count towards --seconds; a failed
        one is counted and not retried.
        """
        np, wl, w, ledger = self.np, self.wl, self.w, self.ledger
        clock = time.perf_counter
        st, dt = self.setup()
        setup_times, setups_tried = [dt], 1
        blocks, fit_times, latencies, audit_times = [], [], [], []
        serve_turns = []  # (requests, summed latency) per serve turn
        fitted = row = stream = Z = codes = scores = None

        def fit_turn():
            nonlocal fitted, Z, codes, scores, stream
            out, dt = ledger.run("fit", self.timed_fit, st)
            if out is None:
                return
            out, fit_blocks = out
            fit_times.append(dt)
            blocks.extend(fit_blocks)
            if fitted is None:
                fitted = out
                Z, codes = wl.population_inputs(fitted)
                scores = wl.serve(fitted, Z, codes)
                ledger.check("fit", wl.check_outputs(fitted, scores, Z, codes,
                                                     spot_rows(len(scores))))
                stream = self.requests(Z, codes)
            elif not np.array_equal(out.model.theta, fitted.model.theta):
                ledger.fail("fit", "repeated fits with one seed differ")

        def serve_turn():
            end = clock() + TURN_S
            n0 = len(latencies)
            while clock() < end:
                Zr, cr = next(stream)
                out, dt = ledger.run("request", wl.serve, fitted, Zr, cr)
                if out is None:
                    continue
                rows = spot_rows(len(out)) if len(latencies) % 97 == 0 else ()
                ledger.check("request", wl.check_outputs(fitted, out, Zr, cr, rows))
                latencies.append(dt)
            if len(latencies) > n0:
                serve_turns.append((len(latencies) - n0, sum(latencies[n0:])))

        def audit_turn():
            nonlocal row
            end = clock() + TURN_S
            while clock() < end:
                out, dt = ledger.run("audit", wl.audit, fitted, scores)
                if out is None:
                    continue
                audit_times.append(dt)
                if row is None:
                    row = out
                    ledger.check("audit", wl.check_audit(fitted, scores, row))
                elif out != row:
                    ledger.fail("audit", "repeated audits of one population differ")

        turns = {"fit": fit_turn, "serve": serve_turn, "audit": audit_turn}
        shares = dict(zip(turns, w.shares))
        done = {"fit": fit_times, "serve": latencies, "audit": audit_times}
        minimum = {"fit": MIN_FITS, "serve": MIN_REQUESTS, "audit": MIN_AUDITS}
        used = dict.fromkeys(turns, 0.0)
        turns_run = dict.fromkeys(turns, 0)
        while True:
            measured = sum(used.values())
            if setups_tried < SETUP_REPEATS and (
                    measured >= self.seconds * setups_tried / (SETUP_REPEATS - 1)):
                setups_tried += 1
                extra, dt = self.setup(st)
                if extra is not None:
                    setup_times.append(dt)
                continue
            short = [k for k in turns if len(done[k]) < minimum[k]]
            if measured >= self.seconds and not short:
                break
            if fitted is None:
                stage = "fit"
            else:
                stage = min(short or turns, key=lambda k: used[k] / shares[k])
            t0 = clock()
            turns[stage]()
            used[stage] += clock() - t0
            turns_run[stage] += 1
            if turns_run[stage] >= 3 and not done[stage]:
                raise SystemExit(f"every {stage} attempt failed:\n"
                                 + "\n".join(ledger.problems))
        ledger.check("fit", wl.check_fit(st, fitted, Z, row))

        q = SLOW_QUANTILE
        block_rates = [n / dt for n, dt in blocks]
        turn_rates = [wl.REQUEST_ROWS * n / busy for n, busy in serve_turns]
        lat_ms = np.asarray(latencies) * 1e3
        values = {
            "setup_s": median(setup_times),
            "fit_s": median(fit_times),  # few fits per run: p75 would be near the max
            "updates_per_s": float(np.percentile(block_rates, 100 - q)),
            "test_wass1": row["wass1"],
            "test_err05": row["err05"],
            "serve_rows_per_s": float(np.percentile(turn_rates, 100 - q)),
            "serve_p50_ms": float(np.percentile(lat_ms, 50)),
            "serve_p90_ms": float(np.percentile(lat_ms, 90)),
            "serve_p99_ms": float(np.percentile(lat_ms, 99)),
            "audit_s": float(np.percentile(audit_times, q)),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "failed_frac": ledger.failed / ledger.attempted,
        }
        n_lat = f"{len(latencies)} requests of {wl.REQUEST_ROWS} rows"
        samples = {
            "setup_s": f"median of {len(setup_times)} of {setups_tried} set-ups",
            "fit_s": f"median of {len(fit_times)} fits of {w.updates} updates",
            "updates_per_s": f"p{100 - q} of {len(block_rates)} blocks of <= {w.block} updates",
            "test_wass1": f"{fitted.population.n} held-out rows",
            "test_err05": f"{fitted.population.n} held-out rows",
            "serve_rows_per_s": f"p{100 - q} of {len(turn_rates)} serve turns, {n_lat}",
            "serve_p50_ms": n_lat,
            "serve_p90_ms": n_lat,
            "serve_p99_ms": n_lat,
            "audit_s": f"p{q} of {len(audit_times)} audits of {fitted.population.n} rows",
            "peak_rss_mb": "whole process",
            "failed_frac": f"{ledger.failed} of {ledger.attempted} operations",
        }
        return values, samples, fitted

    # -- traced run: per-layer metrics ----------------------------------
    def work_unit(self, st, tracer):
        """One fit, a fixed request sequence, and one audit of the population."""
        wl, w = self.wl, self.w
        span = tracer.span if tracer else (lambda name, group: nullcontext())
        with span("bench.fit", ("update", 1)):
            fitted, _ = self.timed_fit(st)
        Z, codes = wl.population_inputs(fitted)
        stream = self.requests(Z, codes)
        for i in range(wl.UNIT_REQUESTS):
            Zr, cr = next(stream)
            with span("bench.request", ("request", i + 1)):
                wl.serve(fitted, Zr, cr)
        with span("bench.score_population", ("audit", 1)):
            scores = wl.serve(fitted, Z, codes)
        with span("bench.audit", ("audit", 1)):
            row = wl.audit(fitted, scores)
        return fitted, Z, codes, scores, row

    def traced(self):
        import tracer as tracer_mod
        np, w, ledger = self.np, self.w, self.ledger
        clock = time.perf_counter
        tr = tracer_mod.Tracer()  # raises if a traced function is missing

        tr.install()
        try:
            with tr.span("bench.setup", ("setup", 1)):
                st, _ = self.setup()
        finally:
            tr.uninstall()
        base_self, base_counts = tr.self_times(), dict(tr.counters)
        setup_spans = list(tr.spans)

        plain_s, traced_s, selfs, counts, spans = [], [], [], None, []
        deadline = clock() + self.seconds
        result = None
        while not traced_s or clock() < deadline:
            out, dt = ledger.run("work unit", self.work_unit, st, None)
            if out is None:
                raise SystemExit("untraced work unit failed:\n" + "\n".join(ledger.problems))
            plain_s.append(dt)
            result = out
            tr.reset()
            tr.install()
            try:
                out, dt = ledger.run("work unit", self.work_unit, st, tr)
            finally:
                tr.uninstall()
            if out is None:
                raise SystemExit("traced work unit failed:\n" + "\n".join(ledger.problems))
            traced_s.append(dt)
            selfs.append(tr.self_times())
            if counts is not None and counts != dict(tr.counters):
                ledger.fail("work unit", "call counts differ between repeated units")
            counts, spans = dict(tr.counters), list(tr.spans)
            if not np.array_equal(out[0].model.theta, result[0].model.theta):
                ledger.fail("work unit", "traced and untraced fits differ")

        fitted, Z, codes, scores, row = result
        ledger.check("fit", self.wl.check_outputs(fitted, scores, Z, codes,
                                                  spot_rows(len(scores))))
        ledger.check("audit", self.wl.check_audit(fitted, scores, row))
        ledger.check("fit", self.wl.check_fit(st, fitted, Z, row))

        tr.spans[:] = setup_spans + spans
        spans_path = os.path.join(WORKDIR, f"spans-{w.name}.jsonl")
        tr.write(spans_path)

        updates = w.updates
        values = {}
        for qual, (keys, _) in tracer_mod.TRACED.items():
            for key in ("calls",) + keys:
                name = f"{qual}.{key}"
                values[name] = base_counts.get(name, 0) + counts.get(name, 0)
            values[f"{qual}.s"] = base_self.get(qual, 0.0) + median(
                [s.get(qual, 0.0) for s in selfs])
        values["rff.eval_features.calls_per_update"] = (
            counts.get("rff.eval_features.calls", 0) / updates)
        values["cot.pairings_per_update"] = (
            counts.get("cot.dual_update.pairings", 0) / updates)
        values["trace.overhead_pct"] = 100.0 * (median(traced_s) / median(plain_s) - 1.0)
        values["trace.spans"] = len(spans)
        values["trace.unit_s"] = median(plain_s)
        bench_self = {name: median([s.get(name, 0.0) for s in selfs])
                      for name in ("bench.fit", "bench.request",
                                   "bench.score_population", "bench.audit")}
        values.update({f"{name}.s": v for name, v in bench_self.items()})
        samples = {name: f"1 set-up + median of {len(traced_s)} traced units"
                   for name in values}
        samples["trace.overhead_pct"] = (
            f"{len(traced_s)} traced vs {len(plain_s)} untraced units")
        print(f"spans: {len(tr.spans)} written to {os.path.relpath(spans_path, ROOT)}")
        return values, samples, fitted


def environment(w, seed, nproc, fitted):
    import numpy as np
    import scipy
    import workloads as wl
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):
        blas = "unknown"
    return {
        "python": sys.version.split()[0], "numpy": np.__version__,
        "scipy": scipy.__version__, "blas": blas, "blas_threads": BLAS_THREADS,
        "nproc": nproc, "seed": seed, "workload": w.name, "method": w.method,
        "rows": w.rows, "test_frac": wl.TEST_FRAC, "batch": w.batch,
        "updates_per_fit": w.updates, "phase_rates": list(w.phase_rates),
        "trace_every": w.trace_every, "request_rows": wl.REQUEST_ROWS,
        "population_rows": fitted.population.n,
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny: a few-second version for the smoke test")
    args = ap.parse_args(argv)

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(SRC, "otfair", "__init__.py")):
        print(f"error: otfair sources not found under {SRC}", file=sys.stderr)
        return 2
    with open(spec_path) as fh:
        spec = json.load(fh)

    nproc = fix_blas_threads()
    sys.path.insert(0, SRC)
    import otfair
    if os.path.dirname(os.path.dirname(os.path.abspath(otfair.__file__))) != SRC:
        print(f"error: imported otfair from {otfair.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    w = workloads.WORKLOADS[args.workload]
    if args.size == "tiny":
        w = workloads.tiny(w)
    os.makedirs(WORKDIR, exist_ok=True)

    ledger = Ledger()
    bench = Bench(w, args.seed, args.seconds, ledger)
    values, samples, fitted = bench.traced() if args.trace else bench.plain()

    listed = spec["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in listed if m["name"] not in values]
    if missing:
        raise KeyError(f"BENCHMARK.json lists metrics this run does not compute: {missing}")

    print("env: " + json.dumps(environment(w, args.seed, nproc, fitted)))
    units = {"test_wass1": "W1", "serve_p50_ms": "ms", "serve_p99_ms": "ms",
             "trace.unit_s": "s"}
    units.update({m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]})
    for name, value in values.items():
        unit = units.get(name, "")
        print(f"{name:42s} {value:>16.6g} {unit:8s} {samples.get(name, '')}")
    for problem in ledger.problems:
        print("FAILED " + problem, file=sys.stderr)
    result = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in listed},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
