"""Smoke test of the benchmark: every workload at tiny size, plain and traced.

    python3 -m pytest perfbench/test_smoke.py -q

Each case runs perfbench/run.py in its own process, as a benchmark run does,
and checks the result line against BENCHMARK.json.
"""
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, RUN, *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_reports_every_listed_metric(workload, trace):
    out = run("--workload", workload, "--seed", "3", "--seconds", "0.5",
              "--trace", str(trace), "--size", "tiny")
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, out.stderr
    assert result["attempted"] >= 1
    listed = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in listed]
    for m in listed:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    if trace and workload == "cot_b64":
        assert result["metrics"]["rff.eval_features.calls_per_update"]["value"] == 24


def test_missing_traced_function_fails_loudly(monkeypatch):
    monkeypatch.syspath_prepend(os.path.join(ROOT, "src"))
    monkeypatch.syspath_prepend(HERE)
    import otfair.rff
    import tracer

    monkeypatch.delattr(otfair.rff, "eval_features")
    with pytest.raises(LookupError, match="rff.eval_features"):
        tracer.Tracer()


def test_fails_without_the_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                          WORKLOADS[0], "--seed", "1", "--seconds", "1"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert out.returncode != 0
    assert "metrics" not in out.stdout


@pytest.mark.parametrize("workload", WORKLOADS)
def test_fit_matches_the_harness(workload, tmp_path, monkeypatch):
    """Each workload's set-up and fit give what run_experiment / run_drift give."""
    from dataclasses import replace

    import numpy as np

    monkeypatch.syspath_prepend(os.path.join(ROOT, "src"))
    monkeypatch.syspath_prepend(HERE)
    from otfair import harness, synthetic
    from otfair.data import UnfairnessSchedule
    import workloads as wl

    w = wl.tiny(wl.WORKLOADS[workload])
    st = wl.setup(w, 5, str(tmp_path))
    stamps = []
    fitted = wl.fit(w, st, stamps)
    assert len(wl.block_times(stamps, w.updates, w.block)) == -(-w.updates // w.block)

    path = str(tmp_path / "census.csv")
    synthetic.write_csv(path, w.rows, seed=5)
    cfg = replace(st.cfg, dataset=path)
    if w.drift:
        cfg.schedule = UnfairnessSchedule(
            [({}, w.updates // len(w.phase_rates))] * len(w.phase_rates))
        cfg.schedule._raw_rates = list(w.phase_rates)
        cfg.schedule_group = "gender=female"
        _, _, final, _ = harness.run_drift(cfg)
    else:
        _, row, final, _ = harness.run_experiment(cfg, return_state=True)
    assert np.array_equal(final.theta, fitted.model.theta)
    if w.method == "DPP":
        Z, codes = wl.population_inputs(fitted)
        got = wl.audit(fitted, wl.serve(fitted, Z, codes))
        assert got == {k: v for k, v in row.items() if k != "method"}


def test_failed_later_setup_is_counted_not_retried(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(os.path.join(ROOT, "src"))
    monkeypatch.syspath_prepend(HERE)
    import run
    import workloads as wl

    monkeypatch.setattr(run, "WORKDIR", str(tmp_path))
    real, calls = wl.setup, []

    def flaky(*args):
        calls.append(args)
        if len(calls) > 1:
            raise OSError("census file removed")
        return real(*args)

    monkeypatch.setattr(wl, "setup", flaky)
    ledger = run.Ledger()
    run.Bench(wl.tiny(wl.WORKLOADS["dot_b256"]), 3, 0.5, ledger).plain()
    assert len(calls) == run.SETUP_REPEATS
    assert ledger.failed == run.SETUP_REPEATS - 1
