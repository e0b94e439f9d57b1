"""Experiment harness: configs, runs, persistence, CLI, checkpoints."""
import argparse
import csv
import functools
import json
import os
import re
import runpy
import sys
from dataclasses import replace

import numpy as np
import pytest

from otfair import cli, harness, synthetic
from otfair.cot import OtConfig, Regularizer
from otfair.data import UnfairnessSchedule
from otfair.harness import (EXPERIMENT_KEYS, ExperimentConfig, build_target,
                            load_checkpoint, load_config, persist_run,
                            phase_stats, resolve_manifest,
                            run_batch_sweep, run_drift, run_experiment,
                            save_checkpoint, summary_table, write_rows)
from otfair.metrics import EmpiricalDistribution

from oracles import read_rows


@pytest.fixture(scope="module")
def small_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("harness") / "small.csv"
    synthetic.write_csv(path, 600, seed=3)
    return str(path)


def _config_text(dataset, extra=""):
    schema = "\n".join(f"{k} = {v}" for k, v in synthetic.SCHEMA.items())
    return (f"[experiment]\ndataset = {dataset}\nupdates = 40\n"
            f"batch_scores = 8\nbatch_target = 8\ntrace_every = 20\n"
            f"{extra}\n[schema]\n{schema}\n")


@pytest.fixture(scope="module")
def config_path(small_csv, tmp_path_factory):
    p = tmp_path_factory.mktemp("cfg") / "exp.ini"
    p.write_text(_config_text(small_csv))
    return str(p)


SCHEDULE_TEXT = "[schedule]\ngroup = gender=female\nrates = 0.3 0.1\nduration = 20\n"


@pytest.fixture(scope="module")
def drift_config_path(small_csv, tmp_path_factory):
    p = tmp_path_factory.mktemp("cfg") / "drift.ini"
    p.write_text(_config_text(small_csv) + SCHEDULE_TEXT)
    return str(p)


def test_load_config_parses_fields(config_path, small_csv):
    cfg = load_config(config_path)
    assert cfg.dataset == small_csv
    assert cfg.ot.num_updates == 40
    assert cfg.ot.batch_scores == 8
    assert cfg.ot.eps_theta is None  # method default applies at run time
    assert cfg.method == "COT"
    assert cfg.schema["race"] == "sensitive"


def test_load_config_schedule_section(drift_config_path):
    cfg = load_config(drift_config_path)
    assert cfg.schedule is not None
    assert cfg.schedule._raw_rates == [0.3, 0.1]
    assert cfg.schedule.total_updates == 40


def test_experiment_config_rejects_unknown_method():
    with pytest.raises(ValueError):
        ExperimentConfig(method="SVM")


@pytest.mark.parametrize("method", ["LR", "COT", "DOT", "DPP"])
def test_run_experiment_all_methods(config_path, method):
    cfg = load_config(config_path)
    cfg.method = method
    rows, row = run_experiment(cfg)
    assert set(row) >= {"err05", "wass1", "sdd", "spdd", "method"}
    assert 0.0 <= row["err05"] <= 1.0
    assert row["wass1"] >= 0.0
    if method in ("COT", "DOT"):
        assert rows[-1]["update"] == 40


def test_dpp_drives_wass1_near_zero(config_path):
    cfg = load_config(config_path)
    cfg.method = "DPP"
    _, dpp_row = run_experiment(cfg)
    cfg.method = "LR"
    _, lr_row = run_experiment(cfg)
    assert dpp_row["wass1"] < lr_row["wass1"]


def test_run_traces_identical_across_invocations(config_path, tmp_path):
    cfg = load_config(config_path)
    payloads = []
    for name in ("a", "b"):
        rows, row, model, pairs = run_experiment(cfg, return_state=True)
        out = persist_run(str(tmp_path / name), cfg, rows, row, model, pairs)
        with open(os.path.join(out, "trace.csv"), "rb") as fh:
            payloads.append(fh.read())
    assert payloads[0] == payloads[1]


def test_persist_run_writes_artifacts(config_path, tmp_path):
    cfg = load_config(config_path)
    rows, row, model, pairs = run_experiment(cfg, return_state=True)
    out = persist_run(str(tmp_path / "run"), cfg, rows, row, model, pairs)
    for name in ("trace.csv", "manifest.json", "metrics.json", "model.json",
                 "checkpoint.json"):
        assert os.path.exists(os.path.join(out, name))
    with open(os.path.join(out, "manifest.json")) as fh:
        manifest = json.load(fh)
    assert manifest["ot"]["num_updates"] == 40


def test_run_trace_csv_round_trip(tmp_path):
    rows = [{"update": 0, "wass1": 0.5, "err05": 0.2},
            {"update": 50, "wass1": 0.25, "err05": 0.21}]
    path = tmp_path / "trace.csv"
    write_rows(str(path), rows)
    back = read_rows(str(path))
    assert back == rows


def test_checkpoint_round_trip(config_path, tmp_path):
    cfg = load_config(config_path)
    _, _, model, pairs = run_experiment(cfg, return_state=True)
    path = str(tmp_path / "ckpt.json")
    save_checkpoint(path, model, pairs, cfg.ot, iteration=40)
    model2, pairs2, payload = load_checkpoint(path)
    assert payload["iteration"] == 40
    assert np.allclose(model.theta, model2.theta)
    for key in pairs:
        assert np.allclose(pairs[key].score_side.coeffs,
                           pairs2[key].score_side.coeffs)
        assert np.allclose(pairs[key].score_side.map.omegas,
                           pairs2[key].score_side.map.omegas)


def test_checkpoint_iteration_is_the_number_of_updates_run(
        config_path, drift_config_path, tmp_path):
    # trace_every = 7 divides neither 30 updates nor the schedule's 2 x 20, so
    # the last trace row (28, 35) is not the last update.
    for command, config, total in (("run", config_path, 30),
                                   ("drift", drift_config_path, 40)):
        out = str(tmp_path / command)
        assert cli.main([command, "--config", config, "--method", "COT",
                         "--updates", "30", "--trace-every", "7",
                         "--out", out]) == 0
        assert read_rows(os.path.join(out, "trace.csv"))[-1]["update"] \
            == total - total % 7
        with open(os.path.join(out, "checkpoint.json")) as fh:
            assert json.load(fh)["iteration"] == total


def test_build_target_specs(census, base_model):
    bary = build_target(census, base_model, "barycenter")
    pool = build_target(census, base_model, "pooled")
    grp = build_target(census, base_model, "group:gender=male")
    assert isinstance(bary, EmpiricalDistribution)
    assert pool.n == census.n
    assert grp.n == sum(len(census.groups[k]) for k in census.group_keys
                        if k[census.sensitive_names.index("gender")]
                        == census.sensitive_levels[
                            census.sensitive_names.index("gender")].index("male"))
    with pytest.raises(ValueError):
        build_target(census, base_model, "median")
    with pytest.raises(ValueError):
        build_target(census, base_model, "group:gender=unknown")


def test_phase_stats_hand_case():
    rows = ([{"update": u, "wass1": 1.0 - u / 100.0} for u in range(10, 101, 10)]
            + [{"update": u, "wass1": 0.5} for u in range(110, 201, 10)])
    stats = phase_stats(rows, [({}, 100), ({}, 100)])
    assert stats[0]["min_wass1"] == pytest.approx(0.0)
    assert stats[0]["updates_to_min"] == 100
    assert stats[0]["updates_to_recovery"] is None
    assert stats[1]["min_wass1"] == pytest.approx(0.5)
    assert stats[1]["updates_to_min"] == 10


def test_run_batch_sweep_shape(config_path):
    cfg = load_config(config_path)
    rows = run_batch_sweep(cfg, [4, 8])
    assert len(rows) == 4
    assert {r["method"] for r in rows} == {"COT", "DOT"}
    assert {r["batch_size"] for r in rows} == {4, 8}


def test_run_drift_requires_schedule(config_path):
    cfg = load_config(config_path)
    with pytest.raises(ValueError):
        run_drift(cfg)


def test_run_drift_rejects_method_before_setup(tmp_path, capsys):
    missing = str(tmp_path / "missing.csv")
    cfg = ExperimentConfig(dataset=missing, schema=synthetic.SCHEMA,
                           method="DPP", schedule=UnfairnessSchedule([({}, 10)]))
    with pytest.raises(ValueError, match="COT and DOT only"):
        run_drift(cfg)
    p = tmp_path / "dpp.ini"  # the INI's method applies when --method is absent
    p.write_text(_config_text(missing, "method = DPP") + SCHEDULE_TEXT)
    assert _cli_error(capsys, ["drift", "--config", str(p), "--out",
                               str(tmp_path / "run")]) \
        == "drift runs support COT and DOT only"
    assert not os.path.exists(tmp_path / "run")


def test_run_drift_small(drift_config_path):
    cfg = load_config(drift_config_path)
    rows, stats, model, pairs = run_drift(cfg)
    assert rows[-1]["update"] == 40
    assert len(stats) == 2


@pytest.mark.parametrize("method", ["COT", "DOT"], ids=["cli-COT", "cli-DOT"])
def test_drift_writes_the_run_artifacts(method, drift_config_path, tmp_path):
    out = str(tmp_path / "drift")
    assert cli.main(["drift", "--config", drift_config_path, "--method", method,
                     "--out", out]) == 0
    cfg = replace(load_config(drift_config_path), method=method, out=out)
    expected = {"trace.csv", "phase_stats.json", "manifest.json", "model.json"}
    if method == "COT":
        expected.add("checkpoint.json")
    assert set(os.listdir(out)) == expected

    ref = persist_run(str(tmp_path / "ref"), cfg, *run_drift(cfg))
    for name in ("trace.csv", "phase_stats.json", "manifest.json", "model.json"):
        with open(os.path.join(out, name), "rb") as a, \
                open(os.path.join(ref, name), "rb") as b:
            assert a.read() == b.read(), name

    if method == "COT":
        checkpoint = os.path.join(out, "checkpoint.json")
        assert cli.main(["export-duals", "--checkpoint", checkpoint,
                         "--grid", "5"]) == 0
        rows = read_rows(os.path.join(out, "duals.csv"))
        assert len(rows) == 5
        assert {f"lambda_scores_{k}" for k in ("0_0", "0_1", "1_0", "1_1")} \
            <= set(rows[0])


def test_cli_run_and_table(config_path, tmp_path, capsys):
    out = str(tmp_path / "lr_run")
    rc = cli.main(["run", "--config", config_path, "--method", "LR",
                   "--out", out])
    assert rc == 0
    assert os.path.exists(os.path.join(out, "metrics.json"))
    rc = cli.main(["table", out])
    assert rc == 0
    assert "err05" in capsys.readouterr().out


def test_cli_overrides_apply(config_path, tmp_path):
    out = str(tmp_path / "cot_run")
    rc = cli.main(["run", "--config", config_path, "--method", "COT",
                   "--updates", "20", "--trace-every", "10", "--out", out])
    assert rc == 0
    rows = read_rows(os.path.join(out, "trace.csv"))
    assert rows[-1]["update"] == 20


def _cli_error(capsys, argv):
    """Run the CLI on argv, which must fail as a usage error: exit status 2
    and one `otfair: error: ...` line. Returns the message after the prefix."""
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = [ln for ln in err.splitlines() if ln.startswith("otfair: error: ")]
    assert len(lines) == 1, err
    return lines[0][len("otfair: error: "):]


@pytest.mark.parametrize("command", ["run", "drift"])
def test_cli_reports_an_out_of_range_value_as_a_usage_error(
        drift_config_path, tmp_path, capsys, command):
    # An override the solver's config rejects is one argparse error line
    # with exit status 2, not a traceback.
    msg = _cli_error(capsys, [command, "--config", drift_config_path,
                              "--method", "COT", "--updates", "-5",
                              "--out", str(tmp_path / "run")])
    assert msg == "num_updates must be >= 1, got -5"
    assert not os.path.exists(tmp_path / "run")


@pytest.mark.parametrize("command", ["run", "drift", "sweep-batch"])
def test_cli_reports_a_missing_dataset_as_a_usage_error(tmp_path, spy_on,
                                                        capsys, command):
    missing = str(tmp_path / "missing.csv")
    p = tmp_path / "missing.ini"
    p.write_text(_config_text(missing) + SCHEDULE_TEXT)
    trained = spy_on("train_lr")
    msg = _cli_error(capsys, [command, "--config", str(p),
                              "--out", str(tmp_path / "run")])
    assert msg == f"[Errno 2] No such file or directory: {missing!r}"
    assert trained == []
    assert not os.path.exists(tmp_path / "run")


@pytest.mark.parametrize("sizes,message", [
    ("8,x", "invalid literal for int() with base 10: 'x'"),
    ("0", "batch sizes must be >= 1"),
    ("8 -2", "batch sizes must be >= 1"),
    (",", "no batch sizes to sweep"),
])
def test_cli_reports_bad_sweep_sizes_as_a_usage_error(config_path, tmp_path,
                                                      spy_on, capsys, sizes,
                                                      message):
    loads, trained = spy_on("load_dataset"), spy_on("train_lr")
    msg = _cli_error(capsys, ["sweep-batch", "--config", config_path,
                              "--sizes", sizes, "--out", str(tmp_path / "run")])
    assert msg == message
    assert loads == trained == []
    assert not os.path.exists(tmp_path / "run")


BAD_INPUTS = ["missing-config", "no-section-header", "unknown-target-level",
              "drift-method-DPP", "drift-without-schedule", "non-numeric-cell",
              "updates-abc", "missing-checkpoint", "table-without-metrics"]


@pytest.mark.parametrize("case", BAD_INPUTS)
def test_cli_reports_bad_input_as_one_usage_error_line(case, small_csv,
                                                        config_path, tmp_path,
                                                        spy_on, capsys):
    def write(name, text):
        (tmp_path / name).write_text(text)
        return str(tmp_path / name)

    with open(small_csv) as fh:
        lines = fh.read().splitlines()
    lines[3] = "abc" + lines[3][lines[3].index(","):]  # data row 2's age
    bad_data = write("bad.csv", "\n".join(lines) + "\n")
    argv, pattern = {
        "missing-config": (
            ["run", "--config", str(tmp_path / "missing.ini")],
            r"\[Errno 2\] No such file or directory: '.*missing\.ini'$"),
        "no-section-header": (
            ["run", "--config", write("flat.ini", f"dataset = {small_csv}\n")],
            r"File contains no section headers\. file: '.*flat\.ini', line: 1 "),
        "unknown-target-level": (
            ["run", "--config", write("martian.ini", _config_text(
                small_csv, "target = group:race=Martian"))],
            r"unknown level 'Martian' for column 'race'$"),
        "drift-method-DPP": (
            ["drift", "--config", write("dpp.ini", _config_text(
                small_csv, "method = DPP") + SCHEDULE_TEXT)],
            r"drift runs support COT and DOT only$"),
        "drift-without-schedule": (
            ["drift", "--config", config_path],
            r"drift run requires a schedule$"),
        "non-numeric-cell": (
            ["run", "--config", write("cell.ini", _config_text(bad_data))],
            r"row 2: cannot parse 'abc' in column 'age'$"),
        "updates-abc": (
            ["run", "--config", write("abc.ini", _config_text(small_csv).replace(
                "updates = 40", "updates = abc"))],
            r"updates = 'abc': invalid literal for int\(\) with base 10: 'abc'$"),
        "missing-checkpoint": (
            ["export-duals", "--checkpoint",
             str(tmp_path / "cot" / "checkpoint.json")],
            r"\[Errno 2\] No such file or directory: '.*checkpoint\.json'$"),
        "table-without-metrics": (
            ["table", str(tmp_path)], r"no metrics\.json in any of "),
    }[case]
    trained = spy_on("train_lr")
    msg = _cli_error(capsys, argv + ["--out", str(tmp_path / "run")])
    assert re.match(pattern, msg), msg
    assert trained == []
    assert not os.path.exists(tmp_path / "run")


def test_options_write_what_the_keys_they_set_write(small_csv, tmp_path,
                                                    monkeypatch):
    # The file's seed and sizes are overridden; the second file sets the
    # keys each option maps to, and both runs write the same bytes.
    base = tmp_path / "base.ini"
    base.write_text(_config_text(small_csv, "seed = 5\nsplit_seed = 3")
                    .replace("= 8\n", "= 16\n"))
    keyed = tmp_path / "keyed.ini"
    keyed.write_text(_config_text(small_csv, "seed = 0\nsplit_seed = 0")
                     .replace("updates = 40", "updates = 20")
                     .replace("trace_every = 20", "trace_every = 10"))
    runs = {"options": ["--config", str(base), "--seed", "0", "--batch-size",
                        "8", "--updates", "20", "--trace-every", "10"],
            "keys": ["--config", str(keyed)]}
    for name, args in runs.items():
        monkeypatch.setenv(harness.OUT_ROOT_ENV, str(tmp_path / name))
        assert cli.main(["run", "--method", "COT", *args]) == 0
    for artifact in ("manifest.json", "trace.csv"):
        with open(tmp_path / "options" / "cot" / artifact, "rb") as a, \
                open(tmp_path / "keys" / "cot" / artifact, "rb") as b:
            assert a.read() == b.read(), artifact


@pytest.mark.parametrize("updates,capped", [(None, 20_000), ("30000", 20_000),
                                            ("30", 30)])
def test_desk_scale_caps_the_updates_from_the_file_and_the_option(
        small_csv, tmp_path, updates, capped):
    text = _config_text(small_csv).replace(
        "updates = 40\n", "" if updates is None else f"updates = {updates}\n")
    plain = tmp_path / "plain.ini"
    plain.write_text(text)
    desk = tmp_path / "desk.ini"
    desk.write_text(text.replace("[schema]", "desk_scale = yes\n\n[schema]"))
    assert load_config(str(plain)).ot.num_updates == int(updates or 100_000)
    assert load_config(str(desk)).ot.num_updates == capped
    ap = argparse.ArgumentParser()
    cli.add_config_options(ap)
    for argv in (["--config", str(plain), "--desk-scale"],
                 ["--config", str(desk)]):
        cfg = cli.config_from_args(ap.parse_args(argv))
        assert (cfg.desk_scale, cfg.ot.num_updates) == (True, capped)
    cfg = cli.config_from_args(ap.parse_args(
        ["--config", str(plain), "--updates", "50000", "--desk-scale"]))
    assert cfg.ot.num_updates == harness.DESK_UPDATES
    ot = OtConfig(num_updates=int(updates or 100_000))  # a config built in Python
    assert ExperimentConfig(ot=ot).ot.num_updates == ot.num_updates
    assert ExperimentConfig(desk_scale=True, ot=ot).ot.num_updates == capped


def test_dpp_rejects_a_test_group_without_training_rows(tmp_path, capsys):
    # The one (Asian, female) record lands in the test split, so DPP has no
    # training scores to map that group's test scores from.
    data = tmp_path / "census.csv"
    synthetic.write_csv(data, 2000, seed=3)
    with open(data, "a") as fh:
        fh.write("40.00,12.00,40.00,0.000,private,Asian,female,<=50K\n")
    p = tmp_path / "dpp.ini"
    p.write_text(_config_text(data, "method = DPP\ntest_frac = 0.9"))
    out = tmp_path / "run"
    assert _cli_error(capsys, ["run", "--config", str(p), "--out", str(out)]) \
        == "DPP: test group (0, 0) (race=Asian, gender=female) has no training rows"
    assert not out.exists()


def test_readme_option_table_is_the_cli_option_keys():
    with open(os.path.join(ROOT, "README.md")) as fh:
        cells = [line.split("|")[1:3] for line in fh
                 if re.match(r"\| --\w", line)]
    table = {opt.strip(): [k.strip().strip("`") for k in keys.split(",")]
             for opt, keys in cells}
    assert table == {"--" + dest.replace("_", "-"): list(keys)
                     for dest, keys in cli.OPTION_KEYS.items()}


def test_cli_export_duals(config_path, tmp_path):
    out = str(tmp_path / "cot_run")
    cli.main(["run", "--config", config_path, "--method", "COT",
              "--out", out])
    rc = cli.main(["export-duals", "--checkpoint",
                   os.path.join(out, "checkpoint.json"), "--grid", "11"])
    assert rc == 0
    with open(os.path.join(out, "duals.csv")) as fh:
        lines = fh.read().strip().splitlines()
    assert len(lines) == 12  # header plus grid rows


def test_summary_table_reads_metrics(config_path, tmp_path):
    cfg = load_config(config_path)
    cfg.method = "LR"
    rows, row = run_experiment(cfg)
    out = persist_run(str(tmp_path / "lr"), cfg, rows, row)
    rows = summary_table([out])
    assert rows[0]["method"] == "LR"


def test_experiment_config_rejects_trace_every_below_one(small_csv, tmp_path,
                                                         config_path, capsys):
    with pytest.raises(ValueError, match="trace_every"):
        ExperimentConfig(trace_every=0)
    p = tmp_path / "zero.ini"
    p.write_text(_config_text(small_csv).replace("trace_every = 20",
                                                 "trace_every = 0"))
    with pytest.raises(ValueError, match="trace_every"):
        load_config(str(p))
    assert "trace_every" in _cli_error(capsys, [
        "run", "--config", config_path, "--method", "COT",
        "--trace-every", "0", "--out", str(tmp_path / "run")])
    assert not os.path.exists(tmp_path / "run")


@pytest.mark.parametrize("field,key,value", [
    ("D", "rff_features", 0),
    ("sigma2", "kernel_variance", 0.0),
    ("eps_dual", "eps_dual", -0.01),
    ("eps_theta", "eps_theta", 0.0),
    ("num_updates", "updates", -5),
])
def test_bad_solver_settings_fail_before_training(small_csv, tmp_path,
                                                  config_path, spy_on, field,
                                                  key, value, capsys):
    trained = spy_on("train_lr")
    match = rf"^{field}\b.* got {re.escape(str(value))}$"
    with pytest.raises(ValueError, match=match):
        OtConfig(**{field: value})
    p = tmp_path / "bad.ini"
    text = _config_text(small_csv)
    if key == "updates":
        text = text.replace("updates = 40\n", "")
    p.write_text(text.replace("[schema]", f"{key} = {value}\n\n[schema]"))
    with pytest.raises(ValueError, match=match):
        load_config(str(p))
    runs = [["--config", str(p)]]
    if key == "updates":
        runs.append(["--config", config_path, "--updates", str(value)])
    for args in runs:
        assert re.search(match, _cli_error(capsys, [
            "run", "--method", "COT", *args, "--out", str(tmp_path / "run")]))
    assert trained == []
    assert not os.path.exists(tmp_path / "run")


@pytest.mark.parametrize("value", ["-1", "nan"])
def test_bad_lr_l2_fails_before_training(small_csv, tmp_path, spy_on, value,
                                         capsys):
    trained = spy_on("train_lr")
    match = rf"^lr_l2 must be finite and >= 0, got {float(value)}$"
    with pytest.raises(ValueError, match=match):
        ExperimentConfig(lr_l2=float(value))
    p = tmp_path / "bad.ini"
    p.write_text(_config_text(small_csv, f"lr_l2 = {value}"))
    assert re.search(match, _cli_error(capsys, [
        "run", "--config", str(p), "--method", "LR",
        "--out", str(tmp_path / "run")]))
    assert trained == []
    assert not os.path.exists(tmp_path / "run")


@pytest.mark.parametrize("section,text", [
    ("experiment", "udpates = 20"),
    ("schedule", "rate = 0.3"),
])
def test_load_config_rejects_unknown_keys(small_csv, tmp_path, section, text):
    p = tmp_path / "typo.ini"
    if section == "experiment":
        p.write_text(_config_text(small_csv, text))
    else:
        p.write_text(_config_text(small_csv) + SCHEDULE_TEXT + text + "\n")
    key = text.split()[0]
    with pytest.raises(ValueError, match=rf"\[{section}\]: {key}"):
        load_config(str(p))


@pytest.mark.parametrize("word,value", [("on", True), ("Yes", True),
                                        ("1", True), ("off", False),
                                        ("no", False), ("0", False)])
def test_load_config_reads_boolean_words(small_csv, tmp_path, word, value):
    p = tmp_path / "flags.ini"
    p.write_text(_config_text(small_csv, f"antisymmetric = {word}\n"
                              f"include_sensitive = {word}\n"
                              f"desk_scale = {word}"))
    cfg = load_config(str(p))
    assert (cfg.ot.antisymmetric, cfg.include_sensitive, cfg.desk_scale) \
        == (value, value, value)


@pytest.mark.parametrize("key", ["antisymmetric", "include_sensitive",
                                 "desk_scale"])
def test_load_config_rejects_non_boolean_words(small_csv, tmp_path, key):
    p = tmp_path / "flags.ini"
    p.write_text(_config_text(small_csv, f"{key} = maybe"))
    with pytest.raises(ValueError, match=rf"^{key} = 'maybe': not one of "):
        load_config(str(p))


def test_experiment_config_rejects_unknown_target(small_csv, tmp_path):
    with pytest.raises(ValueError, match="target"):
        ExperimentConfig(target="median")
    p = tmp_path / "median.ini"
    p.write_text(_config_text(small_csv, "target = median"))
    with pytest.raises(ValueError, match="'median'"):
        load_config(str(p))


@pytest.fixture
def spy_on(monkeypatch):
    """spy_on(name) wraps harness.<name>; the returned list gets each call."""
    def wrap(name):
        calls, real = [], getattr(harness, name)

        def spy(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(harness, name, spy)
        return calls
    return wrap


@pytest.mark.parametrize("bad,match", [
    ("target", "unknown level 'unknown'"),
    ("schedule", "unknown sensitive column 'sex'"),
])
def test_bad_selectors_fail_before_training(drift_config_path, spy_on, bad,
                                            match):
    trained = spy_on("train_lr")
    cfg = load_config(drift_config_path)
    if bad == "target":
        cfg = replace(cfg, target="group:gender=unknown")
        run = run_experiment
    else:
        cfg = replace(cfg, schedule_group="sex=female")
        run = run_drift
    with pytest.raises(ValueError, match=match):
        run(cfg)
    assert trained == []


def test_bad_test_frac_fails_before_training(config_path, spy_on):
    trained = spy_on("train_lr")
    cfg = replace(load_config(config_path), test_frac=0.0)
    with pytest.raises(ValueError, match=r"^test_frac must be in \(0, 1\), got 0.0$"):
        run_experiment(cfg)
    assert trained == []


def test_run_batch_sweep_sets_up_once(config_path, spy_on):
    loads, trained = spy_on("load_dataset"), spy_on("train_lr")
    rows = run_batch_sweep(load_config(config_path), [4, 8])
    assert len(rows) == 4
    assert (len(loads), len(trained)) == (1, 1)


ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
TABLE_SCRIPT = os.path.join(ROOT, "scripts", "run_table.py")


def test_run_table_sets_up_once(config_path, spy_on, monkeypatch, capsys):
    loads, trained = spy_on("load_dataset"), spy_on("train_lr")
    monkeypatch.setattr(sys, "argv", [TABLE_SCRIPT, "--config", config_path,
                                      "--updates", "30", "--seed", "2"])
    runpy.run_path(TABLE_SCRIPT, run_name="__main__")
    assert (len(loads), len(trained)) == (1, 1)

    # The table of one run_experiment per method, as with a set-up each.
    cfg = load_config(config_path)
    cfg = replace(cfg, split_seed=2, ot=replace(cfg.ot, num_updates=30, seed=2))
    expected = [f"{'method':6s} {'Err-.5':>8s} {'Wass1':>8s} {'SDD':>8s} {'SPDD':>8s}"]
    for method in ("LR", "COT", "DOT", "DPP"):
        _, row = run_experiment(replace(cfg, method=method))
        expected.append(f"{method:6s} {row['err05']:8.3f} {row['wass1']:8.3f} "
                        f"{row['sdd']:8.3f} {row['spdd']:8.3f}")
    assert capsys.readouterr().out.splitlines() == expected


def test_run_table_writes_the_printed_rows_as_csv(tmp_path, monkeypatch,
                                                  capsys):
    data = tmp_path / "census.csv"
    synthetic.write_csv(data, 2_000, seed=4)
    config = tmp_path / "exp.ini"
    config.write_text(_config_text(data))
    out = tmp_path / "table.csv"
    monkeypatch.setattr(sys, "argv", [TABLE_SCRIPT, "--config", str(config),
                                      "--updates", "30", "--out", str(out)])
    runpy.run_path(TABLE_SCRIPT, run_name="__main__")
    printed = [line.split() for line in capsys.readouterr().out.splitlines()[1:]]
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["method", "err05", "wass1", "sdd", "spdd"]
    assert [[r[0]] + [f"{float(v):.3f}" for v in r[1:]]
            for r in rows[1:]] == printed


@pytest.mark.parametrize("case", ["missing-config", "no-section-header",
                                  "updates-abc"])
def test_run_table_reports_bad_input_as_one_usage_error_line(
        case, small_csv, tmp_path, monkeypatch, spy_on, capsys):
    config = tmp_path / "exp.ini"
    if case == "no-section-header":
        config.write_text(f"dataset = {small_csv}\n")
    elif case == "updates-abc":
        config.write_text(_config_text(small_csv).replace("updates = 40",
                                                          "updates = abc"))
    trained = spy_on("train_lr")
    monkeypatch.setattr(sys, "argv", [TABLE_SCRIPT, "--config", str(config)])
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        runpy.run_path(TABLE_SCRIPT, run_name="__main__")
    assert exc.value.code == 2
    err = capsys.readouterr().err
    lines = [ln for ln in err.splitlines() if ln.startswith("run_table.py: error: ")]
    assert len(lines) == 1 and "Traceback" not in err, err
    assert {"missing-config": "[Errno 2] No such file or directory",
            "no-section-header": "File contains no section headers",
            "updates-abc": "updates = 'abc': invalid literal"}[case] in lines[0]
    assert trained == []


def _shipped(name):
    return load_config(os.path.join(ROOT, "configs", name))


def test_shipped_census_file_is_the_table_and_sweep_set_up():
    cfg = _shipped("census.ini")
    assert cfg.schema == synthetic.SCHEMA
    # The config scripts/run_table.py built from its default flags.
    table = ExperimentConfig(
        dataset="data/census.csv", schema=synthetic.SCHEMA,
        ot=OtConfig(num_updates=20_000, batch_scores=64, batch_target=64,
                    seed=0),
        trace_every=200, split_seed=0)
    assert resolve_manifest(cfg) == resolve_manifest(table)
    # The batch-sweep script's differed only in trace_every (50), which
    # spaces the trace rows and leaves the sweep's results alone.
    sweep = ExperimentConfig(
        dataset="data/census.csv", schema=synthetic.SCHEMA,
        ot=OtConfig(num_updates=20_000, seed=0), split_seed=0)
    assert resolve_manifest(replace(cfg, trace_every=50)) \
        == resolve_manifest(sweep)


def test_sweep_results_do_not_depend_on_trace_every(config_path):
    cfg = load_config(config_path)
    assert run_batch_sweep(cfg, [4]) \
        == run_batch_sweep(replace(cfg, trace_every=7), [4])


def test_shipped_drift_file_is_the_drift_set_up():
    cfg = _shipped("census_drift.ini")
    assert cfg.schema == synthetic.SCHEMA
    # The config the drift script built from its default flags, out aside.
    rates = [0.2, 0.3, 0.4, 0.1, 0.4, 0.2]
    schedule = UnfairnessSchedule([({}, 5000) for _ in rates])
    schedule._raw_rates = rates
    drift = ExperimentConfig(
        dataset="data/census.csv", schema=synthetic.SCHEMA, method="COT",
        ot=OtConfig(seed=0), schedule=schedule,
        schedule_group="gender=female", trace_every=50, split_seed=0)
    assert resolve_manifest(cfg) == resolve_manifest(drift)


def test_absent_keys_keep_the_dataclass_defaults(small_csv, tmp_path):
    p = tmp_path / "bare.ini"
    schema = "\n".join(f"{k} = {v}" for k, v in synthetic.SCHEMA.items())
    p.write_text(f"[experiment]\ndataset = {small_csv}\n[schema]\n{schema}\n")
    assert resolve_manifest(load_config(str(p))) == resolve_manifest(
        ExperimentConfig(dataset=small_csv, schema=synthetic.SCHEMA))


def test_load_config_sets_every_key(tmp_path):
    values = {
        "dataset": "x.csv", "delimiter": ";", "method": "DOT",
        "target": "pooled", "split_seed": "3", "test_frac": "0.4",
        "lr_l2": "2.5", "include_sensitive": "no", "trace_every": "7",
        "desk_scale": "yes", "out": "o", "reg": "l2", "reg_strength": "0.5",
        "rff_features": "11", "kernel_variance": "0.3", "eps_dual": "0.01",
        "eps_theta": "0.004", "updates": "9", "batch_scores": "5",
        "batch_target": "5", "antisymmetric": "off", "pair_mode": "diagonal",
        "seed": "8"}
    assert set(values) == set(EXPERIMENT_KEYS)
    p = tmp_path / "all.ini"
    p.write_text("[experiment]\n" + "".join(f"{k} = {v}\n"
                                            for k, v in values.items()))
    assert resolve_manifest(load_config(str(p))) == resolve_manifest(
        ExperimentConfig(
            dataset="x.csv", delimiter=";", method="DOT", target="pooled",
            split_seed=3, test_frac=0.4, lr_l2=2.5, include_sensitive=False,
            trace_every=7, desk_scale=True, out="o",
            ot=OtConfig(reg=Regularizer("l2", 0.5), D=11, sigma2=0.3,
                        eps_dual=0.01, eps_theta=0.004, num_updates=9,
                        batch_scores=5, batch_target=5, antisymmetric=False,
                        pair_mode="diagonal", seed=8)))


def test_readme_key_table_is_the_loaded_keys_and_their_defaults():
    with open(os.path.join(ROOT, "README.md")) as fh:
        cells = [line.split("|")[1:3] for line in fh if line.startswith("| `")]
    table = {key.strip().strip("`"): default.strip() for key, default in cells}
    assert list(table) == list(EXPERIMENT_KEYS)
    unquoted = {"empty": "", "detected": None, "method default": None}
    for key, cell in table.items():
        name, parse = EXPERIMENT_KEYS[key]
        default = functools.reduce(getattr, name.split("."), ExperimentConfig())
        if cell.startswith("`"):
            literal = cell.strip("`")
            value = parse(literal)
        else:
            value = unquoted[cell]
        assert value == default, key


def test_summary_table_skips_dirs_without_metrics(config_path,
                                                  drift_config_path, tmp_path,
                                                  capsys):
    runs = tmp_path / "runs"
    for args in (["run", "--config", config_path, "--method", "LR"],
                 ["drift", "--config", drift_config_path],
                 ["sweep-batch", "--config", config_path, "--sizes", "4"]):
        name = args[0]
        assert cli.main(args + ["--out", str(runs / name)]) == 0
    dirs = sorted(str(p) for p in runs.iterdir())
    assert [r["run"] for r in summary_table(dirs)] == [str(runs / "run")]
    capsys.readouterr()
    assert cli.main(["table", *dirs]) == 0
    assert str(runs / "run") in capsys.readouterr().out
    with pytest.raises(ValueError, match="no metrics.json"):
        summary_table([str(runs / "drift"), str(runs / "sweep-batch")])


def test_cli_has_no_train_lr_command(config_path, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["train-lr", "--config", config_path])
    assert exc.value.code == 2
    assert "invalid choice: 'train-lr'" in capsys.readouterr().err
