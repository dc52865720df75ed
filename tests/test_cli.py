"""Experiment runner: config validation, row emission, verify, exit codes."""

import argparse
import concurrent.futures
import gc
import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nlasim.cli as cli
import nlasim.fock as fock_module
import nlasim.nla as nla_module
import nlasim.oracle as oracle_module
from nlasim.cli import (ConfigError, build_experiment, main, render_rows,
                        run_verify)

AMPLIFY_MIN = {"alphas": [0.2], "target_gains": [1.0, 2.0],
               "n_units": [1, 2], "kinds": ["QS", "PC"], "n_max": 20,
               "optimizer": {"grid_points": 16, "refine_tolerance": 1e-3}}


def write_config(tmp_path, payload, name="cfg.json"):
    """Write ``payload`` as JSON, or as is if it is bytes; None writes no
    file and returns the path of the missing one."""
    path = tmp_path / name
    if isinstance(payload, bytes):
        path.write_bytes(payload)
    elif payload is not None:
        path.write_text(json.dumps(payload))
    return str(path)


def _spawn(*args, check=True):
    """Run ``python ARGS`` in a fresh interpreter that imports this tree."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    return subprocess.run([sys.executable, *args], check=check,
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src))


def _loaded_after_cli_import(prefixes):
    """Modules under ``prefixes`` that a fresh ``import nlasim.cli`` loads."""
    code = ("import sys, nlasim.cli; "
            f"print(sorted(m for m in sys.modules if any(m == p or "
            f"m.startswith(p + '.') for p in {tuple(prefixes)!r})))")
    return _spawn("-c", code).stdout.strip()


def test_cli_import_loads_no_scipy():
    # numpy is the only runtime dependency; scipy serves the tests alone
    assert _loaded_after_cli_import(["scipy"]) == "[]"


def test_cli_import_loads_no_process_pool():
    # a serial run never starts a pool, so it pays no multiprocessing import;
    # --workers 2 still fans out (test_distill_deterministic_across_workers)
    assert _loaded_after_cli_import(
        ["multiprocessing", "subprocess", "socket", "concurrent"]) == "[]"


def test_cli_import_loads_no_oracle():
    # only verify runs the oracle circuits, so only verify compiles them
    assert _loaded_after_cli_import(["nlasim.oracle"]) == "[]"


# ---------------------------------------------------------------------------
# the frozen import heap: no collection, exit's included, walks it

def _freeze_count_after(module):
    code = f"import gc, {module}; print(gc.get_freeze_count())"
    return int(_spawn("-c", code).stdout)


def test_library_import_freezes_nothing():
    assert _freeze_count_after("nlasim") == 0


def test_cli_import_freezes_the_import_heap():
    assert _freeze_count_after("nlasim.cli") > 0


def test_main_freezes_nothing_per_call(tmp_path, capsys):
    # the freeze runs once, at import: a per-call freeze would move each
    # call's leftovers (the parser's cycles) into the permanent generation
    ok = write_config(tmp_path, {"checks": ["nsplitter_unitary"]}, "ok.json")
    bad = write_config(tmp_path, {"attenuations_db": [0.0], "n_max": 10},
                       "bad.json")
    before = gc.get_freeze_count()
    codes = [main(["verify", "--config", ok]) for _ in range(19)]
    codes.append(main(["distill", "--config", bad]))
    capsys.readouterr()
    assert codes == [0] * 19 + [2]
    assert gc.get_freeze_count() == before


# ---------------------------------------------------------------------------
# validation

def test_unknown_keys_rejected():
    with pytest.raises(ConfigError):
        build_experiment("amplify", {"alphas": [0.2], "target_gains": [1.0],
                                     "n_units": [1], "frobnicate": 3})


def test_empty_grid_rejected():
    with pytest.raises(ConfigError):
        build_experiment("amplify", {"alphas": [], "target_gains": [1.0],
                                     "n_units": [1]})


def test_bad_kind_rejected():
    with pytest.raises(ConfigError):
        build_experiment("distill", {"attenuations_db": [5.0],
                                     "kinds": ["QQ"]})


def test_experiment_mismatch_rejected():
    with pytest.raises(ConfigError):
        build_experiment("amplify", {"experiment": "distill", "alphas": [0.2],
                                     "target_gains": [1.0], "n_units": [1]})


def test_unknown_experiment_is_config_error():
    message = "experiment: unknown experiment 'nope'"
    with pytest.raises(ConfigError, match=re.escape(message)):
        build_experiment("nope", {})


def test_scalar_defaults_filled():
    p = build_experiment("distill", {"attenuations_db": [0.0]})
    assert p["scenario"] == 1
    assert p["r1_db"] == 5.0
    assert p["kinds"] == ("QS", "PC")
    assert p["n_units"] == (2,)
    assert p["strategy"] == "unfiltered"


def test_kind_order_is_canonical():
    p = build_experiment("distill", {"attenuations_db": [0.0],
                                     "kinds": ["PC", "QS"]})
    assert p["kinds"] == ("QS", "PC")


def test_optimizer_subschema():
    with pytest.raises(ConfigError):
        build_experiment("distill", {"attenuations_db": [0.0],
                                     "optimizer": {"bogus": 1}})
    with pytest.raises(ConfigError):
        build_experiment("distill", {"attenuations_db": [0.0],
                                     "optimizer": {"t_min": 0.9,
                                                   "t_max": 0.1}})


def test_flag_overrides_beat_config(tmp_path):
    raw = {"attenuations_db": [0.0], "format": "csv", "workers": 4}
    cfg = build_experiment("distill", raw, format="jsonl", workers=1)
    assert cfg["format"] == "jsonl"
    assert cfg["workers"] == 1


# any JSON value at any key: accepted or a ConfigError, never another error.
# Integers reach 10**12: k_modes, n_max and grid_points are bounded, so a huge
# value is a ConfigError, not a k_modes-long source profile built to check it.
# Integers beyond the float range reach every number key too.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-10, 100)
    | st.integers(-10 ** 12, 10 ** 12) | st.floats()
    | st.integers(10 ** 308, 10 ** 320) | st.integers(-10 ** 320, -10 ** 308)
    | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=8)
VALID_BASE = {"amplify": {"alphas": [0.2], "target_gains": [1.5],
                          "n_units": [1]},
              "distill": {"attenuations_db": [0.0]},
              "cascade-compare": {}, "sweep": {}, "verify": {}}
SLOTS = [(experiment, key) for experiment, table in sorted(cli._TABLES.items())
         for key in [*table, *(f"optimizer.{k}" for k in cli._OPTIMIZER)]]


@settings(max_examples=200, deadline=None)
@given(slot=st.sampled_from(SLOTS), value=JSON_VALUES)
def test_any_json_value_is_accepted_or_config_error(slot, value):
    experiment, key = slot
    raw = dict(VALID_BASE[experiment])
    if key.startswith("optimizer."):
        raw["optimizer"] = {key.split(".", 1)[1]: value}
    else:
        raw[key] = value
    try:
        build_experiment(experiment, raw)
    except ConfigError:
        pass


# ---------------------------------------------------------------------------
# rendering

def test_render_csv_float_format():
    text = render_rows(["a", "b"], [[1 / 3, "x"], [2.0, "y"]], "csv")
    lines = text.strip().split("\n")
    assert lines[0] == "a,b"
    assert lines[1].startswith("0.33333333333333331")
    # 17 significant digits round-trip
    assert float(lines[1].split(",")[0]) == 1 / 3


def test_render_jsonl_parses_back():
    text = render_rows(["t", "v"], [[0.1, 2], [0.2, 3]], "jsonl")
    records = [json.loads(line) for line in text.strip().split("\n")]
    assert records[0]["v"] == 2
    assert float(records[1]["t"]) == 0.2


# ---------------------------------------------------------------------------
# subcommands end to end

def test_amplify_minimal_grid_rows(tmp_path, capsys):
    path = write_config(tmp_path, AMPLIFY_MIN)
    assert main(["amplify", "--config", path]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    header, rows = lines[0].split(","), lines[1:]
    assert len(rows) == 8                      # 1 x 2 x 2 x 2 grid
    assert header[:4] == ["alpha", "target_gain", "kind", "n_units"]
    # scissors dominate catalysis at equal parameters
    table = {}
    for row in rows:
        cells = dict(zip(header, row.split(",")))
        key = (cells["target_gain"], cells["n_units"])
        table.setdefault(key, {})[cells["kind"]] = (
            float(cells["fidelity"]), float(cells["success_prob"]))
    for by_kind in table.values():
        assert by_kind["QS"][0] >= by_kind["PC"][0]
        assert by_kind["QS"][1] >= by_kind["PC"][1]


def test_distill_rows_and_eta_column(tmp_path, capsys):
    path = write_config(tmp_path, {
        "attenuations_db": [0.0, 6.0], "kinds": ["PC"], "n_units": [2],
        "n_max": 18, "optimizer": {"grid_points": 8,
                                   "refine_tolerance": 1e-2}})
    assert main(["distill", "--config", path]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    header = lines[0].split(",")
    assert len(lines) == 3
    for row in lines[1:]:
        cells = dict(zip(header, row.split(",")))
        assert float(cells["eta"]) == pytest.approx(
            10 ** (-float(cells["attenuation_db"]) / 10), rel=1e-15)
        assert float(cells["total_logneg"]) > 0.0
        assert 0 < float(cells["success_prob"]) <= 1
        assert float(cells["reference_logneg"]) > 0.0


def test_distill_deterministic_across_workers(tmp_path):
    payload = {"attenuations_db": [6.0], "kinds": ["PC"], "n_units": [1],
               "n_max": 18,
               "optimizer": {"grid_points": 8, "refine_tolerance": 1e-2}}
    path = write_config(tmp_path, payload)
    out1, out2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    assert main(["distill", "--config", path, "--out", out1,
                 "--workers", "1"]) == 0
    assert main(["distill", "--config", path, "--out", out2,
                 "--workers", "2"]) == 0
    assert open(out1, "rb").read() == open(out2, "rb").read()


@pytest.mark.parametrize("workers", ["1", "2"])
def test_spawned_distill_matches_in_process_bytes(tmp_path, workers):
    # a separate process exits from a frozen heap (at --workers 2 its pool
    # is forked from one) and must still flush every byte of the table
    path = write_config(tmp_path, {
        "attenuations_db": [0.0, 6.0], "kinds": ["PC"], "n_units": [1],
        "n_max": 18, "optimizer": {"grid_points": 8,
                                   "refine_tolerance": 1e-2}})
    out = tmp_path / "in_process.csv"
    assert main(["distill", "--config", path, "--out", str(out),
                 "--workers", workers]) == 0
    done = _spawn("-m", "nlasim", "distill", "--config", path,
                  "--workers", workers)
    assert done.stderr == ""
    assert done.stdout.encode() == out.read_bytes()


def test_sweep_emits_grid(tmp_path, capsys):
    path = write_config(tmp_path, {
        "attenuation_db": 5.0, "kind": "PC", "n_units": 2, "n_max": 18,
        "optimizer": {"grid_points": 6}})
    assert main(["sweep", "--config", path]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert len(lines) == 7
    ts = [float(line.split(",")[4]) for line in lines[1:]]
    assert ts == sorted(ts)


def test_sweep_deterministic_across_workers(tmp_path, monkeypatch):
    # the T grid is one batched call: no pool at any worker count
    def no_pool(*args):
        raise AssertionError("sweep started a pool")

    monkeypatch.setattr(cli, "_fan_out", no_pool)
    path = write_config(tmp_path, {
        "scenario": 2, "r1_db": 3.0, "k_modes": 3, "attenuation_db": 5.0,
        "kind": "PC", "n_units": 2, "n_max": 18,
        "optimizer": {"grid_points": 6}})
    outputs = []
    for workers in ("1", "2"):
        out = tmp_path / f"sweep{workers}.csv"
        assert main(["sweep", "--config", path, "--out", str(out),
                     "--workers", workers]) == 0
        outputs.append(out.read_bytes())
    assert outputs[0].count(b"\n") == 7
    assert outputs[1] == outputs[0]


@pytest.mark.parametrize("experiment, payload, n_rows", [
    ("amplify", AMPLIFY_MIN, 8),
    ("distill", {"attenuations_db": [6.0], "kinds": ["PC"], "n_units": [1],
                 "n_max": 18, "optimizer": {"grid_points": 8}}, 1),
], ids=["amplify", "distill"])
def test_refine_tolerance_below_float_resolution_finishes(tmp_path, capsys,
                                                          experiment,
                                                          payload, n_rows):
    # no two floats are 1e-300 apart near any optimum, so refinement stops
    # where the bracket stops shrinking
    path = write_config(tmp_path, {
        **payload,
        "optimizer": {**payload["optimizer"], "refine_tolerance": 1e-300}})
    assert main([experiment, "--config", path, "--workers", "1"]) == 0
    out, err = capsys.readouterr()
    assert err == "" and out.count("\n") == n_rows + 1


def test_cascade_compare_rows(tmp_path, capsys):
    path = write_config(tmp_path, {
        "r_db": 3.0, "n_units": [1], "n_max": 15,
        "optimizer": {"grid_points": 8, "refine_tolerance": 1e-2}})
    assert main(["cascade-compare", "--config", path]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert len(lines) == 3
    arrangements = {line.split(",")[2] for line in lines[1:]}
    assert arrangements == {"parallel", "cascaded"}


# ---------------------------------------------------------------------------
# exit codes

def test_missing_config_is_validation_error(capsys):
    assert main(["distill"]) == 1
    assert "config" in capsys.readouterr().err


def test_bad_flag_remapped_to_validation_error(capsys):
    assert main(["no-such-command"]) == 1
    capsys.readouterr()


def test_truncation_guard_gives_exit_2(tmp_path, capsys):
    path = write_config(tmp_path, {"attenuations_db": [0.0], "n_max": 10})
    assert main(["distill", "--config", path]) == 2
    assert "numerical guard" in capsys.readouterr().err


@pytest.mark.parametrize("experiment, payload", [
    ("distill", {"attenuations_db": [3], "kinds": ["PC"], "n_units": [400]}),
    ("amplify", {**AMPLIFY_MIN, "kinds": ["PC"], "n_units": [400]}),
], ids=["distill", "amplify"])
def test_vanished_herald_gives_exit_2(tmp_path, capsys, experiment, payload):
    # sqrt(T)^N underflows to zero at t_min for N = 400 catalysis units
    path = write_config(tmp_path, payload)
    assert main([experiment, "--config", path, "--workers", "1"]) == 2
    assert "numerical guard" in capsys.readouterr().err


@pytest.mark.parametrize("experiment, payload", [
    ("distill", {"scenario": 2, "r1_db": 3.0, "attenuations_db": [3],
                 "kinds": ["CascadedPC"], "n_units": [100], "n_max": 12}),
    ("sweep", {"scenario": 2, "r1_db": 3.0, "attenuation_db": 3,
               "kind": "CascadedPC", "n_units": 100, "n_max": 12}),
], ids=["distill", "sweep"])
def test_long_cascade_runs_where_t_to_the_n_underflows(tmp_path, capsys,
                                                      experiment, payload):
    # T^N is 0.0 at t_min 1e-4 for N >= 81; the bystanders' attenuation is
    # the unit attenuator to the N-th power, which never asks for T^N
    path = write_config(tmp_path, payload)
    assert main([experiment, "--config", path]) == 0
    out, err = capsys.readouterr()
    assert err == "" and "CascadedPC" in out


@pytest.mark.parametrize("workers", ["1", "2"])
def test_amplify_reports_the_first_failing_row(tmp_path, capsys, workers):
    # rows run (alpha, gain, N, kind).  Every alpha-2.5 row fails its input
    # tail at n_max 3, which is group (QS, 1)'s first failure; but row
    # (0.05, 1.5, QS, 3), which fails on its top bin, precedes them all
    path = write_config(tmp_path, {"alphas": [0.05, 2.5],
                                   "target_gains": [1.5],
                                   "kinds": ["QS", "PC"], "n_units": [1, 3],
                                   "n_max": 3})
    assert main(["amplify", "--config", path, "--workers", workers]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("numerical guard: amplified state: top-bin "
                          "population ")


@pytest.mark.parametrize("workers", ["1", "2"])
def test_amplify_split_group_reports_the_first_failing_row(tmp_path, capsys,
                                                           workers):
    # one (kind, N) group, cut into one run per row at two workers: row
    # (0.05, 1.5) fails on its top bin, before row (2.5, 1.5) fails its
    # input tail
    path = write_config(tmp_path, {"alphas": [0.05, 2.5],
                                   "target_gains": [1.5], "kinds": ["QS"],
                                   "n_units": [3], "n_max": 3})
    assert main(["amplify", "--config", path, "--workers", workers]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("numerical guard: amplified state: top-bin "
                          "population ")


def test_amplify_split_groups_give_the_same_bytes(tmp_path):
    # fewer groups than workers: at three workers each group's six rows
    # are cut into runs of two, at four into runs of one and two that
    # straddle an alpha
    path = write_config(tmp_path, {"alphas": [0.3, 0.7],
                                   "target_gains": [1.2, 1.5, 1.8],
                                   "kinds": ["PC"], "n_units": [2],
                                   "n_max": 15,
                                   "optimizer": {"grid_points": 8}})
    outputs = []
    for workers in ("1", "3", "4"):
        out = tmp_path / f"rows{workers}.csv"
        assert main(["amplify", "--config", path, "--out", str(out),
                     "--workers", workers]) == 0
        outputs.append(out.read_bytes())
    assert outputs[0].count(b"\n") == 7
    assert outputs[1] == outputs[0] and outputs[2] == outputs[0]


def test_catalysis_sum_overflow_gives_exit_2(tmp_path, capsys):
    # at T 1e-300 the two-unit catalysis sum exceeds the float range
    path = write_config(tmp_path, {**AMPLIFY_MIN, "kinds": ["PC"],
                                   "n_units": [2],
                                   "optimizer": {"t_min": 1e-300}})
    assert main(["amplify", "--config", path, "--workers", "1"]) == 2
    err = capsys.readouterr().err
    assert "numerical guard" in err
    # the message names the unit count, not just Python's division error
    assert "N=2" in err and "integer division" not in err


@pytest.mark.parametrize("workers", ["1", "2"])
def test_catalysis_overflow_precedes_the_input_tail(tmp_path, capsys,
                                                    workers):
    # the row's catalysis sum leaves the float range at T 1e-300 and its
    # input loses its tail past n_max 8: the diagonal is built first, as in
    # a lone amplify_coherent, so the overflow is the guard reported
    path = write_config(tmp_path, {"alphas": [2.5], "target_gains": [1.5],
                                   "kinds": ["PC"], "n_units": [3],
                                   "n_max": 8,
                                   "optimizer": {"t_min": 1e-300,
                                                 "t_max": 0.5,
                                                 "grid_points": 4}})
    assert main(["amplify", "--config", path, "--workers", workers]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("numerical guard: catalysis sum with N=3 units at "
                   "T=1e-300 exceeds the float range at n=2\n")


def test_unknown_key_gives_exit_1(tmp_path, capsys):
    path = write_config(tmp_path, {"attenuations_db": [0.0], "zzz": 1})
    assert main(["distill", "--config", path]) == 1
    assert "config error" in capsys.readouterr().err


DISTILL_MIN = {"attenuations_db": [0.0]}


@pytest.mark.parametrize("experiment, payload, named", [
    ("distill", {**DISTILL_MIN, "r1_db": True}, "r1_db"),
    ("distill", {**DISTILL_MIN, "r1_db": math.inf}, "r1_db"),
    ("distill", {**DISTILL_MIN, "decay": math.nan}, "decay"),
    ("distill", {"attenuations_db": []}, "attenuations_db"),
    ("distill", {**DISTILL_MIN, "kinds": ["QS", "QQ"]}, "kinds"),
    ("distill", {**DISTILL_MIN, "strategy": "bogus"}, "strategy"),
    ("distill", {**DISTILL_MIN, "scenario": 4}, "scenario"),
    ("distill", {**DISTILL_MIN, "k_modes": 3, "amplified_index": 4},
     "amplified_index"),
    ("distill", {**DISTILL_MIN, "optimizer": {"grid_points": 3}},
     "grid_points"),
    ("distill", {**DISTILL_MIN, "optimizer": {"t_min": 0.5, "t_max": 0.5}},
     "t_min"),
    ("distill", {**DISTILL_MIN, "n_max": 1}, "n_max"),
    ("distill", {**DISTILL_MIN, "optimizer": {"bogus": 1}}, "bogus"),
    ("distill", {**DISTILL_MIN, "format": "xml"}, "format"),
    ("distill", {**DISTILL_MIN, "workers": 0}, "workers"),
    ("distill", {**DISTILL_MIN, "out": 3}, "out"),
    ("verify", {"checks": ["no_such_check"]}, "checks"),
    ("verify", {"n_max": 5}, "n_max"),
    ("verify", {"optimizer": {}}, "optimizer"),
    # out-of-range values the domain constructors reject
    ("distill", {"scenario": 2, "decay": 1.5, "attenuations_db": [0]},
     "decay"),
    ("distill", {"attenuations_db": [-1.0]}, "attenuation"),
    ("cascade-compare", {"r_db": -1.0}, "r_db"),
    ("distill", {**DISTILL_MIN, "r1_db": -2.0}, "r1_db"),
    ("sweep", {"r1_db": -2.0}, "r1_db"),
    # sweep samples the T grid as is, so a refinement key would do nothing
    ("sweep", {"optimizer": {"refine_tolerance": 1e-3}}, "refine_tolerance"),
    # typo guards on the sizes that set allocations
    ("distill", {**DISTILL_MIN, "k_modes": 10 ** 10}, "k_modes"),
    ("sweep", {"n_max": 201}, "n_max"),
    ("amplify", {**AMPLIFY_MIN, "optimizer": {"grid_points": 100_001}},
     "grid_points"),
    # an integer beyond the float range is not a finite number
    ("distill", {**DISTILL_MIN, "r1_db": 10 ** 400}, "r1_db"),
    ("distill", {**DISTILL_MIN, "optimizer": 5}, "optimizer"),
    # files that are no JSON object; json.dumps cannot write an integer of
    # more than 4300 digits, which json.load also refuses to read
    ("distill", None, "cannot read config"),
    ("distill", b'{"attenuations_db": [0.0], "r1_db": 1' + b"0" * 5000 + b"}",
     "4300 digits"),
    ("distill", b'{"attenuations_db": [0.0], "r1_db": "\xff"}',
     "cannot read config"),
    ("distill", b'{"attenuations_db": [0.0],', "not valid JSON"),
    ("distill", [DISTILL_MIN], "must be a JSON object"),
], ids=["bool", "inf", "nan", "empty-grid", "unknown-kind", "bad-strategy",
        "scenario-4", "amplified-index", "grid-points-3", "t-min-ge-t-max",
        "n-max-1", "unknown-optimizer-key", "bad-format", "workers-0",
        "non-string-out", "unknown-check", "verify-n-max", "verify-optimizer",
        "decay-out-of-range",
        "negative-attenuation", "negative-squeezing", "negative-r1-db",
        "sweep-negative-r1-db", "sweep-refine-tolerance", "huge-k-modes",
        "n-max-above-bound", "grid-points-above-bound", "r1-db-huge-int",
        "optimizer-not-object", "missing-file", "r1-db-5001-digits",
        "not-utf-8", "invalid-json", "top-level-array"])
def test_bad_config_is_config_error_before_any_work(
        tmp_path, capsys, monkeypatch, experiment, payload, named):
    def no_work(*args):
        raise AssertionError("work started on a rejected config")

    monkeypatch.setattr(cli, "_fan_out", no_work)
    monkeypatch.setattr(cli, "lossy_pdc_densities", no_work)  # sweep's work
    path = write_config(tmp_path, payload)
    assert main([experiment, "--config", path]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ")
    assert "Traceback" not in err
    assert named in err


SWEEP_MIN = {"attenuation_db": 5.0, "kind": "PC", "n_units": 2, "n_max": 18,
             "optimizer": {"grid_points": 4}}


@pytest.mark.parametrize("experiment", ["verify", "sweep"])
def test_unwritable_out_is_config_error(tmp_path, capsys, experiment):
    argv = [experiment]
    if experiment == "sweep":
        argv += ["--config", write_config(tmp_path, SWEEP_MIN)]
    out = str(tmp_path / "no-such-dir" / "rows.txt")
    assert main([*argv, "--out", out]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"config error: cannot write {out!r}: ")
    assert "Traceback" not in captured.err
    assert captured.out == ""


def test_oserror_from_the_work_is_not_an_out_error(tmp_path, monkeypatch):
    def broken_pool(*args):
        raise OSError("pool failed")

    monkeypatch.setattr(cli, "_fan_out", broken_pool)
    path = write_config(tmp_path, DISTILL_MIN)
    with pytest.raises(OSError, match="pool failed"):
        main(["distill", "--config", path, "--out", str(tmp_path / "a.csv")])


def test_fan_out_pool_never_outgrows_the_cpus(monkeypatch):
    # a serial stand-in records the pool size and starts no process
    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables, chunksize=1):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    cpus = os.cpu_count() or 1
    tasks = [(i, 1) for i in range(cpus + 8)]
    assert cli._fan_out(pow, tasks, 10 ** 6) == list(range(cpus + 8))
    assert sizes == ([cpus] if cpus > 1 else [])


def test_amplify_cuts_groups_by_the_pool_it_gets(tmp_path, monkeypatch):
    # a --workers past the CPU count cuts each group as the CPU count does:
    # the pool is capped there, so more runs would only repeat grid work
    handed = []

    def serial(worker, tasks, workers):
        handed.append(tasks)
        return [worker(*task) for task in tasks]

    monkeypatch.setattr(cli, "_fan_out", serial)
    path = write_config(tmp_path, {**AMPLIFY_MIN, "alphas": [0.2, 0.4],
                                   "n_units": [1]})
    outputs = []
    for workers in (os.cpu_count() or 1, 64):
        out = tmp_path / f"amplify{workers}.csv"
        assert main(["amplify", "--config", path, "--out", str(out),
                     "--workers", str(workers)]) == 0
        outputs.append(out.read_bytes())
    assert handed[1] == handed[0]
    assert outputs[1] == outputs[0]


def test_override_flags_are_the_table_keys():
    subparsers = next(action for action in cli._build_parser()._actions
                      if isinstance(action, argparse._SubParsersAction))
    flags = {name: {action.dest for action in sub._actions
                     if action.option_strings and action.dest != "help"}
             for name, sub in subparsers.choices.items()}
    output = {"config", "out", "format", "workers"}
    assert flags == {"amplify": output, "distill": output,
                     "cascade-compare": output, "sweep": output,
                     "verify": {"config", "out", "tolerance"}}
    for name, dests in flags.items():
        assert dests - {"config"} <= set(cli._TABLES[name])
    assert set(cli._TABLES["verify"]) == {"experiment", "out", "tolerance",
                                          "checks"}


@pytest.mark.parametrize("argv, payload", [
    (["--format", "jsonl"], None),
    (["--workers", "2"], None),
    ([], {"format": "csv"}),
    ([], {"workers": 2}),
], ids=["format-flag", "workers-flag", "format-key", "workers-key"])
def test_verify_rejects_output_format_and_workers(tmp_path, capsys, argv,
                                                  payload):
    if payload is not None:
        argv = ["--config", write_config(tmp_path, payload)]
    assert main(["verify", *argv]) == 1
    capsys.readouterr()


def test_tolerance_flag_is_verify_only(tmp_path, capsys):
    path = write_config(tmp_path, AMPLIFY_MIN)
    assert main(["amplify", "--config", path, "--tolerance", "1e-3"]) == 1
    assert "--tolerance" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# verify

def test_verify_default_passes(capsys):
    assert main(["verify"]) == 0
    out = capsys.readouterr().out
    assert "checks passed" in out
    assert "FAIL" not in out


def test_verify_tolerance_override_reported(capsys):
    assert main(["verify", "--tolerance", "1e-20"]) == 3
    out = capsys.readouterr().out
    assert "(tolerance 1.0e-20)" in out
    assert "FAIL" in out


def test_verify_detects_wrong_sign_diagonal(monkeypatch, capsys):
    true_fn = nla_module.pc_nla_diagonal

    def sabotaged(n_units, transmissivity, n_max):
        coeffs = true_fn(n_units, transmissivity, n_max).copy()
        coeffs[1:] = -coeffs[1:]          # wrong sign beyond the vacuum term
        return coeffs

    monkeypatch.setattr(nla_module, "pc_nla_diagonal", sabotaged)
    assert main(["verify"]) == 3
    out = capsys.readouterr().out
    assert "FAIL pc_diagonal_multinomial" in out


def test_verify_detects_failure_in_last_case(monkeypatch, capsys):
    true_splitter = oracle_module.nsplitter_unitary
    true_kraus = fock_module.loss_kraus_operators

    def splitter(n_paths):
        u = true_splitter(n_paths)
        return u + 1e-3 if n_paths == 5 else u

    def kraus(eta, n_max):
        ops = true_kraus(eta, n_max)
        return 2 * ops if eta == 1.0 else ops

    monkeypatch.setattr(oracle_module, "nsplitter_unitary", splitter)
    monkeypatch.setattr(fock_module, "loss_kraus_operators", kraus)
    assert main(["verify"]) == 3
    out = capsys.readouterr().out
    assert "FAIL nsplitter_unitary" in out
    assert "FAIL loss_trace_preserving" in out


def test_verify_detects_nan_in_last_case(tmp_path, monkeypatch, capsys):
    # NaN fails every comparison, so a fold that compares case by case
    # drops a NaN after the first case; it must reach the report and fail
    true_splitter = oracle_module.nsplitter_unitary

    def splitter(n_paths):
        u = true_splitter(n_paths)
        return u * math.nan if n_paths == 5 else u

    monkeypatch.setattr(oracle_module, "nsplitter_unitary", splitter)
    path = write_config(tmp_path, {"checks": ["nsplitter_unitary"]})
    assert main(["verify", "--config", path]) == 3
    out = capsys.readouterr().out
    assert "FAIL nsplitter_unitary: max deviation nan" in out
    assert "0/1 checks passed" in out


def test_verify_detects_wrong_gaussian_log_negativity(monkeypatch, capsys):
    true_fn = cli._gaussian_log_negativities
    monkeypatch.setattr(cli, "_gaussian_log_negativities",
                        lambda amp: true_fn(amp) * (1 + 1e-9))
    assert main(["verify"]) == 3
    out = capsys.readouterr().out
    assert "FAIL lossy_tmsv_log_negativity" in out
    assert "9/10 checks passed" in out


def test_verify_subset_of_checks(tmp_path, capsys):
    path = write_config(tmp_path, {"checks": ["nsplitter_unitary"]})
    assert main(["verify", "--config", path]) == 0
    out = capsys.readouterr().out
    assert "1/1 checks passed" in out


def test_spawned_verify_passes():
    done = _spawn("-m", "nlasim", "verify", check=False)
    assert done.returncode == 0
    assert "10/10 checks passed" in done.stdout


def test_verify_report_to_file(tmp_path):
    out = str(tmp_path / "report.txt")
    assert main(["verify", "--out", out]) == 0
    assert "checks passed" in open(out).read()
