"""The pairs script's summary, fed canned benchmark result lines.

Nothing here runs the benchmark: ``run_once`` is pointed at a stand-in
command that prints a result line, and the summary is built from canned
lines in the benchmark's own result format.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_SPEC = importlib.util.spec_from_file_location(
    "bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

END_TO_END = [{"name": "wall_s", "better": "lower", "bound": 0.25},
              {"name": "rows_per_s", "better": "higher", "bound": 0.25}]


def result_line(wall_s, rows_per_s, failed=0, attempted=100):
    return json.dumps({"correct": failed == 0, "attempted": attempted,
                       "failed": failed,
                       "metrics": {"wall_s": {"value": wall_s, "unit": "s"},
                                   "rows_per_s": {"value": rows_per_s,
                                                  "unit": "1/s"}}})


def canned_runs(workload, parent, change):
    """Runs as the script records them, from (wall_s, rows_per_s[, failed])
    tuples; None is a run that crashed before its result line.  As in the
    benchmark, a run with failed rows is not correct and exits 1."""
    runs = []
    for pair, sides in enumerate(zip(parent, change), start=1):
        for side, values in zip(("parent", "change"), sides):
            result = None if values is None else json.loads(
                result_line(*values))
            runs.append({"pair": pair, "side": side, "workload": workload,
                         "exit": 0 if result and result["correct"] else 1,
                         "result": result})
    return runs


def clear_gain():
    parent = [(1.0 + 0.1 * (i % 4), 10.0) for i in range(10)]
    return parent, [(w - 0.5, r) for w, r in parent]


def test_quartiles_interpolate_linearly():
    # numpy.percentile's default: 25th of 1..4 is 1.75, 75th is 3.25
    assert bench_pairs.quartiles([4.0, 1.0, 3.0, 2.0]) == [1.75, 3.25]
    assert bench_pairs.quartiles([5.0, 1.0, 3.0, 2.0, 4.0]) == [2.0, 4.0]
    assert bench_pairs.quartiles([7.0]) == [7.0, 7.0]


def test_a_clear_gain_meets_the_rule():
    parent, change = clear_gain()
    summary = bench_pairs.summarize(canned_runs("w", parent, change),
                                    END_TO_END)
    wall = summary["w"]["wall_s"]
    assert summary["w"]["pairs"] == 10
    assert wall["parent_median"] == pytest.approx(1.1)
    assert wall["change_median"] == pytest.approx(0.6)
    assert wall["change_wins"] == "10/10"
    assert wall["worse_by"] == pytest.approx(0.6 / 1.1 - 1.0)
    assert wall["within_bound"] and not wall["unresolved"]
    assert wall["gain_rule"]["wins_needed"] == 9
    assert wall["gain_rule"]["met"]
    # equal rows_per_s everywhere: every pair is a tie, won by neither
    rows = summary["w"]["rows_per_s"]
    assert rows["change_wins"] == "0/10"
    assert rows["worse_by"] == 0.0 and not rows["gain_rule"]["met"]


def test_a_drop_past_the_bound_is_flagged():
    parent = [(1.0, 100.0 + i) for i in range(10)]
    change = [(1.0, 0.7 * r) for _, r in parent]
    rows = bench_pairs.summarize(canned_runs("w", parent, change),
                                 END_TO_END)["w"]["rows_per_s"]
    # higher is better, so a 30% drop is a 0.3 move against a 0.25 bound
    assert rows["change_over_parent"] == pytest.approx(0.7)
    assert rows["worse_by"] == pytest.approx(0.3)
    assert not rows["within_bound"]
    assert rows["change_wins"] == "0/10"


def test_nine_wins_without_a_gap_past_the_spread_is_no_gain():
    # the change wins 9 of 10 pairs by a hair, inside the parent's spread
    parent = [(1.0 + 0.1 * i, 10.0) for i in range(10)]
    change = [(w - 0.01, r) for w, r in parent[:9]] + [(2.0, 10.0)]
    wall = bench_pairs.summarize(canned_runs("w", parent, change),
                                 END_TO_END)["w"]["wall_s"]
    assert wall["change_wins"] == "9/10"
    assert wall["gain_rule"]["median_gain"] < wall["gain_rule"]["parent_iqr"]
    assert not wall["gain_rule"]["met"]
    # the parent's quartiles span 40% of its median, past the 0.25 bound
    assert wall["unresolved"]


def test_a_crashed_change_run_loses_its_pair():
    # the change wins nine pairs clearly and crashes in the tenth
    parent, change = clear_gain()
    change[4] = None
    summary = bench_pairs.summarize(canned_runs("w", parent, change),
                                    END_TO_END)["w"]
    wall = summary["wall_s"]
    assert summary["pairs"] == 10
    assert summary["lost"] == {"parent": 0, "change": 1}
    assert summary["change_fails_more"]
    assert wall["change_wins"] == "9/10"
    assert wall["gain_rule"]["median_gain"] > wall["gain_rule"]["parent_iqr"]
    assert not wall["gain_rule"]["met"]
    assert "lost runs 0 and 1" in bench_pairs.describe({"w": summary})


def test_a_run_exiting_non_zero_is_lost_whatever_its_line():
    parent, change = clear_gain()
    runs = canned_runs("w", parent, change)
    runs[1]["exit"] = 2     # pair 1, the change's run, with a correct line
    summary = bench_pairs.summarize(runs, END_TO_END)["w"]
    assert summary["lost"] == {"parent": 0, "change": 1}
    assert summary["wall_s"]["change_wins"] == "9/10"
    assert not summary["wall_s"]["gain_rule"]["met"]


def test_an_incorrect_run_is_lost_and_its_failed_rows_counted():
    parent = [(1.0, 10.0), (1.0, 10.0), (1.0, 10.0)]
    change = [(1.1, 9.0), (0.1, 90.0, 3), (1.3, 8.0)]
    summary = bench_pairs.summarize(canned_runs("w", parent, change),
                                    END_TO_END)["w"]
    assert summary["lost"] == {"parent": 0, "change": 1}
    assert summary["failed"] == {"parent": 0, "change": 3}
    assert summary["attempted"] == {"parent": 300, "change": 300}
    # the incorrect run's fast timing is in no median and wins no pair
    assert summary["wall_s"]["change_median"] == pytest.approx(1.2)
    assert summary["rows_per_s"]["change_wins"] == "0/3"


def test_a_gain_with_more_failed_rows_is_no_gain():
    # each side loses one run, so only the failed rows tell them apart
    parent, change = clear_gain()
    parent[0] = None
    change[1] = (*change[1], 2)
    summary = bench_pairs.summarize(canned_runs("w", parent, change),
                                    END_TO_END)["w"]
    wall = summary["wall_s"]
    assert summary["lost"] == {"parent": 1, "change": 1}
    assert summary["failed"] == {"parent": 0, "change": 2}
    assert summary["change_fails_more"]
    # a lost parent run gives the change its pair
    assert wall["change_wins"] == "9/10"
    assert wall["gain_rule"]["median_gain"] > wall["gain_rule"]["parent_iqr"]
    assert not wall["gain_rule"]["met"]


def test_no_kept_run_on_a_side_is_outside_the_bound():
    summary = bench_pairs.summarize(
        canned_runs("w", [(1.0, 10.0)] * 2, [None] * 2), END_TO_END)["w"]
    assert summary["lost"] == {"parent": 0, "change": 2}
    assert summary["wall_s"]["change_wins"] == "0/2"
    assert not summary["wall_s"]["within_bound"]
    assert "wall_s no kept run on one side" in bench_pairs.describe(
        {"w": summary})


def test_pairs_seeds_and_workloads_are_fixed():
    assert (bench_pairs.PAIRS, bench_pairs.FIRST_SEED) == (10, 501)
    base = ["--label", "x", "--parent", "HEAD", "--change", "HEAD"]
    assert bench_pairs._parse_args(base).label == "x"
    for flag in ("--pairs", "--first-seed", "--workloads"):
        with pytest.raises(SystemExit):
            bench_pairs._parse_args([*base, flag, "1"])


def test_workloads_are_summarized_apart_and_described():
    runs = (canned_runs("a", [(1.0, 10.0)] * 2, [(1.0, 10.0)] * 2)
            + canned_runs("b", [(2.0, 5.0)] * 2, [(4.0, 5.0)] * 2))
    summary = bench_pairs.summarize(runs, END_TO_END)
    assert list(summary) == ["a", "b"]
    assert summary["b"]["wall_s"]["worse_by"] == pytest.approx(1.0)
    text = bench_pairs.describe(summary)
    assert text.startswith("a: wall_s 1 -> 1 (x1.0000")
    assert "b: wall_s 2 -> 4 (x2.0000, change better in 0/2" in text
    assert "outside its bound" in text


def test_run_once_keeps_the_last_line_and_the_provenance(tmp_path):
    line = result_line(0.5, 20.0)
    script = tmp_path / "fake_bench.py"
    script.write_text(
        "import sys\n"
        "print('workload', sys.argv[2])\n"
        "print('provenance ' + '{\"nproc\": 2}')\n"
        f"print({line!r})\n")
    run = bench_pairs.run_once(tmp_path, [sys.executable, str(script)],
                               "w", 7, 1.0)
    assert run["exit"] == 0
    assert run["result"] == json.loads(line)
    assert run["provenance"] == {"nproc": 2}
    assert run["command"].endswith("--workload w --seed 7 --seconds 1 "
                                   "--trace 0")
