"""Alternating benchmark pairs of two commits, written to BENCH_<label>.json.

usage: python3 tools/bench_pairs.py --label NAME --parent REV --change REV \
           [--what TEXT] [--claim TEXT] [--note TEXT] [--workdir DIR] \
           [--out FILE]

Each revision is checked out in its own fresh ``git clone`` of this
repository under ``--workdir`` (default: a new temporary directory), and
the clones are kept afterwards.  The
command, run length, workloads and end-to-end metrics come from the change's
``BENCHMARK.json``, so both sides run the same benchmark settings.  Every
workload there gets ten pairs: pair i runs the command with ``--workload W
--seed S --seconds run_seconds --trace 0`` on both clones, one run at a
time, with seed S = 500 + i shared by the pair; odd pairs run the parent
first, even pairs the change.  Each run's last stdout line, the benchmark's
JSON result, is kept verbatim.  To measure uncommitted work, stage it and pass
``--change $(git stash create)``: a commit of the index and working tree that
a local clone carries along.

A run is lost when it exits non-zero, leaves no result line or reports
``correct`` other than true.  The summary gives, per workload, each side's
lost runs, failed and attempted rows, and whether the change fails more
(more lost runs, or a larger share of failed rows); and per end-to-end
metric, both sides' medians and quartiles over their kept runs (linear
interpolation, as ``numpy.percentile``), the pairs the change won (ties
count for neither side; a lost run loses its pair), its relative move
against the metric's bound, and the gain rule: the change wins at least
nine of the ten pairs, its median beats the parent's by more than the
parent's interquartile distance, and it fails no more than the parent.  The output file has nine keys: label, what, claim,
parent_commit, change_commit, method, provenance, summary and runs.

Standard library only.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")
PAIRS = 10
FIRST_SEED = 501


def _git(*args, cwd=ROOT) -> str:
    return subprocess.run(["git", *args], cwd=cwd, check=True,
                          capture_output=True, text=True).stdout.strip()


def fresh_clone(rev: str, dest: Path) -> str:
    """Clone this repository into ``dest`` at ``rev``; returns the commit."""
    commit = _git("rev-parse", "--verify", f"{rev}^{{commit}}")
    _git("clone", "--quiet", "--no-checkout", str(ROOT), str(dest))
    _git("checkout", "--quiet", "--detach", commit, cwd=dest)
    return commit


def run_once(clone: Path, command: list, workload: str, seed: int,
             seconds: float) -> dict:
    """One benchmark run in ``clone``: exit code, result and provenance."""
    argv = [*command, "--workload", workload, "--seed", str(seed),
            "--seconds", f"{seconds:g}", "--trace", "0"]
    proc = subprocess.run(argv, cwd=clone, capture_output=True, text=True,
                          timeout=seconds + 600)
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    provenance = next((json.loads(line.split(" ", 1)[1]) for line in lines
                       if line.startswith("provenance ")), None)
    return {"exit": proc.returncode, "command": " ".join(argv),
            "result": result, "provenance": provenance}


def quartiles(values: list) -> list:
    """First and third quartiles, linearly interpolated."""
    if len(values) < 2:
        return [values[0], values[0]]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, q3]


def kept(run: dict):
    """The run's result, or None when the run is lost."""
    result = run.get("result")
    if run.get("exit") != 0 or not isinstance(result, dict) \
            or result.get("correct") is not True:
        return None
    return result


def _metric(result, name: str):
    try:
        return float(result["metrics"][name]["value"])
    except (KeyError, TypeError, ValueError):
        return None


def summarize_metric(parent: list, change: list, better: str,
                     bound: float) -> dict:
    """One metric over paired runs: ``parent[i]`` and ``change[i]`` share a
    seed, and None marks a lost run.  ``better`` is "lower" or "higher"."""
    sign = 1.0 if better == "lower" else -1.0
    pairs = len(parent)
    wins = sum(c is not None and (p is None or sign * (c - p) < 0)
               for p, c in zip(parent, change))
    entry = {"change_wins": f"{wins}/{pairs}", "bound": bound,
             "gain_rule": {"wins_needed": math.ceil(0.9 * pairs),
                           "met": False}}
    parent = [p for p in parent if p is not None]
    change = [c for c in change if c is not None]
    if not parent or not change:
        return {**entry, "within_bound": False, "unresolved": True}
    p_med, c_med = statistics.median(parent), statistics.median(change)
    p_q, c_q = quartiles(parent), quartiles(change)
    ratio = c_med / p_med if p_med else math.inf
    worse_by = sign * (ratio - 1.0)
    iqr = p_q[1] - p_q[0]
    gain = -sign * (c_med - p_med)
    every_run_better = all(sign * (c - p) < 0
                           for p in parent for c in change)
    spread = iqr / abs(p_med) if p_med else math.inf
    entry["gain_rule"].update(median_gain=gain, parent_iqr=iqr,
                              met=wins >= 0.9 * pairs and gain > iqr)
    return {**entry, "parent_median": p_med, "parent_quartiles": p_q,
            "change_median": c_med, "change_quartiles": c_q,
            "change_over_parent": ratio, "worse_by": worse_by,
            "within_bound": worse_by <= bound,
            "unresolved": spread > bound and not every_run_better}


def summarize(runs: list, metrics: list) -> dict:
    """Per-workload summary of ``runs`` for the BENCHMARK.json end-to-end
    ``metrics`` (each with name, better and bound).  Every pair counts: a
    lost run loses its pair and is left out of its side's medians."""
    by_pair = {}
    for run in runs:
        by_pair.setdefault((run["workload"], run["pair"]), {})[
            run["side"]] = run
    out = {}
    for workload in dict.fromkeys(run["workload"] for run in runs):
        pairs = [sides for (w, _), sides in sorted(by_pair.items())
                 if w == workload]
        results = {side: [kept(s[side]) if side in s else None
                          for s in pairs] for side in SIDES}
        # rows count in every run that left a result, lost or not
        rows = {key: {side: sum(s[side]["result"].get(key, 0) for s in pairs
                                if isinstance(s.get(side, {}).get("result"),
                                              dict)) for side in SIDES}
                for key in ("failed", "attempted")}
        lost = {side: results[side].count(None) for side in SIDES}
        # a larger share of failed rows, compared without dividing by zero
        fails_more = lost["change"] > lost["parent"] or (
            rows["failed"]["change"] * rows["attempted"]["parent"]
            > rows["failed"]["parent"] * rows["attempted"]["change"])
        entry = {"pairs": len(pairs), "lost": lost, **rows,
                 "change_fails_more": fails_more}
        for metric in metrics:
            values = {side: [None if r is None else _metric(r, metric["name"])
                             for r in results[side]] for side in SIDES}
            m = summarize_metric(values["parent"], values["change"],
                                 metric["better"], metric["bound"])
            m["gain_rule"]["met"] &= not fails_more
            entry[metric["name"]] = m
        out[workload] = entry
    return out


def describe(summary: dict) -> str:
    """One clause per workload: each metric's medians, wins and quartiles."""
    parts = []
    for workload, entry in summary.items():
        cells = [f"{name} no kept run on one side" if "parent_median" not in m
                 else f"{name} {m['parent_median']:.4g} -> "
                 f"{m['change_median']:.4g} "
                 f"(x{m['change_over_parent']:.4f}, change better in "
                 f"{m['change_wins']}, parent quartiles "
                 f"[{m['parent_quartiles'][0]:.4g}, "
                 f"{m['parent_quartiles'][1]:.4g}]"
                 f"{', outside its bound' if not m['within_bound'] else ''}"
                 f"{', gain rule met' if m['gain_rule']['met'] else ''})"
                 for name, m in entry.items() if isinstance(m, dict)
                 and "gain_rule" in m]
        failed, lost = entry["failed"], entry["lost"]
        cells.append(f"failed rows {failed['parent']} and {failed['change']}")
        if any(lost.values()):
            cells.append(f"lost runs {lost['parent']} and {lost['change']}")
        parts.append(f"{workload}: " + "; ".join(cells))
    return " | ".join(parts)


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--parent", required=True, help="parent revision")
    parser.add_argument("--change", required=True, help="change revision")
    parser.add_argument("--what", default="", help="what the change does")
    parser.add_argument("--claim", default="none: no gain is claimed")
    parser.add_argument("--note", default="", help="appended to the method")
    parser.add_argument("--workdir", help="where the two clones go")
    parser.add_argument("--out", help="default: BENCH_<label>.json")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse_args(argv)
    workdir = Path(args.workdir or tempfile.mkdtemp(prefix="bench_pairs-"))
    workdir.mkdir(parents=True, exist_ok=True)
    clones, commits = {}, {}
    for side, rev in zip(SIDES, (args.parent, args.change)):
        clones[side] = workdir / side
        if clones[side].exists():
            raise SystemExit(f"{clones[side]} exists; clones must be fresh")
        commits[side] = fresh_clone(rev, clones[side])
    bench = json.loads((clones["change"] / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    seconds = float(bench["run_seconds"])

    runs, provenance = [], {}
    for workload in workloads:
        for pair in range(1, PAIRS + 1):
            seed = FIRST_SEED + pair - 1
            order = SIDES if pair % 2 else SIDES[::-1]
            for side in order:
                run = run_once(clones[side], bench["command"], workload,
                               seed, seconds)
                provenance.setdefault(side, run.pop("provenance"))
                runs.append({"run": len(runs) + 1, "pair": pair,
                             "side": side, "workload": workload,
                             "seed": seed, "trace": 0, **run})
                print(f"{workload} pair {pair} {side}: exit {run['exit']}",
                      file=sys.stderr, flush=True)

    summary = summarize(runs, bench["end_to_end"])
    method = (f"each side run from its own fresh git clone at its commit; "
              f"command {' '.join(bench['command'])} from the change's "
              f"BENCHMARK.json, {seconds:g} s per run, --trace 0, one run "
              f"at a time; {PAIRS} pairs per workload on seeds "
              f"{FIRST_SEED}-{FIRST_SEED + PAIRS - 1}, the two runs of a pair "
              f"sharing the seed, odd pairs running the parent first; "
              f"'result' is each run's last stdout line. A run is lost when "
              f"it exits non-zero, leaves no result or is not correct; a "
              f"lost run loses its pair and is left out of its side's "
              f"medians. Medians and quartiles interpolate linearly; "
              f"'worse_by' is "
              f"the change's relative move in the metric's worse direction "
              f"(negative means better); 'unresolved' marks a parent "
              f"interquartile spread wider than the bound that not every "
              f"change run beats; the gain rule needs 9/10 pair wins, a "
              f"median gain above the parent's interquartile distance and "
              f"no more failing than the parent.")
    if args.note:
        method += " " + args.note
    record = {"label": args.label, "what": args.what,
              "claim": f"{args.claim}. {describe(summary)}",
              "parent_commit": commits["parent"],
              "change_commit": commits["change"], "method": method,
              "provenance": provenance, "summary": summary, "runs": runs}
    out = Path(args.out or ROOT / f"BENCH_{args.label}.json")
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(describe(summary))
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
