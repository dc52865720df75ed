"""Regenerate the golden rows that the output check compares against.

usage: python3 perfbench/make_golden.py --workload NAME --seeds 0-15 \
           --invocations K

Runs the CLI (``python -m nlasim``, ``--workers 1``) on the configs of
invocations 0..K-1 of every seed and stores their output columns in
``perfbench/golden/<workload>.json``, together with the commit they were made
at.  Every row must pass the invariant checks first.  Run it only at a commit
whose rows are trusted: the file pins every later commit.
"""

from __future__ import annotations

import argparse
import json
import sys

from check import check_table, output_cells
from harness import (WORK, cli_args, git_commit, require_program, spawn,
                     write_config)
from run import GOLDEN_DIR
from workloads import WORKLOADS

TIMEOUT_S = 600.0


def _seeds(spec: str) -> list:
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _one(workload, seed: int, index: int, tmp):
    cfg = workload.config(seed, index)
    config = tmp / f"s{seed}-i{index}.json"
    out = tmp / f"s{seed}-i{index}.csv"
    write_config(config, cfg)
    argv = [sys.executable, "-m", "nlasim",
            *cli_args(workload.subcommand, config, out)]
    ended = spawn(argv, tmp / f"s{seed}-i{index}.stderr.txt", TIMEOUT_S)
    if ended.code != 0:
        raise SystemExit(f"seed {seed} invocation {index}: exit {ended.code}")
    text = out.read_text(encoding="utf-8")
    _, failed, problems = check_table(workload, cfg, text)
    if failed:
        raise SystemExit(f"seed {seed} invocation {index}: {problems}")
    return output_cells(workload, text)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seeds", required=True, help="e.g. 0-15")
    parser.add_argument("--invocations", type=int, required=True)
    ns = parser.parse_args(argv)
    require_program()
    workload = WORKLOADS[ns.workload]
    tmp = WORK / f"golden-{ns.workload}"
    tmp.mkdir(parents=True, exist_ok=True)
    seeds = _seeds(ns.seeds)
    tasks = [(s, i) for s in seeds for i in range(ns.invocations)]
    results = [_one(workload, seed, index, tmp) for seed, index in tasks]
    by_seed = {str(s): [] for s in seeds}
    for (s, _), rows in zip(tasks, results):
        by_seed[str(s)].append(rows)

    # one line per invocation keeps the file diffable
    lines = [f'"{s}": [\n' + ",\n".join(json.dumps(rows, separators=(",", ":"))
                                        for rows in invs) + "\n]"
             for s, invs in by_seed.items()]
    head = {"workload": workload.name, "columns": list(workload.outputs),
            "commit": git_commit()}
    text = (json.dumps(head)[:-1] + ', "seeds": {\n' + ",\n".join(lines)
            + "\n}}\n")
    json.loads(text)
    GOLDEN_DIR.mkdir(exist_ok=True)
    (GOLDEN_DIR / f"{workload.name}.json").write_text(text, encoding="utf-8")
    print(f"{workload.name}: {len(seeds)} seeds x {ns.invocations} "
          f"invocations written")
    return 0


if __name__ == "__main__":
    sys.exit(main())
