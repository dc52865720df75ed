"""Self-test of the benchmark's output check and failure counting.

usage: python3 perfbench/selftest.py

1. For every workload, a table rebuilt from the golden cells of the first
   shipped seed passes the check; the same table with one output cell moved
   beyond its tolerance is rejected, and so is one with its T moved by more
   than 2 * refine_tolerance.  Nothing is run for this part.
2. A config that trips a numerical guard (a 20 dB source truncated at
   n_max 4 raises TruncationError, exit code 2) counts every row it asked for
   as failed instead of being skipped.
3. A directory holding only BENCHMARK.json and perfbench/ makes run.py exit
   nonzero without printing a result.
4. A traced public name that a refactor removed is reported as absent and
   the tracer still installs the others.

Exits 0 when all of these hold.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time

from check import check_table
from harness import HERE, ROOT, SRC, WORK
from run import GOLDEN_DIR, Run
from workloads import WORKLOADS


def _cell(value) -> str:
    return format(value, ".17g") if isinstance(value, float) else str(value)


def _table(workload, cfg, golden_rows) -> list:
    """CSV lines of the table the CLI printed for ``cfg``."""
    lines = [",".join(workload.header)]
    for inputs, cells in zip(workload.expected_inputs(cfg), golden_rows):
        row = dict(inputs, **dict(zip(workload.outputs, cells)))
        lines.append(",".join(_cell(row[c]) for c in workload.header))
    return lines


def _perturbed(lines, workload, column, change) -> str:
    header = lines[0].split(",")
    cells = lines[1].split(",")
    i = header.index(column)
    cells[i] = repr(change(float(cells[i])))
    return "\n".join([lines[0], ",".join(cells), *lines[2:]]) + "\n"


def check_golden_rejection() -> list:
    errors = []
    for workload in WORKLOADS.values():
        golden = json.loads((GOLDEN_DIR / f"{workload.name}.json")
                            .read_text(encoding="utf-8"))["seeds"]
        seed = min(golden, key=int)
        cfg = workload.config(int(seed), 0)
        rows = golden[seed][0]
        lines = _table(workload, cfg, rows)
        _, failed, problems = check_table(workload, cfg,
                                          "\n".join(lines) + "\n", rows)
        if failed:
            errors.append(f"{workload.name}: golden table rejected: "
                          f"{problems[:2]}")
        value = workload.outputs[1]
        refine = cfg["optimizer"].get("refine_tolerance", 1e-6)
        t_col = workload.outputs[0]
        for column, change in ((value, lambda v: v * (1 + 1e-6)),
                               (t_col, lambda v: v + 3 * refine)):
            text = _perturbed(lines, workload, column, change)
            _, failed, _ = check_table(workload, cfg, text, rows)
            if failed != 1:
                errors.append(f"{workload.name}: perturbed {column} gave "
                              f"{failed} failed rows, want 1")
    return errors


def check_guard_counts_as_failed() -> list:
    workload = WORKLOADS["multimode-sweep"]
    rundir = WORK / "selftest-guard"
    shutil.rmtree(rundir, ignore_errors=True)
    rundir.mkdir(parents=True)
    run = Run(workload, 0, rundir, time.monotonic() + 120.0)
    cfg = dict(workload.config(0, 0), r1_db=20.0, n_max=4)
    ended, _, passed = run.invoke(0, "guard", cfg=cfg)
    want = cfg["optimizer"]["grid_points"]
    errors = []
    if ended.code != 2:
        errors.append(f"guard config exited {ended.code}, want 2")
    if (run.attempted, run.failed, passed) != (want, want, 0):
        errors.append(f"guard config counted attempted={run.attempted} "
                      f"failed={run.failed}, want {want} and {want}")
    shutil.rmtree(rundir, ignore_errors=True)
    return errors


def check_bare_directory_fails() -> list:
    bare = WORK / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "amplify-grid",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        return [f"bare directory: exit {proc.returncode}, "
                f"stdout {proc.stdout[-200:]!r}"]
    return []


def check_absent_name_reported() -> list:
    """Runs last: it leaves this process's nlasim modules wrapped."""
    sys.path.insert(0, str(SRC))
    from nlasim import cli, fock
    from trace_layers import Tracer
    removed = fock.apply_loss
    del fock.apply_loss
    try:
        tracer = Tracer()
        tracer.install()
    finally:
        fock.apply_loss = removed
    errors = []
    if tracer.absent != ["fock.apply_loss"]:
        errors.append(f"absent names {tracer.absent}, want fock.apply_loss")
    if not hasattr(cli.render_rows, "__wrapped__"):
        errors.append("cli.render_rows was not wrapped")
    return errors


def main() -> int:
    errors = (check_golden_rejection() + check_guard_counts_as_failed()
              + check_bare_directory_fails() + check_absent_name_reported())
    for error in errors:
        print(f"FAIL {error}")
    print("selftest: " + ("ok" if not errors else f"{len(errors)} failures"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
