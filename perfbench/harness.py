"""Process plumbing shared by the benchmark scripts.

Every nlasim process runs from the checkout's own ``src/`` with BLAS and
OpenMP pinned to one thread, and is reaped with ``os.wait4`` so that its
peak resident memory is its own.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

PINNED_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                  "MKL_NUM_THREADS": "1"}


class ProgramMissing(RuntimeError):
    """The checkout holds no runnable nlasim program."""


def child_env() -> dict:
    env = dict(os.environ)
    env.update(PINNED_THREADS)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def require_program() -> None:
    if not (SRC / "nlasim" / "cli.py").is_file():
        raise ProgramMissing(f"no nlasim package under {SRC}")


@dataclass
class Exit:
    code: int
    wall_s: float
    spawned: float      # time.monotonic() just before the spawn
    peak_rss_mb: float


def spawn(argv: list, log_path: Path, timeout_s: float) -> Exit:
    """Run ``argv`` to completion (killed after ``timeout_s``)."""
    with open(log_path, "wb") as log:
        spawned = time.monotonic()
        proc = subprocess.Popen(argv, env=child_env(), cwd=ROOT,
                                stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=log)
        killer = threading.Timer(max(timeout_s, 0.0), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.monotonic() - spawned
    proc.returncode = os.waitstatus_to_exitcode(status)
    # ru_maxrss is in KiB on Linux
    return Exit(proc.returncode, wall, spawned, usage.ru_maxrss / 1024.0)


def run_child(rundir: Path, tag: str, cli_args: list, timeout_s: float,
              setup_only: bool = False, traced: bool = False):
    """One CLI invocation through child.py; returns (Exit, report or None)."""
    report_path = rundir / f"{tag}.report.json"
    report_path.unlink(missing_ok=True)
    argv = [sys.executable, str(HERE / "child.py"), str(report_path)]
    if setup_only:
        argv.append("--setup-only")
    if traced:
        argv += ["--spans", str(rundir / f"{tag}.spans.json")]
    argv += ["--", *cli_args]
    ended = spawn(argv, rundir / f"{tag}.stderr.txt", timeout_s)
    try:
        report = json.loads(report_path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        report = None
    return ended, report


def write_config(path: Path, cfg: dict) -> None:
    path.write_text(json.dumps(cfg, indent=1, sort_keys=True) + "\n",
                    encoding="utf-8")


def cli_args(subcommand: str, config: Path, out: Path,
             workers: int = 1) -> list:
    return [subcommand, "--config", str(config), "--workers", str(workers),
            "--format", "csv", "--out", str(out)]


def git_commit() -> str | None:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text(encoding="utf-8").strip()
    except OSError:
        pass
    try:
        packed = (git / "packed-refs").read_text(encoding="utf-8")
    except OSError:
        return None
    for line in packed.splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return None
