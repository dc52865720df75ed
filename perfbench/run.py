"""nlasim benchmark: seeded CLI workloads, end-to-end metrics, traced layers.

usage: python3 perfbench/run.py --workload NAME --seed N --seconds S \
           --trace 0|1

Run it from the root of a checkout; it imports nlasim from ``src/`` and
writes scratch files only under ``.perfbench_work/``.

``--trace 0`` spawns the CLI (``nlasim.cli.main``, as ``python -m nlasim``
runs it, with ``--workers 1``) on configs generated from the seed, one
process per invocation, after one unmeasured warm-up.  It runs as many
invocations as fit in S seconds, at least one.  A set-up probe (the CLI
stopped once its config is validated) precedes every invocation, and more
follow until there are nine set-up samples.  It reports the end-to-end
metrics, each the median over the run:

* ``wall_s``      spawn to exit of one invocation (what a user waits for);
* ``setup_s``     spawn to config validated: interpreter start, ``import
                  nlasim`` and ``cli.build_experiment``;
* ``rows_per_s``  rows that passed the check / (wall_s - setup_s);
* ``peak_rss_mb`` peak resident memory of that CLI process alone.

``failed_ratio`` (failed / attempted rows) is printed and is the result's
``failed`` / ``attempted``.  A nonzero exit fails every row of that
invocation; a row that fails the output check (check.py) fails too.

``--trace 1`` runs pairs of in-process invocations on the same config, one
plain and one with the layer tracer (trace_layers.py), as many pairs as fit
in S seconds and at least one, and reports the per-layer metrics as medians
over the traced invocations, plus ``import_s`` and ``trace_overhead``
(traced / plain time in ``main`` - 1).

``--workload all`` runs every workload in turn with the given seed and
trace setting and ends with a table of every metric by name and unit,
``failed_ratio`` included, instead of a JSON result.

The last line of standard output is the JSON result; the lines before it
print every metric by name and unit, the provenance and the layer
predictions.  The exit code is 0 only if every row passed.  A checkout with
no runnable program exits 2 without a result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import sys
import time
from pathlib import Path

from check import check_table
from harness import (PINNED_THREADS, WORK, ProgramMissing, cli_args,
                     git_commit, require_program, run_child, write_config)
from trace_layers import LAYER_METRICS
from workloads import PREDICTIONS, WORKLOADS

MIN_SETUP_SAMPLES = 9
RUN_LIMIT_S = 170.0
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

END_TO_END = {"wall_s": "s", "setup_s": "s", "rows_per_s": "1/s",
              "peak_rss_mb": "MB"}
PER_LAYER = dict(LAYER_METRICS, import_s="s", trace_overhead="ratio")


class Run:
    """Configs, output checks and row counts of one benchmark run."""

    def __init__(self, workload, seed: int, rundir: Path, deadline: float):
        self.workload = workload
        self.seed = seed
        self.rundir = rundir
        self.deadline = deadline
        self.attempted = 0
        self.failed = 0
        self.problems: list = []
        golden_path = GOLDEN_DIR / f"{workload.name}.json"
        golden = json.loads(golden_path.read_text(encoding="utf-8")) \
            if golden_path.is_file() else {"seeds": {}}
        self.golden = golden["seeds"].get(str(seed), [])

    def left(self) -> float:
        return self.deadline - time.monotonic()

    def args(self, index: int, tag: str, cfg: dict | None = None):
        """Write invocation ``index``'s config (``cfg`` replaces the seeded
        draw); return (cfg, out, CLI args)."""
        if cfg is None:
            cfg = self.workload.config(self.seed, index)
        config_path = self.rundir / f"config{index}.json"
        write_config(config_path, cfg)
        out = self.rundir / f"{tag}.csv"
        out.unlink(missing_ok=True)
        return cfg, out, cli_args(self.workload.subcommand, config_path, out)

    def invoke(self, index: int, tag: str, traced: bool = False,
               cfg: dict | None = None):
        """Run invocation ``index`` and check its rows."""
        cfg, out, args = self.args(index, tag, cfg)
        ended, report = run_child(self.rundir, tag, args, self.left(),
                                  traced=traced)
        golden = self.golden[index] if index < len(self.golden) else None
        if ended.code == 0 and out.is_file():
            attempted, failed, problems = check_table(
                self.workload, cfg, out.read_text(encoding="utf-8"), golden)
        else:
            attempted = len(self.workload.expected_inputs(cfg))
            failed = attempted
            problems = [f"exit code {ended.code}, see {tag}.stderr.txt"]
        self.attempted += attempted
        self.failed += failed
        self.problems += [f"{tag}: {p}" for p in problems]
        passed = attempted - failed
        return ended, report, passed

    def warm_up(self) -> None:
        """Start the CLI once, unmeasured: byte-compiles ``src`` and fills
        the file cache, as any earlier use would have."""
        self.probe_setup("warmup")

    def probe_setup(self, tag: str) -> float:
        """Spawn the CLI on config 0, stop it once validated: ``setup_s``."""
        _, _, args = self.args(0, tag)
        ended, report = run_child(self.rundir, tag, args, self.left(),
                                  setup_only=True)
        setup = _setup_s(ended, report)
        if ended.code != 0 or setup is None:
            raise ProgramMissing("a set-up probe failed; see "
                                 f"{self.rundir / (tag + '.stderr.txt')}")
        return setup


def _setup_s(ended, report) -> float | None:
    """Spawn to config validated, or None if validation was never reached."""
    if report is None or report.get("validated") is None:
        return None
    return report["validated"] - ended.spawned


def _fits(start: float, seconds: float, last_s: float) -> bool:
    """Whether one more step as long as ``last_s`` ends within the run."""
    return time.monotonic() - start + last_s <= seconds


def measure_end_to_end(run: Run, seconds: float):
    run.warm_up()
    setups, walls, throughputs, rss = [], [], [], []
    start = time.monotonic()
    index = 0
    while True:
        # a set-up probe before every invocation, so that the probes sample
        # the machine over the whole run
        step = time.monotonic()
        setups.append(run.probe_setup(f"probe{index}"))
        ended, report, passed = run.invoke(index, f"inv{index}")
        index += 1
        walls.append(ended.wall_s)
        rss.append(ended.peak_rss_mb)
        setup = _setup_s(ended, report)
        if setup is not None:
            setups.append(setup)
            if ended.wall_s > setup:
                throughputs.append(passed / (ended.wall_s - setup))
        if not _fits(start, seconds, time.monotonic() - step):
            break
    while len(setups) < MIN_SETUP_SAMPLES:
        setups.append(run.probe_setup(f"probe.{len(setups)}"))
    metrics = {"wall_s": statistics.median(walls),
               "setup_s": statistics.median(setups),
               "rows_per_s": (statistics.median(throughputs)
                              if throughputs else 0.0),
               "peak_rss_mb": statistics.median(rss)}
    samples = {"wall_s": walls, "setup_s": setups,
               "rows_per_s": throughputs, "peak_rss_mb": rss}
    return metrics, samples


def measure_layers(run: Run, seconds: float):
    run.warm_up()
    layers, overheads, imports, absent = [], [], [], []
    start = time.monotonic()
    index = 0
    while True:
        step = time.monotonic()
        _, plain, _ = run.invoke(index, f"plain{index}")
        _, traced, _ = run.invoke(index, f"traced{index}", traced=True)
        index += 1
        if plain is not None and traced is not None and "layers" in traced:
            layers.append(traced["layers"])
            absent = traced["absent"]
            imports += [plain["import_s"], traced["import_s"]]
            overheads.append(traced["main_s"] / plain["main_s"] - 1.0)
        if not _fits(start, seconds, time.monotonic() - step):
            break
    metrics = {name: (statistics.median(sample[name] for sample in layers)
                      if layers else 0.0)
               for name in LAYER_METRICS}
    metrics["import_s"] = statistics.median(imports) if imports else 0.0
    metrics["trace_overhead"] = (statistics.median(overheads)
                                 if overheads else 0.0)
    return metrics, {"traced_invocations": len(layers), "absent": absent}


# ---------------------------------------------------------------------------
# provenance

def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def provenance(seed: int) -> dict:
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, ValueError):
        blas = None
    return {"seed": seed, "git_commit": git_commit(),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": blas, "nproc": os.cpu_count(),
            "cpu_model": _cpu_model(), "pinned_threads": PINNED_THREADS}


# ---------------------------------------------------------------------------
# entry point

def _tail(samples: list) -> str:
    n = len(samples)
    if n < 20:
        return (f"no percentile at or above the median has 10 samples "
                f"beyond it (n={n})")
    p = int(100.0 * (1.0 - 10.0 / n))
    q = statistics.quantiles(samples, n=100, method="inclusive")
    return f"p{p} = {q[p - 1]:.6g} s (n={n})"


def run_workload(name: str, seed: int, seconds: float, trace: int):
    """Measure one workload and print its report; returns (result, ratio).

    Raises ProgramMissing when the checkout holds no runnable program.
    """
    workload = WORKLOADS[name]
    rundir = WORK / f"{name}-seed{seed}-trace{trace}"
    shutil.rmtree(rundir, ignore_errors=True)
    rundir.mkdir(parents=True)
    run = Run(workload, seed, rundir, time.monotonic() + RUN_LIMIT_S)
    require_program()
    if trace:
        metrics, detail = measure_layers(run, seconds)
        units = PER_LAYER
    else:
        metrics, detail = measure_end_to_end(run, seconds)
        units = END_TO_END

    ratio = run.failed / run.attempted if run.attempted else 1.0
    info = {"workload": name, "trace": trace,
            "provenance": provenance(seed),
            "golden_invocations": len(run.golden), "detail": detail,
            "failed_ratio": ratio, "problems": run.problems,
            "predictions": PREDICTIONS}
    (WORK / f"{rundir.name}.json").write_text(
        json.dumps(dict(info, metrics=metrics), indent=1), encoding="utf-8")

    print(f"workload {name}, seed {seed}, trace {trace}")
    for metric, value in metrics.items():
        print(f"  {metric} = {value:.6g} {units[metric]}")
    print(f"  failed_ratio = {ratio:.6g} ratio "
          f"({run.failed} of {run.attempted} rows)")
    if not trace:
        print(f"  wall_s tail: {_tail(detail['wall_s'])}")
        print(f"  samples: " + ", ".join(f"{k} n={len(v)}"
                                         for k, v in detail.items()))
    else:
        print(f"  traced invocations: {detail['traced_invocations']}, "
              f"absent names: {detail['absent'] or 'none'}")
    print(f"  golden invocations for this seed: {len(run.golden)}")
    for problem in run.problems[:20]:
        print(f"  FAILED {problem}")
    print("provenance " + json.dumps(info["provenance"]))
    for layer, prediction in PREDICTIONS.items():
        print(f"prediction {layer}: {prediction}")

    spans = rundir / "traced0.spans.json"
    if spans.is_file():
        spans.replace(WORK / f"{rundir.name}.spans.json")
    if run.failed == 0:
        shutil.rmtree(rundir, ignore_errors=True)
    result = {"correct": run.failed == 0, "attempted": run.attempted,
              "failed": run.failed,
              "metrics": {metric: {"value": value, "unit": units[metric]}
                          for metric, value in metrics.items()}}
    return result, ratio


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ns = parser.parse_args(argv)
    os.environ.update(PINNED_THREADS)

    names = list(WORKLOADS) if ns.workload == "all" else [ns.workload]
    table = []
    try:
        for name in names:
            result, ratio = run_workload(name, ns.seed, ns.seconds, ns.trace)
            table.append((name, result, ratio))
    except ProgramMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    if ns.workload == "all":
        print(f"{'workload':18s} {'metric':36s} {'value':>14s} unit")
        for name, result, ratio in table:
            rows = [(m, v["value"], v["unit"])
                    for m, v in result["metrics"].items()]
            for metric, value, unit in rows + [("failed_ratio", ratio,
                                                "ratio")]:
                print(f"{name:18s} {metric:36s} {value:14.6g} {unit}")
    else:
        print(json.dumps(table[0][1]))
    return 0 if all(result["correct"] for _, result, _ in table) else 1


if __name__ == "__main__":
    sys.exit(main())
