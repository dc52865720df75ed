"""Run one nlasim CLI invocation in this process and report its timings.

usage: python3 perfbench/child.py REPORT [--setup-only] [--spans SPANS] \
           -- SUBCOMMAND --config CONFIG --workers 1 --out OUT

The invocation is ``nlasim.cli.main(ARGS)``, which is all that
``python -m nlasim ARGS`` does.  ``cli.build_experiment`` is wrapped to take
the monotonic clock when the config has been validated; the spawning
process subtracts its own spawn time from that reading to get ``setup_s``.
REPORT receives one JSON object: the clock readings, the time spent in
``main``, the exit code and, with ``--spans``, the per-layer counters of the
traced run (the spans themselves go to SPANS).  ``--setup-only`` exits right
after validation.
"""

from __future__ import annotations

import json
import sys
import time


def main(argv: list) -> int:
    split = argv.index("--")
    opts, cli_args = argv[:split], argv[split + 1:]
    report_path = opts[0]
    setup_only = "--setup-only" in opts
    spans_path = opts[opts.index("--spans") + 1] if "--spans" in opts \
        else None

    started = time.perf_counter()
    from nlasim import cli
    report = {"imported": time.monotonic(),
              "import_s": time.perf_counter() - started,
              "validated": None}

    build = cli.build_experiment

    def stamped(*args, **kwargs):
        cfg = build(*args, **kwargs)
        report["validated"] = time.monotonic()
        if setup_only:
            raise SystemExit(0)
        return cfg

    cli.build_experiment = stamped

    tracer = None
    if spans_path is not None:
        from trace_layers import Tracer
        tracer = Tracer()
        tracer.install()

    t0 = time.perf_counter()
    try:
        code = cli.main(cli_args)
    except SystemExit as exc:
        code = exc.code or 0
    report["main_s"] = time.perf_counter() - t0
    report["exit_code"] = code

    if tracer is not None:
        report["layers"] = tracer.summary()
        report["absent"] = tracer.absent
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh)
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
