"""Command-line experiment runner: declarative JSON configs in, tables out.

Subcommands
-----------
``amplify``          T-optimised fidelity/success for coherent-state amplification
                     over a grid of (alpha, target_gain, n_units, kind).
``distill``          T-optimised total log-negativity over an attenuation grid,
                     with the no-amplifier reference in every row.
``cascade-compare``  parallel vs cascaded photon catalysis: ``distill`` rows on
                     one lossless supermode pair.
``sweep``            raw (T, log-negativity, success) grid for one scenario point.
``verify``           circuit-oracle self-checks with a pass/fail report.

Config files are JSON objects.  A subcommand's key table is the one list of
keys it accepts: unknown keys and out-of-range values are rejected before any
work starts, and ``--KEY`` overrides KEY where the table holds it (``--out``,
``--format``, ``--workers``; for ``verify`` ``--out`` and ``--tolerance``, the
latter for every check).  ``sweep`` samples the T grid with no refinement, so
its ``optimizer`` takes no ``refine_tolerance``.
All keys but the grids have defaults, ``optimizer``'s from ``SweepConfig``:

    {"experiment": "distill",            # optional, must match the subcommand
     "out": "rows.csv", "format": "csv", # or "jsonl"
     "workers": 4,                       # default and cap: all cores
     "n_max": 20,
     "optimizer": {"grid_points": 60, "t_min": 1e-4, "t_max": 0.9999,
                   "refine_tolerance": 1e-6},
     "scenario": 1, "r1_db": 5.0, "k_modes": 5, "decay": 0.6,
     "attenuations_db": [0, 5, 10], "kinds": ["QS", "PC"], "n_units": [2],
     "strategy": "unfiltered", "amplified_index": 1}

Independent tasks fan out over a pool of at most ``os.cpu_count()``
processes: one per row for ``distill`` and ``cascade-compare``, one per
(kind, N) group for ``amplify``, whose rows share that group's coarse-grid
amplifier diagonals, its rows cut into contiguous runs when there are fewer
groups than pool workers.  ``sweep`` scores its T grid in one call, with no
pool.  Rows are emitted in sorted parameter order regardless of worker
scheduling, a failing run reports the first failing row in that order, and
float cells use 17 significant digits, so identical configs give
byte-identical output at any worker count.

Exit codes: 0 success, 1 config/validation error or unwritable ``--out``,
2 numerical-guard failure, 3 verification failure.  Exit skips collecting
the imports' heap, frozen at import; no output changes, so there is no knob.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import sys
from functools import partial

import numpy as np

from . import distill, fock, nla
from .distill import (DEFAULT_DECAY, DEFAULT_SUPERMODES, PdcSpec,
                      _gaussian_log_negativities, _log_negativities,
                      lossy_pdc_densities, reference_no_nla,
                      score_transmissivities)
from .fock import (NormalizationError, TruncationError, squeezing_from_db,
                   transmissivity_from_db)
from .nla import VALID_KINDS
from .optimize import (SweepConfig, max_fidelity_profiles,
                       maximize_total_logneg)

gc.freeze()  # exit skips collecting the ~21k objects the imports built

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERICS = 2
EXIT_VERIFY = 3

_FLOAT_FMT = ".17g"


class ConfigError(ValueError):
    """Malformed or contradictory experiment configuration."""


# ---------------------------------------------------------------------------
# config validation: one key -> (parser, default) table per experiment, for
# config keys and flags alike.  The parsers check the JSON type, that every
# count is >= 1, and the n_max and k_modes typo guards; build_experiment then
# builds the domain objects once, so their constructors' range rules (the
# grid_points range is SweepConfig's) apply before any work, and hands them
# to the runners: outside verify params["optimizer"] is a SweepConfig; for
# distill, cascade-compare and sweep, "pdc" is the source, "receiver" its
# (strategy, amplified_index) and "points" one (attenuation_db, kind,
# n_units) per row (two per N, cascade).

_ABSENT = object()      # default of an optional key that has none


def _fail(where: str, message: str):
    raise ConfigError(f"{where}: {message}")


def _number(raw, where: str) -> float:
    if isinstance(raw, bool) or not isinstance(raw, (int, float)):
        _fail(where, f"expected a number, got {raw!r}")
    try:
        value = float(raw)
    except OverflowError:           # an int beyond the float range
        value = math.inf
    if not math.isfinite(value):
        _fail(where, f"expected a finite number, got {raw!r}")
    return value


def _integer(raw, where: str, minimum: int = 1,
             maximum: int | None = None) -> int:
    if isinstance(raw, bool) or not isinstance(raw, int):
        _fail(where, f"expected an integer, got {raw!r}")
    if raw < minimum:
        _fail(where, f"must be >= {minimum}, got {raw}")
    if maximum is not None and raw > maximum:
        _fail(where, f"must be <= {maximum}, got {raw}")
    return raw


def _grid(item, key=None):
    """Non-empty list of ``item`` values, deduplicated and sorted by ``key``."""
    def parse(raw, where: str) -> tuple:
        if not isinstance(raw, list) or not raw:
            _fail(where, "expected a non-empty list")
        return tuple(sorted({item(v, where) for v in raw}, key=key))
    return parse


def _choice(*options):
    def parse(raw, where: str):
        if raw not in options:
            _fail(where, f"expected one of {list(options)}, got {raw!r}")
        return raw
    return parse


def _check_names(raw, where: str) -> tuple:
    return _grid(_choice(*(name for name, _, _ in VERIFY_CHECKS)))(raw, where)


def _path(raw, where: str):
    if raw is not None and not isinstance(raw, str):
        _fail(where, f"expected a path string, got {raw!r}")
    return raw


def _workers(raw, where: str):
    return None if raw is None else _integer(raw, where)


def _parse(raw: dict, table: dict, where: str, prefix: str = "") -> dict:
    """Parse ``raw``, which may hold only ``table``'s keys; fill defaults."""
    unknown = set(raw) - set(table)
    if unknown:
        _fail(where, f"unknown keys {sorted(unknown)}")
    out = {}
    for key, (parse, default) in table.items():
        value = raw.get(key, default)
        if value is not _ABSENT:
            out[key] = parse(value, prefix + key)
    return out


# typo guards: far above any real run, far below a memory-exhausting request
_MAX_K_MODES = 64
_MAX_N_MAX = 200

# canonical order, so output ordering never depends on config order
_KINDS = _grid(_choice(*VALID_KINDS), key=VALID_KINDS.index)

_T_GRID = {"t_min": (_number, _ABSENT), "t_max": (_number, _ABSENT),
           "grid_points": (_integer, _ABSENT)}
_OPTIMIZER = {**_T_GRID, "refine_tolerance": (_number, _ABSENT)}


def _optimizer(raw, where: str, table=_OPTIMIZER) -> dict:
    if raw is None:
        return {}
    if not isinstance(raw, dict):
        _fail(where, "expected an object")
    return _parse(raw, table, where, f"{where}.")


def _common(experiment: str, n_max: int) -> dict:
    return {"experiment": (_choice(experiment), experiment),
            "out": (_path, None), "format": (_choice("csv", "jsonl"), "csv"),
            "workers": (_workers, None),
            "n_max": (partial(_integer, minimum=2, maximum=_MAX_N_MAX), n_max),
            "optimizer": (_optimizer, None)}


_SOURCE = {"scenario": (_integer, 1), "r1_db": (_number, 5.0),
           "k_modes": (partial(_integer, maximum=_MAX_K_MODES),
                       DEFAULT_SUPERMODES), "decay": (_number, DEFAULT_DECAY),
           "strategy": (_choice("unfiltered", "filtered"), "unfiltered"),
           "amplified_index": (_integer, 1)}

_TABLES = {
    "amplify": {**_common("amplify", 30),
                "alphas": (_grid(_number), None),
                "target_gains": (_grid(_number), None),
                "n_units": (_grid(_integer), None),
                "kinds": (_KINDS, ["QS", "PC"])},
    "distill": {**_common("distill", 20), **_SOURCE,
                "attenuations_db": (_grid(_number), None),
                "kinds": (_KINDS, ["QS", "PC"]),
                "n_units": (_grid(_integer), [2])},
    "cascade-compare": {**_common("cascade-compare", 25),
                        "r_db": (_number, 3.0),
                        "n_units": (_grid(_integer), [1, 2, 3])},
    "sweep": {**_common("sweep", 20), **_SOURCE,
              "optimizer": (partial(_optimizer, table=_T_GRID), None),
              "attenuation_db": (_number, 0.0),
              "kind": (_choice(*VALID_KINDS), "PC"),
              "n_units": (_integer, 2)},
    "verify": {"experiment": (_choice("verify"), "verify"),
               "out": (_path, None),
               "tolerance": (_number, _ABSENT),
               "checks": (_check_names, _ABSENT)},
}


def load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path!r} is not valid JSON: {exc}") from exc
    except (OSError, ValueError) as exc:    # bad UTF-8, a >4300-digit int
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config {path!r} must be a JSON object")
    return raw


def _build_domain(experiment: str, p: dict) -> None:
    """Build the domain objects once; their constructors own the ranges."""
    if experiment == "verify":
        return
    p["optimizer"] = SweepConfig(**p["optimizer"])
    if experiment == "amplify":
        return
    if experiment == "cascade-compare":
        if p["r_db"] < 0:
            raise ValueError("r_db must be >= 0")
        # one lossless supermode pair: the unfiltered receiver has no
        # bystanders, so each row is the bare arrangement
        pdc = PdcSpec(np.array([squeezing_from_db(p["r_db"])]))
        grid = [(0.0, k, n) for n in p["n_units"]
                for k in ("PC", "CascadedPC")]
        receiver = ("unfiltered", 1)
    else:
        pdc = PdcSpec.from_scenario(p["scenario"], p["r1_db"], p["k_modes"],
                                    p["decay"])
        if experiment == "distill":
            grid = [(db, k, n) for db in p["attenuations_db"]
                    for k in p["kinds"] for n in p["n_units"]]
        else:
            grid = [(p["attenuation_db"], p["kind"], p["n_units"])]
        receiver = (p["strategy"], p["amplified_index"])
    if any(db < 0 for db, _, _ in grid):
        raise ValueError("attenuation_db must be finite and >= 0")
    p["points"] = tuple(grid)
    distill._check_receiver(*receiver, pdc.squeezings.size)
    p["pdc"], p["receiver"] = pdc, receiver


def build_experiment(experiment: str, raw: dict, **flags) -> dict:
    """Check ``raw``, with the CLI flags that were given merged over it,
    against the table for ``experiment``; fill defaults."""
    if experiment not in _TABLES:
        _fail("experiment", f"unknown experiment {experiment!r}")
    given = {key: value for key, value in flags.items() if value is not None}
    p = _parse({**raw, **given}, _TABLES[experiment], experiment)
    try:
        _build_domain(experiment, p)
    except ValueError as exc:
        raise ConfigError(f"{experiment}: {exc}") from exc
    return p


# ---------------------------------------------------------------------------
# worker tasks (module-level, picklable)

def _distill_point(pdc, eta, kind, n_units, receiver, n_max, sweep):
    lossy = lossy_pdc_densities(pdc, eta, n_max)
    t_star, best = maximize_total_logneg(lossy, kind, n_units, *receiver,
                                         config=sweep)
    ref = reference_no_nla(lossy)
    return t_star, best.total_logneg, best.success_prob, ref.total_logneg


def _worker_count(workers) -> int:
    cpus = os.cpu_count() or 1
    return cpus if workers is None else min(workers, cpus)


def _fan_out(worker, tasks, workers):
    n_workers = min(_worker_count(workers), len(tasks))
    if n_workers <= 1:
        return [worker(*task) for task in tasks]
    # imported only for a pool, so serial runs never load multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=n_workers) as pool:
        return list(pool.map(worker, *zip(*tasks), chunksize=1))


# ---------------------------------------------------------------------------
# experiment runners: validated params in, (header, rows) out, rows sorted

def run_amplify(p: dict):
    # one task per (kind, N) group, whose rows share its grid diagonals; with
    # fewer groups than workers each group's rows, alpha-major, are cut into
    # contiguous runs so that every worker gets a task.  Outcomes are put in
    # row order, which raises the first failing row's exception whatever the
    # scheduling
    pairs = [(a, g) for a in p["alphas"] for g in p["target_gains"]]
    groups = [(k, n) for n in p["n_units"] for k in p["kinds"]]
    cuts = min(len(pairs), -(-_worker_count(p["workers"]) // len(groups)))
    runs = [pairs[len(pairs) * i // cuts:len(pairs) * (i + 1) // cuts]
            for i in range(cuts)]
    tasks = [(run, k, n, p["n_max"], p["optimizer"])
             for k, n in groups for run in runs]
    results = _fan_out(max_fidelity_profiles, tasks, p["workers"])
    by_group = [[o for res in results[i:i + cuts] for o in res]
                for i in range(0, len(results), cuts)]
    header = ["alpha", "target_gain", "kind", "n_units", "n_max",
              "optimal_t", "fidelity", "success_prob"]
    rows = []
    for (a, g), outcomes in zip(pairs, zip(*by_group)):
        for (k, n), outcome in zip(groups, outcomes):
            if isinstance(outcome, Exception):
                raise outcome
            rows.append([a, g, k, n, p["n_max"], *outcome])
    return header, rows


def _distill_points(p: dict):
    """Each point's ``(attenuation_db, eta, kind, n_units)`` with its
    ``_distill_point`` result."""
    points = [(db, transmissivity_from_db(db), k, n)
              for db, k, n in p["points"]]
    tasks = [(p["pdc"], eta, k, n, p["receiver"], p["n_max"], p["optimizer"])
             for _, eta, k, n in points]
    return zip(points, _fan_out(_distill_point, tasks, p["workers"]))


def run_distill(p: dict):
    header = ["attenuation_db", "eta", "scenario", "strategy", "kind",
              "n_units", "n_max", "optimal_t", "total_logneg",
              "success_prob", "reference_logneg"]
    rows = [[db, eta, p["scenario"], p["strategy"], k, n, p["n_max"], *res]
            for (db, eta, k, n), res in _distill_points(p)]
    return header, rows


def run_cascade_compare(p: dict):
    header = ["r_db", "n_units", "arrangement", "n_max", "optimal_t",
              "total_logneg", "success_prob"]
    label = {"PC": "parallel", "CascadedPC": "cascaded"}
    rows = [[p["r_db"], n, label[k], p["n_max"], t, e, pr]
            for (_, _, k, n), (t, e, pr, _) in _distill_points(p)]
    return header, rows


def run_sweep(p: dict):
    """Emit the raw per-T objective surface for one distillation point."""
    ((db, kind, n_units),) = p["points"]
    lossy = lossy_pdc_densities(p["pdc"], transmissivity_from_db(db),
                                p["n_max"])
    ts = p["optimizer"].t_grid
    results = score_transmissivities(lossy, kind, n_units, ts, *p["receiver"])
    header = ["attenuation_db", "kind", "n_units", "n_max", "t",
              "total_logneg", "success_prob"]
    rows = [[p["attenuation_db"], kind, n_units, p["n_max"], float(t),
             res.total_logneg, res.success_prob]
            for t, res in zip(ts, results)]
    return header, rows


# ---------------------------------------------------------------------------
# verify: oracle circuits against the closed forms they certify.  Each check
# yields got - want for every case it covers; run_verify folds max |.|.

def _dev_pc_multinomial():
    from . import oracle  # verify alone loads the oracle circuits
    for n_units in (1, 2, 3):
        for t in (0.1, 0.5, 0.9):
            coeffs = nla.pc_nla_diagonal(n_units, t, 8)
            for n in range(9):
                yield coeffs[n] - oracle.pc_nla_multinomial(n_units, t, n)


def _dev_pc_circuit():
    from . import oracle
    for t in (0.2, 0.5, 0.8):
        yield (oracle.pc_circuit_operator(t, 6)
               - np.diag(nla.pc_nla_diagonal(1, t, 6)))


def _dev_qs_circuit():
    from . import oracle
    for t1 in (0.3, 0.5, 0.7):
        for t2 in (0.2, 0.6, 0.9):
            keep = oracle.qs_circuit_operator(t1, t2, 5)
            want = np.zeros_like(keep)
            want[0, 0] = math.sqrt(t1 * t2)
            want[1, 1] = math.sqrt((1 - t1) * (1 - t2))
            yield keep - want
            swap = oracle.qs_circuit_operator(t1, t2, 5, detect="c")
            want[0, 0] = -math.sqrt((1 - t1) * t2)
            want[1, 1] = math.sqrt(t1 * (1 - t2))
            yield swap - want


def _dev_qs_multimode():
    from . import oracle
    want = np.zeros((3, 3), dtype=complex)
    for t1, t2 in ((0.5, 0.3), (0.4, 0.7)):
        want[0, 0] = math.sqrt(t1 * t2)
        want[1, 1] = math.sqrt((1 - t1) * (1 - t2))
        for gammas in ((1.0, 0.0), (2 ** -0.5, 2 ** -0.5), (0.6, 0.8j)):
            yield oracle.multimode_qs_operator(t1, t2, gammas) - want


def _dev_qs_splitter():
    from . import oracle
    for n_units in (1, 2):
        for t in (0.25, 0.6):
            got = oracle.qs_nla_splitter_circuit(n_units, t, n_units)
            got = got * 2 ** (n_units / 2)  # documented fan-out convention
            want = np.diag(nla.qs_nla_diagonal(n_units, t, n_units))
            yield got - want


def _dev_nsplitter():
    from . import oracle
    for n_paths in (2, 3, 4, 5):
        u = oracle.nsplitter_unitary(n_paths)
        amp = 1 / math.sqrt(n_paths)
        yield from (u @ u.T - np.eye(n_paths), u[0] - amp, u[:, 0] - amp)


def _dev_beam_splitter():
    for s, b in enumerate(fock.beam_splitter_unitary(0.37, 8)):
        yield b @ b.T - np.eye(s + 1)


def _dev_loss_channel():
    for eta in (0.1, 0.5, 0.794328234724281, 1.0):
        kraus = fock.loss_kraus_operators(eta, 12)
        yield sum(k.T @ k for k in kraus) - np.eye(13)


def _dev_tmsv_logneg():
    r = 0.3
    lossy = lossy_pdc_densities(PdcSpec(np.array([r])), 1.0, 40)
    yield reference_no_nla(lossy).total_logneg - 2 * r / math.log(2)


def _dev_lossy_tmsv_logneg():
    # an attenuated lossy TMSV, as unfiltered catalysis leaves a bystander:
    # closed form against the graded kernel, whose tail is below round-off
    for eta in (0.1, 0.5, 1.0):
        lossy = lossy_pdc_densities(PdcSpec(np.array([0.5])), eta, 40)
        for t in (0.05, 0.3, 0.9):
            amp = lossy * fock.attenuator_diagonal(t, 40)
            amp /= np.linalg.norm(amp)
            yield _gaussian_log_negativities(amp) - _log_negativities(amp)


VERIFY_CHECKS = (
    ("pc_diagonal_multinomial", 1e-10, _dev_pc_multinomial),
    ("pc_circuit_diagonal", 1e-10, _dev_pc_circuit),
    ("qs_circuit_operator", 1e-10, _dev_qs_circuit),
    ("qs_multimode_two_bin", 1e-10, _dev_qs_multimode),
    ("qs_splitter_circuit", 1e-9, _dev_qs_splitter),
    ("nsplitter_unitary", 1e-12, _dev_nsplitter),
    ("beam_splitter_unitary", 1e-12, _dev_beam_splitter),
    ("loss_trace_preserving", 1e-12, _dev_loss_channel),
    ("tmsv_log_negativity", 1e-8, _dev_tmsv_logneg),
    ("lossy_tmsv_log_negativity", 1e-12, _dev_lossy_tmsv_logneg),
)


def run_verify(p: dict):
    """Run the oracle checks; returns (report text, all_passed)."""
    selected, tolerance = p.get("checks"), p.get("tolerance")
    lines = []
    n_pass = n_run = 0
    for name, default_tol, check in VERIFY_CHECKS:
        if selected is not None and name not in selected:
            continue
        tol = default_tol if tolerance is None else tolerance
        dev = float(np.max([np.abs(d).max() for d in check()]))
        ok = dev <= tol
        n_run += 1
        n_pass += ok
        lines.append(f"{'PASS' if ok else 'FAIL'} {name}:"
                     f" max deviation {dev:.3e} (tolerance {tol:.1e})")
    lines.append(f"{n_pass}/{n_run} checks passed")
    return "\n".join(lines) + "\n", n_pass == n_run


# ---------------------------------------------------------------------------
# output

def _cell(value) -> str:
    if isinstance(value, float):
        return format(value, _FLOAT_FMT)
    return str(value)


def render_rows(header, rows, out_format: str) -> str:
    if out_format == "csv":
        lines = [",".join(header)]
        lines += [",".join(_cell(v) for v in row) for row in rows]
        return "\n".join(lines) + "\n"
    out = []
    for row in rows:
        record = {key: (format(v, _FLOAT_FMT) if isinstance(v, float) else v)
                  for key, v in zip(header, row)}
        out.append(json.dumps(record))
    return "\n".join(out) + "\n"


def _write(text: str, out_path: str | None):
    if out_path is None or out_path == "-":
        sys.stdout.write(text)
        return
    try:
        with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write {out_path!r}: {exc}") from exc


_RUNNERS = {
    "amplify": run_amplify,
    "distill": run_distill,
    "cascade-compare": run_cascade_compare,
    "sweep": run_sweep,
}


# ---------------------------------------------------------------------------
# entry point

# the override flags; a subcommand takes those whose key its table holds
_FLAGS = {"out": {"help": "output path (default: stdout)"},
          "format": {"choices": ("csv", "jsonl")}, "workers": {"type": int},
          "tolerance": {"type": float,
                        "help": "override every check's tolerance"}}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nlasim",
        description="Amplifier and distillation experiments on truncated"
                    " Fock states.")
    sub = parser.add_subparsers(dest="experiment", required=True)
    for name, table in _TABLES.items():
        p = sub.add_parser(name)
        p.add_argument("--config", help="JSON experiment config")
        for key, options in _FLAGS.items():
            if key in table:
                p.add_argument(f"--{key}", **options)
    return parser


def main(argv=None) -> int:
    try:
        flags = vars(_build_parser().parse_args(argv))
    except SystemExit as exc:  # argparse exits 2 on bad flags; remap
        return EXIT_OK if not exc.code else EXIT_CONFIG
    experiment, config = flags.pop("experiment"), flags.pop("config")

    try:
        if config is None and experiment != "verify":
            raise ConfigError(f"{experiment}: --config is required")
        raw = {} if config is None else load_config(config)
        p = build_experiment(experiment, raw, **flags)
        if experiment == "verify":
            report, all_ok = run_verify(p)
            _write(report, p["out"])
            return EXIT_OK if all_ok else EXIT_VERIFY
        header, rows = _RUNNERS[experiment](p)
        _write(render_rows(header, rows, p["format"]), p["out"])
    except ConfigError as exc:      # a bad config or an unwritable --out
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (TruncationError, NormalizationError, OverflowError) as exc:
        print(f"numerical guard: {exc}", file=sys.stderr)
        return EXIT_NUMERICS
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
