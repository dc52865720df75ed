"""Output check: every CLI row against its config, invariants and golden rows.

Golden rows were generated at the commit that introduced the benchmark, for
the seeds listed in ``golden/<workload>.json``.  They are compared with
tolerances rather than byte equality, so that a kernel that sums in another
order still passes:

* ``optimal_t`` may move by ``2 * refine_tolerance``, the width of the
  optimiser's final bracket on either side;
* a value taken at T (the objective and ``success_prob``) must agree to
  ``1e-9`` relative when T is unchanged.  When T moved by dT it may move by
  ``8 (N + 1) dT / min(T, 1 - T)`` more, a bound on the logarithmic slope in
  T of an N-unit herald probability;
* values that do not depend on the optimiser (the no-amplifier reference,
  every sweep cell) must agree to ``1e-9`` relative.

Invariants hold for any seed: 0 < success_prob <= 1, 0 <= fidelity <= 1,
log-negativities >= 0 and every T in [t_min, t_max].
"""

from __future__ import annotations

import csv
import io

SAME_T_RTOL = 1e-9
# rounding slack on the bounds 0 and 1 of fidelities, probabilities and
# log-negativities
ROUNDING = 1e-12
ATOL = {"success_prob": 1e-15}
DEFAULT_ATOL = 1e-12
EXACT_INPUT_RTOL = 1e-12


def parse_csv(text: str):
    """(header, rows) of a CSV table; rows are lists of cell strings."""
    table = list(csv.reader(io.StringIO(text)))
    if not table:
        return [], []
    return table[0], table[1:]


def _close(got: float, want: float, rtol: float, atol: float) -> bool:
    return abs(got - want) <= atol + rtol * abs(want)


def _input_problems(row: dict, expected: dict) -> list:
    out = []
    for column, want in expected.items():
        cell = row.get(column)
        try:
            if isinstance(want, str):
                ok = cell == want
            elif isinstance(want, int):
                ok = int(cell) == want
            else:
                ok = _close(float(cell), want, EXACT_INPUT_RTOL, 0.0)
        except (TypeError, ValueError):
            ok = False
        if not ok:
            out.append(f"{column}={cell!r}, config says {want!r}")
    return out


def _invariant_problems(row: dict, t_min: float, t_max: float) -> list:
    out = []
    values = {k: float(v) for k, v in row.items()
              if k in ("success_prob", "fidelity", "total_logneg",
                       "reference_logneg", "optimal_t", "t")}
    p = values.get("success_prob")
    if p is not None and not 0.0 < p <= 1.0 + ROUNDING:
        out.append(f"success_prob {p!r} outside (0, 1]")
    f = values.get("fidelity")
    if f is not None and not -ROUNDING <= f <= 1.0 + ROUNDING:
        out.append(f"fidelity {f!r} outside [0, 1]")
    for key in ("total_logneg", "reference_logneg"):
        e = values.get(key)
        if e is not None and not e >= -ROUNDING:
            out.append(f"{key} {e!r} is negative")
    for key in ("optimal_t", "t"):
        t = values.get(key)
        if t is not None and not t_min <= t <= t_max:
            out.append(f"{key} {t!r} outside [{t_min!r}, {t_max!r}]")
    return out


def _golden_problems(row: dict, golden: dict, refine: float | None) -> list:
    out = []
    scale = 0.0
    if "optimal_t" in golden:
        t, t_gold = float(row["optimal_t"]), float(golden["optimal_t"])
        moved = abs(t - t_gold)
        if not moved <= 2.0 * refine:
            return [f"optimal_t {t!r} vs golden {t_gold!r}: moved {moved:.3g}"
                    f" > 2 * refine_tolerance"]
        n_units = int(row.get("n_units", 1))
        scale = 8.0 * (n_units + 1) * moved / min(t_gold, 1.0 - t_gold)
    for column, want_cell in golden.items():
        if column == "optimal_t":
            continue
        got, want = float(row[column]), float(want_cell)
        at_t = column != "reference_logneg" and "optimal_t" in golden
        rtol = SAME_T_RTOL + (scale if at_t else 0.0)
        if not _close(got, want, rtol, ATOL.get(column, DEFAULT_ATOL)):
            out.append(f"{column} {got!r} vs golden {want!r} "
                       f"(rtol {rtol:.2g})")
    return out


def check_table(workload, cfg: dict, text: str, golden_rows=None):
    """Check one CLI output table.

    Returns ``(attempted, failed, problems)``: ``attempted`` is the number of
    rows the config asks for, ``failed`` the number that are missing or fail
    a check, and ``problems`` one message per failed row.
    """
    expected = workload.expected_inputs(cfg)
    attempted = len(expected)
    header, rows = parse_csv(text)
    if tuple(header) != workload.header:
        return attempted, attempted, [f"header {header!r} is not "
                                      f"{list(workload.header)!r}"]
    if len(rows) != attempted:
        return attempted, attempted, [f"{len(rows)} rows, config asks for "
                                      f"{attempted}"]
    opt = cfg["optimizer"]
    t_min, t_max = opt["t_min"], opt["t_max"]
    failed = 0
    problems = []
    for i, (cells, want) in enumerate(zip(rows, expected)):
        if len(cells) != len(header):
            row_problems = [f"{len(cells)} cells, header has {len(header)}"]
        else:
            row = dict(zip(header, cells))
            try:
                row_problems = (_input_problems(row, want)
                                + _invariant_problems(row, t_min, t_max))
                if golden_rows is not None and not row_problems:
                    gold = dict(zip(workload.outputs, golden_rows[i]))
                    row_problems += _golden_problems(
                        row, gold, opt.get("refine_tolerance"))
            except (ValueError, KeyError) as exc:
                row_problems = [f"unreadable cell: {exc}"]
        if row_problems:
            failed += 1
            problems.append(f"row {i}: " + "; ".join(row_problems))
    return attempted, failed, problems


def output_cells(workload, text: str) -> list:
    """The output columns of every row, as the golden files store them."""
    header, rows = parse_csv(text)
    index = [header.index(c) for c in workload.outputs]
    return [[row[i] for i in index] for row in rows]
