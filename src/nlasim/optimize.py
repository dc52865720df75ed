"""Scalar searches over the amplifier transmissivity.

All searches are deterministic: a fixed coarse grid locates the best basin,
golden-section refines it, and the reported optimum is never worse than any
point actually evaluated.  Ties break toward the lowest transmissivity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .distill import apply_strategy
from .fock import coherent_state
from .nla import NlaSpec, _herald, _target_sign, nla_diagonal

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class SweepConfig:
    """Search-region and refinement settings shared by the optimisers."""

    t_min: float = 1e-4
    t_max: float = 1.0 - 1e-4
    grid_points: int = 200
    refine_tolerance: float = 1e-4

    def __post_init__(self):
        if not 0.0 < self.t_min < self.t_max < 1.0:
            raise ValueError("need 0 < t_min < t_max < 1")
        if self.grid_points < 3:
            raise ValueError("grid_points must be >= 3")
        if self.refine_tolerance <= 0.0:
            raise ValueError("refine_tolerance must be positive")

    @property
    def t_grid(self) -> np.ndarray:
        """The coarse transmissivity grid that sweeps and searches sample."""
        return np.linspace(self.t_min, self.t_max, self.grid_points)


def maximize_over_T(objective, config: SweepConfig | None = None,
                    record: list | None = None):
    """Coarse grid plus golden-section refinement of a scalar objective.

    Returns ``(t_star, value_star)``; the value is at least as good as every
    grid sample.  ``record``, when given, collects all (t, value) pairs in
    evaluation order.  Refinement stops at ``refine_tolerance`` or where the
    bracket stops shrinking, its ends adjacent floats, whichever comes first.
    """
    cfg = config or SweepConfig()

    def f(t: float) -> float:
        v = float(objective(t))
        if not math.isfinite(v):
            raise ValueError(f"objective returned non-finite value {v} "
                             f"at T={t}")
        if record is not None:
            record.append((t, v))
        return v

    ts = cfg.t_grid
    vals = np.array([f(t) for t in ts])
    i = int(np.argmax(vals))            # first max -> lowest-T tie-break
    best_t, best_v = float(ts[i]), float(vals[i])

    lo = float(ts[max(i - 1, 0)])
    hi = float(ts[min(i + 1, len(ts) - 1)])
    a, b = lo, hi
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = f(c), f(d)
    width = math.inf
    while width > b - a > cfg.refine_tolerance:
        width = b - a
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = f(d)
    for t, v in ((c, fc), (d, fd)):
        if v > best_v:
            best_t, best_v = float(t), float(v)
    return best_t, best_v


def max_fidelity_profiles(rows, kind: str, n_units: int, n_max: int = 30,
                          config: SweepConfig | None = None) -> list:
    """:func:`max_fidelity_profile` for every ``(alpha, target_gain)`` in
    ``rows``, all of one amplifier kind and unit count.

    Returns one outcome per row, in order: its ``(t_star, fidelity_star,
    success_prob)`` or the exception it raised, without its traceback, so a
    caller can report the first failure in its own row order.

    The coarse grid runs T-major: each grid T gets one diagonal for every
    row and one herald step for each alpha, dropped before the next T, and
    each row keeps one float per grid T.  Each row then runs its own search,
    which reads its grid values back and refines with diagonals of its own.
    A row makes the evaluations it would make alone, in the same order,
    with the guards in amplify_coherent's order (the kind and N, the input
    tail, the herald probability, the output top bin, the target tail); a
    guard that trips is not remembered, so each row gives the bits and the
    exception it would give alone.
    """
    cfg = config or SweepConfig()
    ts = cfg.t_grid
    inputs = {}                         # alpha -> input amplitudes
    signs = [None] * len(rows)
    targets = [None] * len(rows)

    def evaluate(r: int, t: float, diagonal, heralds: dict):
        """Row r's fidelity and herald probability at T."""
        alpha, gain = rows[r]
        if signs[r] is None:
            # the row's first T checks kind and N before any state
            signs[r] = _target_sign(NlaSpec(kind, n_units, t))
        if alpha not in heralds:
            if alpha not in inputs:
                inputs[alpha] = coherent_state(alpha, n_max)
            heralds[alpha] = _herald(diagonal(), inputs[alpha])
        out, prob = heralds[alpha]
        if targets[r] is None:
            targets[r] = coherent_state(signs[r] * gain * alpha, n_max)
        return float(abs(np.vdot(targets[r], out)) ** 2), prob

    def builder(t: float):
        built = []

        def diagonal() -> np.ndarray:
            if not built:
                built.append(nla_diagonal(NlaSpec(kind, n_units, t), n_max))
            return built[0]
        return diagonal

    # grid values of each row, up to its first failure or non-finite value
    values = np.empty((len(rows), len(ts)))
    done = [0] * len(rows)
    failures = [None] * len(rows)
    grid_best = [None] * len(rows)      # (value, prob) at the first maximum
    live = list(range(len(rows)))
    for j, t in enumerate(ts):
        diagonal, heralds = builder(t), {}
        for r in live:
            try:
                v, prob = evaluate(r, t, diagonal, heralds)
            except Exception as exc:    # the row's outcome, not the group's
                failures[r] = exc.with_traceback(None)
                continue
            values[r, j] = v
            done[r] = j + 1
            if grid_best[r] is None or v > grid_best[r][0]:
                grid_best[r] = (v, prob)
        live = [r for r in live if failures[r] is None
                and math.isfinite(values[r, j])]
        if not live:
            break

    outcomes = []
    for r in range(len(rows)):
        calls = 0
        refined = {}                    # refine T -> herald probability

        def objective(t: float) -> float:
            # maximize_over_T samples the grid, in order, before refining
            nonlocal calls
            j, calls = calls, calls + 1
            if j < len(ts):
                if j < done[r]:
                    return values[r, j]
                raise failures[r]
            v, prob = evaluate(r, t, builder(t), {})
            refined[t] = prob
            return v

        try:
            t_star, f_star = maximize_over_T(objective, cfg)
        except Exception as exc:
            outcomes.append(exc.with_traceback(None))
            continue
        prob = refined.get(t_star, grid_best[r][1])
        outcomes.append((t_star, f_star, prob))
    return outcomes


def max_fidelity_profile(alpha: complex, target_gain: float, kind: str,
                         n_units: int, n_max: int = 30,
                         config: SweepConfig | None = None):
    """T maximising the fidelity to the gain-``target_gain`` coherent target.

    Returns ``(t_star, fidelity_star, success_prob_at_t_star)``, the numbers
    that maximising ``amplify_coherent(...).fidelity`` over T gives: the
    one-row case of :func:`max_fidelity_profiles`, whose guard it raises.
    """
    (outcome,) = max_fidelity_profiles([(alpha, target_gain)], kind, n_units,
                                       n_max, config)
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def maximize_total_logneg(lossy: np.ndarray, kind: str, n_units: int,
                          strategy: str = "unfiltered",
                          amplified_index: int = 1,
                          config: SweepConfig | None = None):
    """T-optimised :func:`apply_strategy` on a lossy source.

    ``lossy`` is the stack from :func:`lossy_pdc_densities`.  Returns the
    :class:`DistillResult` the search computed at its optimum, with
    ``optimal_t`` set.
    """
    cfg = config or SweepConfig()
    # T -> result at each T that can be t_star: the grid's first maximum,
    # then every refine T, so memory does not grow with grid_points
    kept, top, calls = {}, -math.inf, 0

    def objective(t: float) -> float:
        nonlocal kept, top, calls
        res = apply_strategy(lossy, NlaSpec(kind, n_units, t), strategy,
                             amplified_index)
        calls += 1
        if calls > cfg.grid_points:
            kept[t] = res
        elif res.total_logneg > top:
            kept, top = {t: res}, res.total_logneg
        return res.total_logneg

    t_star, _ = maximize_over_T(objective, cfg)
    return replace(kept[t_star], optimal_t=t_star)
