"""Scalar searches over the amplifier transmissivity.

All searches are deterministic: each samples a fixed coarse grid, then
:func:`refine` golden-sections around its first maximum.  The optimum is never
worse than any point evaluated; ties break toward the lowest transmissivity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .distill import apply_strategy
from .fock import coherent_state
from .nla import NlaSpec, _herald, _integer, _target_sign, nla_diagonal

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
        if _integer(self.grid_points, "grid_points") < 3:
            raise ValueError("grid_points must be >= 3")
        if not 0.0 < self.refine_tolerance < math.inf:
            raise ValueError("refine_tolerance must be positive and finite")

    @property
    def t_grid(self) -> np.ndarray:
        """The coarse transmissivity grid that sweeps and searches sample."""
        return np.linspace(self.t_min, self.t_max, self.grid_points)


def _finite(t: float, v) -> float:
    """``v`` as a float; every search raises here on a non-finite value."""
    v = float(v)
    if not math.isfinite(v):
        raise ValueError(f"objective returned non-finite value {v} at T={t}")
    return v


def refine(objective, values, config: SweepConfig):
    """Golden-section search between the grid neighbours of the first
    maximum of ``values``, the objective's values on ``config.t_grid``.

    Returns ``(t_star, value_star)``; the value is at least as good as every
    grid sample.  Refinement stops at ``refine_tolerance`` or where the
    bracket stops shrinking, its ends adjacent floats, whichever comes first.
    """
    ts = config.t_grid
    i = int(np.argmax(values))          # first max -> lowest-T tie-break
    best_t, best_v = float(ts[i]), float(values[i])

    lo = float(ts[max(i - 1, 0)])
    hi = float(ts[min(i + 1, len(ts) - 1)])
    a, b = lo, hi
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = objective(c), objective(d)
    width = math.inf
    while width > b - a > config.refine_tolerance:
        width = b - a
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = objective(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = objective(d)
    for t, v in ((c, fc), (d, fd)):
        if v > best_v:
            best_t, best_v = float(t), float(v)
    return best_t, best_v


def maximize_over_T(objective, config: SweepConfig | None = None,
                    record: list | None = None):
    """Coarse grid plus golden-section refinement of a scalar objective:
    :func:`refine` on its samples of ``config.t_grid``, taken in order.
    ``record``, when given, collects all (t, value) pairs in evaluation order.
    """
    cfg = config or SweepConfig()

    def f(t: float) -> float:
        v = _finite(t, objective(t))
        if record is not None:
            record.append((t, v))
        return v

    return refine(f, [f(t) for t in cfg.t_grid], cfg)


def max_fidelity_profiles(rows, kind: str, n_units: int, n_max: int = 30,
                          config: SweepConfig | None = None) -> list:
    """:func:`max_fidelity_profile` for every ``(alpha, target_gain)`` in
    ``rows``, all of one amplifier kind and unit count.

    Returns one outcome per row, in order: its ``(t_star, fidelity_star,
    success_prob)`` or the exception it raised, without its traceback, so a
    caller can report the first failure in its own row order.

    The coarse grid runs T-major: each grid T gets one diagonal for every
    row and one herald step for each alpha, dropped before the next T, and
    each row keeps one float per grid T.  Each row then calls :func:`refine`
    on its grid values, with diagonals of its own.  A row makes the
    evaluations it would make alone, with the guards in amplify_coherent's
    order (the kind and N, the input tail, the herald probability, the
    output top bin, the target tail); a guard that trips is not remembered,
    so each row gives the bits and the exception it would give alone.
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

    # grid values of each row, up to its first failure
    values = np.empty((len(rows), len(ts)))
    outcomes = [None] * len(rows)       # result or exception, per row
    grid_best = [None] * len(rows)      # (value, prob) at the first maximum
    live = list(range(len(rows)))
    for j, t in enumerate(ts):
        diagonal, heralds = builder(t), {}
        for r in live:
            try:
                v, prob = evaluate(r, t, diagonal, heralds)
                values[r, j] = _finite(t, v)
            except Exception as exc:    # the row's outcome, not the group's
                outcomes[r] = exc.with_traceback(None)
                continue
            if grid_best[r] is None or v > grid_best[r][0]:
                grid_best[r] = (v, prob)
        live = [r for r in live if outcomes[r] is None]

    for r in live:
        refined = {}                    # refine T -> herald probability

        def objective(t: float) -> float:
            v, refined[t] = evaluate(r, t, builder(t), {})
            return _finite(t, v)

        try:
            t_star, f_star = refine(objective, values[r], cfg)
            prob = refined.get(t_star, grid_best[r][1])
            outcomes[r] = (t_star, f_star, prob)
        except Exception as exc:
            outcomes[r] = exc.with_traceback(None)
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

    def score(t: float):
        res = apply_strategy(lossy, NlaSpec(kind, n_units, t), strategy,
                             amplified_index)
        return _finite(t, res.total_logneg), res

    # T -> result at each T that can be t_star: the grid's first maximum,
    # then every refine T, so memory does not grow with grid_points
    kept, values, top = {}, [], -math.inf
    for t in cfg.t_grid:
        v, res = score(t)
        values.append(v)
        if v > top:
            kept, top = {t: res}, v

    def objective(t: float) -> float:
        v, kept[t] = score(t)
        return v

    t_star, _ = refine(objective, values, cfg)
    return replace(kept[t_star], optimal_t=t_star)
