"""Scalar searches over the amplifier transmissivity.

All searches are deterministic: each samples a fixed coarse grid, then
:func:`refine` golden-sections around its first maximum, and a search that
reports more than the objective evaluates once more at the optimum.  The
optimum is never worse than any point evaluated; ties break toward the lowest
transmissivity.
"""

from __future__ import annotations

import math
from contextlib import suppress
from dataclasses import dataclass

import numpy as np

from .distill import apply_strategy, score_transmissivities
from .fock import coherent_state
from .nla import (_herald, _herald_grid, _integer, _target_bra,
                  amplify_coherent, nla_diagonal)

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
        # 100000 is a typo guard: a search keeps grid_points floats per row
        if not 4 <= _integer(self.grid_points, "grid_points") <= 100_000:
            raise ValueError(f"grid_points must lie in [4, 100000], "
                             f"got {self.grid_points}")
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


def maximize_over_T(objective, config: SweepConfig | None = None):
    """Coarse grid plus golden-section refinement of a scalar objective:
    :func:`refine` on its samples of ``config.t_grid``, taken in order.
    """
    cfg = config or SweepConfig()

    def f(t: float) -> float:
        return _finite(t, objective(t))

    return refine(f, [f(t) for t in cfg.t_grid], cfg)


def max_fidelity_profiles(rows, kind: str, n_units: int, n_max: int = 30,
                          config: SweepConfig | None = None) -> list:
    """:func:`max_fidelity_profile` for every ``(alpha, target_gain)`` in
    ``rows``, all of one amplifier kind and unit count.

    Returns one outcome per row, in order: its ``(t_star, fidelity_star,
    success_prob)`` or the exception it raised, without its traceback, so a
    caller can report the first failure in its own row order.

    A row's input and target do not depend on T: a row where either fails
    takes the outcome of its objective, ``amplify_coherent``'s fidelity, at
    the first grid T.  The grid of the other (live) rows is one :func:`_herald_grid` batch
    of the diagonals, built in T order up to the first that fails.  A live
    row replays each grid T where a guard may trip, in T order, with the
    one-T :func:`_herald` that scores its :func:`refine` steps and
    ``t_star``, and then meets the failing diagonal, if any.
    """
    cfg = config or SweepConfig()
    ts = cfg.t_grid
    psis, live = {}, {}                 # live: row -> its input and target
    for alpha in dict.fromkeys(a for a, _ in rows):
        with suppress(Exception):
            psis[alpha] = coherent_state(alpha, n_max)
    for r, (a, g) in enumerate(rows):
        with suppress(Exception):
            live[r] = psis[a], _target_bra(kind, n_units, a, g, n_max)
    diagonals, failure = [], None
    for t in ts if live else ():
        try:
            diagonals.append(nla_diagonal(kind, n_units, t, n_max))
        except Exception as exc:        # the outcome of the rows left at t
            failure = exc.with_traceback(None)
            break
    fids = doubt = np.ones((len(diagonals), len(live)))
    if diagonals:
        _, fids, doubt = _herald_grid(
            np.array(diagonals), np.array(list(psis.values())),
            np.array([bra for _, bra in live.values()]),
            [list(psis).index(rows[r][0]) for r in live])
    outcomes, columns = [], list(live)  # result or exception, per row
    for r, (alpha, gain) in enumerate(rows):
        def score(t: float):
            return _herald(nla_diagonal(kind, n_units, t, n_max), *live[r])

        def objective(t: float) -> float:
            return _finite(t, score(t)[2])

        try:
            if r not in live:           # fails at every T, so at the first
                _finite(ts[0], amplify_coherent(alpha, kind, n_units, ts[0],
                                                n_max, gain).fidelity)
            c = columns.index(r)
            for t in ts[np.flatnonzero(doubt[:, c])]:
                objective(t)
            if failure is not None:
                raise failure
            t_star, f_star = refine(objective, fids[:, c], cfg)
            outcomes.append((t_star, f_star, score(t_star)[1]))
        except Exception as exc:        # the row's outcome, not the group's
            outcomes.append(exc.with_traceback(None))
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

    ``lossy`` is the stack from :func:`lossy_pdc_densities`.  Returns
    ``(t_star, result)``: one :func:`score_transmissivities` call scores the
    coarse grid, :func:`refine` golden-sections the total log-negativity with
    one-T :func:`apply_strategy` calls, and one more call at ``t_star``
    gives the :class:`DistillResult`.
    """
    cfg = config or SweepConfig()
    receiver = (strategy, amplified_index)

    def score(t: float):
        return apply_strategy(lossy, kind, n_units, t, *receiver)

    ts = cfg.t_grid
    values = [_finite(t, res.total_logneg) for t, res in zip(
        ts, score_transmissivities(lossy, kind, n_units, ts, *receiver))]
    t_star, _ = refine(lambda t: _finite(t, score(t).total_logneg), values,
                       cfg)
    return t_star, score(t_star)
