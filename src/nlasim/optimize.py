"""Scalar searches over the amplifier transmissivity.

All searches are deterministic: each samples a fixed coarse grid, then
:func:`refine` runs bounded Brent steps around its first maximum, and a
search that reports more than the objective evaluates once more at the
optimum.  The optimum is never worse than any point evaluated; ties break
toward the grid's first maximum, the lowest transmissivity among equal grid
values.
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

_GOLDEN = (3.0 - math.sqrt(5.0)) / 2.0     # 1 - 1/phi


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
    """Bounded Brent search (parabolic steps with a golden-section fallback;
    R. P. Brent, *Algorithms for Minimization without Derivatives*, 1973,
    ch. 5) between the grid neighbours of the first maximum of ``values``,
    the objective's values on ``config.t_grid``.

    Returns ``(t_star, value_star)``, the first best of that grid maximum
    and every point evaluated.  Refinement stops once the bracket is within
    ``refine_tolerance`` or stops shrinking, its ends adjacent floats.
    """
    ts = config.t_grid
    i = int(np.argmax(values))          # first max -> lowest-T tie-break
    best_t, best_v = float(ts[i]), float(values[i])

    a = float(ts[max(i - 1, 0)])
    b = float(ts[min(i + 1, len(ts) - 1)])
    tol1 = config.refine_tolerance / 4  # stops with b - a <= 4 tol1
    x = w = v = a + _GOLDEN * (b - a)
    fx = fw = fv = objective(x)
    d = e = 0.0
    width = math.inf
    while True:
        xm = 0.5 * (a + b)
        if abs(x - xm) <= 2 * tol1 - 0.5 * (b - a) or not b - a < width:
            break
        width, golden = b - a, True
        if abs(e) > tol1:   # parabola through x, w, v from value differences
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            p, q = (-p, q) if q > 0 else (p, -q)
            if abs(p) < abs(0.5 * q * e) and q * (a - x) < p < q * (b - x):
                e, d, golden = d, p / q, False
                if min(x + d - a, b - (x + d)) < 2 * tol1:
                    d = math.copysign(tol1, xm - x)
        if golden:
            e = (a if x >= xm else b) - x
            d = _GOLDEN * e
        u = x + (d if abs(d) >= tol1 else math.copysign(tol1, d))
        fu = objective(u)
        if fu > fx:
            a, b = (a, x) if u < x else (x, b)
            v, w, x, fv, fw, fx = w, x, u, fw, fx, fu
        else:
            a, b = (u, b) if u < x else (a, u)
            if fu >= fw or w == x:
                v, w, fv, fw = w, u, fw, fu
            elif fu >= fv or v in (x, w):
                v, fv = u, fu
    if fx > best_v:
        best_t, best_v = float(x), float(fx)
    return best_t, best_v


def maximize_over_T(objective, config: SweepConfig | None = None):
    """Coarse grid plus bounded Brent refinement of a scalar objective:
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
    the first grid T.  The grid of the other (live) rows is one
    :func:`_herald_grid` batch of the diagonals, built in T order up to the
    first that fails.  A live row replays each grid T where a guard may
    trip, in T order, with the one-T :func:`_herald` that scores its
    :func:`refine` steps and ``t_star``, and then meets the failing
    diagonal, if any.
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
    coarse grid, :func:`refine` maximises the total log-negativity with
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
