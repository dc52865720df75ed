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
    evaluation order.
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
    while b - a > cfg.refine_tolerance:
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


def max_fidelity_profile(alpha: complex, target_gain: float, kind: str,
                         n_units: int, n_max: int = 30,
                         config: SweepConfig | None = None):
    """T maximising the fidelity to the gain-``target_gain`` coherent target.

    Returns ``(t_star, fidelity_star, success_prob_at_t_star)``, the numbers
    that maximising ``amplify_coherent(...).fidelity`` over T gives.  Only
    the diagonal and the herald step depend on T: the input and the signed
    target coherent states are built once, each when the first evaluation
    reaches it, so the guards still trip in amplify_coherent's order (input
    tail, herald probability, output top bin, target tail).
    """
    psi = target = None

    def herald(t: float):
        nonlocal psi
        spec = NlaSpec(kind, n_units, t)
        if psi is None:
            psi = coherent_state(alpha, n_max)
        return (spec, *_herald(nla_diagonal(spec, n_max), psi.amps))

    def objective(t: float) -> float:
        nonlocal target
        spec, out, _ = herald(t)
        if target is None:
            # the sign depends on kind and N only, not on T
            target = coherent_state(_target_sign(spec) * target_gain * alpha,
                                    n_max)
        return float(abs(np.vdot(target.amps, out)) ** 2)

    t_star, f_star = maximize_over_T(objective, config)
    *_, prob = herald(t_star)
    return t_star, f_star, prob


def maximize_total_logneg(scenario, lossy: np.ndarray,
                          config: SweepConfig | None = None):
    """T-optimised distillation result for a fixed scenario and unit count.

    ``lossy`` is the scenario's source from :func:`lossy_pdc_densities`.
    Returns the :class:`DistillResult` at the optimum with ``optimal_t`` set.
    """
    def objective(t: float) -> float:
        nla = replace(scenario.nla, transmissivity=t)
        return apply_strategy(lossy, nla, scenario.strategy,
                              scenario.amplified_index).total_logneg

    t_star, _ = maximize_over_T(objective, config)
    nla = replace(scenario.nla, transmissivity=t_star)
    best = apply_strategy(lossy, nla, scenario.strategy,
                          scenario.amplified_index)
    return replace(best, optimal_t=t_star)
