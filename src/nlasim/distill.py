"""Multimode entanglement distillation with heralded amplifiers.

A parametric-down-conversion source emits K orthogonal supermode pairs, each
a two-mode squeezed vacuum with squeezing r_k = G * lambda_k.  Arm B of every
pair passes the same lossy channel; one supermode is then amplified.  What
happens to the remaining supermodes depends on the receiver:

* ``unfiltered`` + QS: the scissors herald succeeds only when they arrive in
  vacuum, so they are vacuum-projected;
* ``unfiltered`` + PC: the parallel catalysis circuit attenuates them by
  sqrt(T) per photon (independent of N); the cascade attenuates once per
  stage;
* ``filtered``: an ideal supermode filter leaves them untouched.

The figure of merit is the summed logarithmic negativity over supermodes and
the joint success probability of all heralds involved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Literal

import numpy as np

from . import optimize
from .fock import (ChannelSpec, DiagonalOperator, apply_diagonal, apply_loss,
                   attenuator_diagonal, guard_truncation, log_negativity,
                   squeezing_from_db, tmsv_density, vacuum_projection_diagonal)
from .nla import NlaSpec, nla_diagonal

Strategy = Literal["unfiltered", "filtered"]

DEFAULT_SUPERMODES = 5
DEFAULT_DECAY = 0.6


def scenario_lambdas(scenario: int, k_modes: int = DEFAULT_SUPERMODES,
                     decay: float = DEFAULT_DECAY) -> np.ndarray:
    """Unnormalised supermode weight profile for the three source scenarios.

    1: single active supermode; 2: geometric decay with the given ratio;
    3: all supermodes equal.
    """
    if k_modes < 1:
        raise ValueError("k_modes must be >= 1")
    if scenario == 1:
        lam = np.zeros(k_modes)
        lam[0] = 1.0
        return lam
    if scenario == 2:
        if not 0.0 < decay < 1.0:
            raise ValueError("decay must lie strictly in (0, 1)")
        return decay ** np.arange(k_modes)
    if scenario == 3:
        return np.ones(k_modes)
    raise ValueError("scenario must be 1, 2 or 3")


@dataclass(frozen=True)
class PdcSpec:
    """Down-conversion source: normalised weights ``lambdas`` and gain G.

    Supermode squeezings are r_k = G * lambda_k, with sum lambda_k^2 = 1.
    """

    lambdas: np.ndarray
    gain: float

    def __post_init__(self):
        lam = np.ascontiguousarray(self.lambdas, dtype=float)
        if lam.ndim != 1 or lam.size == 0:
            raise ValueError("lambdas must be a non-empty 1-d array")
        if np.any(lam < 0):
            raise ValueError("lambdas must be non-negative")
        total = (lam ** 2).sum()
        if abs(total - 1.0) > 1e-10:
            raise ValueError(f"lambdas violate sum-of-squares normalisation "
                             f"(got {total})")
        if self.gain < 0:
            raise ValueError("gain must be >= 0")
        lam.setflags(write=False)
        object.__setattr__(self, "lambdas", lam)

    @property
    def k_modes(self) -> int:
        return self.lambdas.size

    @property
    def squeezings(self) -> np.ndarray:
        return self.gain * self.lambdas

    @classmethod
    def from_scenario(cls, scenario: int, r1_db: float,
                      k_modes: int = DEFAULT_SUPERMODES,
                      decay: float = DEFAULT_DECAY) -> "PdcSpec":
        """Pin the source by its strongest-supermode squeezing in dB."""
        raw = scenario_lambdas(scenario, k_modes, decay)
        lam = raw / math.sqrt((raw ** 2).sum())
        r1 = squeezing_from_db(r1_db)
        gain = r1 / lam[0] if r1 > 0 else 0.0
        return cls(lam, gain)


@dataclass(frozen=True)
class DistillScenario:
    """Source, channel, amplifier and receiver strategy for one distill run."""

    pdc: PdcSpec
    channel: ChannelSpec
    nla: NlaSpec
    strategy: Strategy = "unfiltered"
    amplified_index: int = 1

    def __post_init__(self):
        if self.strategy not in ("unfiltered", "filtered"):
            raise ValueError("strategy must be 'unfiltered' or 'filtered'")
        if not 1 <= self.amplified_index <= self.pdc.k_modes:
            raise ValueError("amplified_index must lie in [1, K]")


@dataclass(frozen=True)
class DistillResult:
    per_supermode_logneg: np.ndarray
    total_logneg: float
    success_prob: float
    optimal_t: float | None = None


def lossy_pdc_densities(spec: PdcSpec, channel: "ChannelSpec | float",
                        n_max: int, tail_tol: float = 1e-10) -> list:
    """Normalised supermode densities after the lossy channel on arm B.

    Loss leaves a vacuum supermode (r = 0) and any state sent through a
    lossless channel (eta = 1) unchanged, so those skip the Kraus sum.
    """
    eta = channel.eta if isinstance(channel, ChannelSpec) else float(channel)
    out = []
    for r in spec.squeezings:
        rho = tmsv_density(r, n_max, tail_tol)
        if r != 0 and eta != 1:
            rho = apply_loss(rho, "B", channel)
        out.append(rho)
    return out


def _passive_diagonal(nla: NlaSpec, n_max: int) -> DiagonalOperator:
    # what the amplifier circuit does to supermodes it was not aimed at
    if nla.kind == "QS":
        return vacuum_projection_diagonal(n_max)
    if nla.kind == "PC":
        return attenuator_diagonal(nla.transmissivity, n_max)
    # one attenuation per cascade stage
    return attenuator_diagonal(nla.transmissivity ** nla.n_units, n_max)


def apply_strategy(lossy: list, nla: NlaSpec, strategy: Strategy = "unfiltered",
                   amplified_index: int = 1) -> DistillResult:
    """Amplify one supermode of pre-computed lossy densities and score them.

    ``lossy`` is the list produced by :func:`lossy_pdc_densities`; separating
    the (channel-dependent, T-independent) loss step from the amplifier lets
    T-optimisation reuse it.
    """
    n_max = lossy[0].n_max
    amp_diag = nla_diagonal(nla, n_max)
    passive = None if strategy == "filtered" else _passive_diagonal(nla, n_max)
    lognegs = np.zeros(len(lossy))
    prob = 1.0
    for i, rho in enumerate(lossy):
        if i == amplified_index - 1:
            acted = apply_diagonal(rho, "B", amp_diag)
        elif passive is not None:
            acted = apply_diagonal(rho, "B", passive)
        else:
            lognegs[i] = log_negativity(rho)
            continue
        p = acted.trace_value
        if p <= 0.0:
            raise ValueError(
                f"herald probability vanished on supermode {i + 1}")
        prob *= p
        normed = acted.normalized()
        guard_truncation(normed.arm_populations("A"),
                         what=f"supermode {i + 1} arm A")
        guard_truncation(normed.arm_populations("B"),
                         what=f"supermode {i + 1} arm B")
        lognegs[i] = log_negativity(normed)
    return DistillResult(lognegs, float(lognegs.sum()), prob)


def distill(scenario: DistillScenario, n_max: int) -> DistillResult:
    """Full pipeline at the amplifier transmissivity fixed in the scenario."""
    lossy = lossy_pdc_densities(scenario.pdc, scenario.channel, n_max)
    return apply_strategy(lossy, scenario.nla, scenario.strategy,
                          scenario.amplified_index)


def reference_no_nla(lossy: list) -> DistillResult:
    """Channel-only baseline: no amplifier, unit success probability.

    ``lossy`` is the list produced by :func:`lossy_pdc_densities`.
    """
    lognegs = np.array([log_negativity(rho) for rho in lossy])
    return DistillResult(lognegs, float(lognegs.sum()), 1.0)


def cascade_compare(r: float, n_units: int, n_max: int,
                    config: "optimize.SweepConfig | None" = None):
    """Parallel versus cascaded photon catalysis on one lossless pair.

    Both arrangements are T-optimised for logarithmic negativity on a single
    two-mode squeezed vacuum with squeezing ``r``; returns the pair of
    :class:`DistillResult` (parallel first), each carrying its optimum.
    """
    spec = PdcSpec(np.ones(1), r)
    lossy = lossy_pdc_densities(spec, 1.0, n_max)
    results = []
    for kind in ("PC", "CascadedPC"):
        def objective(t, _kind=kind):
            return apply_strategy(
                lossy, NlaSpec(_kind, n_units, t)).total_logneg
        t_star, _ = optimize.maximize_over_T(objective, config)
        best = apply_strategy(lossy, NlaSpec(kind, n_units, t_star))
        results.append(replace(best, optimal_t=t_star))
    return tuple(results)
