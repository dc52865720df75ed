"""Closed-form noiseless-linear-amplifier operators and coherent-state runs.

Two heralded amplifier families are covered, each acting diagonally in the
Fock basis once the ancilla and detection pattern are fixed, so each
operator is the 1-d float array of its coefficients d_0 .. d_n_max:

* quantum scissors (QS): N two-level scissors units between a symmetric
  N-splitter pair; amplitude gain g = sqrt((1-T)/T), output support
  truncated at N photons;
* photon catalysis (PC): N single-photon catalysis units in the same
  parallel arrangement, gain g = (1-2T)/sqrt(T) onto the phase-flipped
  target (amplifying for T < 1/4), plus the N-fold cascade, whose target
  and bystander diagonals are those of one unit raised to the N-th power.

The alternating sums in the parallel-catalysis coefficients are formed as one
exact integer numerator over one integer denominator and rounded once, so no
catastrophic cancellation occurs anywhere in the supported parameter range.
All numerators share one denominator and march up the Fock index from the
forward differences of the sum at n = 0, by integer additions alone, so no
integer product is formed per Fock index.  Each quotient is the same
rational as that of the per-n sum, so it rounds to the same float.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal

import numpy as np

from .fock import (NormalizationError, attenuator_diagonal, coherent_state,
                   guard_truncation, vacuum_projection_diagonal)

NlaKind = Literal["QS", "PC", "CascadedPC"]

VALID_KINDS = ("QS", "PC", "CascadedPC")


def _integer(value, name: str) -> int:
    """``value`` as a Python int; bools and non-integers are rejected."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _unit_count(n_units) -> int:
    """``n_units`` as a Python int >= 1; bools and non-integers are rejected."""
    n_units = _integer(n_units, "n_units")
    if n_units < 1:
        raise ValueError("n_units must be >= 1")
    return n_units


def _transmissivity(t: float) -> float:
    """``t`` itself when it lies strictly in (0, 1); otherwise ValueError."""
    if not 0.0 < t < 1.0:
        raise ValueError("transmissivity must lie strictly in (0, 1)")
    return t


@dataclass(frozen=True)
class AmplifyResult:
    """Heralded amplitudes, success probability and optional fidelity."""

    out_state: np.ndarray
    success_prob: float
    fidelity: float | None = None


def qs_gain(transmissivity: float) -> float:
    """Amplitude gain sqrt((1-T)/T) of the quantum-scissors amplifier."""
    t = _transmissivity(transmissivity)
    return math.sqrt((1.0 - t) / t)


def pc_gain(transmissivity: float) -> float:
    """Amplitude gain (1-2T)/sqrt(T) of the photon-catalysis amplifier.

    Exceeds 1 (true amplification) only for T < 1/4; the heralded target is
    the phase-flipped coherent state |-g alpha>.
    """
    t = _transmissivity(transmissivity)
    return (1.0 - 2.0 * t) / math.sqrt(t)


def equal_gain_transmissivity(kind: str, gain: float) -> float:
    """Transmissivity at which the given amplifier reaches amplitude ``gain``.

    For QS this inverts g = sqrt((1-T)/T); for PC it takes the smaller root
    of 4 T^2 - (4 + g^2) T + 1 = 0, which lies in (0, 1/4) for g > 1, as
    2/(4 + g^2 + g sqrt(g^2 + 8)): no subtraction, so no cancellation at
    any gain.  A gain that is not positive and finite, or whose T rounds
    out of (0, 1), is a ValueError.
    """
    if not 0.0 < gain < math.inf:
        raise ValueError("gain must be positive and finite")
    if kind == "QS":
        return _transmissivity(1.0 / (1.0 + gain * gain))
    if kind in ("PC", "CascadedPC"):
        return _transmissivity(
            2.0 / (4.0 + gain * gain + gain * math.sqrt(gain * gain + 8.0)))
    raise ValueError(f"kind must be one of {VALID_KINDS}")


def qs_nla_diagonal(n_units: int, transmissivity: float,
                    n_max: int) -> np.ndarray:
    """Fock coefficients of the N-unit parallel quantum-scissors amplifier.

    d_n = sqrt(T)^N * N!/((N-n)! N^n) * g^n for n <= N and zero above; the
    combinatorial factor is evaluated with exact integers.
    """
    n_units = _unit_count(n_units)
    t = _transmissivity(transmissivity)
    # sqrt(T)^N g^n = T^((N-n)/2) (1-T)^(n/2)
    coeffs = [math.perm(n_units, n) / n_units ** n
              * t ** ((n_units - n) / 2.0) * (1.0 - t) ** (n / 2.0)
              for n in range(min(n_units, n_max) + 1)]
    return np.array(coeffs + [0.0] * (n_max - n_units))


def pc_nla_diagonal(n_units: int, transmissivity: float,
                    n_max: int) -> np.ndarray:
    """Fock coefficients of the N-unit parallel photon-catalysis amplifier.

    d_n = sqrt(T)^(N+n) * sum_j C(N,j) n!/(n-j)! (p/N)^j with p = (T-1)/T.
    The binary float T is exactly M/2^e, so p/N = q/(M N) with q = M - 2^e,
    and with top = min(N, n_max) the alternating sum is the exact integer
    P(n) = sum_{j <= top} w_j n!/(n-j)! over the one denominator (M N)^top,
    with integer weights w_j = C(N,j) q^j (M N)^(top-j).  Terms with j > n
    vanish, so for n < top this is the sum over j <= n written over
    (M N)^n, scaled top and bottom by (M N)^(top-n): the same rational.
    The k-th forward difference of P at n = 0 is k! w_k, so the numerators
    P(0), P(1), ... follow from those top + 1 integers by additions alone.
    Python's int/int division rounds a rational once, correctly, whatever
    denominator it is written over, so every float is that of the n-term
    sum and analytic zeros are exact zeros.  A quotient past the float
    range (T near 0) raises OverflowError naming N, T and n.  Below T ~ 1e-16
    the rounded powers of sqrt(T) carry the one-unit d_1 = 2T - 1 an ulp
    past -1, so the result is clipped to the exact bound |d_n| <= 1.

    The 1/N^n of the (p/N)^j and permutation factors is the splitter
    fan-out normalisation; it is pinned against the explicit path
    enumeration (oracle.pc_nla_multinomial), which carries that factor as a
    literal /N^n.
    """
    n_units = _unit_count(n_units)
    t = _transmissivity(transmissivity)
    m, two_e = t.as_integer_ratio()
    q, mn = m - two_e, m * n_units
    top = min(n_units, n_max)
    diffs = [math.perm(n_units, k) * q ** k * mn ** (top - k)
             for k in range(top + 1)]
    den = mn ** top
    root_t = math.sqrt(t)
    coeffs = []
    try:
        for n in range(n_max + 1):
            coeffs.append(root_t ** (n_units + n) * (diffs[0] / den))
            for k in range(top):
                diffs[k] += diffs[k + 1]
    except OverflowError as exc:
        raise OverflowError(
            f"catalysis sum with N={n_units} units at T={t:.6g} exceeds "
            f"the float range at n={n}") from exc
    coeffs = np.array(coeffs)
    return np.clip(coeffs, -1.0, 1.0, out=coeffs)


def nla_diagonal(kind: NlaKind, n_units: int, transmissivity: float,
                 n_max: int) -> np.ndarray:
    """Closed-form diagonal of N = ``n_units`` units of ``kind`` at T; N
    catalysis units in series are the one-unit diagonal raised to N.  The
    one check of an amplifier: a bad kind, N or T is a ValueError."""
    if kind == "QS":
        return qs_nla_diagonal(n_units, transmissivity, n_max)
    if kind == "PC":
        return pc_nla_diagonal(n_units, transmissivity, n_max)
    if kind == "CascadedPC":
        n_units = _unit_count(n_units)
        return pc_nla_diagonal(1, transmissivity, n_max) ** n_units
    raise ValueError(f"kind must be one of {VALID_KINDS}")


def _passive_diagonal(kind: NlaKind, n_units: int, transmissivity: float,
                      n_max: int) -> np.ndarray:
    """What the amplifier circuit does to modes it was not aimed at.

    The scissors herald passes only their vacuum.  The parallel catalysis
    circuit attenuates them by sqrt(T) per photon whatever N is, and a
    cascade by that unit attenuator to the N-th power.
    """
    if kind == "QS":
        return vacuum_projection_diagonal(n_max)
    unit = attenuator_diagonal(transmissivity, n_max)
    if kind == "PC":
        return unit
    return unit ** n_units


def fidelity_to_coherent(amps: np.ndarray, beta: complex) -> float:
    """|<beta|psi>|^2 against a coherent state representable at psi's cutoff."""
    target = coherent_state(beta, amps.size - 1)
    return float(abs(np.vdot(target, amps)) ** 2)


def _target_sign(kind: NlaKind, n_units: int) -> float:
    # PC heralds onto the phase-flipped target; a cascade flips once per unit
    if kind == "QS":
        return 1.0
    if kind == "PC":
        return -1.0
    return (-1.0) ** n_units


def _herald(coeffs: np.ndarray,
            amps: np.ndarray) -> tuple[np.ndarray, float]:
    """Heralded output amplitudes of ``coeffs`` on ``amps``, normalised, and
    the herald probability.

    NormalizationError when the herald has zero probability, ValueError for
    non-finite amplitudes, NormalizationError for a squared norm past 1, then
    TruncationError when the output's top Fock bin is populated.
    """
    unnorm = coeffs * amps
    prob = float(np.vdot(unnorm, unnorm).real)
    if prob <= 0.0:
        raise NormalizationError(
            "herald has zero probability at these parameters")
    out = unnorm / math.sqrt(prob)
    if not np.isfinite(out.view(float)).all():
        raise ValueError("amps must be finite")
    nsq = float(np.vdot(out, out).real)
    if nsq > 1.0 + 1e-12:
        raise NormalizationError(f"squared norm {nsq} exceeds 1")
    guard_truncation(np.abs(out) ** 2, what="amplified state")
    return out, prob


def amplify_coherent(alpha: complex, kind: NlaKind, n_units: int,
                     transmissivity: float, n_max: int = 30,
                     target_gain: float | None = None) -> AmplifyResult:
    """Run one heralded amplifier on |alpha> and report the heralded output.

    ``success_prob`` is the squared norm of the unnormalised heralded state.
    When ``target_gain`` is given, ``fidelity`` is computed against the
    amplified coherent target with the sign convention of the family
    (+g alpha for QS, -g alpha for PC, (-1)^N g alpha for the cascade).
    """
    out, prob = _herald(nla_diagonal(kind, n_units, transmissivity, n_max),
                        coherent_state(alpha, n_max))
    fid = None
    if target_gain is not None:
        beta = _target_sign(kind, n_units) * target_gain * alpha
        fid = fidelity_to_coherent(out, beta)
    return AmplifyResult(out, prob, fid)
