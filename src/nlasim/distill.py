"""Multimode entanglement distillation with heralded amplifiers.

A parametric-down-conversion source emits K orthogonal supermode pairs, each
a two-mode squeezed vacuum with squeezing r_k = G * lambda_k.  Arm B of every
pair passes the same lossy channel; one supermode is then amplified.  An
ideal supermode filter (``filtered``) leaves the remaining supermodes
untouched; without one (``unfiltered``) the amplifier circuit acts on them
too, as :mod:`nlasim.nla` says for each amplifier kind.

The figure of merit is the summed logarithmic negativity over supermodes and
the joint success probability of all heralds involved.  Every supermode is
scored on its truncated amplitudes, except the unfiltered bystanders: the
catalysis circuit only attenuates them, so each stays a lossy two-mode
squeezed vacuum, a Gaussian state scored in closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal

import numpy as np

from . import fock
from .fock import (NormalizationError, guard_truncation, squeezing_from_db,
                   tmsv_schmidt)
from .nla import NlaKind, _integer, _passive_diagonal, nla_diagonal

Strategy = Literal["unfiltered", "filtered"]

DEFAULT_SUPERMODES = 5
DEFAULT_DECAY = 0.6

# elements of a stack batched over T, (T, d_A, w, w) blocks or (T, K, d_A,
# d_B) populations: 4 T of a 21-square PC slice, so peak memory stays flat
_STACK_ELEMENTS = 4 * 21 ** 3


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
    """Down-conversion source: the supermode squeezings r_k."""

    squeezings: np.ndarray

    def __post_init__(self):
        r = np.ascontiguousarray(self.squeezings, dtype=float)
        if r.ndim != 1 or r.size == 0:
            raise ValueError("squeezings must be a non-empty 1-d array")
        if not np.all(np.isfinite(r) & (r >= 0)):
            raise ValueError("squeezings must be finite and non-negative")
        r.setflags(write=False)
        object.__setattr__(self, "squeezings", r)

    @classmethod
    def from_scenario(cls, scenario: int, r1_db: float,
                      k_modes: int = DEFAULT_SUPERMODES,
                      decay: float = DEFAULT_DECAY) -> "PdcSpec":
        """Pin the source by its strongest-supermode squeezing in dB.

        r_k = G lambda_k, with the scenario's weights lambda normalised to
        sum lambda_k^2 = 1 and the gain G = r_1 / lambda_1.
        """
        if r1_db < 0:
            raise ValueError("r1_db must be >= 0")
        raw = scenario_lambdas(scenario, k_modes, decay)
        lam = raw / math.sqrt((raw ** 2).sum())
        r1 = squeezing_from_db(r1_db)
        return cls(r1 / lam[0] * lam)


def _check_receiver(strategy, amplified_index: int, k_modes: int) -> None:
    """ValueError unless the strategy is known and the index is an integer
    with 1 <= index <= K."""
    if strategy not in ("unfiltered", "filtered"):
        raise ValueError("strategy must be 'unfiltered' or 'filtered'")
    if not 1 <= _integer(amplified_index, "amplified_index") <= k_modes:
        raise ValueError("amplified_index must lie in [1, K]")


@dataclass(frozen=True)
class DistillResult:
    per_supermode_logneg: np.ndarray
    total_logneg: float
    success_prob: float


def lossy_pdc_densities(spec: PdcSpec, eta: float, n_max: int,
                        tail_tol: float = 1e-10) -> np.ndarray:
    """Photon-number-graded supermode states after loss ``eta`` on arm B.

    Loss on arm B leaves the two-mode squeezed vacuum sum_n c_n |n, n> a
    mixture, over the lost-photon number l, of the vectors
    sum_n amp[n, n-l] |n, n-l>, with amp[n, m] = c_n sqrt(C(n, m))
    eta^(m/2) (1-eta)^((n-m)/2) for m <= n and 0 above.  Returns the
    (K, n_max+1, n_max+1) stack of ``amp``, one slice per supermode; the
    formula is exact for vacuum supermodes and eta = 1 too.
    """
    if not 0.0 <= eta <= 1.0:
        raise ValueError("eta must lie in [0, 1]")
    c = np.array([tmsv_schmidt(r, n_max, tail_tol) for r in spec.squeezings])
    c /= np.linalg.norm(c, axis=1, keepdims=True)
    n = np.arange(n_max + 1)
    binom = np.array([[math.comb(i, j) for j in n] for i in n], dtype=float)
    lost = np.maximum(n[:, None] - n, 0)
    return c[:, :, None] * (np.sqrt(binom) * eta ** (n / 2.0)
                            * (1.0 - eta) ** (lost / 2.0))


def _packed_blocks(amp: np.ndarray, w: int) -> np.ndarray:
    """The (K, d_A, w, w) packed partial-transpose blocks of the stack, cut to
    arm-B width ``w``: see :func:`_log_negativities`."""
    d_a = amp.shape[1]
    offset = np.arange(d_a)[:, None] - np.arange(w)     # s - j
    wrap = offset // d_a
    half = amp[:, offset % d_a, :w]
    return (half * half.swapaxes(-1, -2)
            * (wrap[:, :, None] == wrap[:, None, :]))


def _block_log_negativities(blocks: np.ndarray) -> np.ndarray:
    """log2(1 + 2 negativity) of each (d_A, w, w) stack of packed blocks."""
    evals = np.linalg.eigvalsh(blocks)
    negativity = -np.where(evals < 0.0, evals, 0.0).sum(axis=(-2, -1))
    return np.log2(1.0 + 2.0 * negativity)


def _log_negativities(amp: np.ndarray) -> np.ndarray:
    """log2(1 + 2 negativity) of each graded state in the (K, d_A, d_B) stack.

    rho^{T_B} splits into one block per s = n + m', arm A's photon number plus
    that of the transposed arm B.  Indexed by arm B's photon number j = s - n,
    B_s[j, j'] = amp[s - j, j'] amp[s - j', j].  A zero arm-B column, or an
    arm-A index outside [0, d_A), gives a zero row, which adds only zero
    eigenvalues.  So each slice is cut to its arm-B support w, the last
    nonzero column plus one: a slice of width <= 1 has arm B in vacuum, is a
    product state and scores exactly 0.  Block s has the rows j in
    (s - d_A, s], disjoint from those of block s + d_A, so d_A packed blocks
    hold every block once: half * half^T with half[k, s, j, j'] =
    amp[k, (s - j) mod d_A, j'], masked to (s - j) // d_A == (s - j') // d_A
    so that no entry couples two blocks.  One batched eigensolve takes them,
    d_A blocks (not d_A + w - 1) w-square for w the widest support.
    """
    k_modes, d_a, d_b = amp.shape
    width = (amp.any(axis=1) * np.arange(1, d_b + 1)).max(axis=1)
    lognegs = np.zeros(k_modes)
    live = width > 1
    if live.any():
        lognegs[live] = _block_log_negativities(
            _packed_blocks(amp[live], int(width.max())))
    return lognegs


def _gaussian_log_negativities(amp: np.ndarray) -> np.ndarray:
    """Log-negativity of each lossy-TMSV slice of the stack, at n_max -> inf.

    A lossy TMSV (r, eta) whose arm B is then attenuated by sqrt(T) per
    photon is the lossy TMSV (r', eta') with x = tanh(r')^2 =
    tanh(r)^2 (1 - eta + eta T) and eta' = eta T / (1 - eta + eta T), and
    its truncated amplitudes are exactly those of (r', eta').  So both are
    read off the 2x2 corner of a slice: x = (a10^2 + a11^2) / a00^2 and
    eta' = a11^2 / (a10^2 + a11^2).

    The state is Gaussian, with covariance blocks a I, b I and c Z (vacuum
    variance 1): a = cosh 2r', b = eta' a + 1 - eta', c = sqrt(eta') sinh 2r'.
    Its log-negativity is -log2 nu, nu the smaller symplectic eigenvalue of
    the partial transpose (Vidal & Werner, PRA 65, 032314 (2002); Adesso &
    Illuminati, J. Phys. A 40, 7821 (2007)):
    nu = 2 (ab - c^2) / ((a + b) + sqrt((a - b)^2 + 4 c^2)).  In x and eta'
    that is nu = num / (num + gap), with num = 1 + x (1 - 2 eta') and
    gap = root + tilt, root = sqrt(x ((1 - eta')^2 x + 4 eta')) and
    tilt = x (3 eta' - 1).  For tilt < 0, gap is taken as
    4 eta' x num / (root - tilt), since root^2 - tilt^2 = 4 eta' x num; so
    nothing cancels, and log2(1 + gap / num) keeps its relative precision
    for a nearly product state too.  A slice with a11 = 0 has arm B in
    vacuum or cut off by the channel, and scores exactly +0.0.

    The truncated state differs from this limit by its tail: the graded
    kernel is within 2 (2/ln 2) tanh(r')^(n_max+1) / (1 - tanh r') of it.
    """
    a00, a10, a11 = (amp[..., i, j] ** 2 for i, j in ((0, 0), (1, 0), (1, 1)))
    lognegs = np.zeros(amp.shape[:-2])
    live = a11 > 0.0
    if not live.any():
        return lognegs
    moved = a10[live] + a11[live]
    x = moved / a00[live]
    eta = a11[live] / moved
    num = 1.0 + x * (1.0 - 2.0 * eta)
    root = np.sqrt(x * ((1.0 - eta) ** 2 * x + 4.0 * eta))
    tilt = x * (3.0 * eta - 1.0)
    gap = np.where(tilt >= 0.0, root + tilt,
                   4.0 * eta * x * num / (root - tilt))
    lognegs[live] = np.log1p(gap / num) / math.log(2.0)
    return lognegs


def score_transmissivities(lossy: np.ndarray, kind: NlaKind, n_units: int,
                           transmissivities, strategy: Strategy = "unfiltered",
                           amplified_index: int = 1) -> list[DistillResult]:
    """:func:`apply_strategy` at each T of ``transmissivities``, bitwise.

    All diagonals are built first, in order, and one that fails raises once
    the T before it pass the guards, so a grid raises what its first failing
    T raises alone.  The amplified slice's blocks under diagonal d and herald
    probability p are its packed blocks H times c_j c_j', c = d / sqrt(p):
    H is built once, and the T are scored a few at a time.
    """
    k_modes, dim, _ = lossy.shape
    diagonals, failure = [], None
    for t in transmissivities:
        try:
            diagonals.append((nla_diagonal(kind, n_units, t, dim - 1),
                              _passive_diagonal(kind, n_units, t, dim - 1)))
        except (ValueError, ArithmeticError) as exc:
            failure = exc       # raised once the earlier T pass their guards
            break
    if not diagonals:
        raise failure or ValueError("transmissivities must be non-empty")
    _check_receiver(strategy, amplified_index, k_modes)
    target = amplified_index - 1
    targets, passive = map(np.array, zip(*diagonals))
    lognegs = np.empty((len(targets), k_modes))
    heralded = [target] if strategy == "filtered" else list(range(k_modes))
    bystanders = [i for i in heralded if i != target]
    if strategy == "filtered":
        others = np.arange(k_modes) != target
        lognegs[:, others] = _log_negativities(lossy[others])
    pos = heralded.index(target)
    coeffs = np.repeat(passive[:, None], len(heralded), axis=1)
    coeffs[:, pos] = targets
    amp = lossy[target]
    widths = (((targets != 0.0) & amp.any(axis=0))
              * np.arange(1, dim + 1)).max(axis=1)
    blocks = _packed_blocks(amp[None], int(widths.max()))[0]
    squares, corners = lossy[heralded] ** 2, lossy[bystanders, :2, :2]
    chunk = max(1, _STACK_ELEMENTS // max(blocks.size, squares.size))
    probs = np.empty(len(targets))
    for start in range(0, len(targets), chunk):
        part = slice(start, start + chunk)
        pops = squares * coeffs[part, :, None, :] ** 2
        arms = (pops.sum(axis=3), pops.sum(axis=2))
        p = arms[1].sum(axis=2)
        # suspect: a probability not above 0 (NaN too) or a top bin past
        # half the guard's ratio; the guards themselves then decide
        suspect = ~(p > 0.0)
        for pop in arms:
            suspect |= pop[..., -1] > 0.5 * fock._TOP_BIN_RATIO * pop.max(-1)
        for t in np.flatnonzero(suspect.any(axis=1)):
            for h, i in enumerate(heralded):
                if p[t, h] <= 0.0:
                    raise NormalizationError(
                        f"herald probability vanished on supermode {i + 1}")
                for arm, pop in zip("AB", arms):
                    guard_truncation(pop[t, h] / p[t, h],
                                     what=f"supermode {i + 1} arm {arm}")
        probs[part] = p.prod(axis=1)
        if bystanders:
            lognegs[part, bystanders] = _gaussian_log_negativities(
                corners * coeffs[part, bystanders, None, :2])
        scale = coeffs[part, pos] / np.sqrt(p[:, pos])[:, None]
        scores = lognegs[part, target]          # a view: written in place
        for w in set(widths[part].tolist()):
            rows = widths[part] == w
            cc = scale[rows, :w, None] * scale[rows, None, :w]
            scores[rows] = 0.0 if w <= 1 else _block_log_negativities(
                blocks[:, :w, :w] * cc[:, None])
    if failure is not None:
        raise failure
    return [DistillResult(row, float(row.sum()), float(prob))
            for row, prob in zip(lognegs, probs)]


def apply_strategy(lossy: np.ndarray, kind: NlaKind, n_units: int,
                   transmissivity: float, strategy: Strategy = "unfiltered",
                   amplified_index: int = 1) -> DistillResult:
    """Amplify one supermode of the pre-computed lossy source and score it.

    ``lossy`` is the stack produced by :func:`lossy_pdc_densities`; separating
    the (channel-dependent, T-independent) loss step from the amplifier lets
    T-optimisation reuse it.  A Fock-diagonal operator on arm B scales the
    columns of a supermode's amplitudes, and the herald probability is the
    sum of their squares.  The amplified supermode and the filtered
    bystanders are scored on their truncated amplitudes; the unfiltered
    bystanders, which the circuit attenuates or vacuum-projects, in closed
    form (:func:`_gaussian_log_negativities`).  A bad amplifier, then an
    unknown strategy or an index not an integer in [1, K], is a ValueError.
    The one-T case of :func:`score_transmissivities`.
    """
    (result,) = score_transmissivities(lossy, kind, n_units, [transmissivity],
                                       strategy, amplified_index)
    return result


def reference_no_nla(lossy: np.ndarray) -> DistillResult:
    """Channel-only baseline: no amplifier, unit success probability.

    ``lossy`` is the stack produced by :func:`lossy_pdc_densities`.
    """
    lognegs = _log_negativities(lossy)
    return DistillResult(lognegs, float(lognegs.sum()), 1.0)

