"""Truncated-Fock-space kernel.

States, diagonal operators, pure-loss channels, partial transposition and
the negativity-based entanglement measures.  The bipartite density code is
the dense reference for the photon-number-graded kernel of
:mod:`nlasim.distill`; as there, loss and diagonals act on arm B.

Conventions
-----------
* Photon-number amplitudes are indexed ``n = 0 .. n_max`` (length
  ``n_max + 1`` arrays).  A Fock-diagonal operator is the same kind of
  array: the float coefficients d_0 .. d_n_max of D = sum_n d_n |n><n|.
* Sub-normalised states and densities carry their heralding probability in
  the squared norm / trace; nothing is renormalised implicitly.
* Bipartite quantities live on the product basis ``|n>_A |m>_B`` flattened
  row-major, i.e. index ``i = n * (n_max + 1) + m`` with ``A`` the slow arm.
* Attenuation in dB maps to intensity transmissivity ``eta = 10**(-dB/10)``;
  two-mode squeezing in dB maps to the squeezing parameter through
  ``r_dB = (20 / ln 10) * r``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal

import numpy as np

Arm = Literal["A", "B"]

#: dB of squeezing per unit squeezing parameter, 20 / ln(10) = 8.68589...
SQUEEZING_DB_PER_UNIT = 20.0 / math.log(10.0)

_HERM_TOL = 1e-12
_TRACE_TOL = 1e-12
_PSD_TOL = 1e-10
# guard_truncation's top-bin limit, as a share of the peak bin; the batched
# screens in distill and nla read it at call time
_TOP_BIN_RATIO = 1e-6


class TruncationError(ValueError):
    """A requested cutoff cannot represent the state to tolerance."""


class NormalizationError(ValueError):
    """An operation that requires unit trace / unit norm got something else."""


def transmissivity_from_db(attenuation_db: float) -> float:
    """Intensity transmissivity of a channel with the given attenuation in dB."""
    return 10.0 ** (-attenuation_db / 10.0)


def squeezing_from_db(r_db: float) -> float:
    """Squeezing parameter r for a two-mode squeezing level quoted in dB."""
    return r_db / SQUEEZING_DB_PER_UNIT


def squeezing_to_db(r: float) -> float:
    return r * SQUEEZING_DB_PER_UNIT


def guard_truncation(populations: np.ndarray, what: str = "state") -> None:
    """Raise if the top Fock bin holds more than _TOP_BIN_RATIO (1e-6) of
    the peak bin.

    Post-hoc guard against silently truncated output states; ``populations``
    is any non-negative per-bin weight vector (|amps|^2 or diagonal of a
    density matrix arm).  A NaN or infinite population is a ValueError.
    """
    pops = np.asarray(populations, dtype=float)
    peak = pops.max(initial=0.0)    # NaN if any population is NaN
    if not peak < math.inf:
        raise ValueError(f"{what}: populations must be finite, got peak "
                         f"{peak}")
    if peak <= 0.0:
        return
    if pops[-1] > _TOP_BIN_RATIO * peak:
        raise TruncationError(
            f"{what}: top-bin population {pops[-1]:.3e} exceeds "
            f"{_TOP_BIN_RATIO} of the peak bin {peak:.3e}; increase n_max")


def vacuum_projection_diagonal(n_max: int) -> np.ndarray:
    coeffs = np.zeros(n_max + 1)
    coeffs[0] = 1.0
    return coeffs


def attenuator_diagonal(transmissivity: float, n_max: int) -> np.ndarray:
    """Noiseless attenuator sqrt(T)^(photon number): coefficients sqrt(T)^n."""
    if not 0.0 < transmissivity <= 1.0:
        raise ValueError("transmissivity must lie in (0, 1]")
    n = np.arange(n_max + 1)
    return math.sqrt(transmissivity) ** n


def coherent_state(alpha: complex, n_max: int) -> np.ndarray:
    """Coherent-state amplitudes e^(-|a|^2/2) a^n / sqrt(n!) up to ``n_max``.

    Raises TruncationError when the neglected Poisson tail carries more than
    1e-8 probability.
    """
    amps = np.zeros(n_max + 1, dtype=complex)
    amps[0] = math.exp(-0.5 * abs(alpha) ** 2)
    for n in range(1, n_max + 1):
        amps[n] = amps[n - 1] * alpha / math.sqrt(n)
    tail = 1.0 - float(np.vdot(amps, amps).real)
    if not tail <= 1e-8:                # a non-finite alpha fails here too
        raise TruncationError(
            f"coherent state |alpha|={abs(alpha):.4g} loses {tail:.3e} "
            f"probability beyond n_max={n_max}")
    return amps


def tmsv_schmidt(r: float, n_max: int, tail_tol: float = 1e-10) -> np.ndarray:
    """Schmidt coefficients tanh(r)^n / cosh(r) of a two-mode squeezed vacuum.

    The discarded tail mass is tanh(r)^(2 (n_max + 1)); raises
    TruncationError when it exceeds ``tail_tol``.
    """
    if not math.isfinite(r) or r < 0:
        raise ValueError("squeezing parameter must be finite and >= 0")
    th = math.tanh(r)
    tail = th ** (2 * (n_max + 1))
    if tail > tail_tol:
        raise TruncationError(
            f"TMSV r={r:.4g} keeps {tail:.3e} probability beyond "
            f"n_max={n_max}")
    return th ** np.arange(n_max + 1) / math.cosh(r)


@dataclass(frozen=True)
class BipartiteDensity:
    """Two-arm density matrix on the flattened |n>_A |m>_B product basis.

    Construction checks Hermiticity and the stored trace; positivity is
    guaranteed by the operations that produce densities and can be checked
    explicitly with :meth:`validate`.
    """

    matrix: np.ndarray
    trace_value: float = float("nan")

    def __post_init__(self):
        m = np.ascontiguousarray(self.matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("matrix must be square")
        dim = m.shape[0]
        arm = math.isqrt(dim)
        if arm * arm != dim:
            raise ValueError("matrix dimension must be a perfect square")
        if not np.all(np.isfinite(m.view(float))):
            raise ValueError("matrix must be finite")
        if np.abs(m - m.conj().T).max() > _HERM_TOL:
            raise ValueError("matrix is not Hermitian to tolerance")
        tr = float(np.trace(m).real)
        stored = self.trace_value
        if math.isnan(stored):
            stored = tr
        elif abs(stored - tr) > _TRACE_TOL:
            raise ValueError(
                f"stored trace {stored} disagrees with matrix trace {tr}")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "trace_value", stored)

    @property
    def arm_dim(self) -> int:
        return math.isqrt(self.matrix.shape[0])

    @property
    def n_max(self) -> int:
        return self.arm_dim - 1

    def normalized(self) -> "BipartiteDensity":
        if self.trace_value <= 0.0:
            raise NormalizationError("trace is not positive")
        return BipartiteDensity(self.matrix / self.trace_value, 1.0)

    def arm_populations(self, arm: Arm) -> np.ndarray:
        """Diagonal photon-number populations of one arm."""
        d = self.arm_dim
        t = self.matrix.reshape(d, d, d, d)
        if arm == "A":
            return np.einsum("nmnm->n", t).real.copy()
        if arm == "B":
            return np.einsum("nmnm->m", t).real.copy()
        raise ValueError("arm must be 'A' or 'B'")

    def validate(self) -> None:
        """Full invariant check including positivity (costs an eigensolve)."""
        evals = np.linalg.eigvalsh(self.matrix)
        if evals.min() < -_PSD_TOL:
            raise ValueError(f"matrix has eigenvalue {evals.min():.3e} < 0")


def tmsv_density(r: float, n_max: int,
                 tail_tol: float = 1e-10) -> BipartiteDensity:
    """Two-mode squeezed vacuum |psi><psi| with Schmidt form sum_n c_n |nn>."""
    c = tmsv_schmidt(r, n_max, tail_tol)
    dim = n_max + 1
    vec = np.zeros(dim * dim, dtype=complex)
    vec[np.arange(dim) * dim + np.arange(dim)] = c
    vec /= np.linalg.norm(vec)
    return BipartiteDensity(np.outer(vec, vec.conj()))


def loss_kraus_operators(eta: float, n_max: int) -> np.ndarray:
    """Kraus stack K[l] of the pure-loss channel with transmissivity ``eta``.

    K_l = sum_n sqrt(C(n, l)) eta^((n-l)/2) (1-eta)^(l/2) |n-l><n|.
    """
    if not 0.0 <= eta <= 1.0:
        raise ValueError("eta must lie in [0, 1]")
    dim = n_max + 1
    kraus = np.zeros((dim, dim, dim))
    for l in range(dim):
        for n in range(l, dim):
            kraus[l, n - l, n] = math.sqrt(math.comb(n, l)) * \
                eta ** ((n - l) / 2.0) * (1.0 - eta) ** (l / 2.0)
    return kraus


def apply_loss(rho: BipartiteDensity, eta: float) -> BipartiteDensity:
    """Pure-loss channel of transmissivity ``eta`` in [0, 1] on arm B;
    trace preserving for any ``eta``, the exact eta = 0 limit included.
    """
    kraus = loss_kraus_operators(eta, rho.n_max)
    d = rho.arm_dim
    t = rho.matrix.reshape(d, d, d, d)
    out = np.zeros_like(t)
    for k in kraus:
        # K rho K^dag on the second index pair
        tmp = np.tensordot(k, t, axes=([1], [1]))       # (m, a, A, B)
        tmp = np.tensordot(tmp, k.conj(), axes=([3], [1]))  # (m, a, A, M)
        out += tmp.transpose(1, 0, 2, 3)
    return BipartiteDensity(out.reshape(d * d, d * d))


def apply_diagonal(rho: BipartiteDensity,
                   coeffs: np.ndarray) -> BipartiteDensity:
    """Sandwich D rho D^dag with a Fock-diagonal operator on arm B.

    The result keeps the (generally reduced) post-selection trace.
    """
    d = rho.arm_dim
    if coeffs.size < d:
        raise ValueError("diagonal operator is shorter than the density arm")
    dvec = coeffs[:d]
    t = rho.matrix.reshape(d, d, d, d)
    out = t * dvec[None, :, None, None] * dvec[None, None, None, :]
    return BipartiteDensity(out.reshape(d * d, d * d))


def partial_transpose(rho: BipartiteDensity, arm: Arm = "B") -> np.ndarray:
    """Partial transpose over one arm; Hermitian, trace preserved."""
    d = rho.arm_dim
    t = rho.matrix.reshape(d, d, d, d)
    if arm == "B":
        out = t.transpose(0, 3, 2, 1)
    elif arm == "A":
        out = t.transpose(2, 1, 0, 3)
    else:
        raise ValueError("arm must be 'A' or 'B'")
    return out.reshape(d * d, d * d).copy()


def negativity(rho: BipartiteDensity) -> float:
    """Entanglement negativity: |sum of negative eigenvalues| of rho^T_B.

    Requires a unit-trace density (tolerance 1e-10).
    """
    if abs(rho.trace_value - 1.0) > 1e-10:
        raise NormalizationError(
            f"negativity needs trace 1, got {rho.trace_value!r}")
    evals = np.linalg.eigvalsh(partial_transpose(rho, "B"))
    return float(-evals[evals < 0.0].sum())


def log_negativity(rho: BipartiteDensity) -> float:
    """Logarithmic negativity log2(1 + 2 * negativity); >= 0."""
    return float(np.log2(1.0 + 2.0 * negativity(rho)))
