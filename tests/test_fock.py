"""Kernel checks: states, channels, partial transpose, log-negativity."""

import math
import re

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nlasim import fock
from nlasim.fock import (BipartiteDensity, NormalizationError,
                         TruncationError, apply_diagonal, apply_loss,
                         attenuator_diagonal, coherent_state,
                         guard_truncation, log_negativity,
                         loss_kraus_operators, negativity,
                         partial_transpose, squeezing_from_db,
                         squeezing_to_db, tmsv_density, tmsv_schmidt,
                         transmissivity_from_db, vacuum_projection_diagonal)
from nlasim.oracle import beam_splitter_unitary

rng = np.random.default_rng(7)


def random_density(dim: int) -> np.ndarray:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


# ---------------------------------------------------------------------------
# conversions

def test_db_conversions():
    assert transmissivity_from_db(0.0) == 1.0
    assert transmissivity_from_db(10.0) == pytest.approx(0.1, rel=1e-14)
    assert transmissivity_from_db(3.0) == pytest.approx(10 ** -0.3, rel=1e-14)
    # 3 dB of squeezing and back
    r = squeezing_from_db(3.0)
    assert squeezing_to_db(r) == pytest.approx(3.0, rel=1e-13)
    assert r == pytest.approx(0.345388, abs=1e-6)
    # 1 squeezing unit is 20/ln10 dB
    assert squeezing_to_db(1.0) == pytest.approx(8.685889638065035, rel=1e-13)


# ---------------------------------------------------------------------------
# states

def test_coherent_state_amplitudes():
    amps = coherent_state(0.5, 15)
    assert amps[0] == pytest.approx(math.exp(-0.125), rel=1e-12)
    assert amps[1] == pytest.approx(0.4412484512922977, rel=1e-12)
    assert amps[2] == pytest.approx(0.15600488604842286, rel=1e-12)
    # Poissonian populations
    pops = np.abs(amps) ** 2
    n = np.arange(16)
    expected = np.exp(-0.25) * 0.25 ** n / [math.factorial(k) for k in n]
    assert np.allclose(pops, expected, atol=1e-15)


def test_coherent_state_tail_guard():
    with pytest.raises(TruncationError):
        coherent_state(3.0, 6)
    # a non-finite amplitude leaves a nan tail, which the guard rejects too
    for alpha in (math.nan, math.inf):
        with np.errstate(invalid="ignore"), pytest.raises(TruncationError):
            coherent_state(alpha, 6)


def test_tmsv_schmidt_values():
    c = tmsv_schmidt(0.5, 20)
    assert c[0] == pytest.approx(0.886818883970074, rel=1e-13)
    assert c[1] == pytest.approx(0.409814221664745, rel=1e-13)
    assert c[2] == pytest.approx(0.18938218312043545, rel=1e-13)
    # geometric ratio tanh(r)
    assert np.allclose(c[1:] / c[:-1], math.tanh(0.5), atol=1e-14)


def test_tmsv_schmidt_tail_guard():
    with pytest.raises(TruncationError):
        tmsv_schmidt(0.5, 12)
    # loosened gate admits the same truncation
    c = tmsv_schmidt(0.5, 12, tail_tol=1e-6)
    assert c.size == 13
    # a non-finite squeezing is rejected, not passed on as a NaN vector
    for r in (math.nan, math.inf):
        with pytest.raises(ValueError):
            tmsv_schmidt(r, 12)


def test_tmsv_density_is_projector_like():
    rho = tmsv_density(0.4, 20)
    m = rho.matrix
    assert np.trace(m) == pytest.approx(1.0, abs=1e-12)
    # pure state: rho^2 = rho
    assert np.abs(m @ m - m).max() < 1e-12
    rho.validate()


# ---------------------------------------------------------------------------
# beam splitter

def test_beam_splitter_blocks_orthogonal():
    bs = beam_splitter_unitary(0.36, 6)
    for s in range(7):
        b = bs[s]
        assert b.shape == (s + 1, s + 1)
        assert np.abs(b @ b.T - np.eye(s + 1)).max() < 1e-13


def test_beam_splitter_single_photon_block():
    # one photon splits with amplitudes (sqrt(T), sqrt(1-T))
    b = beam_splitter_unitary(0.36, 2)[1]
    assert abs(abs(b[0, 0]) - 0.6) < 1e-14
    assert abs(abs(b[0, 1]) - 0.8) < 1e-14
    assert np.linalg.det(b) == pytest.approx(1.0, abs=1e-14)


# the literal slow reference: each block is the matrix exponential of its
# real antisymmetric generator theta (x^dag y - x y^dag), cos(theta) = sqrt(T)
def expm_beam_splitter_block(transmissivity, s):
    theta = math.acos(math.sqrt(transmissivity))
    gen = np.zeros((s + 1, s + 1))
    for j in range(s + 1):
        if j >= 1:
            gen[j - 1, j] += theta * math.sqrt(j * (s - j + 1))
        if j <= s - 1:
            gen[j + 1, j] -= theta * math.sqrt((s - j) * (j + 1))
    return scipy.linalg.expm(gen)


@settings(max_examples=50, deadline=None, derandomize=True)
@given(t=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True,
                   allow_subnormal=True))
@example(t=5e-324)
@example(t=1.0 - 2.0 ** -53)
def test_beam_splitter_blocks_match_expm_reference(t):
    bs = beam_splitter_unitary(t, 30)
    for s in range(31):
        b = bs[s]
        assert np.abs(b - expm_beam_splitter_block(t, s)).max() < 1e-12
        assert np.abs(b @ b.T - np.eye(s + 1)).max() < 1e-13


def test_beam_splitter_rejects_degenerate_transmissivity():
    for t in (0.0, 1.0, -0.1, 1.1):
        with pytest.raises(ValueError):
            beam_splitter_unitary(t, 5)
    # near-transparent limit approaches the identity
    bs = beam_splitter_unitary(1.0 - 1e-10, 4)
    for s in range(5):
        assert np.abs(bs[s] - np.eye(s + 1)).max() < 1e-4


# ---------------------------------------------------------------------------
# loss channel

def test_loss_kraus_trace_preserving():
    for eta in (0.05, 0.3, 0.794328234724281, 1.0):
        kraus = loss_kraus_operators(eta, 10)
        total = sum(k.T @ k for k in kraus)
        assert np.abs(total - np.eye(11)).max() < 1e-13


def test_loss_channel_composes():
    # eta1 after eta2 equals eta1*eta2 in one shot
    rho = BipartiteDensity(random_density(25), trace_value=1.0)
    once = apply_loss(apply_loss(rho, 0.8), 0.7)
    combined = apply_loss(rho, 0.56)
    assert np.abs(once.matrix - combined.matrix).max() < 1e-13


def test_loss_preserves_trace_and_only_touches_one_arm():
    rho = BipartiteDensity(random_density(25), trace_value=1.0)
    out = apply_loss(rho, transmissivity_from_db(3.0))
    assert np.trace(out.matrix) == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(out.arm_populations("A").sum(), 1.0, atol=1e-12)
    # arm A marginal untouched by loss on B
    a_before = rho.arm_populations("A")
    a_after = out.arm_populations("A")
    assert np.abs(a_before - a_after).max() < 1e-13


def test_loss_on_coherent_state_shrinks_amplitude():
    # |alpha> through loss eta stays coherent with amplitude sqrt(eta)*alpha
    alpha, eta = 0.7, 0.6
    st = coherent_state(alpha, 18)
    vac = np.zeros_like(st)
    vac[0] = 1.0
    joint = np.outer(np.kron(vac, st), np.kron(vac, st).conj())
    rho = apply_loss(BipartiteDensity(joint, trace_value=1.0), eta)
    target = coherent_state(math.sqrt(eta) * alpha, 18)
    pops = rho.arm_populations("B")
    assert np.abs(pops - np.abs(target) ** 2).max() < 1e-12


# ---------------------------------------------------------------------------
# diagonal operators

def test_apply_diagonal_matches_dense_conjugation():
    d = 12
    rho = BipartiteDensity(random_density(d * d), trace_value=1.0)
    coeffs = rng.normal(size=d)
    out = apply_diagonal(rho, coeffs)
    dense = np.kron(np.eye(d), np.diag(coeffs))
    want = dense @ rho.matrix @ dense.conj().T
    assert np.abs(out.matrix - want).max() < 1e-12
    with pytest.raises(ValueError, match="shorter than the density arm"):
        apply_diagonal(rho, coeffs[:-1])


def test_attenuator_and_vacuum_projection():
    att = attenuator_diagonal(0.49, 5)
    assert np.allclose(att, 0.7 ** np.arange(6), atol=1e-14)
    proj = vacuum_projection_diagonal(5)
    assert proj[0] == 1.0
    assert np.all(proj[1:] == 0.0)


# ---------------------------------------------------------------------------
# partial transpose and negativity

def test_partial_transpose_involution_and_trace():
    rho = BipartiteDensity(random_density(16), trace_value=1.0)
    pt = partial_transpose(rho, "B")
    assert np.trace(pt) == pytest.approx(1.0, abs=1e-12)
    back = partial_transpose(BipartiteDensity(pt, trace_value=1.0), "B")
    assert np.abs(back - rho.matrix).max() == 0.0
    # transposing either arm gives the same spectrum
    pta = partial_transpose(rho, "A")
    ev_a = np.sort(np.linalg.eigvalsh(pta))
    ev_b = np.sort(np.linalg.eigvalsh(pt))
    assert np.abs(ev_a - ev_b).max() < 1e-10


def test_negativity_zero_for_product_states():
    for _ in range(5):
        a = random_density(5)
        b = random_density(5)
        rho = BipartiteDensity(np.kron(a, b), trace_value=1.0)
        assert negativity(rho) < 1e-12


def test_negativity_of_schmidt_pure_state():
    # |psi> = sum_n c_n |nn>: negativity ((sum|c|)^2 - 1)/2
    c = np.array([0.8, 0.5, math.sqrt(1 - 0.64 - 0.25)])
    psi = np.zeros((3, 3))
    np.fill_diagonal(psi, c)
    rho = BipartiteDensity(np.outer(psi.ravel(), psi.ravel()),
                           trace_value=1.0)
    want = ((np.abs(c).sum()) ** 2 - 1) / 2
    assert negativity(rho) == pytest.approx(want, rel=1e-12)
    assert log_negativity(rho) == pytest.approx(
        math.log2(1 + 2 * want), rel=1e-12)


def test_negativity_requires_unit_trace():
    rho = BipartiteDensity(random_density(9) * 0.5, trace_value=0.5)
    with pytest.raises(NormalizationError):
        negativity(rho)
    assert negativity(rho.normalized()) >= 0.0


def test_tmsv_log_negativity_analytic():
    rho = tmsv_density(0.5, 25)
    assert log_negativity(rho) == pytest.approx(1.0 / math.log(2), abs=1e-7)


def test_log_negativity_invariant_under_schmidt_signs():
    # flipping signs of Schmidt coefficients is a local unitary
    c = tmsv_schmidt(0.45, 20)
    flip = c * (-1.0) ** np.arange(c.size)
    def density(vec):
        psi = np.zeros((vec.size, vec.size))
        np.fill_diagonal(psi, vec)
        m = np.outer(psi.ravel(), psi.ravel())
        return BipartiteDensity(m / np.trace(m), trace_value=1.0)
    assert log_negativity(density(flip)) == pytest.approx(
        log_negativity(density(c)), rel=1e-12)


def test_hermiticity_guard():
    m = random_density(9)
    m[0, 1] += 1e-6
    with pytest.raises(ValueError):
        BipartiteDensity(m, trace_value=1.0)


# ---------------------------------------------------------------------------
# input guards: each raises its own type with its own message

MIXED = np.eye(4) / 4      # maximally mixed two-qubit-sized density


@pytest.mark.parametrize("call, error, message", [
    (lambda: attenuator_diagonal(0.0, 4), ValueError,
     "transmissivity must lie in (0, 1]"),
    (lambda: attenuator_diagonal(1.5, 4), ValueError,
     "transmissivity must lie in (0, 1]"),
    (lambda: BipartiteDensity(np.eye(4)[:3]), ValueError,
     "matrix must be square"),
    (lambda: BipartiteDensity(np.eye(3) / 3), ValueError,
     "matrix dimension must be a perfect square"),
    (lambda: BipartiteDensity(np.full((4, 4), np.nan)), ValueError,
     "matrix must be finite"),
    (lambda: BipartiteDensity(MIXED, trace_value=0.5), ValueError,
     "stored trace 0.5 disagrees with matrix trace 1.0"),
    (lambda: BipartiteDensity(np.zeros((4, 4))).normalized(),
     NormalizationError, "trace is not positive"),
    (lambda: BipartiteDensity(MIXED).arm_populations("C"), ValueError,
     "arm must be 'A' or 'B'"),
    (lambda: BipartiteDensity(np.diag([1.5, -0.5, 0.0, 0.0])).validate(),
     ValueError, "matrix has eigenvalue -5.000e-01 < 0"),
    (lambda: loss_kraus_operators(-0.1, 4), ValueError,
     "eta must lie in [0, 1]"),
    (lambda: loss_kraus_operators(1.1, 4), ValueError,
     "eta must lie in [0, 1]"),
    (lambda: partial_transpose(BipartiteDensity(MIXED), "C"), ValueError,
     "arm must be 'A' or 'B'"),
], ids=["attenuator-T-0", "attenuator-T-above-1", "non-square",
        "dimension-not-square", "non-finite", "stored-trace",
        "normalized-zero", "populations-arm", "negative-eigenvalue", "loss-eta-below-0",
        "loss-eta-above-1", "partial-transpose-arm"])
def test_fock_guard_raises(call, error, message):
    with pytest.raises(ValueError, match=re.escape(message)) as raised:
        call()
    assert raised.type is error


def test_guard_truncation_passes_all_zero_populations():
    # no peak bin to compare the top bin against: nothing to guard
    assert guard_truncation(np.zeros(6)) is None


@pytest.mark.parametrize("pops", ([math.nan, 1.0], [1.0, math.nan],
                                  [math.inf, 1.0], [0.0, math.inf]))
def test_guard_truncation_rejects_non_finite_populations(pops):
    # a NaN peak fails both comparisons, and an infinite one hides any top
    # bin, so either would pass a full top bin unseen
    with pytest.raises(ValueError, match="^state: populations must be "
                                         "finite, got peak (nan|inf)$"):
        guard_truncation(np.array(pops))
