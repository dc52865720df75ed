"""Brute-force circuit oracles against the closed forms they certify.

Every amplifier operator in the package has an independent realization here
as an explicit interferometer simulation; these tests pin the agreement and
freeze a handful of circuit outputs as regression anchors.
"""

import math
import re
from math import comb, factorial, sqrt

import numpy as np
import pytest

from nlasim import oracle
from nlasim.nla import nla_diagonal, pc_nla_diagonal, qs_nla_diagonal

T_GRID = (0.1, 0.25, 0.5, 0.75, 0.9)


# ---------------------------------------------------------------------------
# single quantum-scissors circuit

def test_qs_circuit_frozen_values():
    m = oracle.qs_circuit_operator(0.3, 0.6, 5)
    assert m[0, 0] == pytest.approx(0.42426406871192845, abs=1e-13)
    assert m[1, 1] == pytest.approx(0.5291502622129183, abs=1e-13)
    m2 = oracle.qs_circuit_operator(0.3, 0.6, 5, detect="c")
    assert m2[0, 0] == pytest.approx(-0.648074069840786, abs=1e-13)
    assert m2[1, 1] == pytest.approx(0.3464101615137755, abs=1e-13)


@pytest.mark.parametrize("t1", (0.3, 0.5, 0.7))
@pytest.mark.parametrize("t2", T_GRID)
def test_qs_circuit_matches_closed_form(t1, t2):
    m = oracle.qs_circuit_operator(t1, t2, 5)
    want = np.zeros_like(m)
    want[0, 0] = sqrt(t1 * t2)
    want[1, 1] = sqrt((1 - t1) * (1 - t2))
    assert np.abs(m - want).max() < 1e-12


def test_qs_circuit_annihilates_two_and_more_photons():
    m = oracle.qs_circuit_operator(0.4, 0.7, 8)
    assert np.abs(m[2:, :]).max() == 0.0
    assert np.abs(m[:, 2:]).max() == 0.0


def test_qs_circuit_other_detector_sign_structure():
    # detecting the other port flips which basis state carries the sign
    m = oracle.qs_circuit_operator(0.35, 0.55, 4, detect="c")
    assert m[0, 0] == pytest.approx(-sqrt(0.65 * 0.55), abs=1e-12)
    assert m[1, 1] == pytest.approx(sqrt(0.35 * 0.45), abs=1e-12)


# ---------------------------------------------------------------------------
# multimode (two-bin) quantum scissors

@pytest.mark.parametrize("gammas", ((1.0, 0.0), (2 ** -0.5, 2 ** -0.5),
                                    (0.6, 0.8j)))
def test_multimode_qs_independent_of_split(gammas):
    t1, t2 = 0.5, 0.3
    m = oracle.multimode_qs_operator(t1, t2, gammas)
    want = np.diag([sqrt(t1 * t2), sqrt((1 - t1) * (1 - t2)), 0.0])
    assert np.abs(m - want).max() < 1e-12


def test_multimode_qs_blocks_orthogonal_photon():
    m = oracle.multimode_qs_operator(0.4, 0.6, (0.6, 0.8))
    # the photon in the orthogonal supermode cannot pass the herald
    assert abs(m[2, 2]) < 1e-13


# ---------------------------------------------------------------------------
# photon catalysis circuit

@pytest.mark.parametrize("t", T_GRID)
def test_pc_circuit_matches_diagonal(t):
    got = oracle.pc_circuit_operator(t, 6)
    want = np.diag(pc_nla_diagonal(1, t, 6))
    assert np.abs(got - want).max() < 1e-12


def test_pc_circuit_diagonal_formula():
    # d_n = sqrt(T) (1 - n (1-T)/T) sqrt(T)^n
    t = 0.25
    got = np.diag(oracle.pc_circuit_operator(t, 4))
    want = [sqrt(t) * (1 - n * (1 - t) / t) * sqrt(t) ** n for n in range(5)]
    assert np.abs(got - want).max() < 1e-13


# ---------------------------------------------------------------------------
# multinomial route to the N-unit catalysis diagonal

@pytest.mark.parametrize("n_units", (1, 2, 3))
@pytest.mark.parametrize("t", T_GRID)
def test_pc_multinomial_matches_closed_form(n_units, t):
    coeffs = pc_nla_diagonal(n_units, t, 8)
    for n in range(9):
        ref = oracle.pc_nla_multinomial(n_units, t, n)
        assert coeffs[n] == pytest.approx(ref, rel=1e-12, abs=1e-14)


def test_pc_multinomial_single_unit_reduces_to_circuit():
    t = 0.6
    circ = np.diag(oracle.pc_circuit_operator(t, 5))
    for n in range(6):
        assert oracle.pc_nla_multinomial(1, t, n) == pytest.approx(
            circ[n], abs=1e-12)


def test_compositions_enumeration():
    combos = list(oracle._compositions(4, 3))
    assert len(combos) == comb(4 + 2, 2)
    assert all(sum(c) == 4 for c in combos)
    assert len(set(combos)) == len(combos)


# ---------------------------------------------------------------------------
# symmetric N-port splitter

@pytest.mark.parametrize("n_paths", (2, 3, 4, 5, 8))
def test_nsplitter_unitary_properties(n_paths):
    u = oracle.nsplitter_unitary(n_paths)
    amp = 1 / sqrt(n_paths)
    assert np.abs(u @ u.T - np.eye(n_paths)).max() < 1e-13
    assert np.abs(u - u.T).max() < 1e-13          # symmetric
    assert np.abs(u[0] - amp).max() < 1e-13       # balanced fan-out
    assert np.abs(u[:, 0] - amp).max() < 1e-13    # balanced recombination


def test_nsplitter_two_paths_is_hadamard():
    u = oracle.nsplitter_unitary(2)
    h = np.array([[1.0, 1.0], [1.0, -1.0]]) / sqrt(2)
    assert np.abs(u - h).max() < 1e-14


# ---------------------------------------------------------------------------
# full scissors bank: splitter circuit vs closed-form diagonal

@pytest.mark.parametrize("n_units", (1, 2))
@pytest.mark.parametrize("t", (0.25, 0.5, 0.75))
def test_splitter_circuit_matches_formula(n_units, t):
    got = oracle.qs_nla_splitter_circuit(n_units, t, n_units)
    want = np.diag(qs_nla_diagonal(n_units, t, n_units))
    # circuit carries a 2^(-N/2) herald-normalization factor
    assert np.abs(got * 2 ** (n_units / 2) - want).max() < 1e-10


def test_splitter_circuit_off_diagonal_free():
    got = oracle.qs_nla_splitter_circuit(2, 0.4, 2)
    off = got - np.diag(np.diag(got))
    assert np.abs(off).max() < 1e-14


def test_splitter_circuit_three_units():
    t = 0.5
    got = oracle.qs_nla_splitter_circuit(3, t, 3)
    want = np.diag(qs_nla_diagonal(3, t, 3))
    assert np.abs(got * 2 ** 1.5 - want).max() < 1e-9


# ---------------------------------------------------------------------------
# closed-form diagonals as regression anchors

def test_qs_diagonal_values():
    d = qs_nla_diagonal(2, 0.2, 4)
    assert np.allclose(d, [0.2, 0.4, 0.4, 0.0, 0.0], atol=1e-14)
    # permutation factor truncates at n = N
    d3 = qs_nla_diagonal(3, 0.5, 6)
    assert np.all(d3[4:] == 0.0)


def test_pc_diagonal_values():
    d = pc_nla_diagonal(1, 0.25, 4)
    assert np.allclose(d, [0.5, -0.5, -0.625, -0.5, -0.34375], atol=1e-14)
    d2 = pc_nla_diagonal(2, 0.5, 4)
    assert d2[1] == pytest.approx(0.0, abs=1e-15)
    assert d2[2] == pytest.approx(-0.125, abs=1e-14)


def test_cascaded_single_unit_equals_plain_pc():
    a = nla_diagonal("CascadedPC", 1, 0.35, 8)
    b = pc_nla_diagonal(1, 0.35, 8)
    assert a.tobytes() == b.tobytes()


def test_cascaded_is_elementwise_power():
    t = 0.3
    single = pc_nla_diagonal(1, t, 6)
    triple = nla_diagonal("CascadedPC", 3, t, 6)
    assert np.abs(triple - single ** 3).max() < 1e-14


# ---------------------------------------------------------------------------
# input guards

@pytest.mark.parametrize("call, message", [
    (lambda: oracle.nsplitter_unitary(0), "need at least one path"),
    (lambda: oracle.qs_circuit_operator(0.5, 0.5, 3, detect="b"),
     "detect must be 'a' or 'c'"),
    (lambda: oracle.multimode_qs_operator(0.5, 0.5, [1.0, 0.0, 0.0]),
     "gammas must have exactly two components"),
    (lambda: oracle.multimode_qs_operator(0.5, 0.5, [0.0, 0.0]),
     "gammas must not both vanish"),
    (lambda: oracle.pc_nla_multinomial(2, 0.0, 3),
     "transmissivity must lie strictly in (0, 1)"),
    (lambda: oracle.pc_nla_multinomial(2, 1.0, 3),
     "transmissivity must lie strictly in (0, 1)"),
    (lambda: oracle.qs_nla_splitter_circuit(0, 0.5, 3),
     "need at least one scissors unit"),
], ids=["splitter-0-paths", "detect-b", "gammas-shape", "gammas-zero",
        "multinomial-T-0", "multinomial-T-1", "splitter-circuit-0-units"])
def test_oracle_guard_raises(call, message):
    with pytest.raises(ValueError, match=re.escape(message)) as raised:
        call()
    assert raised.type is ValueError
