"""Amplifier diagonals, gain relations and heralded coherent amplification."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nlasim.fock import (NormalizationError, TruncationError,
                         attenuator_diagonal, coherent_state)
from nlasim.nla import (VALID_KINDS, AmplifyResult, _herald,
                        _passive_diagonal, amplify_coherent,
                        equal_gain_transmissivity, nla_diagonal, pc_gain,
                        pc_nla_diagonal, qs_gain, qs_nla_diagonal)


def test_spec_validation():
    # nla_diagonal is the one check of an amplifier's kind, N and T
    nla_diagonal("QS", 1, 0.5, 4)
    with pytest.raises(ValueError, match=r"kind must be one of \('QS', "
                                         r"'PC', 'CascadedPC'\)"):
        nla_diagonal("XX", 1, 0.5, 4)
    with pytest.raises(ValueError, match="n_units must be >= 1"):
        nla_diagonal("QS", 0, 0.5, 4)
    for t in (0.0, 1.0, -0.2):
        with pytest.raises(ValueError, match="strictly in"):
            nla_diagonal("PC", 2, t, 4)


def test_unit_count_must_be_an_integer():
    # 2.5 cascade stages would build a 2-stage diagonal next to a T^2.5
    # bystander attenuation: two devices in one row
    for bad in (2.5, 2.0, True, np.bool_(True), "2"):
        with pytest.raises(ValueError, match="n_units must be an integer"):
            nla_diagonal("CascadedPC", bad, 0.2, 6)
        for build in (qs_nla_diagonal, pc_nla_diagonal):
            with pytest.raises(ValueError):
                build(bad, 0.2, 6)
    # numpy integers are counted as Python ints: in int64 the powers of M N
    # in the exact catalysis sum would overflow silently
    want = pc_nla_diagonal(8, 0.3, 30)
    cascade = nla_diagonal("CascadedPC", 8, 0.3, 30)
    for good in (np.int64(8), np.uint8(8)):
        assert np.array_equal(nla_diagonal("PC", good, 0.3, 30), want)
        assert np.array_equal(pc_nla_diagonal(good, 0.3, 30), want)
        assert np.array_equal(nla_diagonal("CascadedPC", good, 0.3, 30),
                              cascade)


# ---------------------------------------------------------------------------
# gain relations

def test_gains():
    assert qs_gain(0.2) == pytest.approx(2.0, rel=1e-14)
    assert qs_gain(0.5) == pytest.approx(1.0, rel=1e-14)
    assert pc_gain(0.1) == pytest.approx(2.5298221281347035, rel=1e-13)
    # catalysis gain crosses unity at T = 1/4
    assert pc_gain(0.25) == pytest.approx(1.0, rel=1e-14)


@pytest.mark.parametrize("g", (0.8, 1.0, 1.2, 1.6, 2.0, 3.0, 100.0, 1e4, 1e6))
def test_equal_gain_roundtrip(g):
    ts = equal_gain_transmissivity("QS", g)
    assert qs_gain(ts) == pytest.approx(g, rel=1e-12)
    tc = equal_gain_transmissivity("PC", g)
    assert pc_gain(tc) == pytest.approx(g, rel=1e-12)


def test_equal_gain_frozen_values():
    assert equal_gain_transmissivity("QS", 2.0) == pytest.approx(0.2,
                                                                 rel=1e-14)
    assert equal_gain_transmissivity("PC", 2.0) == pytest.approx(
        0.1339745962155614, rel=1e-13)


def test_equal_gain_scissors_always_wins():
    # T_s > T_c for every gain, so the scissors heralds more often
    for g in np.linspace(1.0, 4.0, 13):
        assert equal_gain_transmissivity("QS", g) > \
            equal_gain_transmissivity("PC", g)


def test_equal_gain_scissors_exact_arithmetic():
    # with T_s = 1/(1+g^2) exact, q(T) = 4T^2 - (4+g^2)T + 1 is negative at
    # T_s, placing T_s strictly between the two catalysis roots
    for g in (Fraction(6, 5), Fraction(8, 5), Fraction(2), Fraction(3)):
        ts = 1 / (1 + g * g)
        q = 4 * ts * ts - (4 + g * g) * ts + 1
        assert q < 0


def test_equal_gain_unknown_kind():
    with pytest.raises(ValueError):
        equal_gain_transmissivity("XX", 2.0)
    for kind in VALID_KINDS:
        for bad in (0.0, math.inf, math.nan):
            with pytest.raises(ValueError):
                equal_gain_transmissivity(kind, bad)
    # gains whose T rounds to 1 or underflows to 0
    with pytest.raises(ValueError):
        equal_gain_transmissivity("QS", 1e-9)
    with pytest.raises(ValueError):
        equal_gain_transmissivity("PC", 1e160)
    # a cascade stage shares the catalysis gain relation
    assert equal_gain_transmissivity("CascadedPC", 2.0) == \
        equal_gain_transmissivity("PC", 2.0)


# ---------------------------------------------------------------------------
# diagonals

def test_nla_diagonal_dispatch():
    n_max = 6
    # a cascade is the one-unit catalysis diagonal raised to N
    for kind, direct in (("QS", qs_nla_diagonal),
                         ("PC", pc_nla_diagonal),
                         ("CascadedPC",
                          lambda n, t, m: pc_nla_diagonal(1, t, m) ** n)):
        got = nla_diagonal(kind, 2, 0.3, n_max)
        want = direct(2, 0.3, n_max)
        assert np.abs(got - want).max() == 0.0


def test_qs_diagonal_closed_form():
    # d_n = sqrt(T)^N N!/((N-n)! N^n) g^n with g = sqrt((1-T)/T)
    n_units, t = 3, 0.4
    g = math.sqrt((1 - t) / t)
    d = qs_nla_diagonal(n_units, t, 5)
    for n in range(4):
        want = (math.sqrt(t) ** n_units * math.factorial(n_units)
                / math.factorial(n_units - n) / n_units ** n * g ** n)
        assert d[n] == pytest.approx(want, rel=1e-13)
    assert np.all(d[4:] == 0.0)


def test_pc_diagonal_zeroth_coefficient():
    # vacuum passes every unit with amplitude sqrt(T)
    for n_units in (1, 2, 3):
        for t in (0.1, 0.5, 0.9):
            d = pc_nla_diagonal(n_units, t, 2)
            assert d[0] == pytest.approx(math.sqrt(t) ** n_units, rel=1e-14)


# the literal slow references, beside the path enumeration of
# oracle.pc_nla_multinomial: the alternating catalysis sum and the scissors
# fan-out factor in exact Fractions, each rounded to float once at the end.
# pc_nla_diagonal also clips to [-1, 1]; that differs from this literal
# form only where the form itself passes 1 (N = 1 below T ~ 1e-16, see
# test_diagonals_are_finite_contractions)
def fraction_pc_diagonal(n_units, t, n_max):
    p = (Fraction(t) - 1) / Fraction(t)
    coeffs = np.empty(n_max + 1)
    for n in range(n_max + 1):
        total = Fraction(0)
        for j in range(min(n_units, n) + 1):
            total += math.comb(n_units, j) * math.perm(n, j) * \
                (p / n_units) ** j
        coeffs[n] = math.sqrt(t) ** (n_units + n) * float(total)
    return coeffs


def fraction_qs_diagonal(n_units, t, n_max):
    coeffs = np.zeros(n_max + 1)
    for n in range(min(n_units, n_max) + 1):
        comb_factor = Fraction(math.perm(n_units, n), n_units ** n)
        coeffs[n] = float(comb_factor) * t ** ((n_units - n) / 2.0) \
            * (1.0 - t) ** (n / 2.0)
    return coeffs


def _bytes_or_overflow(build):
    # a tiny T overflows the sum past the float range on both paths
    try:
        return build().tobytes()
    except OverflowError:
        return OverflowError


TRANSMISSIVITIES = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True,
                             allow_subnormal=True)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(n_units=st.integers(1, 12), t=TRANSMISSIVITIES,
       n_max=st.integers(0, 40))
@example(n_units=12, t=1.0 - 2.0 ** -53, n_max=40)
@example(n_units=3, t=5e-324, n_max=40)
@example(n_units=2, t=1e-300, n_max=1)
# the config bounds (N 12, n_max 200), where the nested integers of the
# catalysis sum are largest
@example(n_units=12, t=5e-324, n_max=200)
@example(n_units=12, t=1.0 - 2.0 ** -53, n_max=200)
def test_diagonals_bitwise_equal_fraction_reference(n_units, t, n_max):
    assert _bytes_or_overflow(
        lambda: pc_nla_diagonal(n_units, t, n_max)) == \
        _bytes_or_overflow(lambda: fraction_pc_diagonal(n_units, t, n_max))
    assert qs_nla_diagonal(n_units, t, n_max).tobytes() == \
        fraction_qs_diagonal(n_units, t, n_max).tobytes()


# an independent float reference for the exact unit: the closed form
# d_n = sqrt(T) (1 - n (1-T)/T) sqrt(T)^n, which cancels near n = T/(1-T)
def float_pc_unit_diagonal(t, n_max):
    n = np.arange(n_max + 1)
    return math.sqrt(t) * (1.0 - n * (1.0 - t) / t) * math.sqrt(t) ** n


@settings(max_examples=150, deadline=None, derandomize=True)
@given(t=st.floats(1e-300, 1.0, exclude_max=True))
@example(t=0.204675351213916)
@example(t=1.0 - 2.0 ** -53)
def test_exact_unit_within_rounding_of_float_formula(t):
    # the float formula's error is a few ulps of its largest term,
    # sqrt(T)^(n+1) (1 + n (1-T)/T); compared where sqrt(T)^(n+1) is normal
    n_max = 200
    exact = pc_nla_diagonal(1, t, n_max)
    n = np.arange(n_max + 1)
    root = math.sqrt(t) ** (n + 1)
    normal = root >= np.finfo(float).tiny
    scale = root * (1.0 + n * (1.0 - t) / t)
    dev = np.abs(float_pc_unit_diagonal(t, n_max) - exact)
    assert np.all(dev[normal] <= 4 * np.finfo(float).eps * scale[normal])


@settings(max_examples=100, deadline=None, derandomize=True)
@given(n_units=st.integers(1, 400), t=TRANSMISSIVITIES,
       n_max=st.integers(0, 60))
@example(n_units=100, t=1e-4, n_max=12)
@example(n_units=3, t=5e-324, n_max=4)
def test_cascade_is_the_unit_to_the_nth_power(n_units, t, n_max):
    # target and bystanders alike: the exact unit raised to N, bitwise
    assert _bytes_or_overflow(
        lambda: nla_diagonal("CascadedPC", n_units, t, n_max)) == \
        _bytes_or_overflow(
            lambda: pc_nla_diagonal(1, t, n_max) ** n_units)
    bystander = _passive_diagonal("CascadedPC", n_units, t, n_max)
    assert bystander.tobytes() == \
        (attenuator_diagonal(t, n_max) ** n_units).tobytes()
    assert bystander[0] == 1.0


@settings(max_examples=300, deadline=None, derandomize=True)
@given(kind=st.sampled_from(VALID_KINDS), n_units=st.integers(1, 12),
       t=TRANSMISSIVITIES, n_max=st.integers(0, 60))
# the one-unit d_1 = 2T - 1 rounded an ulp past -1 here, and a cascade
# raised that to the N-th power
@example(kind="PC", n_units=1, t=4.061769944698415e-211, n_max=1)
@example(kind="CascadedPC", n_units=12, t=3.104219771207159e-48, n_max=13)
def test_diagonals_are_finite_contractions(kind, n_units, t, n_max):
    # a heralded amplifier is a contraction: what it does to the amplified
    # supermode and to the others is a finite diagonal with |d_n| <= 1,
    # unless the catalysis sum leaves the float range
    diagonals = [_passive_diagonal(kind, n_units, t, n_max)]
    try:
        diagonals.append(nla_diagonal(kind, n_units, t, n_max))
    except OverflowError as exc:
        assert kind != "QS" and str(exc).startswith("catalysis sum")
    for d in diagonals:
        assert d.shape == (n_max + 1,) and d.dtype == float
        assert np.isfinite(d).all()
        assert np.abs(d).max() <= 1.0


def test_pc_diagonal_analytic_zero_is_exact():
    # N = 2, T = 1/2: d_1 = sqrt(T)^3 (1 + p) with p = -1
    assert pc_nla_diagonal(2, 0.5, 3)[1] == 0.0


def test_pc_diagonal_large_unit_count_stable():
    d = pc_nla_diagonal(8, 0.13, 20)
    assert np.all(np.isfinite(d))
    assert np.abs(d).max() <= 1.0 + 1e-12


# ---------------------------------------------------------------------------
# heralded amplification

def test_amplify_single_scissors_by_hand():
    alpha, t, n_max = 0.3, 0.35, 20
    res = amplify_coherent(alpha, "QS", 1, t, n_max)
    psi = coherent_state(alpha, n_max)
    unnorm = np.zeros(n_max + 1, dtype=complex)
    unnorm[0] = math.sqrt(t) * psi[0]
    unnorm[1] = math.sqrt(1 - t) * psi[1]
    prob = float(np.vdot(unnorm, unnorm).real)
    assert res.success_prob == pytest.approx(prob, rel=1e-13)
    assert np.abs(res.out_state - unnorm / math.sqrt(prob)).max() < 1e-13


def test_herald_rejects_a_squared_norm_past_one():
    # a herald probability of 6.25e-324 rounds to the smallest subnormal,
    # 4.9e-324, so dividing by its root leaves a norm well past 1
    with pytest.raises(NormalizationError, match="squared norm .* exceeds 1"):
        _herald(np.ones(1), np.array([2.5e-162], dtype=complex))


def test_herald_rejects_non_finite_amplitudes():
    # an infinite coefficient passes the probability check (prob = inf > 0)
    # and leaves inf / inf = nan in the output; a nan amplitude leaves nan
    with np.errstate(invalid="ignore"):
        with pytest.raises(ValueError, match="amps must be finite"):
            _herald(np.array([1.0, math.inf]),
                    np.array([0.8, 0.6], dtype=complex))
        with pytest.raises(ValueError, match="amps must be finite"):
            _herald(np.ones(2), np.array([0.6, math.nan], dtype=complex))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(kind=st.sampled_from(VALID_KINDS), n_units=st.integers(1, 12),
       t=TRANSMISSIVITIES, alpha=st.floats(0.0, 2.5),
       n_max=st.integers(1, 60))
@example(kind="QS", n_units=2, t=0.3, alpha=0.4, n_max=25)
@example(kind="PC", n_units=2, t=0.3, alpha=0.4, n_max=25)
@example(kind="CascadedPC", n_units=2, t=0.3, alpha=0.4, n_max=25)
def test_amplify_reports_success_in_unit_interval(kind, n_units, t, alpha,
                                                  n_max):
    # every diagonal has |d_n| <= 1, so a herald that passes its guards
    # (input and target tails, a vanished herald, the output's top bin, a
    # catalysis sum past the float range) is a probability
    try:
        res = amplify_coherent(alpha, kind, n_units, t, n_max, 1.5)
    except (TruncationError, OverflowError):
        return
    except NormalizationError as exc:
        assert str(exc).startswith("herald has zero probability")
        return
    assert 0.0 < res.success_prob <= 1.0
    assert 0.0 <= res.fidelity <= 1.0


def test_amplify_gain_matched_scissors_is_accurate_for_weak_input():
    g = 2.0
    t = equal_gain_transmissivity("QS", g)
    res = amplify_coherent(0.05, "QS", 1, t, 20, g)
    assert res.fidelity > 1 - 1e-4


def test_pc_output_heralds_onto_flipped_target():
    g = 1.5
    t = equal_gain_transmissivity("PC", g)
    res = amplify_coherent(0.2, "PC", 1, t, 25)
    flipped = abs(np.vdot(coherent_state(-g * 0.2, 25), res.out_state)) ** 2
    upright = abs(np.vdot(coherent_state(+g * 0.2, 25), res.out_state)) ** 2
    assert flipped > upright


def test_cascade_parity_follows_unit_count():
    # two catalysis stages undo the sign flip
    res2 = amplify_coherent(0.2, "CascadedPC", 2, 0.12, 25)
    upright = abs(np.vdot(coherent_state(+1.1 * 0.2, 25), res2.out_state)) ** 2
    flipped = abs(np.vdot(coherent_state(-1.1 * 0.2, 25), res2.out_state)) ** 2
    assert upright > flipped


def test_amplify_without_target_leaves_fidelity_unset():
    res = amplify_coherent(0.3, "QS", 1, 0.5, 20)
    assert isinstance(res, AmplifyResult)
    assert res.fidelity is None


def test_amplify_rejects_unknown_kind():
    with pytest.raises(ValueError, match="kind must be one of"):
        amplify_coherent(0.3, "XX", 1, 0.5, 20, 1.5)


def test_amplify_guards_truncation():
    with pytest.raises(TruncationError):
        amplify_coherent(2.5, "QS", 1, 0.5, 8)


def test_success_probability_decreases_with_unit_count():
    probs = [amplify_coherent(0.2, "QS", n, 0.2, 25).success_prob
             for n in range(1, 6)]
    assert all(a > b for a, b in zip(probs, probs[1:]))
