"""Distillation pipeline: source scenarios, strategies, references, cascades."""

import math
import re
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import nlasim
from nlasim import distill, fock
from nlasim.distill import (PdcSpec, _gaussian_log_negativities,
                            _log_negativities, _packed_blocks,
                            apply_strategy, lossy_pdc_densities,
                            reference_no_nla, scenario_lambdas,
                            score_transmissivities)
from nlasim.fock import (BipartiteDensity, TruncationError,
                         apply_diagonal, apply_loss, attenuator_diagonal,
                         guard_truncation, log_negativity, squeezing_from_db,
                         tmsv_density, tmsv_schmidt,
                         transmissivity_from_db, vacuum_projection_diagonal)
from nlasim.nla import VALID_KINDS, amplify_coherent, nla_diagonal
from nlasim.optimize import (SweepConfig, max_fidelity_profiles,
                             maximize_total_logneg)

N_MAX = 20
N_SMALL = 10       # keeps the dense reference cheap


def scenario1(r1_db=5.0):
    return PdcSpec.from_scenario(1, r1_db)


# ---------------------------------------------------------------------------
# dense reference: the Kraus loss channel, Fock-diagonal sandwich and dense
# log-negativity of nlasim.fock, one supermode at a time

def dense_source(pdc, eta, n_max):
    return [apply_loss(tmsv_density(r, n_max), eta)
            for r in pdc.squeezings]


def dense_strategy(dense, nla, strategy="unfiltered", amplified_index=1):
    """(per-supermode log-negativities, herald probability) on dense states,
    under the amplifier ``nla`` = (kind, n_units, transmissivity)."""
    n_max = dense[0].n_max
    kind, n_units, t = nla
    if kind == "QS":
        passive = vacuum_projection_diagonal(n_max)
    else:
        stages = n_units if kind == "CascadedPC" else 1
        passive = attenuator_diagonal(t ** stages, n_max)
    lognegs, prob = [], 1.0
    for i, rho in enumerate(dense):
        if i == amplified_index - 1:
            op = nla_diagonal(*nla, n_max)
        elif strategy == "unfiltered":
            op = passive
        else:
            lognegs.append(log_negativity(rho))
            continue
        acted = apply_diagonal(rho, op)
        if acted.trace_value <= 0.0:
            raise ValueError("herald probability vanished")
        prob *= acted.trace_value
        normed = acted.normalized()
        guard_truncation(normed.arm_populations("A"))
        guard_truncation(normed.arm_populations("B"))
        lognegs.append(log_negativity(normed))
    return np.array(lognegs), prob


def graded_density(amp):
    """Dense matrix of the graded state sum_l |v_l><v_l|."""
    dim = amp.shape[0]
    matrix = np.zeros((dim * dim, dim * dim))
    for lost in range(dim):
        n = np.arange(lost, dim)
        v = np.zeros((dim, dim))
        v[n, n - lost] = amp[n, n - lost]
        matrix += np.outer(v.ravel(), v.ravel())
    return matrix


def gaussian_tail_bound(tau, n_max):
    """How far the graded kernel on a lossy TMSV truncated at n_max may sit
    from its closed form, tau = tanh r' of the attenuated state."""
    return 2 * (2 / math.log(2)) * tau ** (n_max + 1) / (1 - tau)


def padded_log_negativities(amp):
    """The padded graded kernel: every (d, d) slice of the stack in full,
    its 2d - 1 partial-transpose blocks B_s[n, n'] = amp[n, s - n']
    amp[n', s - n] each padded to d-square, one batched eigensolve."""
    dim = amp.shape[-1]
    col = np.arange(2 * dim - 1)[:, None] - np.arange(dim)
    inside = (col >= 0) & (col < dim)
    half = (amp[:, :, np.clip(col, 0, dim - 1)] * inside).transpose(0, 2, 1, 3)
    evals = np.linalg.eigvalsh(half * half.swapaxes(-1, -2))
    negativity = -np.where(evals < 0.0, evals, 0.0).sum(axis=(1, 2))
    return np.log2(1.0 + 2.0 * negativity)


# ---------------------------------------------------------------------------
# source description

def test_scenario_lambda_profiles():
    lam1 = scenario_lambdas(1, 5)
    assert np.array_equal(lam1, [1, 0, 0, 0, 0])
    lam2 = scenario_lambdas(2, 4, decay=0.5)
    assert np.allclose(lam2, [1.0, 0.5, 0.25, 0.125], atol=1e-15)
    lam3 = scenario_lambdas(3, 3)
    assert np.array_equal(lam3, [1, 1, 1])
    with pytest.raises(ValueError):
        scenario_lambdas(4, 5)
    with pytest.raises(ValueError):
        scenario_lambdas(2, 5, decay=1.0)


def test_pdc_spec_normalization_guard():
    assert not PdcSpec(np.array([0.6, 0.8, 0.0])).squeezings.flags.writeable
    # NaN fails every comparison, so the range checks alone would pass it
    for squeezings in (np.array([np.nan]), np.array([0.6, np.nan]),
                       np.array([np.inf]), np.array([0.6, -0.1]),
                       np.array([]), np.ones((1, 1))):
        with pytest.raises(ValueError, match="squeezings"):
            PdcSpec(squeezings)


def test_from_scenario_anchors_first_squeezing():
    for scenario in (1, 2, 3):
        pdc = PdcSpec.from_scenario(scenario, 5.0)
        assert pdc.squeezings[0] == pytest.approx(squeezing_from_db(5.0),
                                                  rel=1e-13)
        lam = scenario_lambdas(scenario)
        assert np.allclose(pdc.squeezings / pdc.squeezings[0], lam / lam[0],
                           rtol=1e-12, atol=0)


def test_source_skips_loss_where_channel_cannot_act():
    # the closed form has no branch for a vacuum supermode or a lossless
    # channel; at every eta, 0 and 1 included, it is the dense Kraus sum
    pdc = PdcSpec.from_scenario(1, 5.0, k_modes=3)
    for channel in (1.0, transmissivity_from_db(6.0), 1.0, 0.3, 0.0):
        lossy = lossy_pdc_densities(pdc, channel, N_MAX)
        assert lossy.shape == (3, N_MAX + 1, N_MAX + 1)
        # inactive supermodes stay vacuum
        vacuum = np.zeros((N_MAX + 1, N_MAX + 1))
        vacuum[0, 0] = 1.0
        assert np.array_equal(lossy[1], vacuum)
        assert np.array_equal(lossy[2], vacuum)
        for amp, kraus in zip(lossy, dense_source(pdc, channel, N_MAX)):
            assert np.abs(graded_density(amp) - kraus.matrix).max() <= 1e-15


# ---------------------------------------------------------------------------
# reference pipeline

def test_lossless_reference_matches_analytic():
    pdc = PdcSpec.from_scenario(2, 5.0, k_modes=3, decay=0.5)
    ref = reference_no_nla(lossy_pdc_densities(pdc, 1.0, N_MAX))
    want = 2 * pdc.squeezings / math.log(2)
    assert np.abs(ref.per_supermode_logneg - want).max() < 1e-5
    assert ref.success_prob == 1.0


def test_reference_decays_with_attenuation():
    pdc = scenario1()
    values = [reference_no_nla(lossy_pdc_densities(
                  pdc, transmissivity_from_db(db), N_MAX)).total_logneg
              for db in (0.0, 5.0, 10.0, 20.0)]
    assert all(a > b for a, b in zip(values, values[1:]))
    assert values[0] == pytest.approx(2 * squeezing_from_db(5.0) / math.log(2),
                                      abs=1e-5)


def test_channel_accepts_spec_or_float():
    # 10 dB of attenuation is the transmissivity 0.1
    pdc = scenario1()
    via_spec = reference_no_nla(lossy_pdc_densities(
        pdc, transmissivity_from_db(10.0), N_MAX))
    via_eta = reference_no_nla(lossy_pdc_densities(pdc, 0.1, N_MAX))
    assert via_spec.total_logneg == pytest.approx(via_eta.total_logneg,
                                                  rel=1e-12)


# ---------------------------------------------------------------------------
# graded scoring kernel

SLICE_KINDS = ("lossy", "dense", "vacuum", "arm_b_vacuum", "trailing_zeros",
               "interior_zero")


def random_slice(kind, d_a, d_b, rng):
    """One (d_a, d_b) amplitude slice of the given shape class."""
    amp = np.zeros((d_a, d_b))
    if kind == "lossy":
        dim = max(d_a, d_b)
        r = rng.uniform(0, 1.5)
        source = lossy_pdc_densities(PdcSpec(np.array([r])), rng.uniform(0, 1),
                                     dim - 1, tail_tol=1.0)
        amp = source[0, :d_a, :d_b].copy()
    elif kind == "vacuum":
        amp[0, 0] = 1.0
    elif kind == "arm_b_vacuum":
        amp[:, 0] = rng.normal(size=d_a)
    elif kind == "trailing_zeros":
        cut = rng.integers(1, d_b + 1)
        amp[:, :cut] = rng.normal(size=(d_a, cut))
    else:
        amp = rng.normal(size=(d_a, d_b))
        if kind == "interior_zero":
            # the catalysis diagonal with N 2, T 1/2 is exactly 0 at n 1
            amp *= nla_diagonal("PC", 2, 0.5, d_b - 1)
    norm = np.linalg.norm(amp)
    return amp / norm if norm > 0.0 else amp


@settings(max_examples=200, deadline=None, derandomize=True)
@given(d_a=st.integers(1, 9), d_b=st.integers(1, 9),
       kinds=st.lists(st.sampled_from(SLICE_KINDS), min_size=1, max_size=5),
       seed=st.integers(0, 2 ** 32 - 1))
@example(d_a=7, d_b=6, kinds=list(SLICE_KINDS), seed=0)
@example(d_a=3, d_b=8, kinds=["interior_zero", "vacuum"], seed=1)
@example(d_a=5, d_b=1, kinds=["dense", "lossy"], seed=2)
def test_support_cut_kernel_matches_padded_kernel(d_a, d_b, kinds, seed):
    rng = np.random.default_rng(seed)
    amp = np.stack([random_slice(kind, d_a, d_b, rng) for kind in kinds])
    got = _log_negativities(amp)
    # zero rows or columns leave the state as it is, so the padded kernel
    # scores the stack embedded in a square one
    dim = max(d_a, d_b)
    square = np.zeros((len(kinds), dim, dim))
    square[:, :d_a, :d_b] = amp
    assert np.abs(got - padded_log_negativities(square)).max() <= 1e-13
    # arm B in vacuum: a product state, exactly +0.0 with no eigensolve
    product = ~amp[:, :, 1:].any(axis=(1, 2))
    assert np.all(got[product] == 0.0)
    assert not np.signbit(got[product]).any()
    for k in range(len(kinds)):
        assert abs(_log_negativities(amp[k:k + 1])[0] - got[k]) <= 1e-13


@settings(max_examples=200, deadline=None, derandomize=True)
@given(d_a=st.integers(1, 9), d_b=st.integers(1, 9),
       kinds=st.lists(st.sampled_from(SLICE_KINDS), min_size=1, max_size=5),
       seed=st.integers(0, 2 ** 32 - 1))
@example(d_a=2, d_b=9, kinds=["dense"], seed=3)
@example(d_a=9, d_b=2, kinds=["dense", "lossy"], seed=4)
def test_packed_blocks_hold_every_block_once(d_a, d_b, kinds, seed):
    # the d_A packed blocks are the direct sums of the d_A + d_B - 1 blocks
    # B_s, s mod d_A, on any stack: square or not, triangular or not
    rng = np.random.default_rng(seed)
    amp = np.stack([random_slice(kind, d_a, d_b, rng) for kind in kinds])
    blocks = _packed_blocks(amp, d_b)
    want = np.zeros_like(blocks)
    same = np.zeros(blocks.shape[1:], dtype=bool)
    for s in range(d_a + d_b - 1):
        rows = [j for j in range(d_b) if 0 <= s - j < d_a]
        for j in rows:
            for j2 in rows:
                want[:, s % d_a, j, j2] = amp[:, s - j, j2] * amp[:, s - j2, j]
                same[s % d_a, j, j2] = True
    assert np.array_equal(blocks, want)
    # partial-transpose Hermiticity, nothing across the mask, and the trace
    assert np.array_equal(blocks, blocks.swapaxes(-1, -2))
    assert not blocks[:, ~same].any()
    traces = np.linalg.eigvalsh(blocks).sum(axis=(1, 2))
    assert np.abs(traces - (amp ** 2).sum(axis=(1, 2))).max() <= 1e-13


@settings(max_examples=300, deadline=None, derandomize=True)
@given(r_db=st.floats(0.5, 8.0), n_max=st.integers(4, 40),
       channel_db=st.floats(0.0, 30.0), t=st.floats(0.01, 1.0))
@example(r_db=8.0, n_max=4, channel_db=0.0, t=1.0)
@example(r_db=8.0, n_max=40, channel_db=30.0, t=0.01)
@example(r_db=0.5, n_max=4, channel_db=0.0, t=0.01)
def test_gaussian_bystander_within_truncation_tail(r_db, n_max, channel_db, t):
    # an attenuated lossy TMSV slice, as unfiltered catalysis leaves a
    # bystander: the closed form is the graded kernel's n_max -> inf limit
    r, eta = squeezing_from_db(r_db), transmissivity_from_db(channel_db)
    lossy = lossy_pdc_densities(PdcSpec(np.array([r])), eta, n_max,
                                tail_tol=1.0)
    amp = lossy * attenuator_diagonal(t, n_max)
    amp /= np.linalg.norm(amp)
    tau = math.tanh(r) * math.sqrt(1 - eta + eta * t)
    got = _gaussian_log_negativities(amp)[0]
    assert got > 0.0
    assert abs(_log_negativities(amp)[0] - got) <= \
        gaussian_tail_bound(tau, n_max) + 1e-13


def test_gaussian_scores_product_slices_exactly_zero():
    # arm B in vacuum: a vacuum supermode, a channel that loses every photon
    # and a scissors bystander all score +0.0
    pdc = PdcSpec(0.5 * np.array([0.6, 0.8, 0.0]))
    lossy = lossy_pdc_densities(pdc, 0.0, N_MAX)
    projected = lossy_pdc_densities(pdc, 0.5, N_MAX) \
        * vacuum_projection_diagonal(N_MAX)
    got = _gaussian_log_negativities(np.concatenate([lossy, projected]))
    assert np.all(got == 0.0) and not np.signbit(got).any()


def test_eigensolve_covers_only_entangleable_support(monkeypatch):
    shapes = []
    eigvalsh = np.linalg.eigvalsh

    def spy(blocks):
        shapes.append(blocks.shape)
        return eigvalsh(blocks)

    monkeypatch.setattr(np.linalg, "eigvalsh", spy)
    lossy = lossy_pdc_densities(scenario1(), transmissivity_from_db(5.0),
                                N_MAX)
    # scissors with N 2 leave arm B of the amplified supermode 3 columns and
    # vacuum-project the four vacuum bystanders; a 21-row slice packs into
    # 21 blocks, whatever its width
    apply_strategy(lossy, "QS", 2, 0.1)
    assert shapes == [(1, 21, 3, 3)]
    shapes.clear()
    reference_no_nla(lossy)
    assert shapes == [(1, 21, 21, 21)]
    shapes.clear()
    # five equal supermodes: unfiltered catalysis eigensolves only the
    # amplified slice and scores the four attenuated bystanders in closed
    # form; filtered, the four untouched slices keep their full width and
    # are scored apart from the amplified one
    flat = lossy_pdc_densities(PdcSpec.from_scenario(3, 5.0),
                               transmissivity_from_db(5.0), N_MAX)
    apply_strategy(flat, "PC", 2, 0.1)
    assert shapes == [(1, 21, 21, 21)]
    shapes.clear()
    apply_strategy(flat, "PC", 2, 0.1, "filtered")
    assert shapes == [(4, 21, 21, 21), (1, 21, 21, 21)]
    shapes.clear()
    # an all-vacuum source needs no eigensolve at all
    vacuum = reference_no_nla(lossy_pdc_densities(scenario1(0.0), 1.0, N_MAX))
    assert shapes == []
    assert vacuum.total_logneg == 0.0


# ---------------------------------------------------------------------------
# strategies

def test_nlasim_distill_names_the_submodule():
    assert nlasim.distill is sys.modules["nlasim.distill"]


def test_success_prob_is_product_of_heralds():
    pdc = PdcSpec.from_scenario(2, 4.0, k_modes=3)
    lossy = lossy_pdc_densities(pdc, 1.0, N_MAX)
    res = apply_strategy(lossy, "PC", 1, 0.2, "unfiltered")
    probs = []
    for i, rho in enumerate(dense_source(pdc, 1.0, N_MAX)):
        op = nla_diagonal("PC", 1, 0.2, N_MAX) if i == 0 else \
            attenuator_diagonal(0.2, N_MAX)
        probs.append(apply_diagonal(rho, op).trace_value)
    assert res.success_prob == pytest.approx(np.prod(probs), rel=1e-12)


def test_filtered_strategy_leaves_other_supermodes_alone():
    pdc = PdcSpec.from_scenario(2, 4.0, k_modes=3)
    lossy = lossy_pdc_densities(pdc, transmissivity_from_db(2.0), N_MAX)
    filtered = apply_strategy(lossy, "QS", 2, 0.2, "filtered")
    unfiltered = apply_strategy(lossy, "QS", 2, 0.2, "unfiltered")
    # same amplified supermode either way
    assert filtered.per_supermode_logneg[0] == pytest.approx(
        unfiltered.per_supermode_logneg[0], rel=1e-12)
    # scissors herald destroys unfiltered bystanders, filter preserves them
    assert np.all(unfiltered.per_supermode_logneg[1:] == 0.0)
    dense = dense_source(pdc, transmissivity_from_db(2.0), N_MAX)
    want = [log_negativity(rho) for rho in dense[1:]]
    assert np.abs(filtered.per_supermode_logneg[1:] - want).max() < 1e-12


def test_unfiltered_catalysis_attenuates_bystanders():
    pdc = PdcSpec.from_scenario(2, 4.0, k_modes=3)
    lossy = lossy_pdc_densities(pdc, 1.0, N_MAX)
    res = apply_strategy(lossy, "PC", 2, 0.3, "unfiltered")
    bare = [log_negativity(rho) for rho in dense_source(pdc, 1.0, N_MAX)[1:]]
    assert np.all(res.per_supermode_logneg[1:] > 0.0)
    assert np.all(res.per_supermode_logneg[1:] < bare)


def test_single_supermode_lossless_catalysis_matches_pure_state_form():
    # a lossless scenario-1 source is the pure TMSV sum_n c_n |n, n>; PC on
    # arm B leaves sum_n a_n |n, n> with a_n = c_n d_n, whose log-negativity
    # is 2 log2(sum |a_n| / ||a||).  The four vacuum bystanders add nothing.
    pdc = scenario1()
    lossy = lossy_pdc_densities(pdc, 1.0, N_MAX)
    c = tmsv_schmidt(pdc.squeezings[0], N_MAX)
    got = {}
    for t in (0.03, 0.08, 0.2, 0.5):
        a = c * nla_diagonal("PC", 2, t, N_MAX)
        want = 2 * math.log2(np.abs(a).sum() / np.linalg.norm(a))
        got[t] = apply_strategy(lossy, "PC", 2, t).total_logneg
        assert abs(got[t] - want) <= 1e-12
    # local filtering raises the entanglement of this pure state: with one
    # active supermode PC beats the reference already at a lossless channel
    ref = reference_no_nla(lossy).total_logneg
    assert got[0.08] - ref == pytest.approx(0.31, abs=0.01)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(scenario=st.sampled_from((1, 2, 3)),
       r1_db=st.one_of(st.just(0.0), st.floats(0.0, 4.0)),
       k_modes=st.integers(1, 4),
       channel=st.one_of(st.just(0.0), st.just(1.0),
                         st.floats(0.0, 30.0).map(transmissivity_from_db)),
       kind=st.sampled_from(VALID_KINDS), n_units=st.integers(1, 3),
       t=st.floats(1e-3, 0.999),
       strategy=st.sampled_from(("unfiltered", "filtered")),
       data=st.data())
def test_graded_path_matches_dense_reference(scenario, r1_db, k_modes,
                                             channel, kind, n_units, t,
                                             strategy, data):
    amplified_index = data.draw(st.integers(1, k_modes))
    pdc = PdcSpec.from_scenario(scenario, r1_db, k_modes)
    nla = (kind, n_units, t)
    try:
        want, want_prob = dense_strategy(dense_source(pdc, channel, N_SMALL),
                                         nla, strategy, amplified_index)
    except ValueError as exc:       # truncation guard or vanished herald
        with pytest.raises(ValueError) as info:
            apply_strategy(lossy_pdc_densities(pdc, channel, N_SMALL), *nla,
                           strategy, amplified_index)
        assert type(info.value) is type(exc)
        return
    lossy = lossy_pdc_densities(pdc, channel, N_SMALL)
    got = apply_strategy(lossy, *nla, strategy, amplified_index)
    # unfiltered catalysis bystanders are scored in the n_max -> inf limit,
    # which the truncated dense state reaches up to its tail; every other
    # slice is scored on the truncated amplitudes, as the dense reference
    target = amplified_index - 1
    tail = np.zeros(k_modes)
    if strategy == "unfiltered" and kind != "QS":
        stages = n_units if kind == "CascadedPC" else 1
        tail = gaussian_tail_bound(
            np.tanh(pdc.squeezings)
            * np.sqrt(1 - channel + channel * t ** stages),
            N_SMALL)
        tail[target] = 0.0
    assert np.all(np.abs(got.per_supermode_logneg - want) <= 1e-13 + tail)
    assert abs(got.total_logneg - want.sum()) <= 1e-13 + tail.sum()
    assert abs(got.success_prob - want_prob) <= 1e-13 * want_prob
    assert 0.0 < got.success_prob <= 1.0
    # a vacuum bystander scores exactly 0 and multiplies the herald
    # probability by exactly 1: dropping it changes no bit
    keep = (pdc.squeezings != 0) | (np.arange(k_modes) == target)
    assert np.all(got.per_supermode_logneg[~keep] == 0.0)
    without = apply_strategy(lossy[keep], *nla, strategy,
                             int(keep[:target].sum()) + 1)
    assert without.success_prob == got.success_prob


def test_amplified_index_selects_supermode():
    pdc = PdcSpec.from_scenario(2, 4.0, k_modes=3)
    lossy = lossy_pdc_densities(pdc, 1.0, N_MAX)
    r1 = apply_strategy(lossy, "PC", 1, 0.15, "filtered",
                        amplified_index=1)
    r2 = apply_strategy(lossy, "PC", 1, 0.15, "filtered",
                        amplified_index=2)
    assert r1.per_supermode_logneg[0] != pytest.approx(
        r2.per_supermode_logneg[0], rel=1e-6)
    assert r2.per_supermode_logneg[0] == pytest.approx(
        log_negativity(dense_source(pdc, 1.0, N_MAX)[0]), rel=1e-12)


def test_scenario_validation():
    lossy = lossy_pdc_densities(scenario1(), transmissivity_from_db(5.0),
                                N_MAX)
    with pytest.raises(ValueError, match="strategy must be"):
        apply_strategy(lossy, "QS", 1, 0.5, "bogus")
    with pytest.raises(ValueError, match="amplified_index must lie in"):
        apply_strategy(lossy, "QS", 1, 0.5, "unfiltered",
                       amplified_index=6)


def test_apply_strategy_checks_the_amplifier_first():
    lossy = lossy_pdc_densities(scenario1(), transmissivity_from_db(5.0),
                                N_MAX)
    # an unknown kind used to fall through to the cascade branch
    with pytest.raises(ValueError, match="kind must be one of"):
        apply_strategy(lossy, "XX", 1, 0.5)
    # with a bad receiver too, the amplifier's error is the one reported
    with pytest.raises(ValueError, match="kind must be one of"):
        apply_strategy(lossy, "XX", 1, 0.5, "bogus")
    # a bad T reports the amplifier's (0, 1) rule, not the attenuator's
    for t in (0.0, 1.0):
        with pytest.raises(ValueError, match="strictly in"):
            apply_strategy(lossy, "PC", 1, t, "bogus", 6)


@pytest.mark.parametrize("strategy, amplified_index, message", (
    # at K = 3, index 0 used to amplify supermode 3 (row -1), index 4 to
    # raise a bare IndexError and "Filtered" to run the unfiltered receiver
    ("unfiltered", 0, "amplified_index must lie in"),
    ("unfiltered", 4, "amplified_index must lie in"),
    ("Filtered", 1, "strategy must be"),
    # 1.5 used to pass the range check and fail as a bare IndexError, and
    # True to amplify supermode 1
    ("unfiltered", 1.5, "amplified_index must be an integer"),
    ("filtered", True, "amplified_index must be an integer"),
    ("unfiltered", 2.0, "amplified_index must be an integer"),
))
def test_apply_strategy_validates_receiver(strategy, amplified_index,
                                           message):
    lossy = lossy_pdc_densities(PdcSpec.from_scenario(2, 4.0, k_modes=3),
                                1.0, N_MAX)
    with pytest.raises(ValueError, match=message):
        apply_strategy(lossy, "PC", 1, 0.15, strategy,
                       amplified_index)


@pytest.mark.parametrize("amplified_index", (1.5, True, False, 2.0, "1"))
def test_scenario_rejects_non_integer_index(amplified_index):
    # the same integer rule as the amplifier's unit count
    lossy = lossy_pdc_densities(scenario1(), transmissivity_from_db(5.0),
                                N_MAX)
    with pytest.raises(ValueError, match="amplified_index must be an integer"):
        apply_strategy(lossy, "QS", 1, 0.5, "unfiltered",
                       amplified_index=amplified_index)


def test_truncation_guard_on_source():
    with pytest.raises(TruncationError):
        lossy_pdc_densities(scenario1(), 1.0, 10)
    # the guards after the amplifier, on single-supermode stacks built to
    # trip them: a top bin as full as the peak, and a state the scissors
    # cannot pass
    flat = np.eye(N_SMALL + 1)[None] / math.sqrt(N_SMALL + 1)
    fock5 = np.zeros((1, N_SMALL + 1, N_SMALL + 1))
    fock5[0, 5, 5] = 1.0
    for amp, nla, error in ((flat, ("PC", 1, 0.9), TruncationError),
                            (fock5, ("QS", 1, 0.5), ValueError)):
        with pytest.raises(error, match="supermode 1"):
            apply_strategy(amp, *nla)
        dense = [BipartiteDensity(graded_density(amp[0]))]
        with pytest.raises(error):
            dense_strategy(dense, nla)


# ---------------------------------------------------------------------------
# batched scoring over T

def outcome(call):
    """``call()``, or the exception it raised."""
    try:
        return call()
    except (ValueError, ArithmeticError) as exc:
        return exc


def assert_same_failure(got, want):
    assert isinstance(want, Exception)
    assert type(got) is type(want) and str(got) == str(want)


# a transmissivity past the float range of two or more catalysis units, or
# outside (0, 1), and where it goes in the grid
BAD_T = st.one_of(st.none(), st.tuples(st.integers(0, 12),
                                       st.sampled_from((1e-300, 0.0, 1.5))))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(scenario=st.integers(1, 3), k_modes=st.integers(1, 4),
       r1_db=st.floats(0.0, 6.0), channel_db=st.floats(0.0, 20.0),
       n_max=st.integers(4, 14), kind=st.sampled_from(VALID_KINDS),
       n_units=st.integers(1, 3),
       strategy=st.sampled_from(("unfiltered", "filtered")),
       index=st.integers(1, 4),
       ts=st.lists(st.floats(1e-3, 0.999), min_size=1, max_size=12),
       bad=BAD_T,
       elements=st.sampled_from((1, 2000, 5000, distill._STACK_ELEMENTS)))
@example(scenario=2, k_modes=3, r1_db=5.0, channel_db=8.0, n_max=12,
         kind="PC", n_units=2, strategy="filtered", index=2,
         ts=[0.01 * (i + 1) for i in range(12)], bad=None, elements=5000)
def test_batched_scores_are_one_t_scores(scenario, k_modes, r1_db,
                                         channel_db, n_max, kind, n_units,
                                         strategy, index, ts, bad, elements):
    # each T's scores are bitwise apply_strategy's at that T, however the
    # grid is chunked (the stack budget sets the chunk: 1 T up to all 12);
    # a grid with a failing T raises what the first failing T raises alone,
    # so a guard beats a bad diagonal at a later T
    index = min(index, k_modes)
    if bad is not None:
        at = bad[0] % (len(ts) + 1)
        ts = ts[:at] + [bad[1]] + ts[at:]
    pdc = PdcSpec.from_scenario(scenario, r1_db, k_modes)
    # a truncated source, so that some T trip the guards after the amplifier
    lossy = lossy_pdc_densities(pdc, transmissivity_from_db(channel_db),
                                n_max, tail_tol=1.0)
    receiver = (strategy, index)
    with mock.patch.object(distill, "_STACK_ELEMENTS", elements):
        alone = [outcome(lambda: apply_strategy(lossy, kind, n_units, t,
                                                *receiver)) for t in ts]
        got = outcome(lambda: score_transmissivities(lossy, kind, n_units,
                                                     ts, *receiver))
    failures = [o for o in alone if isinstance(o, Exception)]
    if failures:
        assert_same_failure(got, failures[0])
        return
    assert len(got) == len(ts)
    for res, want in zip(got, alone):
        assert np.array_equal(res.per_supermode_logneg,
                              want.per_supermode_logneg)
        assert res.total_logneg == want.total_logneg
        assert res.success_prob == want.success_prob


def test_batched_guards_fire_in_grid_order():
    # the stacks of test_truncation_guard_on_source: the flat stack passes
    # catalysis at T 0.01 and overfills the top bin at 0.9; the scissors
    # never pass Fock state 5
    flat = np.eye(N_SMALL + 1)[None] / math.sqrt(N_SMALL + 1)
    fock5 = np.zeros((1, N_SMALL + 1, N_SMALL + 1))
    fock5[0, 5, 5] = 1.0
    # stack, kind, N, T in grid order, the first failing T and its message
    cases = (
        (flat, "PC", 1, [0.01, 0.9, 1.5], 1, "supermode 1 arm A: top-bin"),
        (flat, "PC", 1, [0.01, 1.5, 0.9], 1, "transmissivity must lie"),
        (flat, "PC", 2, [0.01, 0.9, 1e-300], 1, "supermode 1 arm A: top-bin"),
        (flat, "PC", 2, [0.01, 1e-300, 0.9], 1, "catalysis sum with N=2"),
        (fock5, "QS", 1, [0.5, 1.5], 0, "herald probability vanished"),
        (fock5, "QS", 1, [1.5, 0.5], 0, "transmissivity must lie"))
    for amp, kind, n_units, ts, first, message in cases:
        for t in ts[:first]:
            apply_strategy(amp, kind, n_units, t)
        want = outcome(lambda: apply_strategy(amp, kind, n_units, ts[first]))
        assert str(want).startswith(message)
        assert_same_failure(
            outcome(lambda: score_transmissivities(amp, kind, n_units, ts)),
            want)
    with pytest.raises(ValueError, match="transmissivities must be non-empty"):
        score_transmissivities(flat, "PC", 1, [])


@pytest.mark.parametrize("strategy", ("unfiltered", "filtered"))
def test_nan_herald_probability_is_screened(strategy):
    # a NaN amplitude leaves the herald probability NaN, which p <= 0 and
    # the top-bin ratio both pass; the screen flags it and the truncation
    # guard rejects its non-finite populations
    lossy = lossy_pdc_densities(scenario1(), transmissivity_from_db(8.0),
                                N_MAX)
    lossy[0, 1, 1] = math.nan
    for ts in ([0.3], [0.2, 0.3]):
        with pytest.raises(ValueError, match="^supermode 1 arm A: "
                                             "populations must be finite"):
            score_transmissivities(lossy, "QS", 1, ts, strategy)


@pytest.mark.parametrize("ratio", (1e-3, 1e-9))
def test_batched_screens_follow_the_guard_ratio(ratio):
    # the top-bin ratio changed in fock alone moves both batched screens
    # with the guard.  A distill grid (its worst T last) raises at the first
    # T where the dense reference fails, with apply_strategy's message
    # there; both amplify groups hold a row whose herald top bin passes
    # 1e-9, or 1e-6 but not 1e-3, at one grid T, and each row meets its
    # first failing one-T amplify_coherent
    pdc, eta = PdcSpec.from_scenario(1, 5.0, 3), transmissivity_from_db(8.0)
    lossy = lossy_pdc_densities(pdc, eta, 12, tail_tol=1.0)
    dense = [apply_loss(tmsv_density(r, 12, tail_tol=1.0), eta)
             for r in pdc.squeezings]
    ts = np.linspace(0.95, 0.05, 10)
    cfg = SweepConfig(grid_points=12)
    with mock.patch.object(fock, "_TOP_BIN_RATIO", ratio):
        failing = [t for t in ts if isinstance(outcome(
            lambda: dense_strategy(dense, ("PC", 1, t))), Exception)]
        assert bool(failing) == (ratio < 1e-6)
        got = outcome(lambda: score_transmissivities(lossy, "PC", 1, ts))
        if failing:
            assert_same_failure(got, outcome(
                lambda: apply_strategy(lossy, "PC", 1, failing[0])))
        else:
            assert len(got) == len(ts)
        for n_units in (2, 3):
            rows = [(0.1, 1.5), (0.05, 1.2)]
            outcomes = max_fidelity_profiles(rows, "PC", n_units, 4, cfg)
            for (alpha, gain), row in zip(rows, outcomes):
                one_t = [outcome(lambda: amplify_coherent(
                    alpha, "PC", n_units, t, 4, gain)) for t in cfg.t_grid]
                failures = [o for o in one_t if isinstance(o, Exception)]
                if failures:
                    assert_same_failure(row, failures[0])
                else:
                    assert isinstance(row, tuple)


# ---------------------------------------------------------------------------
# parallel vs cascaded catalysis

def cascade_compare(r, n_units, n_max):
    """Parallel then cascaded catalysis, each T-optimised on one lossless
    supermode pair: the two distill points of a cascade-compare row pair."""
    lossy = lossy_pdc_densities(PdcSpec(np.array([r])), 1.0, n_max)
    return tuple(maximize_total_logneg(lossy, kind, n_units)
                 for kind in ("PC", "CascadedPC"))


def test_cascade_compare_single_unit_arrangements_coincide():
    # one unit in series is one unit in parallel: the same circuit, and the
    # cascade is built from the parallel unit, so the numbers are equal;
    # the second point is the cascade-compare default (r_db 3, n_max 20)
    for r, n_max in ((0.3, 18), (squeezing_from_db(3.0), 20)):
        (t_par, par), (t_cas, cas) = cascade_compare(r, 1, n_max)
        assert par.total_logneg == cas.total_logneg
        assert par.success_prob == cas.success_prob
        assert t_par == t_cas


def test_cascade_compare_two_units_tradeoff():
    (t_par, par), (t_cas, cas) = cascade_compare(0.3, 2, 18)
    # splitting wins on entanglement, cascading on herald rate
    assert par.total_logneg > cas.total_logneg
    assert cas.success_prob > par.success_prob
    assert isinstance(t_par, float) and isinstance(t_cas, float)


def test_determinism_bitwise():
    pdc = scenario1()
    eta = transmissivity_from_db(8.0)
    a = apply_strategy(lossy_pdc_densities(pdc, eta, N_MAX), "QS", 2, 0.07)
    b = apply_strategy(lossy_pdc_densities(pdc, eta, N_MAX), "QS", 2, 0.07)
    assert a.total_logneg == b.total_logneg
    assert a.success_prob == b.success_prob


@pytest.mark.parametrize("call, message", [
    (lambda: scenario_lambdas(1, k_modes=0), "k_modes must be >= 1"),
    (lambda: lossy_pdc_densities(scenario1(), -0.1, N_SMALL),
     "eta must lie in [0, 1]"),
    (lambda: lossy_pdc_densities(scenario1(), 1.1, N_SMALL),
     "eta must lie in [0, 1]"),
], ids=["k-modes-0", "eta-below-0", "eta-above-1"])
def test_distill_guard_raises(call, message):
    with pytest.raises(ValueError, match=re.escape(message)) as raised:
        call()
    assert raised.type is ValueError
