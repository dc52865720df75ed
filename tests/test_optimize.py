"""Scalar sweeps, refinement, end-to-end optimisation."""

import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nlasim.distill import PdcSpec, apply_strategy, lossy_pdc_densities
from nlasim import fock, nla, optimize
from nlasim.fock import ChannelSpec, TruncationError, coherent_state
from nlasim.nla import VALID_KINDS, NlaSpec, amplify_coherent
from nlasim.optimize import (SweepConfig, max_fidelity_profile,
                             max_fidelity_profiles, maximize_over_T,
                             maximize_total_logneg)

FAST = SweepConfig(grid_points=40, refine_tolerance=1e-6)


def damped_waves(terms, damping):
    """Multi-peaked objective e^(-damping t) sum_k a_k sin(w_k t)."""
    def objective(t):
        return math.exp(-damping * t) * sum(a * math.sin(w * t)
                                            for a, w in terms)
    return objective


# (a_k, w_k) pairs: up to six peaks or so per unit of t
WAVES = st.lists(st.tuples(st.floats(-2.0, 2.0), st.floats(0.5, 60.0)),
                 min_size=1, max_size=6)
DAMPINGS = st.floats(0.0, 5.0)
SWEEP_CONFIGS = st.builds(SweepConfig, t_min=st.floats(1e-8, 0.4),
                          t_max=st.floats(0.6, 1.0 - 1e-8),
                          grid_points=st.integers(3, 80),
                          refine_tolerance=st.floats(1e-9, 1e-2))
# sum_k c_k sin(7 (k + 1) t) with six normal c_k
BUMPY = [(c, 7.0 * (k + 1))
         for k, c in enumerate(np.random.default_rng(3).normal(size=6))]


def test_sweep_config_validation():
    with pytest.raises(ValueError):
        SweepConfig(t_min=0.5, t_max=0.2)
    with pytest.raises(ValueError):
        SweepConfig(t_min=0.0)
    with pytest.raises(ValueError):
        SweepConfig(grid_points=2)
    with pytest.raises(ValueError):
        SweepConfig(refine_tolerance=0.0)
    # a non-finite tolerance would stop refinement after its first two points
    for tolerance in (math.nan, math.inf):
        with pytest.raises(ValueError):
            SweepConfig(refine_tolerance=tolerance)
    for grid_points in (10.0, 10.5):
        with pytest.raises(ValueError):
            SweepConfig(grid_points=grid_points)


def test_quadratic_peak_located():
    t_star, v_star = maximize_over_T(lambda t: -(t - 0.3) ** 2, FAST)
    assert abs(t_star - 0.3) < 1e-5
    assert v_star == pytest.approx(0.0, abs=1e-10)


def test_peak_on_boundary_cell():
    # optimum below the first interior grid point still gets refined
    cfg = SweepConfig(t_min=1e-4, grid_points=24, refine_tolerance=1e-7)
    t_star, _ = maximize_over_T(lambda t: -(t - 2e-3) ** 2, cfg)
    assert abs(t_star - 2e-3) < 1e-5


@settings(max_examples=100, deadline=None, derandomize=True)
@given(terms=WAVES, damping=DAMPINGS, cfg=SWEEP_CONFIGS)
@example(terms=BUMPY, damping=0.0,
         cfg=SweepConfig(grid_points=17, refine_tolerance=1e-3))
def test_returned_value_never_below_grid_samples(terms, damping, cfg):
    record = []
    t_star, v_star = maximize_over_T(damped_waves(terms, damping), cfg,
                                     record=record)
    # the whole coarse grid is sampled first, then the refinement
    grid = [t for t, _ in record[:cfg.grid_points]]
    assert grid == list(cfg.t_grid)
    assert v_star >= max(v for _, v in record)
    assert (t_star, v_star) in record


def _recorded(objective, record):
    def f(t):
        v = objective(t)
        record.append((t, v))
        return v
    return f


@settings(max_examples=50, deadline=None, derandomize=True)
@given(objectives=st.lists(st.tuples(WAVES, DAMPINGS), min_size=1,
                           max_size=4),
       cfg=SWEEP_CONFIGS, reverse=st.booleans())
def test_refine_on_grid_values_matches_maximize_over_T(objectives, cfg,
                                                       reverse):
    # the group search samples its rows' grids T-major and then refines each
    # row; refine must not care in which order the grid values were taken
    objectives = [damped_waves(terms, damping)
                  for terms, damping in objectives]
    grid = list(enumerate(cfg.t_grid))
    values = np.empty((len(objectives), len(grid)))
    for j, t in (grid[::-1] if reverse else grid):
        for k, objective in enumerate(objectives):
            values[k, j] = objective(t)
    for objective, row in zip(objectives, values):
        record, refined = [], []
        expected = maximize_over_T(objective, cfg, record=record)
        got = optimize.refine(_recorded(objective, refined), row, cfg)
        assert np.array(got).tobytes() == np.array(expected).tobytes()
        assert np.array(refined).tobytes() == \
            np.array(record[cfg.grid_points:]).tobytes()


def test_record_collects_all_evaluations():
    record = []
    maximize_over_T(lambda t: t * (1 - t), FAST, record=record)
    assert len(record) >= FAST.grid_points
    ts = [t for t, _ in record]
    assert min(ts) >= FAST.t_min and max(ts) <= FAST.t_max


def test_sweep_objective_trace_and_success():
    calls, record = [], []

    def objective(t):
        calls.append(t)
        return -(t - 0.4) ** 2

    t_star, v_star = maximize_over_T(objective, FAST, record=record)
    assert abs(t_star - 0.4) < 1e-5
    # every evaluation, in the order it was made, with its value
    assert [t for t, _ in record] == calls
    assert all(v == -(t - 0.4) ** 2 for t, v in record)
    assert len(record) >= FAST.grid_points
    assert (t_star, v_star) in record
    assert v_star == max(v for _, v in record)


def test_non_finite_objective_rejected():
    with pytest.raises(ValueError):
        maximize_over_T(lambda t: math.inf if t > 0.5 else t, FAST)


@pytest.mark.parametrize("tolerance", (1e-17, 1e-300))
def test_refinement_stops_below_float_resolution(tolerance):
    # near T = 0.3 adjacent floats are 5.6e-17 apart, so the bracket stops
    # shrinking before it reaches either tolerance; the objective raises
    # rather than let a search that never ends hang the test
    calls = []

    def objective(t):
        calls.append(t)
        if len(calls) > 10_000:
            raise RuntimeError("refinement did not stop")
        return -(t - 0.3) ** 2

    record = []
    cfg = SweepConfig(grid_points=10, refine_tolerance=tolerance)
    t_star, v_star = maximize_over_T(objective, cfg, record=record)
    assert abs(t_star - 0.3) < 1e-15
    assert v_star == max(v for _, v in record)


@settings(max_examples=50, deadline=None, derandomize=True)
@given(terms=WAVES, damping=DAMPINGS, cfg=SWEEP_CONFIGS)
@example(terms=[(1.0, 5.0)], damping=1.0, cfg=FAST)
def test_deterministic_bitwise(terms, damping, cfg):
    runs = []
    for _ in range(2):
        record = []
        best = maximize_over_T(damped_waves(terms, damping), cfg,
                               record=record)
        runs.append((best, record))
    assert runs[0] == runs[1]


@settings(max_examples=50, deadline=None, derandomize=True)
@given(terms=WAVES, damping=DAMPINGS, cfg=SWEEP_CONFIGS,
       k=st.integers(-8, 8))
@example(terms=BUMPY, damping=0.0,
         cfg=SweepConfig(grid_points=17, refine_tolerance=1e-3), k=-8)
def test_power_of_two_rescaling_keeps_the_optimum(terms, damping, cfg, k):
    # v -> 2^k v is exact and strictly increasing in binary floats, so the
    # search must make the same comparisons and land on the same T
    objective = damped_waves(terms, damping)
    scale = 2.0 ** k
    record, scaled_record = [], []
    t_star, v_star = maximize_over_T(objective, cfg, record=record)
    scaled = maximize_over_T(lambda t: scale * objective(t), cfg,
                             record=scaled_record)
    assert scaled == (t_star, scale * v_star)
    assert scaled_record == [(t, scale * v) for t, v in record]


# ---------------------------------------------------------------------------
# amplifier searches

def test_max_fidelity_profile_matches_direct_evaluation():
    cfg = SweepConfig(grid_points=40, refine_tolerance=1e-5)
    t_star, f_star, prob = max_fidelity_profile(0.2, 1.5, "QS", 1, 25, cfg)
    res = amplify_coherent(0.2, NlaSpec("QS", 1, t_star), 25, 1.5)
    assert f_star == pytest.approx(res.fidelity, rel=1e-12)
    assert prob == pytest.approx(res.success_prob, rel=1e-12)
    # the optimum sits near the gain-matched transmissivity for weak input
    assert abs(t_star - 1 / (1 + 1.5 ** 2)) < 0.05


# the search as first written, kept as the literal reference: one full
# amplify_coherent per T, then one more at the optimum
def reference_fidelity_profile(alpha, target_gain, kind, n_units, n_max=30,
                               config=None):
    def objective(t):
        return amplify_coherent(alpha, NlaSpec(kind, n_units, t), n_max,
                                target_gain).fidelity

    t_star, f_star = maximize_over_T(objective, config)
    res = amplify_coherent(alpha, NlaSpec(kind, n_units, t_star), n_max,
                           target_gain)
    return t_star, f_star, res.success_prob


def _bytes_or_guard(search):
    # a tripped guard counts as the same outcome only with the same type and
    # message
    try:
        return np.array(search()).tobytes()
    except (ValueError, OverflowError) as exc:
        return type(exc), str(exc)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(kind=st.sampled_from(VALID_KINDS), n_units=st.integers(1, 8),
       alpha=st.floats(0.05, 2.5), gain=st.floats(1.1, 2.0),
       n_max=st.integers(8, 40), grid_points=st.integers(3, 12))
# the amplify-grid benchmark shape: 48 grid points, n_max 30, eight units
@example(kind="PC", n_units=8, alpha=0.8786, gain=1.6282, n_max=30,
         grid_points=48)
@example(kind="QS", n_units=8, alpha=0.8786, gain=1.6282, n_max=30,
         grid_points=48)
def test_max_fidelity_profile_bitwise_equal_reference(kind, n_units, alpha,
                                                      gain, n_max,
                                                      grid_points):
    cfg = SweepConfig(grid_points=grid_points)
    args = (alpha, gain, kind, n_units, n_max, cfg)
    assert _bytes_or_guard(lambda: max_fidelity_profile(*args)) == \
        _bytes_or_guard(lambda: reference_fidelity_profile(*args))


def _raise_or_return(outcome):
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


@settings(max_examples=60, deadline=None, derandomize=True)
@given(kind=st.sampled_from(VALID_KINDS), n_units=st.integers(1, 8),
       alphas=st.lists(st.floats(0.05, 2.5), min_size=1, max_size=3),
       gains=st.lists(st.floats(1.1, 2.0), min_size=1, max_size=3),
       n_max=st.integers(8, 40), grid_points=st.integers(3, 12))
# rows that pass and rows that trip the input tail guard in one group
@example(kind="PC", n_units=3, alphas=[0.05, 2.5], gains=[1.5, 1.1],
         n_max=8, grid_points=12)
def test_max_fidelity_profiles_rows_bitwise_equal_reference(
        kind, n_units, alphas, gains, n_max, grid_points):
    # every row of a group, sharing its diagonals and heralds, gives the
    # bits or the guard that the literal reference gives for it alone
    cfg = SweepConfig(grid_points=grid_points)
    pairs = [(a, g) for a in alphas for g in gains]
    outcomes = max_fidelity_profiles(pairs, kind, n_units, n_max, cfg)
    assert len(outcomes) == len(pairs)
    for (alpha, gain), outcome in zip(pairs, outcomes):
        args = (alpha, gain, kind, n_units, n_max, cfg)
        assert _bytes_or_guard(lambda: _raise_or_return(outcome)) == \
            _bytes_or_guard(lambda: reference_fidelity_profile(*args))


def _spy_on_builds(monkeypatch):
    """Count coherent_state, nla_diagonal and _herald calls; collect each
    search's (t, value) record as one list in ``records``."""
    calls = Counter()

    def spy(name, original):
        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return counted

    for name, home in (("coherent_state", fock), ("nla_diagonal", nla),
                       ("_herald", nla)):
        original = getattr(home, name)
        for module in (fock, nla, optimize):
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, spy(name, original))
    records = []
    monkeypatch.setattr(optimize, "refine", _spy_on_refine(records))
    return calls, records


def _spy_on_refine(records):
    """optimize.refine that appends each search's record to ``records``: its
    grid (t, value) pairs, then its refinement evaluations."""
    search = optimize.refine

    def recorded(objective, values, config):
        records.append(list(zip(config.t_grid, values)))
        return search(_recorded(objective, records[-1]), values, config)
    return recorded


@pytest.mark.parametrize("kind", VALID_KINDS)
def test_max_fidelity_profile_builds_states_once(monkeypatch, kind):
    calls, records = _spy_on_builds(monkeypatch)
    states = {}
    for grid_points in (5, 50):
        calls.clear()
        records.clear()
        max_fidelity_profile(0.4, 1.5, kind, 3, 30,
                             SweepConfig(grid_points=grid_points))
        # the input and the target state, however many T are tried
        states[grid_points] = calls["coherent_state"]
        # one diagonal per distinct T evaluated; the optimum reuses its own
        (record,) = records
        assert calls["nla_diagonal"] == len({t for t, _ in record})
        assert calls["_herald"] == calls["nla_diagonal"]
        assert len(record) > grid_points
    assert states[5] == states[50] == 2


@pytest.mark.parametrize("kind", VALID_KINDS)
def test_max_fidelity_profiles_share_builds_across_the_group(monkeypatch,
                                                             kind):
    calls, records = _spy_on_builds(monkeypatch)
    alphas, gains, grid_points = (0.3, 0.6), (1.2, 1.5, 1.8), 20
    rows = [(a, g) for a in alphas for g in gains]
    outcomes = max_fidelity_profiles(rows, kind, 3, 30,
                                     SweepConfig(grid_points=grid_points))
    assert not any(isinstance(o, Exception) for o in outcomes)
    # one search per row, each sampling the whole grid before refining
    assert len(records) == len(rows)
    assert all(len(record) > grid_points for record in records)
    refines = sum(len(record) - grid_points for record in records)
    # one diagonal per grid T for the whole group and one herald step per
    # (alpha, grid T); each refinement builds its own
    assert calls["nla_diagonal"] == grid_points + refines
    assert calls["_herald"] == len(alphas) * grid_points + refines
    # one input per alpha and one target per (alpha, gain) row
    assert calls["coherent_state"] == len(alphas) + len(rows)


def _truncation_message(search):
    with pytest.raises(TruncationError) as info:
        search()
    return str(info.value)


def test_max_fidelity_profile_input_tail_guard():
    args = (2.5, 1.5, "QS", 1, 8)
    message = _truncation_message(lambda: max_fidelity_profile(*args))
    assert message == _truncation_message(
        lambda: reference_fidelity_profile(*args))
    assert message.startswith("coherent state |alpha|=2.5 ")


def test_max_fidelity_profile_output_guard_precedes_target_tail():
    # at T = 1e-4 three catalysis units lift |n> by about T^(-n/2) up to
    # n = 3, so at n_max 3 the output's top bin is its peak bin; the target
    # |-0.2> also loses more than 1e-8 beyond n_max 3, so only the check
    # order decides which guard speaks
    args = (0.1, 2.0, "PC", 3, 3)
    with pytest.raises(TruncationError):
        coherent_state(-0.2, 3)
    message = _truncation_message(lambda: max_fidelity_profile(*args))
    assert message == _truncation_message(
        lambda: reference_fidelity_profile(*args))
    assert message.startswith("amplified state: top-bin population ")


# ---------------------------------------------------------------------------
# distillation search

def test_maximize_total_logneg_consistent_with_distill():
    lossy = lossy_pdc_densities(PdcSpec.from_scenario(1, 5.0),
                                ChannelSpec(8.0), 20)
    cfg = SweepConfig(grid_points=24, refine_tolerance=1e-3)
    best = maximize_total_logneg(lossy, "QS", 2, config=cfg)
    assert best.optimal_t is not None
    redo = apply_strategy(lossy, NlaSpec("QS", 2, best.optimal_t))
    assert best.total_logneg == redo.total_logneg
    assert best.success_prob == redo.success_prob
    assert np.array_equal(best.per_supermode_logneg,
                          redo.per_supermode_logneg)


@pytest.mark.parametrize("t_min, t_max, optimum, r1_db", (
    pytest.param(1e-4, 0.3, "refined", 5.0, id="0.0001-0.3-refined"),
    pytest.param(0.5, 0.9999, "grid", 5.0, id="0.5-0.9999-grid"),
    # a few-ulp region: the 8-point grid holds 5 distinct floats
    pytest.param(0.05, 0.05 + 3e-17, "grid", 5.0, id="few-ulps-grid"),
    # a vacuum source scores 0.0 at every T
    pytest.param(0.2, 0.8, "grid", 0.0, id="flat-grid")))
def test_maximize_total_logneg_scores_each_t_once(monkeypatch, t_min, t_max,
                                                  optimum, r1_db):
    # the result at t_star is the one the search computed, not a rerun,
    # whether t_star is a refinement T or, above T = 0.5 where the log-
    # negativity rises to the region's edge, the grid's first maximum
    lossy = lossy_pdc_densities(PdcSpec.from_scenario(2, r1_db, k_modes=3),
                                ChannelSpec(8.0), 20)
    scored, records = [], []

    def spy_apply(lossy, nla, *receiver):
        scored.append(nla.transmissivity)
        return apply_strategy(lossy, nla, *receiver)

    monkeypatch.setattr(optimize, "apply_strategy", spy_apply)
    monkeypatch.setattr(optimize, "refine", _spy_on_refine(records))
    cfg = SweepConfig(t_min, t_max, grid_points=8, refine_tolerance=1e-3)
    best = maximize_total_logneg(lossy, "PC", 2, "filtered", 2, cfg)
    (record,) = records
    assert scored == [t for t, _ in record]
    on_grid = best.optimal_t in [float(t) for t in cfg.t_grid]
    assert on_grid == (optimum == "grid")
    assert (best.optimal_t, best.total_logneg) in record
    redo = apply_strategy(lossy, NlaSpec("PC", 2, best.optimal_t),
                          "filtered", 2)
    assert best.total_logneg == redo.total_logneg
    assert best.success_prob == redo.success_prob


def test_maximize_total_logneg_beats_fixed_choice():
    lossy = lossy_pdc_densities(PdcSpec.from_scenario(1, 5.0),
                                ChannelSpec(8.0), 20)
    cfg = SweepConfig(grid_points=24, refine_tolerance=1e-3)
    best = maximize_total_logneg(lossy, "QS", 2, config=cfg)
    fixed = apply_strategy(lossy, NlaSpec("QS", 2, 0.5))
    assert best.total_logneg >= fixed.total_logneg - 1e-12
