"""Scalar sweeps, refinement, end-to-end optimisation."""

import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nlasim.distill import (PdcSpec, apply_strategy, lossy_pdc_densities,
                            score_transmissivities)
from nlasim import fock, nla, optimize
from nlasim.fock import TruncationError, coherent_state, transmissivity_from_db
from nlasim.nla import VALID_KINDS, amplify_coherent
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
                          grid_points=st.integers(4, 80),
                          refine_tolerance=st.floats(1e-9, 1e-2))
# sum_k c_k sin(7 (k + 1) t) with six normal c_k
BUMPY = [(c, 7.0 * (k + 1))
         for k, c in enumerate(np.random.default_rng(3).normal(size=6))]


def _recorded(objective, record):
    def f(t):
        v = objective(t)
        record.append((t, v))
        return v
    return f


def test_sweep_config_validation():
    with pytest.raises(ValueError):
        SweepConfig(t_min=0.5, t_max=0.2)
    with pytest.raises(ValueError):
        SweepConfig(t_min=0.0)
    for grid_points in (2, 3, 100_001):
        with pytest.raises(ValueError, match="grid_points"):
            SweepConfig(grid_points=grid_points)
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
    t_star, v_star = maximize_over_T(
        _recorded(damped_waves(terms, damping), record), cfg)
    # the whole coarse grid is sampled first, then the refinement
    grid = [t for t, _ in record[:cfg.grid_points]]
    assert grid == list(cfg.t_grid)
    assert v_star >= max(v for _, v in record)
    assert (t_star, v_star) in record


@settings(max_examples=50, deadline=None, derandomize=True)
@given(objectives=st.lists(st.tuples(WAVES, DAMPINGS), min_size=1,
                           max_size=4),
       cfg=SWEEP_CONFIGS, reverse=st.booleans())
def test_refine_on_grid_values_matches_maximize_over_T(objectives, cfg,
                                                       reverse):
    # the group search scores its rows' grids in one batch and then refines
    # each row; refine must not care in which order the grid values were
    # taken
    objectives = [damped_waves(terms, damping)
                  for terms, damping in objectives]
    grid = list(enumerate(cfg.t_grid))
    values = np.empty((len(objectives), len(grid)))
    for j, t in (grid[::-1] if reverse else grid):
        for k, objective in enumerate(objectives):
            values[k, j] = objective(t)
    for objective, row in zip(objectives, values):
        record, refined = [], []
        expected = maximize_over_T(_recorded(objective, record), cfg)
        got = optimize.refine(_recorded(objective, refined), row, cfg)
        assert np.array(got).tobytes() == np.array(expected).tobytes()
        assert np.array(refined).tobytes() == \
            np.array(record[cfg.grid_points:]).tobytes()


# single-peak shapes, each maximal at t = c and strictly falling either side
PEAKS = {"abs^1.5": lambda t, c: -abs(t - c) ** 1.5,
         "quadratic": lambda t, c: -(t - c) ** 2,
         "quartic": lambda t, c: -(t - c) ** 4,
         "gaussian": lambda t, c: math.exp(-((t - c) / 0.05) ** 2)}


@settings(max_examples=100, deadline=None, derandomize=True)
@given(shape=st.sampled_from(sorted(PEAKS)),
       c=st.floats(0.01, 0.99),
       cfg=st.builds(SweepConfig, grid_points=st.integers(4, 80),
                     refine_tolerance=st.floats(1e-7, 1e-2)))
def test_single_peak_found_within_tolerance(shape, c, cfg):
    # the grid neighbours of the first grid maximum bracket a single peak,
    # and the bracket refine stops on is at most refine_tolerance wide
    t_star, _ = maximize_over_T(lambda t: PEAKS[shape](t, c), cfg)
    assert abs(t_star - c) <= cfg.refine_tolerance


@pytest.mark.parametrize("c, tolerance", ((0.3, 1e-6), (0.04, 1e-6),
                                          (0.77, 1e-4), (0.5, 1e-9)))
def test_quadratic_takes_fewer_calls_than_golden_section(c, tolerance):
    # golden-section shrinks the bracket by 0.618 a call; parabolic steps
    # land on a quadratic's peak in a few
    cfg = SweepConfig(grid_points=40, refine_tolerance=tolerance)
    ts = cfg.t_grid
    values = [-(t - c) ** 2 for t in ts]
    i = int(np.argmax(values))
    width = ts[i + 1] - ts[i - 1]
    golden = math.ceil(math.log(tolerance / width) / math.log(0.618)) + 1
    record = []
    t_star, _ = optimize.refine(
        _recorded(lambda t: -(t - c) ** 2, record), values, cfg)
    assert len(record) < golden
    assert abs(t_star - c) <= tolerance


def test_constant_objective_keeps_the_lowest_grid_t():
    assert maximize_over_T(lambda t: 0.25, FAST) == (FAST.t_min, 0.25)


@pytest.mark.parametrize("objective", (lambda t: t,
                                       lambda t: -(t - 1.5) ** 2))
def test_peak_at_t_max_returns_its_grid_value(objective):
    # the PC amplifier best switched off: refine evaluates inside the last
    # cell only, so the grid's own t_max sample wins
    t_star, v_star = maximize_over_T(objective, FAST)
    assert (t_star, v_star) == (FAST.t_max, objective(FAST.t_max))


def test_record_collects_all_evaluations():
    record = []
    maximize_over_T(_recorded(lambda t: t * (1 - t), record), FAST)
    assert len(record) >= FAST.grid_points
    ts = [t for t, _ in record]
    assert min(ts) >= FAST.t_min and max(ts) <= FAST.t_max


def test_sweep_objective_trace_and_success():
    calls, record = [], []

    def objective(t):
        calls.append(t)
        return -(t - 0.4) ** 2

    t_star, v_star = maximize_over_T(_recorded(objective, record), FAST)
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
    t_star, v_star = maximize_over_T(_recorded(objective, record), cfg)
    assert abs(t_star - 0.3) < 1e-15
    assert v_star == max(v for _, v in record)


@settings(max_examples=50, deadline=None, derandomize=True)
@given(terms=WAVES, damping=DAMPINGS, cfg=SWEEP_CONFIGS)
@example(terms=[(1.0, 5.0)], damping=1.0, cfg=FAST)
def test_deterministic_bitwise(terms, damping, cfg):
    runs = []
    for _ in range(2):
        record = []
        best = maximize_over_T(_recorded(damped_waves(terms, damping),
                                         record), cfg)
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
    t_star, v_star = maximize_over_T(_recorded(objective, record), cfg)
    scaled = maximize_over_T(
        _recorded(lambda t: scale * objective(t), scaled_record), cfg)
    assert scaled == (t_star, scale * v_star)
    assert scaled_record == [(t, scale * v) for t, v in record]


# ---------------------------------------------------------------------------
# amplifier searches

def test_max_fidelity_profile_matches_direct_evaluation():
    cfg = SweepConfig(grid_points=40, refine_tolerance=1e-5)
    t_star, f_star, prob = max_fidelity_profile(0.2, 1.5, "QS", 1, 25, cfg)
    res = amplify_coherent(0.2, "QS", 1, t_star, 25, 1.5)
    assert f_star == pytest.approx(res.fidelity, rel=1e-12)
    assert prob == pytest.approx(res.success_prob, rel=1e-12)
    # the optimum sits near the gain-matched transmissivity for weak input
    assert abs(t_star - 1 / (1 + 1.5 ** 2)) < 0.05


# the search as first written, kept as the literal reference: one full
# amplify_coherent per T, then one more at the optimum
def reference_fidelity_profile(alpha, target_gain, kind, n_units, n_max=30,
                               config=None):
    def objective(t):
        return amplify_coherent(alpha, kind, n_units, t, n_max,
                                target_gain).fidelity

    t_star, f_star = maximize_over_T(objective, config)
    res = amplify_coherent(alpha, kind, n_units, t_star, n_max,
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
       n_max=st.integers(8, 40), grid_points=st.integers(4, 12))
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


# rows whose catalysis sum leaves the float range at a tiny t_min and whose
# input loses its tail past n_max: the diagonal's guard trips first, as in
# amplify_coherent, alone and next to a row whose input passes
@pytest.mark.parametrize("alpha, gain, n_units, n_max, t_min, grid_points", (
    (2.5, 1.5, 3, 8, 1e-300, 4),
    (1.8365, 1.1194, 2, 8, 1e-200, 7),
    (2.2542, 1.1163, 7, 20, 1e-300, 8),
    (1.2752, 1.8293, 6, 8, 1e-200, 5),
))
def test_max_fidelity_profile_diagonal_guard_before_input_tail(
        alpha, gain, n_units, n_max, t_min, grid_points):
    cfg = SweepConfig(t_min=t_min, t_max=0.5, grid_points=grid_points)
    args = (alpha, gain, "PC", n_units, n_max, cfg)
    with pytest.raises(OverflowError, match="^catalysis sum with "
                                            f"N={n_units} units at T="):
        max_fidelity_profile(*args)
    want = _bytes_or_guard(lambda: reference_fidelity_profile(*args))
    assert _bytes_or_guard(lambda: max_fidelity_profile(*args)) == want
    outcomes = max_fidelity_profiles([(0.05, gain), (alpha, gain)], "PC",
                                     n_units, n_max, cfg)
    assert _bytes_or_guard(lambda: _raise_or_return(outcomes[1])) == want


def _raise_or_return(outcome):
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


@settings(max_examples=60, deadline=None, derandomize=True)
@given(kind=st.sampled_from(VALID_KINDS), n_units=st.integers(1, 8),
       alphas=st.lists(st.floats(0.05, 2.5), min_size=1, max_size=3),
       gains=st.lists(st.floats(1.1, 2.0), min_size=1, max_size=3),
       n_max=st.integers(8, 40), grid_points=st.integers(4, 12))
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
    """Count coherent_state, nla_diagonal and _herald calls, and as
    ``calls["grid _herald"]`` the _herald calls made before the first
    refine; collect each search's (t, value) record as one list in
    ``records``."""
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
    search = _spy_on_refine(records)

    def first_counted(*args):
        calls.setdefault("grid _herald", calls["_herald"])
        return search(*args)
    monkeypatch.setattr(optimize, "refine", first_counted)
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
        # one diagonal per distinct T evaluated, and one more for the
        # herald probability at the optimum
        (record,) = records
        assert calls["nla_diagonal"] == len({t for t, _ in record}) + 1
        # a clean grid is heralded in one batch, with no _herald call; each
        # refinement T makes one, and the optimum one more
        assert calls["grid _herald"] == 0
        assert calls["_herald"] == len(record) - grid_points + 1
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
    # one diagonal per grid T for the whole group, and no _herald call for
    # a clean grid; each refinement builds its own diagonal and makes one
    # _herald call, and each row one more at its optimum
    assert calls["nla_diagonal"] == grid_points + refines + len(rows)
    assert calls["grid _herald"] == 0
    assert calls["_herald"] == refines + len(rows)
    # one input per alpha and one target per (alpha, gain) row
    assert calls["coherent_state"] == len(alphas) + len(rows)


def _guarded(call):
    """call()'s result, which is not a tuple, or the (type, message) tuple of
    the guard it trips."""
    try:
        return call()
    except (ValueError, OverflowError) as exc:
        return type(exc), str(exc)


GROUPS = dict(kind=st.sampled_from(VALID_KINDS), n_units=st.integers(1, 8),
              alphas=st.lists(st.floats(0.05, 2.5), min_size=1, max_size=3),
              gains=st.lists(st.floats(1.1, 2.0), min_size=1, max_size=3),
              n_max=st.integers(8, 40), grid_points=st.integers(4, 12))


def _grid_examples(test):
    # the amplify-grid benchmark shape; rows that trip the input tail guard
    # next to rows that pass; a top bin that the herald guard rejects
    for kind in ("PC", "QS"):
        test = example(kind=kind, n_units=8, alphas=[0.8786], gains=[1.6282],
                       n_max=30, grid_points=48)(test)
    test = example(kind="PC", n_units=3, alphas=[0.05, 2.5], gains=[1.5, 1.1],
                   n_max=8, grid_points=12)(test)
    return example(kind="PC", n_units=3, alphas=[0.1, 0.05], gains=[2.0],
                   n_max=3, grid_points=12)(test)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(**GROUPS)
@_grid_examples
def test_batched_grid_equals_one_t_helper(kind, n_units, alphas, gains,
                                          n_max, grid_points):
    cfg = SweepConfig(grid_points=grid_points)
    diagonals = []
    for t in cfg.t_grid:
        diagonal = _guarded(lambda: nla.nla_diagonal(kind, n_units, t, n_max))
        if isinstance(diagonal, tuple):
            break
        diagonals.append(diagonal)
    inputs = [psi for psi in (_guarded(lambda: coherent_state(a, n_max))
                              for a in dict.fromkeys(alphas))
              if not isinstance(psi, tuple)]
    # each (grid T, alpha) herald probability is the one-T helper's, bitwise,
    # and the batch flags every (T, alpha) where the helper raises; a zero
    # target on each input leaves that flag as the herald's
    if diagonals and inputs:
        probs, _, suspect = nla._herald_grid(
            np.array(diagonals), np.array(inputs),
            np.zeros((len(inputs), 2, 2 * n_max + 2)), range(len(inputs)))
        for j, diagonal in enumerate(diagonals):
            for i, psi in enumerate(inputs):
                prob = _guarded(lambda: nla._herald(diagonal, psi)[1])
                if isinstance(prob, tuple):
                    assert suspect[j, i]
                else:
                    assert float(probs[j, i]).hex() == prob.hex()
    # each (grid T, row) fidelity that refine receives is the one-T
    # helper's, bitwise, and a row whose one-T helper raises on the grid
    # raises its type and message, at its first failing T
    rows = [(a, g) for a in alphas for g in gains]
    records = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(optimize, "refine", _spy_on_refine(records))
        outcomes = max_fidelity_profiles(rows, kind, n_units, n_max, cfg)
    records = iter(records)
    for (alpha, gain), outcome in zip(rows, outcomes):
        one_t = [_guarded(lambda: amplify_coherent(
            alpha, kind, n_units, t, n_max, gain).fidelity)
            for t in cfg.t_grid]
        failures = [f for f in one_t if isinstance(f, tuple)]
        if failures:
            assert (type(outcome), str(outcome)) == failures[0]
        else:
            grid = next(records)[:grid_points]
            assert [float(v).hex() for _, v in grid] == \
                [f.hex() for f in one_t]


@pytest.mark.parametrize("kind", VALID_KINDS)
@pytest.mark.parametrize("n_max", (-1, -3))
def test_max_fidelity_profiles_without_amplitudes_fail_row_by_row(kind,
                                                                 n_max):
    # below n_max 0 the diagonals are empty and no amplitude can be built:
    # each row is still an outcome, the one-T guard it meets alone
    cfg = SweepConfig(grid_points=5)
    rows = [(0.3, 1.5), (0.2, 1.2)]
    outcomes = max_fidelity_profiles(rows, kind, 2, n_max, cfg)
    for (alpha, gain), outcome in zip(rows, outcomes):
        with pytest.raises(Exception) as alone:
            amplify_coherent(alpha, kind, 2, cfg.t_min, n_max, gain)
        assert (type(outcome), str(outcome)) == (alone.type, str(alone.value))


def _spy_on_diagonals(monkeypatch):
    """Record the T of every nla_diagonal call, from optimize or nla."""
    built, original = [], nla.nla_diagonal

    def recorded(kind, n_units, t, n_max):
        built.append(t)
        return original(kind, n_units, t, n_max)
    for module in (nla, optimize):
        monkeypatch.setattr(module, "nla_diagonal", recorded)
    return built


def _one_t_failure(alpha, gain, kind, n_units, n_max, t):
    with pytest.raises(Exception) as alone:
        amplify_coherent(alpha, kind, n_units, t, n_max, gain)
    return alone.type, str(alone.value)


def test_max_fidelity_profiles_settle_dead_rows_before_the_grid(monkeypatch):
    # |6> and |7> lose their tails beyond n_max 30 at every T: each row is
    # its one-T outcome at t_min, and the group builds no grid diagonal
    cfg = SweepConfig(grid_points=48)
    rows = [(6.0, 1.5), (7.0, 1.5)]
    built = _spy_on_diagonals(monkeypatch)
    outcomes = max_fidelity_profiles(rows, "PC", 8, 30, cfg)
    assert len(built) <= len(rows)
    for (alpha, gain), outcome in zip(rows, outcomes):
        assert (type(outcome), str(outcome)) == _one_t_failure(
            alpha, gain, "PC", 8, 30, cfg.t_min)
        assert outcome.__traceback__ is None


def test_max_fidelity_profiles_dead_row_next_to_a_live_row(monkeypatch):
    # only the dead row calls amplify_coherent, once; the live row's grid,
    # refine and re-score run on its own input and target
    cfg = SweepConfig(grid_points=48)
    called = []
    monkeypatch.setattr(optimize, "amplify_coherent",
                        lambda *args: called.append(args) or
                        amplify_coherent(*args))
    dead, live = max_fidelity_profiles([(6.0, 1.5), (0.3, 1.5)], "PC", 8, 30,
                                       cfg)
    assert [args[0] for args in called] == [6.0]
    assert (type(dead), str(dead)) == _one_t_failure(6.0, 1.5, "PC", 8, 30,
                                                     cfg.t_min)
    alone = max_fidelity_profile(0.3, 1.5, "PC", 8, 30, cfg)
    assert np.array(live).tobytes() == np.array(alone).tobytes()


def test_max_fidelity_profiles_row_without_gain_has_no_float_fidelity():
    # no target is built without a gain, and amplify_coherent then reports
    # no fidelity: the row fails where its fidelity is read as a float
    (outcome,) = max_fidelity_profiles([(0.3, None)], "QS", 1, 10,
                                       SweepConfig(grid_points=8))
    with pytest.raises(TypeError) as alone:
        float(amplify_coherent(0.3, "QS", 1, 1e-4, 10).fidelity)
    assert (type(outcome), str(outcome)) == (alone.type, str(alone.value))


# the per-T arithmetic that the batched grid replaced, kept as the literal
# reference: a BLAS vdot norm, the overlap with the normalised output, and
# the guards in amplify_coherent's order
def literal_amplify(alpha, gain, kind, n_units, t, n_max):
    """[fidelity, herald probability, the fidelity's cancellation-free
    scale (sum_n |target_n unnorm_n|)^2 / prob]."""
    coeffs = nla.nla_diagonal(kind, n_units, t, n_max)
    unnorm = coeffs * coherent_state(alpha, n_max)
    prob = float(np.vdot(unnorm, unnorm).real)
    if prob <= 0.0:
        raise fock.NormalizationError(
            "herald has zero probability at these parameters")
    out = unnorm / math.sqrt(prob)
    if not np.isfinite(out.view(float)).all():
        raise ValueError("amps must be finite")
    nsq = float(np.vdot(out, out).real)
    if nsq > 1.0 + 1e-12:
        raise fock.NormalizationError(f"squared norm {nsq} exceeds 1")
    fock.guard_truncation(np.abs(out) ** 2, what="amplified state")
    sign = {"QS": 1.0, "PC": -1.0}.get(kind, (-1.0) ** n_units)
    target = coherent_state(sign * gain * alpha, n_max)
    scale = float(np.abs(target) @ np.abs(unnorm)) ** 2 / prob
    return [float(abs(np.vdot(target, out)) ** 2), prob, scale]


# round-off of two sums of at most 82 terms in different orders: measured at
# under 2 ulps of the probability and 8 of the fidelity's scale
PROB_ULPS, FIDELITY_ULPS = 4, 16


def _within_round_off(got, want):
    fidelity, prob, scale = want
    eps = np.finfo(float).eps
    return (abs(got[1] - prob) <= PROB_ULPS * eps * prob
            and abs(got[0] - fidelity) <= FIDELITY_ULPS * eps * scale)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(**GROUPS)
@_grid_examples
def test_batched_grid_within_round_off_of_literal_reference(
        kind, n_units, alphas, gains, n_max, grid_points):
    # every grid T and every row's optimum, against the literal per-T
    # arithmetic: the same guard, or values within round-off
    cfg = SweepConfig(grid_points=grid_points)
    rows = [(a, g) for a in alphas for g in gains]
    outcomes = max_fidelity_profiles(rows, kind, n_units, n_max, cfg)
    for (alpha, gain), outcome in zip(rows, outcomes):
        points = list(cfg.t_grid)
        if not isinstance(outcome, Exception):
            points.append(outcome[0])
        for t in points:
            want = _guarded(
                lambda: literal_amplify(alpha, gain, kind, n_units, t, n_max))
            res = _guarded(lambda: amplify_coherent(alpha, kind, n_units, t,
                                                    n_max, gain))
            if isinstance(want, tuple) or isinstance(res, tuple):
                assert res == want
            else:
                assert _within_round_off((res.fidelity, res.success_prob),
                                         want)
        if not isinstance(outcome, Exception):
            want = literal_amplify(alpha, gain, kind, n_units, outcome[0],
                                   n_max)
            assert _within_round_off(outcome[1:], want)


@pytest.mark.parametrize("phase", ("refine", "re-score"))
def test_max_fidelity_profiles_guard_after_the_grid(monkeypatch, phase):
    # every grid T passes; the guard trips at the first refinement T, or
    # only at the re-score of t_star once refine has returned
    cfg = SweepConfig(grid_points=12, refine_tolerance=1e-3)
    grid = {float(t) for t in cfg.t_grid}
    search, returned = optimize.refine, []

    def recorded(*args):
        returned.append(False)
        result = search(*args)
        returned[-1] = True
        return result

    def guarded(kind, n_units, t, n_max):
        if phase == "refine" and float(t) not in grid or (
                phase == "re-score" and returned and returned[-1]):
            raise TruncationError(f"off-grid T={t}")
        return nla.nla_diagonal(kind, n_units, t, n_max)

    monkeypatch.setattr(optimize, "nla_diagonal", guarded)
    monkeypatch.setattr(optimize, "refine", recorded)
    rows = [(0.3, 1.2), (0.6, 1.5)]
    outcomes = max_fidelity_profiles(rows, "QS", 2, 20, cfg)
    assert returned == [phase == "re-score"] * len(rows)
    assert all(isinstance(o, TruncationError) for o in outcomes)
    assert all(o.__traceback__ is None for o in outcomes)
    assert all(str(o).startswith("off-grid T=") for o in outcomes)
    with pytest.raises(TruncationError, match="off-grid T="):
        max_fidelity_profile(0.3, 1.2, "QS", 2, 20, cfg)


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
                                transmissivity_from_db(8.0), 20)
    cfg = SweepConfig(grid_points=24, refine_tolerance=1e-3)
    t_star, best = maximize_total_logneg(lossy, "QS", 2, config=cfg)
    redo = apply_strategy(lossy, "QS", 2, t_star)
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
    # each T the search tries is scored once, and t_star once more for the
    # result, whether t_star is a refinement T or, above T = 0.5 where the
    # log-negativity rises to the region's edge, the grid's first maximum;
    # the grid takes one batched call
    lossy = lossy_pdc_densities(PdcSpec.from_scenario(2, r1_db, k_modes=3),
                                transmissivity_from_db(8.0), 20)
    scored, batches, records = [], [], []

    def spy_apply(lossy, kind, n_units, t, *receiver):
        scored.append(t)
        return apply_strategy(lossy, kind, n_units, t, *receiver)

    def spy_batch(lossy, kind, n_units, ts, *receiver):
        scored.extend(ts)
        batches.append(len(ts))
        return score_transmissivities(lossy, kind, n_units, ts, *receiver)

    monkeypatch.setattr(optimize, "apply_strategy", spy_apply)
    monkeypatch.setattr(optimize, "score_transmissivities", spy_batch)
    monkeypatch.setattr(optimize, "refine", _spy_on_refine(records))
    cfg = SweepConfig(t_min, t_max, grid_points=8, refine_tolerance=1e-3)
    t_star, best = maximize_total_logneg(lossy, "PC", 2, "filtered", 2, cfg)
    (record,) = records
    assert batches == [8]
    assert scored == [t for t, _ in record] + [t_star]
    on_grid = t_star in [float(t) for t in cfg.t_grid]
    assert on_grid == (optimum == "grid")
    assert (t_star, best.total_logneg) in record
    redo = apply_strategy(lossy, "PC", 2, t_star, "filtered", 2)
    assert best.total_logneg == redo.total_logneg
    assert best.success_prob == redo.success_prob
    assert np.array_equal(best.per_supermode_logneg,
                          redo.per_supermode_logneg)


def test_maximize_total_logneg_beats_fixed_choice():
    lossy = lossy_pdc_densities(PdcSpec.from_scenario(1, 5.0),
                                transmissivity_from_db(8.0), 20)
    cfg = SweepConfig(grid_points=24, refine_tolerance=1e-3)
    _, best = maximize_total_logneg(lossy, "QS", 2, config=cfg)
    fixed = apply_strategy(lossy, "QS", 2, 0.5)
    assert best.total_logneg >= fixed.total_logneg - 1e-12
