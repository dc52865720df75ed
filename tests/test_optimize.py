"""Scalar sweeps, refinement, end-to-end optimisation."""

import math

import numpy as np
import pytest

from nlasim.distill import (DistillScenario, PdcSpec, distill,
                            lossy_pdc_densities)
from nlasim.fock import ChannelSpec
from nlasim.nla import NlaSpec, amplify_coherent
from nlasim.optimize import (SweepConfig, max_fidelity_profile,
                             maximize_over_T, maximize_total_logneg)

FAST = SweepConfig(grid_points=40, refine_tolerance=1e-6)


def test_sweep_config_validation():
    with pytest.raises(ValueError):
        SweepConfig(t_min=0.5, t_max=0.2)
    with pytest.raises(ValueError):
        SweepConfig(t_min=0.0)
    with pytest.raises(ValueError):
        SweepConfig(grid_points=2)
    with pytest.raises(ValueError):
        SweepConfig(refine_tolerance=0.0)


def test_quadratic_peak_located():
    t_star, v_star = maximize_over_T(lambda t: -(t - 0.3) ** 2, FAST)
    assert abs(t_star - 0.3) < 1e-5
    assert v_star == pytest.approx(0.0, abs=1e-10)


def test_peak_on_boundary_cell():
    # optimum below the first interior grid point still gets refined
    cfg = SweepConfig(t_min=1e-4, grid_points=24, refine_tolerance=1e-7)
    t_star, _ = maximize_over_T(lambda t: -(t - 2e-3) ** 2, cfg)
    assert abs(t_star - 2e-3) < 1e-5


def test_returned_value_never_below_grid_samples():
    cfg = SweepConfig(grid_points=17, refine_tolerance=1e-3)
    rng = np.random.default_rng(3)
    coeffs = rng.normal(size=6)

    def bumpy(t):
        return sum(c * math.sin((k + 1) * 7 * t) for k, c in
                   enumerate(coeffs))

    t_star, v_star = maximize_over_T(bumpy, cfg)
    ts = np.linspace(cfg.t_min, cfg.t_max, cfg.grid_points)
    assert v_star >= max(bumpy(t) for t in ts) - 1e-15


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


def test_deterministic_bitwise():
    f = lambda t: math.sin(5 * t) * math.exp(-t)
    a = maximize_over_T(f, FAST)
    b = maximize_over_T(f, FAST)
    assert a == b


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


# ---------------------------------------------------------------------------
# distillation search

def test_maximize_total_logneg_consistent_with_distill():
    pdc = PdcSpec.from_scenario(1, 5.0)
    sc = DistillScenario(pdc, ChannelSpec(8.0), NlaSpec("QS", 2, 0.5))
    cfg = SweepConfig(grid_points=24, refine_tolerance=1e-3)
    best = maximize_total_logneg(
        sc, lossy_pdc_densities(sc.pdc, sc.channel, 20), cfg)
    assert best.optimal_t is not None
    redo = distill(DistillScenario(pdc, ChannelSpec(8.0),
                                   NlaSpec("QS", 2, best.optimal_t)), 20)
    assert best.total_logneg == pytest.approx(redo.total_logneg, rel=1e-12)
    assert best.success_prob == pytest.approx(redo.success_prob, rel=1e-12)


def test_maximize_total_logneg_beats_fixed_choice():
    pdc = PdcSpec.from_scenario(1, 5.0)
    sc = DistillScenario(pdc, ChannelSpec(8.0), NlaSpec("QS", 2, 0.5))
    cfg = SweepConfig(grid_points=24, refine_tolerance=1e-3)
    best = maximize_total_logneg(
        sc, lossy_pdc_densities(sc.pdc, sc.channel, 20), cfg)
    fixed = distill(sc, 20)
    assert best.total_logneg >= fixed.total_logneg - 1e-12
