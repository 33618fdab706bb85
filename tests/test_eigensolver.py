"""Bound-state solver tests against frozen values and independent oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.integrate import simpson

from cqwsim import (
    DomainError,
    InfeasibleDesignError,
    NumericError,
    ValidationError,
    WellParams,
    bisect_root,
    composite_grid,
    count_levels,
    count_nodes,
    design_alignment,
    evaluate_wave,
    sample_wavefunction,
    solve_bound_states,
    transcendental_residual,
)
from cqwsim import eigensolver
from cqwsim.eigensolver import ENERGY_TOL

FINITE = WellParams(50.0, 0.0, 5.0, 1.0)
DEEP = WellParams(1e4, 0.0, 0.0, 1.0)

# solver output at the frozen finite case, matched against the shooting
# oracle at 1e-3 relative before freezing
FINITE_ENERGIES = [5.868294994595, 22.629127696056, 44.743119329798]
DEEP_E0 = 9.486296791402225
DEEP_E1 = 37.944479882670585


def direct_residual(v1, b, d, energy):
    # independent scalar evaluation of the phase mismatch
    k = math.sqrt(energy)
    nu = math.sqrt(v1 - energy)
    delta = math.sqrt(v1 - b - energy)
    return k * d - math.atan(nu / k) - math.atan(delta / k)


def test_well_params_validation():
    with pytest.raises(DomainError):
        WellParams(50.0, 0.0, 5.0, -1.0)
    with pytest.raises(DomainError):
        WellParams(0.0, 1.0, 0.0, 1.0)
    with pytest.raises(DomainError):
        WellParams(50.0, 0.0, -2.0, 1.0)
    with pytest.raises(DomainError):
        WellParams(50.0, 10.0, 41.0, 1.0)  # floor above the lowered barrier
    with pytest.raises(DomainError):
        WellParams(50.0, 0.0, 5.0, 1.0, period=0.5)  # period must exceed width


def test_residual_matches_direct_evaluation():
    res, branch = transcendental_residual(FINITE, 5.0)
    assert branch == 0
    assert res == pytest.approx(direct_residual(50.0, 5.0, 1.0, 5.0), abs=1e-12)
    assert res == pytest.approx(-0.24393721223923936, abs=1e-12)


def test_residual_branch_index_tracks_phase():
    for e in (10.0, 25.0, 40.0):
        res, branch = transcendental_residual(FINITE, e)
        total = direct_residual(50.0, 5.0, 1.0, e)
        assert res == pytest.approx(total - branch * math.pi, abs=1e-12)
        assert abs(res) <= math.pi / 2 + 1e-12


def test_residual_window_domain_errors():
    with pytest.raises(DomainError):
        transcendental_residual(FINITE, 0.0)
    with pytest.raises(DomainError):
        transcendental_residual(FINITE, 45.0)
    with pytest.raises(DomainError):
        transcendental_residual(FINITE, 60.0)


def test_residual_infinite_well_limit_converges():
    # at fixed E the finite-depth phase offset scales as 2 sqrt(E/v1), so
    # the infinite-well values pi^2 and 4 pi^2 become near-roots only once
    # the well is deep enough
    very_deep = WellParams(1e6, 0.0, 0.0, 1.0)
    r0, n0 = transcendental_residual(very_deep, math.pi**2)
    r1, n1 = transcendental_residual(very_deep, 4 * math.pi**2)
    assert n0 == 0 and abs(r0) < 1e-2
    assert n1 == 1 and abs(r1) < 5e-2
    r0_shallow, _ = transcendental_residual(DEEP, math.pi**2)
    assert abs(r0_shallow) > abs(r0)
    assert r0_shallow == pytest.approx(2 * math.pi / math.sqrt(1e4), rel=2e-3)


def test_bisect_root_cosine():
    root = bisect_root(math.cos, 1.0, 2.0, 1e-12)
    assert root == pytest.approx(math.pi / 2, abs=1e-11)


def test_bisect_root_requires_bracket():
    with pytest.raises(NumericError):
        bisect_root(lambda x: x * x + 1.0, -1.0, 1.0, 1e-12)


def test_finite_well_frozen_energies():
    states = solve_bound_states(FINITE)
    assert len(states) == 3
    for state, expected in zip(states, FINITE_ENERGIES):
        assert state.energy == pytest.approx(expected, abs=1e-9)
    energies = [s.energy for s in states]
    assert energies == sorted(energies)
    assert [s.index for s in states] == [0, 1, 2]


def test_finite_well_against_shooting_oracle(numerov_finite):
    states = solve_bound_states(FINITE)
    assert len(numerov_finite) >= len(states)
    for state, ref in zip(states, numerov_finite):
        assert abs(state.energy - ref) / abs(ref) < 1e-3


def test_deep_well_frozen_energies(numerov_deep):
    states = solve_bound_states(DEEP)
    assert states[0].energy == pytest.approx(DEEP_E0, abs=1e-9)
    assert states[1].energy == pytest.approx(DEEP_E1, abs=1e-9)
    # shooting oracle agrees on the same well
    assert abs(states[0].energy - numerov_deep[0]) / numerov_deep[0] < 1e-3
    assert abs(states[1].energy - numerov_deep[1]) / numerov_deep[1] < 1e-3


def test_deep_well_finite_depth_shift():
    from oracles import hard_wall_with_penetration

    # E_n sits below the hard-wall value (n+1)^2 pi^2 by the barrier
    # penetration correction: E_n ~ (n+1)^2 pi^2 / (d + 2/sqrt(v1))^2
    # (oracles.hard_wall_with_penetration), ~ 4 E_n / (d sqrt(v1)) below;
    # at v1 = 1e4 that is a few percent, shrinking as the well deepens
    states = solve_bound_states(DEEP)
    rel0 = (math.pi**2 - states[0].energy) / math.pi**2
    rel1 = (4 * math.pi**2 - states[1].energy) / (4 * math.pi**2)
    assert 0.02 < rel0 < 0.06
    assert 0.02 < rel1 < 0.06
    deeper = solve_bound_states(WellParams(2e5, 0.0, 0.0, 1.0))
    assert abs(deeper[0].energy - math.pi**2) / math.pi**2 < 0.01
    assert abs(deeper[1].energy - 4 * math.pi**2) / (4 * math.pi**2) < 0.01
    # the corrected limit itself holds to its O(v1^-1.5) remainder
    for v1, levels in ((1e4, states), (2e5, deeper)):
        for n in (0, 1):
            ref = hard_wall_with_penetration(n, v1, 1.0)
            assert abs(levels[n].energy - ref) / ref < 1e-4


def test_global_potential_shift_invariance():
    shift = 7.5
    base = solve_bound_states(FINITE)
    moved = solve_bound_states(WellParams(50.0 + shift, shift, 5.0, 1.0))
    assert len(base) == len(moved)
    for s0, s1 in zip(base, moved):
        assert s1.energy - shift == pytest.approx(s0.energy, abs=1e-8)


def test_solver_determinism_bitwise():
    a = [s.energy for s in solve_bound_states(FINITE)]
    b = [s.energy for s in solve_bound_states(FINITE)]
    assert a == b  # exact float equality


def test_shallow_narrow_well_holds_no_level():
    # the phase rises from -pi at the floor to only about -0.98 at the
    # window top, so it never reaches zero
    params = WellParams(2.0, 0.0, 1.5, 0.1)
    assert count_levels(params) == 0
    assert solve_bound_states(params) == []


def test_weakly_bound_level_near_window_top():
    # kappa d at the window top is pi + 1e-5, so a second level exists,
    # bound by only ~1.5e-9 below v1 = 60
    d = (math.pi + 1e-5) / math.sqrt(60.0)
    params = WellParams(60.0, 0.0, 0.0, d)
    assert count_levels(params) == 2
    states = solve_bound_states(params)
    assert [s.index for s in states] == [0, 1]
    assert 60.0 - 2e-9 < states[1].energy < 60.0 - 1e-9
    # the independent phase evaluation crosses pi inside that interval
    assert direct_residual(60.0, 0.0, d, 60.0 - 2e-9) < math.pi
    assert direct_residual(60.0, 0.0, d, 60.0 - 1e-9) > math.pi


def phase_slope(params, energy):
    # d/dE of kappa d - atan(nu/kappa) - atan(delta/kappa)
    kappa = math.sqrt(energy - params.v2)
    nu = math.sqrt(params.v1 - energy)
    delta = math.sqrt(params.v1 - params.b - energy)
    return (params.d + 1.0 / nu + 1.0 / delta) / (2.0 * kappa)


WELL_FLOOR = st.floats(-50.0, 50.0)
WELL_DEPTH = st.floats(0.5, 500.0)
WELL_WIDTH = st.floats(0.05, 3.0)


@settings(max_examples=200, deadline=None)
@given(v2=WELL_FLOOR, depth=WELL_DEPTH, d=WELL_WIDTH)
def test_unbiased_count_is_textbook(v2, depth, d):
    v1 = v2 + depth
    assert count_levels(WellParams(v1, v2, 0.0, d)) == math.ceil(
        d * math.sqrt(v1 - v2) / math.pi
    )


@settings(max_examples=200, deadline=None)
@given(
    v2=WELL_FLOOR, depth=WELL_DEPTH, d=WELL_WIDTH,
    bias_fraction=st.floats(0.0, 0.99),
)
def test_levels_sit_in_hard_wall_brackets(v2, depth, d, bias_fraction):
    params = WellParams(v2 + depth, v2, bias_fraction * depth, d)
    states = solve_bound_states(params)
    assert [s.index for s in states] == list(range(count_levels(params)))
    for state in states:
        n = state.index
        assert n * math.pi < math.sqrt(state.energy - v2) * d < (n + 1) * math.pi
        residual, branch = transcendental_residual(params, state.energy)
        assert branch == n
        # the bisection fixes the energy to ENERGY_TOL; only a level within
        # ~1e-8 of the window top has a phase slope steep enough for that to
        # exceed 1e-9 in phase
        assert abs(residual) <= max(1e-9, phase_slope(params, state.energy) * ENERGY_TOL)


SAMPLES = st.floats(-1e3, 1e3)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), pairs=st.integers(1, 150), odd=st.booleans(), uniform=st.booleans())
def test_simpson_is_bitwise_scipy(data, pairs, odd, uniform):
    n = 2 * pairs + (1 if odd else 2)
    y = data.draw(arrays(np.float64, n, elements=SAMPLES))
    start = data.draw(st.floats(-10.0, 10.0))
    if uniform:
        x = np.linspace(start, start + data.draw(st.floats(1e-2, 100.0)), n)
    else:
        gaps = data.draw(arrays(np.float64, n - 1, elements=st.floats(1e-3, 10.0)))
        x = start + np.concatenate(([0.0], np.cumsum(gaps)))
    assert eigensolver.simpson(y, x) == float(simpson(y, x=x))


@pytest.mark.parametrize("n_points", [10_000, 10_001])
def test_simpson_is_bitwise_scipy_on_composite_grid(n_points):
    states = solve_bound_states(FINITE)
    x = composite_grid(FINITE, states, n_points=n_points)
    for f in (evaluate_wave(states[0], x) ** 2, evaluate_wave(states[0], x) * x):
        assert eigensolver.simpson(f, x) == float(simpson(f, x=x))


def test_count_levels_matches_solver():
    for params in (FINITE, DEEP, WellParams(60.0, 0.0, 17.0, 1.0)):
        assert count_levels(params) == len(solve_bound_states(params))
    assert count_levels(DEEP) >= 2


def test_wave_continuity_at_region_boundaries():
    for state in solve_bound_states(FINITE):
        w = state.wave
        h = 1e-9
        for edge in (0.0, w.width):
            left = float(evaluate_wave(state, [edge - h])[0])
            right = float(evaluate_wave(state, [edge + h])[0])
            assert left == pytest.approx(right, abs=1e-6)
        # first derivative via one-sided differences on both sides
        h = 1e-7
        for edge in (0.0, w.width):
            grid = np.array([edge - 2 * h, edge - h, edge + h, edge + 2 * h])
            psi = evaluate_wave(state, grid)
            slope_l = (psi[1] - psi[0]) / h
            slope_r = (psi[3] - psi[2]) / h
            assert slope_l == pytest.approx(slope_r, abs=1e-3)


def test_wave_normalization_and_nodes():
    states = solve_bound_states(FINITE)
    grid = composite_grid(FINITE, states)
    for state, nodes in zip(states, (0, 1, 2)):
        x, psi = sample_wavefunction(state, grid)
        assert float(simpson(psi * psi, x=x)) == pytest.approx(1.0, abs=1e-6)
        assert count_nodes(psi) == nodes


def test_wave_orthogonality():
    states = solve_bound_states(FINITE)
    x = composite_grid(FINITE, states)
    for i in range(len(states)):
        for j in range(i + 1, len(states)):
            pi_ = evaluate_wave(states[i], x)
            pj = evaluate_wave(states[j], x)
            assert abs(float(simpson(pi_ * pj, x=x))) < 1e-6


def test_sample_wavefunction_rejects_bad_grids():
    state = solve_bound_states(FINITE)[0]
    with pytest.raises(ValidationError):
        sample_wavefunction(state, np.linspace(-0.5, 1.5, 5000))  # short tails
    with pytest.raises(ValidationError):
        sample_wavefunction(state, np.linspace(-6.0, 7.0, 250))  # too coarse
    with pytest.raises(ValidationError):
        sample_wavefunction(state, np.linspace(7.0, -6.0, 5000))  # descending


def test_design_alignment_frozen_case(aligned_design):
    # dense-scan oracle over the bias range put the root at 17.039989831713,
    # 2.4e-11 from the bisection answer
    assert aligned_design.bias == pytest.approx(17.039989831713026, abs=1e-6)
    assert abs(aligned_design.residual) < 1e-9
    e0, e1 = (s.energy for s in aligned_design.levels)
    assert e1 - e0 == pytest.approx(aligned_design.bias, abs=1e-9)


def test_design_two_level_postcondition(aligned_design):
    params = WellParams(60.0, 0.0, aligned_design.bias, 1.0)
    assert count_levels(params) == 2
    resolved = solve_bound_states(params)
    # determinism: re-solving at the returned bias reproduces the levels
    assert [s.energy for s in resolved] == [s.energy for s in aligned_design.levels]


def test_design_shift_identity(aligned_design):
    b = aligned_design.bias
    shifted = solve_bound_states(WellParams(60.0 - b, -b, b, 1.0))
    for orig, moved in zip(aligned_design.levels, shifted):
        assert moved.energy == pytest.approx(orig.energy - b, abs=1e-8)


def test_design_infeasible_cases():
    # wide well: the only alignment root leaves five bound levels
    with pytest.raises(InfeasibleDesignError):
        design_alignment(50.0, 0.0, 2.0)
    # well too shallow to ever hold two levels
    with pytest.raises(InfeasibleDesignError):
        design_alignment(0.5, 0.0, 0.1)


def test_design_rejects_bad_inputs():
    with pytest.raises(DomainError):
        design_alignment(60.0, 0.0, 1.0, tol=0.0)
    with pytest.raises(DomainError):
        design_alignment(0.0, 0.0, 1.0)
