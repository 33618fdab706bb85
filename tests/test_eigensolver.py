"""Bound-state solver tests against frozen values and independent oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import simpson

import cqwsim.cli as cli
from cqwsim import (
    DomainError,
    InfeasibleDesignError,
    NumericError,
    ValidationError,
    WellParams,
    bisect_root,
    count_levels,
    design_alignment,
    evaluate_wave,
    product_integral,
    solve_bound_states,
    wave_nodes,
)
from cqwsim import eigensolver
from cqwsim.eigensolver import DESIGN_TOL
from oracles import (
    bias_error_bound,
    composite_grid,
    count_nodes,
    direct_residual,
    level_error_bound,
    mp_alignment_bias,
    mp_levels,
    sample_wavefunction,
    scan_design_reference,
    spacing_residual,
    transcendental_residual,
)

FINITE = WellParams(50.0, 0.0, 5.0, 1.0)
DEEP = WellParams(1e4, 0.0, 0.0, 1.0)

# solver output at the frozen finite case, matched against the shooting
# oracle at 1e-3 relative before freezing
FINITE_ENERGIES = [5.868294994595, 22.629127696056, 44.743119329798]
DEEP_E0 = 9.486296791402225
DEEP_E1 = 37.944479882670585


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
    # beyond float range: V = (v1 - v2) d^2 overflows, or underflows (here
    # to 0, which would solve to no level at all)
    with pytest.raises(DomainError, match="float range"):
        WellParams(1e308, 0.0, 1.0, 1e200)
    with pytest.raises(DomainError, match="float range"):
        WellParams(1e308, -1e308, 0.0, 1.0)
    with pytest.raises(DomainError, match="float range"):
        WellParams(60.0, 0.0, 0.0, 1e-170)
    with pytest.raises(DomainError, match="float range"):
        design_alignment(1e308, 0.0, 1e200)
    # V = 1e-300 is normal, but d^2 = 1e-320 is not: V would carry its rounding
    with pytest.raises(DomainError, match="float range"):
        WellParams(1e20, 0.0, 0.0, 1e-160)
    # period / d overflows
    with pytest.raises(DomainError, match="float range"):
        WellParams(6e301, 0.0, 0.0, 1e-150, period=1e200)
    # the solver forms no physical-frame number, so a well whose hard-wall
    # brackets 4 pi^2 / d^2 overflow solves: V = 15.3, two levels below v1
    edge = WellParams(1.7e308, 0.0, 0.0, 3e-154)
    energies = [state.energy for state in solve_bound_states(edge)]
    assert energies == pytest.approx([4.63617268186842e307, 1.5529852373739624e308], rel=1e-12)
    assert energies[1] < edge.v1


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
    root = bisect_root(lambda x: (math.cos(x), -math.sin(x)), 1.0, 2.0)
    assert abs(root - math.pi / 2) <= math.ulp(math.pi / 2)


def test_bisect_root_falls_back_to_bisection():
    # from the midpoint 4.5 Newton on arctan lands at -24 and then at -2.5,
    # outside the bracket both times, so two halvings come first
    points = []

    def arctan(x):
        points.append(x)
        return math.atan(x), 1.0 / (1.0 + x * x)

    assert bisect_root(arctan, -1.0, 10.0) == 0.0
    assert points[2:5] == [4.5, 1.75, 0.375]
    assert len(points) < 15


def test_bisect_root_requires_bracket():
    with pytest.raises(NumericError):
        bisect_root(lambda x: (x * x + 1.0, 2.0 * x), -1.0, 1.0)


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
        assert wave_nodes(state.wave) == n
        residual, branch = transcendental_residual(params, state.energy)
        assert branch == n
        # the scale-free level is off by at most level_error_bound. Forming
        # V and B (5 roundings, dE/dV <= 1 and |dE/dB| <= 1), mapping the
        # level out (2) and the residual formula's subtractions (4) each
        # shift it by at most 2 u M, M the largest potential or energy. The
        # formula's sqrt, atan, products and n pi round the phase by under
        # 8 ulp of (n + 1) pi.
        top = max(abs(params.v1), abs(v2), abs(state.energy))
        shift = level_error_bound((state.energy - v2) * d * d) / (d * d) + 22 * 2.0**-53 * top
        tol = phase_slope(params, state.energy) * shift + 8 * math.ulp((n + 1) * math.pi)
        assert abs(residual) <= tol


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
        assert count_nodes(psi) == wave_nodes(state.wave) == nodes
        # _match_wave normalizes in closed form, so only round-off is left
        w = state.wave
        assert product_integral(w, 0.0, w, 0.0) == pytest.approx(1.0, abs=1e-14)


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
    # the 40-digit reference (oracles.mp_alignment_bias) puts the root
    # 0.41 ulp from 17.039989831712187
    assert aligned_design.bias == pytest.approx(17.039989831712187, abs=1e-6)
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
    with pytest.raises(InfeasibleDesignError, match=r"root holds 5 bound levels, not two, for V=200\.0: B="):
        design_alignment(50.0, 0.0, 2.0)
    # well too shallow to ever hold two levels
    with pytest.raises(InfeasibleDesignError, match=r"no bias B in .* for V=0\.005\d*: .* unbound already at B=1e-06"):
        design_alignment(0.5, 0.0, 0.1)
    # shallow well: the spacing exceeds the bias wherever two levels are bound
    with pytest.raises(InfeasibleDesignError, match=r"spacing exceeds the bias .* for V=12\.0: .* at B2="):
        design_alignment(12.0, 0.0, 1.0)
    # deep narrow well: b2 sits near b = 1e8, where one ulp of the window
    # top exceeds DESIGN_TOL / 10, and the root holds thousands of levels
    with pytest.raises(InfeasibleDesignError, match=r"root holds 3184 bound levels, not two"):
        design_alignment(1e8, 0.0, 1.0)


def test_design_phase_evaluation_budget(monkeypatch, tmp_path):
    # the search solves each bias's levels once: the infeasibility check's
    # h(b2) is read back by the root search, and the root's two levels are
    # the ones built when h was evaluated there. A designed levels job
    # reuses the design's levels and solves none again.
    calls = {"phase": 0, "wave": 0}
    phase_of, match_wave = eigensolver._phase_of, eigensolver._match_wave

    def counted_phase_of(depth, bias, n):
        phase = phase_of(depth, bias, n)

        def counted(energy):
            calls["phase"] += 1
            return phase(energy)

        return counted

    def counted_match_wave(depth, bias, energy):
        calls["wave"] += 1
        return match_wave(depth, bias, energy)

    monkeypatch.setattr(eigensolver, "_phase_of", counted_phase_of)
    monkeypatch.setattr(eigensolver, "_match_wave", counted_match_wave)
    design_alignment(60.0, 0.0, 1.0)
    designed = dict(calls)
    assert designed["phase"] <= 85
    assert designed["wave"] <= 11
    calls.update(phase=0, wave=0)
    argv = ["levels", "--v1", "60", "--v2", "0", "--d", "1", "--period", "1.25"]
    assert cli.main([*argv, "--out", str(tmp_path / "o")]) == 0
    assert calls["phase"] == designed["phase"]
    calls.update(phase=0, wave=0)
    with pytest.raises(InfeasibleDesignError):
        design_alignment(70.0, 0.0, 1.0)
    assert calls["phase"] <= 101


@settings(max_examples=40, deadline=None)
@given(
    v1=st.floats(5.0, 500.0),
    floor=st.floats(0.0, 0.5),
    d=st.floats(0.1, 3.0),
)
def test_design_matches_the_scan_reference(v1, floor, d):
    v2 = floor * v1
    # the proof's two facts on a 64-point bias grid: h strictly decreases
    # and the level count never rises with the bias
    counts, residuals = [], []
    for bias in np.linspace(1e-6, (v1 - v2) - 1e-6, 64).tolist():
        counts.append(count_levels(WellParams(v1, v2, bias, d)))
        residuals.append(spacing_residual(v1, v2, d, bias))
    assert all(a >= b for a, b in zip(counts, counts[1:]))
    held = [r for r in residuals if r is not None]
    assert all(a > b for a, b in zip(held, held[1:]))

    try:
        reference = scan_design_reference(v1, v2, d)
    except InfeasibleDesignError:
        reference = None
    try:
        result = design_alignment(v1, v2, d)
    except InfeasibleDesignError:
        assert reference is None
        return
    # the tolerances are in units of the energy scale 1/d^2
    if reference is not None:
        assert abs(result.bias - reference) <= 2 * DESIGN_TOL / 10 / (d * d)
    # the new search may find a root on a two-level interval the scan
    # stepped over; either way every postcondition holds
    params = WellParams(v1, v2, result.bias, d)
    assert count_levels(params) == 2
    assert abs(result.residual) * (d * d) <= DESIGN_TOL
    assert result.residual == result.levels[1].energy - result.levels[0].energy - result.bias


@settings(max_examples=40, deadline=None)
@given(depth=st.floats(25.0, 64.08), bias_fraction=st.floats(0.0, 0.99))
def test_levels_within_their_bound_of_the_40_digit_reference(depth, bias_fraction):
    bias = bias_fraction * depth
    states = solve_bound_states(WellParams(depth, 0.0, bias, 1.0))
    for state, exact in zip(states, mp_levels(depth, bias, len(states))):
        assert abs(state.energy - exact) <= level_error_bound(state.energy)


@settings(max_examples=25, deadline=None)
@given(depth=st.floats(25.0, 64.08))
def test_design_within_its_bound_of_the_40_digit_reference(depth):
    # every V in [25, 64.08] designs; the bound takes |h'| >= 1, checked here
    result = design_alignment(depth, 0.0, 1.0)
    exact, slope = mp_alignment_bias(depth)
    assert slope <= -1
    e0, e1 = (state.energy for state in result.levels)
    assert abs(result.bias - exact) <= bias_error_bound(result.bias, e0, e1)
    for energy, level in zip((e0, e1), mp_levels(depth, result.bias, 2)):
        assert abs(energy - level) <= level_error_bound(energy)


def test_design_rejects_bad_inputs():
    with pytest.raises(DomainError):
        design_alignment(0.0, 0.0, 1.0)
