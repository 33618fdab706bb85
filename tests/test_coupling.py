"""Two-well coupling, mode frequencies, dipoles, branching ratios."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import (
    composite_grid,
    quad_product,
    sampled_coupling_integrals,
    sampled_dipole_integrals,
)
from scipy.linalg import eigh

from cqwsim import (
    BranchingModel,
    CoupledLevels,
    DipoleIntegrals,
    DipoleMatrix,
    DomainError,
    ModeFrequencies,
    NumericError,
    ValidationError,
    WellParams,
    assemble_dipoles,
    branching_model,
    couple_wells,
    coupling_integrals,
    dipole_integrals,
    mode_frequencies,
    product_integral,
    solve_bound_states,
    solve_chain,
    split_pair,
)
from cqwsim import eigensolver
from cqwsim.coupling import sample_chain_waves
from cqwsim.eigensolver import _map_out

SQ2 = 1.0 / math.sqrt(2.0)


def test_split_pair_degenerate_limit():
    levels = split_pair(5.0, 5.0, 0.7, 0.0)
    assert levels.e_plus == pytest.approx(5.7, abs=1e-12)
    assert levels.e_minus == pytest.approx(4.3, abs=1e-12)
    assert levels.delta_e == pytest.approx(1.4, abs=1e-12)
    # equal-energy pair mixes half and half
    assert levels.a_plus == pytest.approx(SQ2, abs=1e-9)
    assert levels.b_plus == pytest.approx(SQ2, abs=1e-9)
    assert levels.a_minus == pytest.approx(SQ2, abs=1e-9)
    assert levels.b_minus == pytest.approx(-SQ2, abs=1e-9)


def test_split_pair_sign_convention():
    for coupling in (0.7, -0.7, 0.05):
        levels = split_pair(5.0, 5.0, coupling, 0.0)
        assert levels.a_plus > 0 and levels.a_minus > 0
        assert levels.delta_e > 0


def test_split_pair_label_swap_keeps_splitting():
    a = split_pair(5.1, 4.9, 0.3, 0.02)
    b = split_pair(4.9, 5.1, 0.3, 0.02)
    assert a.delta_e == pytest.approx(b.delta_e, abs=1e-12)


def test_split_pair_rejects_degenerate_or_saturated():
    with pytest.raises(NumericError):
        split_pair(5.0, 5.0, 0.0, 0.0)  # no splitting
    with pytest.raises(NumericError):
        split_pair(5.0, 5.0, 0.7, 0.995)  # basis nearly collinear


def test_split_pair_refuses_a_residual_that_tunneling_does_not_dominate():
    # the same detuned pair is fine as physics, refused as alignment error
    levels = split_pair(5.0, 5.0 - 1e-3, 1e-6, 0.0)
    assert levels.delta_e == pytest.approx(1e-3, rel=1e-5)
    with pytest.raises(NumericError, match="tunneling no longer dominates the detuning"):
        split_pair(5.0, 5.0 - 1e-3, 1e-6, 0.0, residual=1e-3)
    # just inside the bound: |d| = 1e-3 against 100 x 0.95e-5
    assert split_pair(5.0, 5.0, 1e-3, 0.0, residual=1.9e-5).delta_e > 0


ENERGY = st.floats(1e-3, 1e3) | st.floats(-1e3, -1e-3)
OVERLAP = st.floats(-0.99, 0.99)
# signed fractions of the energy scale, from 1e-9 to 1
FRACTION = st.builds(
    lambda exponent, sign: sign * 10.0**exponent,
    st.floats(-9.0, 0.0), st.sampled_from([-1.0, 1.0]),
)


@settings(max_examples=400, deadline=None)
@given(
    e=ENERGY, s=OVERLAP, coupling=FRACTION,
    detuning=st.just(0.0) | FRACTION,
)
def test_split_pair_matches_generalized_eigh(e, s, coupling, detuning):
    # h_aa == h_bb exactly when the detuning is 0; the splitting is about
    # max(|coupling|, |detuning|) times the energy scale
    h_aa, h_bb = e * (1.0 + detuning), e * (1.0 - detuning)
    h_ab = s * e + coupling * abs(e)
    levels = split_pair(h_aa, h_bb, h_ab, s)
    h = np.array([[h_aa, h_ab], [h_ab, h_bb]])
    m = np.array([[1.0, s], [s, 1.0]])
    vals = eigh(h, m, eigvals_only=True)
    tol = 1e-12 * max(abs(vals))
    assert abs(levels.e_minus - vals[0]) <= tol
    assert abs(levels.e_plus - vals[1]) <= tol
    assert abs(levels.delta_e - (vals[1] - vals[0])) <= tol
    assert levels.delta_e > 0
    plus = np.array([levels.a_plus, levels.b_plus])
    minus = np.array([levels.a_minus, levels.b_minus])
    assert levels.a_plus > 0 and levels.a_minus > 0
    assert plus @ m @ plus == pytest.approx(1.0, abs=1e-12)
    assert minus @ m @ minus == pytest.approx(1.0, abs=1e-12)
    assert abs(plus @ m @ minus) <= 1e-12


@settings(max_examples=100, deadline=None)
@given(e=ENERGY, s=OVERLAP, coupling=FRACTION, excess=st.floats(1e-9, 9e-3))
def test_split_pair_numeric_errors(e, s, coupling, excess):
    with pytest.raises(NumericError, match="near singular"):
        split_pair(e, e, coupling * e, math.copysign(0.99 + excess, s))
    # H proportional to M: one doubly degenerate level
    with pytest.raises(NumericError, match="collapsed"):
        split_pair(e, e, s * e, s)


def test_coupled_pair_frozen_splitting(pair_case):
    split = pair_case.split
    assert split.delta_e == pytest.approx(1.8220828103672355, abs=1e-9)
    assert split.overlap == pytest.approx(0.055168, abs=1e-4)
    assert abs(split.overlap) < 0.99


def test_coupled_pair_mixing_structure(pair_case):
    split = pair_case.split
    # upper state is the antisymmetric combination here
    assert split.a_plus > 0 and split.b_plus < 0
    assert split.a_minus > 0 and split.b_minus > 0
    assert split.b_plus == pytest.approx(-0.719289, abs=1e-5)


def test_coupled_pair_norm_identity(pair_case):
    split = pair_case.split
    s = split.overlap
    for a, b in ((split.a_plus, split.b_plus), (split.a_minus, split.b_minus)):
        assert a * a + b * b + 2.0 * a * b * s == pytest.approx(1.0, abs=1e-12)
    cross = (
        split.a_plus * split.a_minus
        + split.b_plus * split.b_minus
        + s * (split.a_plus * split.b_minus + split.b_plus * split.a_minus)
    )
    assert abs(cross) < 1e-6


def test_coupled_pair_against_dense_diagonalization(pair_case):
    from oracles import fd_pair_splitting

    gap = fd_pair_splitting(
        60.0, 0.0, pair_case.bias, 1.0, 1.25, pair_case.left[0].energy
    )
    assert abs(pair_case.split.delta_e - gap) / gap < 0.10


def test_splitting_shrinks_with_separation(pair_case):
    gaps = []
    for period in (1.2, 1.35, 1.5):
        params = WellParams(60.0, 0.0, pair_case.bias, 1.0, period=period)
        split = couple_wells(pair_case.left[0], pair_case.left[1], params)
        gaps.append(split.delta_e)
    assert gaps[0] > gaps[1] > gaps[2] > 0


def test_couple_wells_refuses_a_bias_off_the_design(pair_case):
    # split_pair's dominance rule is the pair's one alignment check: a bias
    # 1.0 off the design, or none at all (the unshifted excited level),
    # detunes the pair beyond what tunneling dominates
    ground, excited = pair_case.left
    for bias in (pair_case.bias + 1.0, 0.0):
        params = pair_case.params._replace(b=bias)
        with pytest.raises(NumericError, match="tunneling no longer dominates"):
            couple_wells(ground, excited, params)
    # a smaller offset, here 0.01, is still dominated and splits
    params = pair_case.params._replace(b=pair_case.bias + 0.01)
    assert couple_wells(ground, excited, params).delta_e > 0


@pytest.mark.parametrize("depth, period", [(30.0, 1.25), (45.0, 1.4), (60.0, 1.25)])
def test_couple_wells_lowers_the_excited_level_by_the_bias(depth, period):
    # given the well's own two levels and the designed bias, couple_wells
    # splits the chain's pair bit for bit
    chain = solve_chain(depth, 0.0, 1.0, period)
    params = WellParams(depth, 0.0, chain.bias, 1.0, period)
    assert repr(couple_wells(chain.left[0], chain.left[1], params)) == repr(chain.split)


def test_couple_wells_needs_period(pair_case):
    bare = WellParams(60.0, 0.0, pair_case.bias, 1.0)
    with pytest.raises(ValidationError):
        couple_wells(pair_case.left[0], pair_case.left[1], bare)


def test_mode_frequencies_arithmetic():
    freqs = mode_frequencies(10.0, 1.0)
    assert freqs.omega_minus == 9.0
    assert freqs.omega_zero == 10.0
    assert freqs.omega_plus == 11.0
    assert freqs.omega_plus - freqs.omega_zero == pytest.approx(
        freqs.omega_zero - freqs.omega_minus, abs=1e-12
    )


def test_mode_frequencies_domain():
    with pytest.raises(DomainError):
        mode_frequencies(1.0, 0.0)
    with pytest.raises(DomainError):
        mode_frequencies(1.0, -0.5)
    with pytest.raises(DomainError):
        mode_frequencies(10.0, 10.0)  # sideband would hit zero


def test_physical_mode_frequencies(pair_case):
    freqs = pair_case.freqs
    assert freqs.omega_zero == pair_case.left[1].energy - pair_case.left[0].energy
    assert freqs.omega_plus > freqs.omega_zero > freqs.omega_minus > 0


def test_idealized_dipole_pattern():
    # suppress every cross-well element: each transition is half the bare
    # intra-well dipole, signs set by the source mixing coefficient
    d01 = 0.37
    ints = DipoleIntegrals(intra=d01, adjacent_gg=0.0, far=0.0, adjacent_ee=0.0)
    ideal = CoupledLevels(
        e_plus=5.7, e_minus=4.3, delta_e=1.4,
        a_plus=SQ2, b_plus=SQ2, a_minus=SQ2, b_minus=-SQ2,
        overlap=0.0,
    )
    dip = assemble_dipoles(ideal, ints)
    for value in (dip.d_hh, dip.d_hl, dip.d_lh, dip.d_ll):
        assert abs(value) == pytest.approx(d01 / 2.0, abs=1e-15)
    assert dip.d_hh > 0 and dip.d_hl > 0
    assert dip.d_lh < 0 and dip.d_ll < 0
    assert dip.d_hg == pytest.approx(d01 * SQ2, abs=1e-15)
    assert dip.d_lg == pytest.approx(-d01 * SQ2, abs=1e-15)


def _split(ints, e_a, e_b):
    # the assembly couple_wells makes from its integrals
    s = ints.overlap
    h_ab = 0.5 * ((e_b * s + ints.k_ab) + (e_a * s + ints.k_ba))
    return split_pair(e_a + ints.d_aa, e_b + ints.d_bb, h_ab, s)


def test_sampled_splitting_converges_to_closed_form(pair_case):
    # Simpson's rule on the 10,000-point grid the package used before gives
    # the splitting it reported; the potential steps between grid points
    # make it converge as O(h), so ten times the points cuts the error about
    # tenfold (at least fivefold here) toward the closed form.
    ground, excited = pair_case.left
    exact = pair_case.split.delta_e
    errors = []
    for n_points in (10_000, 100_000):
        ints = sampled_coupling_integrals(ground, excited, pair_case.params, n_points)
        split = _split(ints, ground.energy, excited.energy - pair_case.bias)
        errors.append(abs(split.delta_e - exact))
        if n_points == 10_000:
            assert split.delta_e == pytest.approx(1.8208234292741468, abs=1e-9)
    assert errors[1] < errors[0] / 5


def test_sampled_dipoles_reject_short_grid(pair_case):
    clipped = sample_chain_waves(
        pair_case.left[0], pair_case.left[1], pair_case.params, n_points=4001
    )
    cut = 400  # removes most of the left decay tail
    trimmed = clipped._replace(
        x=clipped.x[cut:],
        ground_0=clipped.ground_0[cut:],
        excited_1=clipped.excited_1[cut:],
        ground_1=clipped.ground_1[cut:],
        excited_2=clipped.excited_2[cut:],
    )
    with pytest.raises(ValidationError, match="coverage"):
        sampled_dipole_integrals(trimmed, pair_case.params)
    assert sampled_dipole_integrals(clipped, pair_case.params).intra != 0.0


@pytest.mark.parametrize("n_points", [10_000, 10_001])
def test_chain_waves_grid_is_the_composite_grid(pair_case, n_points):
    ground, excited = pair_case.left[0], pair_case.left[1]
    waves = sample_chain_waves(ground, excited, pair_case.params, n_points)
    grid = composite_grid(pair_case.params, [ground, excited], n_wells=3, n_points=n_points)
    assert waves.x.tobytes() == grid.tobytes()


def _assert_within_quad(value, oracle):
    reference, bound = oracle
    assert abs(value - reference) <= bound, (value, reference, bound)


@settings(max_examples=25, deadline=None)
@given(
    depth=st.floats(28.0, 58.0),  # (v1 - v2) d^2: an aligning bias with two levels
    d=st.floats(0.5, 2.0),
    v2=st.floats(-20.0, 20.0),
    barrier=st.floats(0.05, 1.5),
)
def test_closed_form_matches_quadrature_on_aligned_wells(depth, d, v2, barrier):
    # the chain is solved on its scale-free well; its levels, mapped out to
    # the well of width d and floor v2, are that well's, and the closed forms
    # hold there at every scale
    v1 = v2 + depth / (d * d)
    period = d + barrier
    chain = solve_chain(v1, v2, d, period)
    bias = chain.bias / (d * d)
    ground, excited = (_map_out(state, d, v2) for state in chain.left)
    assert excited.energy - bias == pytest.approx(ground.energy, abs=1e-6 / (d * d))
    params = WellParams(v1, v2, bias, d, period=period)
    ints = coupling_integrals(ground, excited, params)

    # the three potentials, pointwise; v_a and v_b reuse v_pair's expressions,
    # so their differences are exactly 0 where the potentials agree
    def v_pair(x):
        if x < 0.0:
            return v1
        if x <= d:
            return v2
        if x < period:
            return v1 - bias
        return v2 - bias if x <= period + d else v1 - 2.0 * bias

    def v_a(x):
        return v1 if x < 0.0 else v2 if x <= d else v1 - bias

    def v_b(x):
        if x < period:
            return v1 - bias
        return v2 - bias if x <= period + d else v1 - 2.0 * bias

    steps = (0.0, d, period, period + d)

    def pair(weight=None):
        return quad_product(ground, 0.0, excited, period, weight=weight, breaks=steps)

    def own(state, offset, weight):
        return quad_product(state, offset, state, offset, weight=weight, breaks=steps)

    _assert_within_quad(ints.overlap, pair())
    _assert_within_quad(ints.k_ba, pair(lambda x: v_pair(x) - v_a(x)))
    _assert_within_quad(ints.k_ab, pair(lambda x: v_pair(x) - v_b(x)))
    _assert_within_quad(ints.d_aa, own(ground, 0.0, lambda x: v_pair(x) - v_a(x)))
    _assert_within_quad(ints.d_bb, own(excited, period, lambda x: v_pair(x) - v_b(x)))

    dips = dipole_integrals(ground, excited, period)
    for value, f, f_at, g, g_at in (
        (dips.intra, ground, period, excited, period),
        (dips.adjacent_gg, ground, period, ground, 0.0),
        (dips.far, excited, 2 * period, ground, 0.0),
        (dips.adjacent_ee, excited, 2 * period, excited, period),
    ):
        _assert_within_quad(value, quad_product(f, f_at, g, g_at, moment=1))


@settings(max_examples=20, deadline=None)
@given(
    depth=st.floats(28.0, 58.0),  # v1 d^2 with v2 = 0: the device-design band
    d=st.floats(0.8, 1.25),
    barrier=st.floats(0.15, 0.5),
)
def test_designed_chain_equals_its_scale_free_twin(depth, d, barrier):
    # the chain is that of the scale-free well (V, 0, 1) spaced period / d
    # apart, whose bias is the chain's own; repr round-trips every float, so
    # equal reprs are equal bits
    v1, period = depth / (d * d), d + barrier
    designed = solve_chain(v1, 0.0, d, period)
    free = (v1 * (d * d), 0.0, 1.0, period / d)
    assert repr(solve_chain(*free)) == repr(designed)


def test_solve_chain_without_a_period_refuses_before_solving(monkeypatch):
    # coupling needs the spacing: the chain refuses as couple_wells does,
    # before the design search or any level solve starts
    def no_solve(*args):
        raise AssertionError("a level was solved")

    monkeypatch.setattr(eigensolver, "_phase_of", no_solve)
    with pytest.raises(ValidationError, match="well.period is required to couple wells"):
        solve_chain(60.0, 0.0, 1.0, None)


@settings(max_examples=20, deadline=None)
@given(
    depth=st.floats(28.0, 58.0),
    d=st.floats(0.8, 1.25),
    barrier=st.floats(0.15, 0.5),
)
def test_right_well_is_the_left_well_translated(depth, d, barrier):
    # the right neighbor is the left well moved by one period with every
    # potential lowered by the bias, so its levels are the same waves, each
    # energy lowered by the bias, as couple_wells takes them: solving the
    # lowered well itself agrees to the solver's tolerance; the chain is in
    # units of 1/d^2, on the scale-free well (V, 0, 1)
    v1, period = depth / (d * d), d + barrier
    designed = solve_chain(v1, 0.0, d, period)
    depth, bias = v1 * (d * d), designed.bias
    lowered = solve_bound_states(WellParams(depth - bias, -bias, bias, 1.0))
    for solved, own in zip(lowered, designed.left):
        assert abs(solved.energy - (own.energy - bias)) < 1e-8


@settings(max_examples=20, deadline=None)
@given(
    depth=st.floats(28.0, 58.0),
    d=st.floats(0.8, 1.25),
    barrier=st.floats(0.15, 0.5),
    scale=st.one_of(st.integers(-12, 12).map(lambda p: 2.0**p), st.floats(1e-3, 1e3)),
)
@example(depth=57.66, d=1.0, barrier=0.24194, scale=6.2e-61)
@example(depth=57.66, d=1.0, barrier=0.24194, scale=1e60)
def test_chain_is_scale_free(depth, d, barrier, scale):
    # (v1 / s^2, 0, s d, s period) has the levels of (v1, 0, d, period)
    # divided by s^2. solve_chain solves either on its scale-free well, with
    # V and period / d formed as below, so each chain is bit for bit that of
    # its scale-free well, and two scales that round to the same V and
    # period / d give the same chain and rows: always for a power of two
    v1, period = depth / (d * d), d + barrier
    wells = [(v1, d, period), (v1 / (scale * scale), scale * d, scale * period)]
    chains = [solve_chain(v, 0.0, w, p) for v, w, p in wells]
    frames = [(v * (w * w), p / w) for v, w, p in wells]
    for chain, (free_depth, span) in zip(chains, frames):
        assert repr(chain) == repr(solve_chain(free_depth, 0.0, 1.0, span))
    rows = [
        [branching_model(chain.freqs, chain.dipoles, weighting) for chain in chains]
        for weighting in ("physical", "dipole-only")
    ]
    if math.frexp(scale)[0] == 0.5:
        assert frames[0] == frames[1]
    if frames[0] == frames[1]:
        assert repr(chains[0]) == repr(chains[1])
        assert all(a == b for a, b in rows)
    else:
        for a, b in rows:
            assert b.p_hh == pytest.approx(a.p_hh, rel=1e-9)
            assert b.p_lh == pytest.approx(a.p_lh, rel=1e-9)


def test_product_integral_exact_at_alignment(pair_case):
    # Across the barrier the product is e^(-delta_a (x - d)) e^(nu_b (x - P))
    # with exponent (nu_b - delta_a) x; give the right state nu_b = delta_a
    # exactly and it is the constant A_R B_L e^(-delta_a (P - d)).
    d, period = pair_case.params.d, pair_case.params.period
    fa = pair_case.left[0].wave
    fb = pair_case.left[1].wave._replace(nu=fa.delta)
    flat = fa.amp_right * fb.amp_left * math.exp(-fa.delta * (period - d))
    value = product_integral(fa, 0.0, fb, period, d, period)
    assert value == pytest.approx(flat * (period - d), rel=4 * 2.0**-52)
    ground = pair_case.left[0]
    right = pair_case.left[1]._replace(wave=fb)
    _assert_within_quad(value, quad_product(ground, 0.0, right, period, d, period))
    # and beside it, inside the series' reach
    for step in (1e-12, -1e-9, 1e-6):
        wave = fb._replace(nu=fa.delta + step)
        near = right._replace(wave=wave)
        _assert_within_quad(
            product_integral(fa, 0.0, wave, period, d, period),
            quad_product(ground, 0.0, near, period, d, period),
        )


def test_wide_barrier_collapses_splitting(pair_case):
    # Across a 200-wide barrier every cross integral underflows to 0, and
    # not to nan. With no bias and the excited level set exactly onto the
    # ground one nothing is left to split the pair.
    ground = pair_case.left[0]
    excited = pair_case.left[1]._replace(energy=ground.energy)
    params = pair_case.params._replace(b=0.0, period=pair_case.params.d + 200.0)
    ints = coupling_integrals(ground, excited, params)
    assert (ints.overlap, ints.k_ba, ints.k_ab) == (0.0, 0.0, 0.0)
    assert ints.d_aa == ints.d_bb == 0.0
    with pytest.raises(NumericError, match="collapsed"):
        couple_wells(ground, excited, params)


def test_branching_rates_weight_by_frequency_cube():
    freqs = ModeFrequencies(omega_minus=9.0, omega_zero=10.0, omega_plus=11.0)
    unit = DipoleMatrix(d_hh=1.0, d_hl=1.0, d_lh=1.0, d_ll=1.0, d_hg=1.0, d_lg=1.0)
    model = branching_model(freqs, unit, "physical")
    assert model.p_hl == 1331.0 / 2331.0  # exact: 11^3 / (10^3 + 11^3)
    assert model.p_hh + model.p_hl == 1.0
    assert model.p_ll == 1000.0 / 1729.0
    assert model.p_ll + model.p_lh == 1.0
    assert model.weighting == "physical"


def test_branching_dipole_only_equal_elements():
    freqs = ModeFrequencies(omega_minus=9.0, omega_zero=10.0, omega_plus=11.0)
    unit = DipoleMatrix(d_hh=0.5, d_hl=0.5, d_lh=0.5, d_ll=0.5, d_hg=0.1, d_lg=0.1)
    model = branching_model(freqs, unit, "dipole-only")
    assert model.p_hh == 0.5 and model.p_hl == 0.5
    assert model.p_lh == 0.5 and model.p_ll == 0.5


def test_branching_degenerate_sidebands_balance():
    freqs = mode_frequencies(10.0, 1e-9)
    unit = DipoleMatrix(d_hh=1.0, d_hl=1.0, d_lh=1.0, d_ll=1.0, d_hg=1.0, d_lg=1.0)
    model = branching_model(freqs, unit, "physical")
    for p in (model.p_hh, model.p_hl, model.p_lh, model.p_ll):
        assert p == pytest.approx(0.5, abs=1e-9)


def test_branching_scale_invariance(pair_case):
    freqs = pair_case.freqs
    d = pair_case.dipoles
    scaled = DipoleMatrix(
        d_hh=3.0 * d.d_hh, d_hl=3.0 * d.d_hl,
        d_lh=3.0 * d.d_lh, d_ll=3.0 * d.d_ll,
        d_hg=3.0 * d.d_hg, d_lg=3.0 * d.d_lg,
    )
    a = branching_model(freqs, d, "physical")
    b = branching_model(freqs, scaled, "physical")
    assert a.p_hl == pytest.approx(b.p_hl, abs=1e-14)
    assert a.p_lh == pytest.approx(b.p_lh, abs=1e-14)


def test_branching_zero_row_is_numeric_error():
    freqs = ModeFrequencies(omega_minus=9.0, omega_zero=10.0, omega_plus=11.0)
    dead = DipoleMatrix(d_hh=0.0, d_hl=0.0, d_lh=1.0, d_ll=1.0, d_hg=1.0, d_lg=1.0)
    with pytest.raises(NumericError):
        branching_model(freqs, dead, "physical")


def test_branching_unknown_weighting():
    freqs = ModeFrequencies(omega_minus=9.0, omega_zero=10.0, omega_plus=11.0)
    unit = DipoleMatrix(d_hh=1.0, d_hl=1.0, d_lh=1.0, d_ll=1.0, d_hg=1.0, d_lg=1.0)
    with pytest.raises(ValidationError):
        branching_model(freqs, unit, "cubic")


def test_branching_model_manual_rows():
    model = BranchingModel.manual(0.3, 0.7, 0.6, 0.4)
    assert model.p_hh + model.p_hl == 1.0
    assert model.p_lh + model.p_ll == 1.0
    assert model.p_hh == pytest.approx(0.3, abs=1e-9)
    assert model.weighting == "manual"


def test_branching_model_manual_validation():
    with pytest.raises(ValidationError):
        BranchingModel.manual(0.4, 0.7, 0.3, 0.7)  # first row sums to 1.1
    with pytest.raises(ValidationError):
        BranchingModel.manual(0.5, 0.5, 1.2, -0.2)
    with pytest.raises(ValidationError):
        BranchingModel.manual(float("nan"), 1.0, 0.5, 0.5)


def test_branching_model_symmetric():
    model = BranchingModel.symmetric()
    assert (model.p_hh, model.p_hl, model.p_lh, model.p_ll) == (0.5, 0.5, 0.5, 0.5)


def test_branching_model_direct_invariants():
    with pytest.raises(DomainError):
        BranchingModel(1.2, -0.2, 0.5, 0.5)
    with pytest.raises(DomainError):
        BranchingModel(0.6, 0.6, 0.5, 0.5)  # row sum 1.2
