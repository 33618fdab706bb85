"""Two-well coupling, mode frequencies, dipoles, branching ratios."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
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
    dipole_matrix,
    mode_frequencies,
    sample_chain_waves,
    split_pair,
)

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
    assert split.delta_e == pytest.approx(1.8208234292741468, abs=1e-9)
    assert split.overlap == pytest.approx(0.055168, abs=1e-4)
    assert abs(split.overlap) < 0.99


def test_coupled_pair_mixing_structure(pair_case):
    split = pair_case.split
    # upper state is the antisymmetric combination here
    assert split.a_plus > 0 and split.b_plus < 0
    assert split.a_minus > 0 and split.b_minus > 0
    assert split.b_plus == pytest.approx(-0.719268, abs=1e-5)


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
        split = couple_wells(
            (pair_case.left[0], pair_case.left[1]),
            (pair_case.right[0], pair_case.right[1]),
            params,
        )
        gaps.append(split.delta_e)
    assert gaps[0] > gaps[1] > gaps[2] > 0


def test_couple_wells_rejects_misalignment(pair_case):
    with pytest.raises(DomainError):
        couple_wells(
            (pair_case.left[0], pair_case.left[1]),
            (pair_case.left[0], pair_case.left[1]),  # unshifted: off by the bias
            pair_case.params,
        )


def test_couple_wells_needs_period(pair_case):
    bare = WellParams(60.0, 0.0, pair_case.bias, 1.0)
    with pytest.raises(ValidationError):
        couple_wells(
            (pair_case.left[0], pair_case.left[1]),
            (pair_case.right[0], pair_case.right[1]),
            bare,
        )


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
    assert freqs.omega_zero == pytest.approx(pair_case.spacing, abs=1e-12)
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
    dip = assemble_dipoles(ideal, ideal, ints)
    for value in (dip.d_hh, dip.d_hl, dip.d_lh, dip.d_ll):
        assert abs(value) == pytest.approx(d01 / 2.0, abs=1e-15)
    assert dip.d_hh > 0 and dip.d_hl > 0
    assert dip.d_lh < 0 and dip.d_ll < 0
    assert dip.d_hg == pytest.approx(d01 * SQ2, abs=1e-15)
    assert dip.d_lg == pytest.approx(-d01 * SQ2, abs=1e-15)


def test_dipole_grid_refinement(pair_case):
    fine = sample_chain_waves(
        pair_case.left[0], pair_case.left[1], pair_case.params, n_points=20001
    )
    ref = dipole_matrix(pair_case.split, pair_case.split, fine, pair_case.params)
    base = pair_case.dipoles
    for name in ("d_hh", "d_hl", "d_lh", "d_ll", "d_hg", "d_lg"):
        a = getattr(base, name)
        b = getattr(ref, name)
        assert abs(a - b) <= 1e-4 * max(abs(a), abs(b), 1e-3)


def test_dipole_matrix_rejects_short_grid(pair_case):
    clipped = sample_chain_waves(
        pair_case.left[0], pair_case.left[1], pair_case.params, n_points=4001
    )
    cut = 400  # removes most of the left decay tail
    trimmed = type(clipped)(
        x=clipped.x[cut:],
        ground_0=clipped.ground_0[cut:],
        excited_1=clipped.excited_1[cut:],
        ground_1=clipped.ground_1[cut:],
        excited_2=clipped.excited_2[cut:],
        ground=clipped.ground,
        excited=clipped.excited,
    )
    with pytest.raises(ValidationError):
        dipole_matrix(pair_case.split, pair_case.split, trimmed, pair_case.params)


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
