"""Shared fixtures: the aligned pair is expensive, solve it once per run."""

from types import SimpleNamespace

import pytest

from cqwsim import (
    WellParams,
    couple_wells,
    design_alignment,
    dipole_matrix,
    mode_frequencies,
    solve_bound_states,
)

V1 = 60.0
V2 = 0.0
D = 1.0
PERIOD = 1.25


@pytest.fixture(scope="session")
def aligned_design():
    return design_alignment(V1, V2, D)


@pytest.fixture(scope="session")
def pair_case(aligned_design):
    bias = aligned_design.bias
    params = WellParams(V1, V2, bias, D, period=PERIOD)
    left = solve_bound_states(params)
    shifted = WellParams(V1 - bias, V2 - bias, bias, D, period=PERIOD)
    right = solve_bound_states(shifted)
    split = couple_wells((left[0], left[1]), (right[0], right[1]), params)
    spacing = left[1].energy - left[0].energy
    freqs = mode_frequencies(spacing, split.delta_e)
    dipoles = dipole_matrix(split, split, left[0], left[1], params)
    return SimpleNamespace(
        bias=bias,
        params=params,
        left=left,
        right=right,
        split=split,
        spacing=spacing,
        freqs=freqs,
        dipoles=dipoles,
    )


@pytest.fixture(scope="session")
def numerov_finite():
    from oracles import numerov_levels

    return numerov_levels(50.0, 0.0, 5.0, 1.0, n_points=20001, frac=0.999)


@pytest.fixture(scope="session")
def numerov_deep():
    from oracles import numerov_levels

    return numerov_levels(1e4, 0.0, 0.0, 1.0)
