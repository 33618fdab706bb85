"""Shared fixtures: the aligned pair is expensive, solve it once per run."""

from types import SimpleNamespace

import pytest

from cqwsim import WellParams, design_alignment, solve_chain

V1 = 60.0
V2 = 0.0
D = 1.0
PERIOD = 1.25


@pytest.fixture(scope="session")
def aligned_design():
    return design_alignment(V1, V2, D)


@pytest.fixture(scope="session")
def pair_case():
    chain = solve_chain(V1, V2, D, PERIOD)
    params = WellParams(V1, V2, chain.bias, D, period=PERIOD)
    return SimpleNamespace(params=params, **chain._asdict())


@pytest.fixture(scope="session")
def numerov_finite():
    from oracles import numerov_levels

    return numerov_levels(50.0, 0.0, 5.0, 1.0, n_points=20001, frac=0.999)


@pytest.fixture(scope="session")
def numerov_deep():
    from oracles import numerov_levels

    return numerov_levels(1e4, 0.0, 0.0, 1.0)
