"""Shared fixtures (the aligned pair is expensive, solve it once per run) and
the warning rules of this directory."""

from pathlib import Path
from types import SimpleNamespace

import pytest

from cqwsim import WellParams, design_alignment, solve_chain

V1 = 60.0
V2 = 0.0
D = 1.0
PERIOD = 1.25

# An unclosed file or process fails a test here instead of warning. The rules
# sit on the items of this directory, not in pyproject.toml, because
# bench/run.py reaps its jobs with os.wait4 and its Popen objects warn.
_UNCLOSED_IS_AN_ERROR = [
    pytest.mark.filterwarnings("error::ResourceWarning"),
    pytest.mark.filterwarnings("error::pytest.PytestUnraisableExceptionWarning"),
]


def pytest_collection_modifyitems(items):
    here = Path(__file__).parent
    for item in items:
        if here in item.path.parents:
            for mark in _UNCLOSED_IS_AN_ERROR:
                item.add_marker(mark)


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
