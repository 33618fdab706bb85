"""Marginals, conditional slices, entropy, parity and purity checks."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cqwsim import (
    BranchingModel,
    ConditionalState,
    DomainError,
    InitialExcitation,
    JointDistribution,
    NumericError,
    conditional_state,
    conditional_states,
    entanglement_entropy,
    joint_pm,
    marginals,
    parity_xor,
    purity_check,
    run_cascade,
)
from oracles import (
    logical_qubit_projection,
    reference_conditional_states,
    reference_joint_pm,
    support_set,
)

SYM = BranchingModel.symmetric()
H_START = InitialExcitation(1.0, 0.0)
BAL = InitialExcitation.balanced()


def test_marginals_hand_cases():
    p_l, p_m, p_n = marginals(run_cascade(1, H_START, SYM))
    assert p_l == [1.0, 0.0]
    assert p_m == [1.0, 0.0]
    assert p_n == [0.0, 1.0]
    _, p_m3, _ = marginals(run_cascade(3, H_START, SYM))
    assert p_m3 == pytest.approx([0.25, 0.5, 0.25, 0.0], abs=1e-15)


def test_marginals_sum_to_one():
    rng = np.random.default_rng(5)
    for n in (2, 7, 13):
        c = rng.uniform(0.2, 0.8)
        init = InitialExcitation(math.sqrt(c), math.sqrt(1.0 - c))
        for vec in marginals(run_cascade(n, init, SYM)):
            assert math.fsum(vec) == pytest.approx(1.0, abs=1e-12)


def test_balanced_sidebands_identical_bitwise():
    # swapping the sublevels maps the run onto itself, so both sideband
    # count distributions are the same floats, not merely close
    for n in (5, 12, 22):
        p_l, _, p_n = marginals(run_cascade(n, BAL, SYM))
        assert p_l == p_n


def test_joint_pm_hand_case():
    pm = joint_pm(run_cascade(2, H_START, SYM))
    assert pm == {(0, 1): 0.5, (1, 1): 0.5}


def test_joint_pm_three_diagonals_and_consistency():
    dist = run_cascade(9, BAL, SYM)
    pm = joint_pm(dist)
    assert {n - l for (l, n) in pm} <= {-1, 0, 1}
    p_l, _, p_n = marginals(dist)
    for l in range(dist.n_total + 1):
        row = math.fsum(v for (ll, _), v in pm.items() if ll == l)
        assert row == pytest.approx(p_l[l], abs=1e-12)
    assert math.fsum(pm.values()) == pytest.approx(1.0, abs=1e-12)


def test_conditional_even_slice_is_product():
    dist = run_cascade(4, BAL, SYM)
    cond = conditional_state(dist, 2)
    assert cond.kind == "product"
    assert cond.measured_m == 2 and cond.s == 2 and cond.k == 1
    assert cond.alpha is None and cond.beta is None
    assert cond.weight == pytest.approx(dist.table[(1, 2, 1)], abs=1e-15)


def test_conditional_odd_slice_balanced():
    dist = run_cascade(2, BAL, SYM)
    cond = conditional_state(dist, 1)
    assert cond.kind == "entangled-pair"
    assert cond.alpha == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-12)
    assert cond.beta == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-12)
    assert cond.weight == pytest.approx(0.5, abs=1e-15)


def test_conditional_odd_slice_single_branch():
    dist = run_cascade(2, H_START, SYM)
    cond = conditional_state(dist, 1)
    # only the high-line component survives: a product state in disguise
    assert cond.kind == "product"
    assert cond.alpha == 1.0 and cond.beta == 0.0


def test_conditional_empty_slice():
    dist = run_cascade(2, H_START, SYM)
    cond = conditional_state(dist, 2)
    assert cond.kind == "empty"
    assert cond.weight == 0.0
    with pytest.raises(DomainError):
        entanglement_entropy(cond)


def test_conditional_out_of_range():
    dist = run_cascade(2, BAL, SYM)
    with pytest.raises(DomainError):
        conditional_state(dist, -1)
    with pytest.raises(DomainError):
        conditional_state(dist, 3)


def refusal(table, n_total=4):
    """The message of the NumericError that building ``table`` raises."""
    with pytest.raises(NumericError) as refused:
        JointDistribution(n_total=n_total, table=table)
    return str(refused.value)


def test_conditional_rejects_malformed_slice():
    # |l - n| = 2: the slice readers refused it before, the table now does
    message = refusal({(2, 2, 0): 1.0})
    assert message.startswith("entry (2, 2, 0) is off the support of N = 4")


def test_conditional_weights_reassemble():
    dist = run_cascade(7, BAL, SYM)
    weights = [conditional_state(dist, m).weight for m in range(8)]
    assert math.fsum(weights) == pytest.approx(1.0, abs=1e-12)


def test_entropy_balanced_is_exactly_one():
    for n in (3, 8, 15):
        dist = run_cascade(n, BAL, SYM)
        for m in range(n + 1):
            cond = conditional_state(dist, m)
            if cond.kind == "entangled-pair":
                assert entanglement_entropy(cond) == 1.0


def test_entropy_single_branch_is_exactly_zero():
    dist = run_cascade(6, H_START, SYM)
    for m in range(7):
        cond = conditional_state(dist, m)
        if cond.kind != "empty":
            assert entanglement_entropy(cond) == 0.0


def test_entropy_matches_binary_entropy():
    cond = ConditionalState(
        measured_m=0, s=1, k=0, kind="entangled-pair",
        alpha=math.sqrt(0.8), beta=math.sqrt(0.2), weight=1.0,
    )
    assert entanglement_entropy(cond) == pytest.approx(0.7219280948873623, abs=1e-12)


def test_purity_report_on_cascade():
    report = purity_check(run_cascade(10, BAL, SYM))
    assert report.rank_one is True
    assert report.trace == pytest.approx(1.0, abs=1e-12)
    assert report.idempotency_residual <= 1e-12


def test_purity_flags_lost_mass():
    crippled = JointDistribution(n_total=2, table={(0, 1, 1): 0.3, (1, 0, 1): 0.3})
    report = purity_check(crippled)
    assert abs(report.trace - 1.0) > 1e-3
    assert report.idempotency_residual > 1e-3


def test_parity_gate_names_and_rows():
    odd = parity_xor(run_cascade(3, BAL, SYM))
    assert odd.gate == "NXOR"
    assert odd.all_hold is True
    rows = {row[:3]: row for row in odd.rows}
    l, m, n, pl, pn, pm, holds = rows[(1, 1, 1)]
    assert (pl, pn, pm) == (1, 1, 1)
    assert holds is True

    even = parity_xor(run_cascade(2, BAL, SYM))
    assert even.gate == "XOR"
    assert even.all_hold is True
    for row in even.rows:
        assert row[5] == (row[3] ^ row[4])


def test_parity_random_sweep():
    rng = np.random.default_rng(99)
    for _ in range(15):
        n = int(rng.integers(1, 26))
        a, b = rng.uniform(0.1, 0.9, 2)
        model = BranchingModel.manual(a, 1.0 - a, b, 1.0 - b)
        c = rng.uniform(0.1, 0.9)
        init = InitialExcitation(math.sqrt(c), math.sqrt(1.0 - c))
        report = parity_xor(run_cascade(n, init, model))
        assert report.all_hold is True
        assert len(report.rows) == len(run_cascade(n, init, model).table)


def test_logical_projection_four_cases():
    # matching m parity pins equal side parities, the other sector pins
    # opposite ones; together the four combinations cover the 2x2 grid
    for n in range(1, 9):
        dist = run_cascade(n, BAL, SYM)
        same = logical_qubit_projection(dist, n % 2)
        other = logical_qubit_projection(dist, 1 - n % 2)
        assert same.allowed == frozenset({(0, 0), (1, 1)})
        assert other.allowed == frozenset({(0, 1), (1, 0)})
        assert same.confined and other.confined
        total = math.fsum(same.support.values()) + math.fsum(other.support.values())
        assert total == pytest.approx(1.0, abs=1e-12)


def test_logical_projection_rejects_bad_parity():
    dist = run_cascade(2, BAL, SYM)
    with pytest.raises(DomainError):
        logical_qubit_projection(dist, 2)


def test_swap_invariant_entropies():
    # relabeling the sublevels leaves every slice entropy unchanged
    fwd = run_cascade(5, InitialExcitation.normalized(0.6, 0.8), SYM)
    rev = run_cascade(5, InitialExcitation.normalized(0.8, 0.6), SYM)
    for m in range(6):
        a = conditional_state(fwd, m)
        b = conditional_state(rev, m)
        if a.kind == "empty":
            assert b.kind == "empty"
            continue
        if a.kind == "entangled-pair":
            assert entanglement_entropy(a) == pytest.approx(
                entanglement_entropy(b), abs=1e-12
            )


def test_conditional_states_match_per_slice_calls():
    # skewed rows underflow part of the support, so empty slices occur
    rng = np.random.default_rng(404)
    empty = 0
    for _ in range(30):
        n = int(rng.integers(1, 300))
        stay_h = float(rng.choice([rng.uniform(0.0, 1.0), 0.995, 1.0]))
        stay_l = float(rng.uniform(0.0, 1.0))
        model = BranchingModel.manual(stay_h, 1.0 - stay_h, 1.0 - stay_l, stay_l)
        c = float(rng.choice([0.0, 1.0, rng.uniform(0.1, 0.9)]))
        init = InitialExcitation(math.sqrt(c), math.sqrt(1.0 - c))
        dist = run_cascade(n, init, model)
        expected = [conditional_state(dist, m) for m in range(n + 1)]
        assert conditional_states(dist) == expected
        empty += sum(cond.kind == "empty" for cond in expected)
    assert empty > 0


# (stay, cross) rows: any split, the absorbing ends, stays in [0.99, 1), and
# a cross rate so small that two crossings underflow, emptying whole slices
_ROWS = st.one_of(
    st.floats(0.0, 1.0).map(lambda p: (p, 1.0 - p)),
    st.sampled_from([0.0, 1.0]).map(lambda p: (p, 1.0 - p)),
    st.floats(0.99, 1.0, exclude_max=True).map(lambda p: (p, 1.0 - p)),
    st.sampled_from([5e-324, 1e-300, 1e-200]).map(lambda t: (1.0, t)),
)


@settings(max_examples=300, deadline=None)
@given(
    n=st.integers(1, 60),
    high=_ROWS,
    low=_ROWS,
    c=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.01, 0.99)),
)
@example(n=9, high=(1.0, 1e-200), low=(0.5, 0.5), c=1.0)
def test_slice_lookups_match_the_full_slice_reference(n, high, low, c):
    model = BranchingModel(high[0], high[1], low[1], low[0])
    init = InitialExcitation(math.sqrt(c), math.sqrt(1.0 - c))
    dist = run_cascade(n, init, model)
    states = conditional_states(dist)
    expected = reference_conditional_states(dist)
    assert len(states) == len(expected) == n + 1
    for state, reference in zip(states, expected):
        assert state == reference
        assert conditional_state(dist, state.measured_m) == state
    assert list(joint_pm(dist).items()) == list(reference_joint_pm(dist).items())


# Tables the slice readers refused before, by the slice m whose read raised;
# the table now refuses each when it is built, naming its first bad entry.
# From (0, 0, 4) on, each was accepted before: an off-support key inside
# [0, N], masses that are not finite and positive, and a float count.
@pytest.mark.parametrize("table, bad_m", [
    ({(2, 2, 0): 1.0}, 2),
    ({(1, 1, 1): 0.5, (0, 1, 3): 0.5}, 1),
    ({(1, 2, 1): 0.75, (0, 3, 2): 0.25}, 3),
    # an entry off [0, n_total] in m, and a slice holding negative mass
    ({(0, 5, 0): 0.5, (1, 2, 1): 0.5}, 2),
    ({(1, 2, 1): 1.5, (1, 1, 2): -0.5}, 1),
    ({(0, 0, 4): 1.0}, 0),
    ({(1, 2, 1): float("nan")}, 2),
    ({(1, 2, 1): float("inf")}, 2),
    ({(1, 2, 1): -0.5}, 2),
    ({(1, 2, 1): 0.0}, 2),
    ({(1, 2, 1): -0.0}, 2),
    ({(1.0, 2, 1): 1.0}, 2),
])
def test_conditional_states_rejects_malformed_slice(table, bad_m):
    message = refusal(table)
    named = [key for key in table if message.startswith(f"entry {key} ")]
    assert len(named) == 1
    key = named[0]
    assert message in (
        f"entry {key} is off the support of N = 4: "
        "l + m + n = N, |l - n| <= 1, l + n >= 1",
        f"entry {key} of N = 4 holds mass {table[key]}, not finite and positive",
    )


@pytest.mark.parametrize("key", [
    (0, 5, 0), (5, 0, 0), (0, 0, 5), (-1, 4, 1), (1, -1, 4),
    # accepted before: inside [0, N] but off the support, and a float count
    # (on which marginals raised a bare TypeError)
    (0, 0, 4), (4, 0, 0), (0, 4, 0), (1.0, 2, 1),
])
def test_marginals_and_joint_pm_refuse_counts_off_range(key):
    # before, marginals raised a bare IndexError on (0, 5, 0), and joint_pm
    # booked its mass at (l, n) = (0, 0); now no such table is built
    table = {key: 0.5, (1, 2, 1): 0.5}
    message = refusal(table)
    assert message == (
        f"entry {key} is off the support of N = 4: "
        "l + m + n = N, |l - n| <= 1, l + n >= 1"
    )
