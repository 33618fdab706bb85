"""Cascade recursion: hand-checked tables, conservation, support structure."""

import math
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cqwsim import (
    BranchingModel,
    DomainError,
    InitialExcitation,
    SequencingError,
    evolve_step,
    initial_state,
    run_cascade,
    support_partition,
    support_set,
    terminal_transition,
)
from oracles import dict_cascade

SYM = BranchingModel.symmetric()
H_START = InitialExcitation(1.0, 0.0)
L_START = InitialExcitation(0.0, 1.0)


def random_model(rng):
    a = rng.uniform(0.05, 0.95)
    b = rng.uniform(0.05, 0.95)
    return BranchingModel.manual(a, 1.0 - a, b, 1.0 - b)


def random_init(rng):
    c = rng.uniform(0.05, 0.95)
    return InitialExcitation(math.sqrt(c), math.sqrt(1.0 - c))


def test_initial_excitation_validation():
    with pytest.raises(DomainError):
        InitialExcitation(1.0, 0.1)  # norm exceeds one
    with pytest.raises(DomainError):
        InitialExcitation(-0.5, math.sqrt(0.75))
    with pytest.raises(DomainError):
        InitialExcitation(float("inf"), 0.0)
    with pytest.raises(DomainError):
        InitialExcitation.normalized(0.0, 0.0)


def test_initial_excitation_normalized_and_balanced():
    init = InitialExcitation.normalized(3.0, 4.0)
    assert init.c_h == pytest.approx(0.6, abs=1e-12)
    assert init.c_l == pytest.approx(0.8, abs=1e-12)
    bal = InitialExcitation.balanced()
    assert bal.c_h == bal.c_l
    assert bal.c_h**2 + bal.c_l**2 == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("c_h, c_l, expected", [
    (1e200, 1.0, (1.0, 1e-200)),
    (3e-170, 4e-170, (0.6, 0.8)),
    (1e-320, 0.0, (1.0, 0.0)),
    (1e308, 1e308, (math.sqrt(0.5), math.sqrt(0.5))),
])
def test_normalized_survives_overflow_and_underflow(c_h, c_l, expected):
    init = InitialExcitation.normalized(c_h, c_l)
    assert init.c_h == pytest.approx(expected[0], rel=1e-15)
    assert init.c_l == pytest.approx(expected[1], rel=1e-15)


@settings(max_examples=300, deadline=None)
@given(c_h=st.floats(0.0, 1e300), c_l=st.floats(0.0, 1e300))
def test_normalized_matches_direct_formula_in_normal_range(c_h, c_l):
    # Wherever the direct sum of squares is a normal float, no bit moves.
    total = c_h * c_h + c_l * c_l
    assume(sys.float_info.min <= total <= sys.float_info.max)
    norm = math.sqrt(total)
    init = InitialExcitation.normalized(c_h, c_l)
    assert (init.c_h, init.c_l) == (c_h / norm, c_l / norm)


def test_initial_state_weights():
    state = initial_state(4, InitialExcitation.normalized(0.6, 0.8))
    assert state.n_total == 4 and state.step == 0
    assert state.weights[("H", 0, 0)] == pytest.approx(0.36, abs=1e-12)
    assert state.weights[("L", 0, 0)] == pytest.approx(0.64, abs=1e-12)
    # pure starts omit the dead branch entirely
    assert set(initial_state(4, H_START).weights) == {("H", 0, 0)}


def test_initial_state_rejects_empty_run():
    with pytest.raises(DomainError):
        initial_state(0, H_START)


def test_single_step_weights():
    model = BranchingModel.manual(0.3, 0.7, 0.6, 0.4)
    state = evolve_step(initial_state(3, InitialExcitation.normalized(0.6, 0.8)), model)
    w = state.weights
    assert w[("H", 0, 0)] == pytest.approx(0.36 * 0.3, abs=1e-15)
    assert w[("L", 0, 1)] == pytest.approx(0.36 * 0.7, abs=1e-15)
    assert w[("H", 1, 0)] == pytest.approx(0.64 * 0.6, abs=1e-15)
    assert w[("L", 0, 0)] == pytest.approx(0.64 * 0.4, abs=1e-15)
    assert state.step == 1
    assert state.mass() == pytest.approx(1.0, abs=1e-15)


def test_sequencing_guards():
    state = initial_state(2, H_START)
    with pytest.raises(SequencingError):
        terminal_transition(state)  # one emission still pending
    stepped = evolve_step(state, SYM)
    with pytest.raises(SequencingError):
        evolve_step(stepped, SYM)  # only the terminal photon remains


def test_cascade_n1_is_terminal_only():
    dist = run_cascade(1, InitialExcitation.normalized(0.6, 0.8), SYM)
    assert dist.table[(0, 0, 1)] == pytest.approx(0.36, abs=1e-15)
    assert dist.table[(1, 0, 0)] == pytest.approx(0.64, abs=1e-15)


def test_cascade_n2_hand_table():
    dist = run_cascade(2, H_START, SYM)
    assert dist.table == {(0, 1, 1): 0.5, (1, 0, 1): 0.5}
    balanced = run_cascade(2, InitialExcitation.balanced(), SYM)
    assert balanced.table[(0, 1, 1)] == pytest.approx(0.25, abs=1e-15)
    assert balanced.table[(1, 0, 1)] == pytest.approx(0.5, abs=1e-15)
    assert balanced.table[(1, 1, 0)] == pytest.approx(0.25, abs=1e-15)


def test_cascade_n3_hand_table():
    dist = run_cascade(3, H_START, SYM)
    assert dist.table[(0, 2, 1)] == pytest.approx(0.25, abs=1e-15)
    assert dist.table[(1, 1, 1)] == pytest.approx(0.5, abs=1e-15)
    assert dist.table[(1, 0, 2)] == pytest.approx(0.25, abs=1e-15)
    assert len(dist.table) == 3


def test_cascade_normalization_random_sweep():
    rng = np.random.default_rng(20260822)
    for _ in range(40):
        n = int(rng.integers(1, 25))
        dist = run_cascade(n, random_init(rng), random_model(rng))
        assert dist.total() == pytest.approx(1.0, abs=1e-12)
        assert all(f > 0.0 for f in dist.table.values())


def test_cascade_support_law_random_sweep():
    rng = np.random.default_rng(7)
    for _ in range(25):
        n = int(rng.integers(1, 28))
        dist = run_cascade(n, random_init(rng), random_model(rng))
        for (l, m, nn) in dist.table:
            assert l + m + nn == n
            assert abs(l - nn) <= 1
            assert l + nn >= 1
        assert (0, n, 0) not in dist.table


def test_cascade_mass_conserved_each_step():
    model = BranchingModel.manual(0.2, 0.8, 0.55, 0.45)
    state = initial_state(9, InitialExcitation.balanced())
    for _ in range(8):
        state = evolve_step(state, model)
        assert state.mass() == pytest.approx(1.0, abs=1e-12)


def test_absorbing_high_branch():
    # p_hl = 0 keeps an H start on the stay line forever: one terminal point
    model = BranchingModel.manual(1.0, 0.0, 0.5, 0.5)
    dist = run_cascade(7, H_START, model)
    assert dist.table == {(0, 6, 1): 1.0}


def test_branch_exclusive_support():
    n = 8
    part = support_partition(n)
    high = run_cascade(n, H_START, SYM)
    low = run_cascade(n, L_START, SYM)
    assert part["h_only"].isdisjoint(low.table.keys())
    assert part["l_only"].isdisjoint(high.table.keys())
    for key in part["shared"]:
        assert key in high.table and key in low.table


def test_support_set_small_cases():
    assert support_set(1) == {(0, 0, 1), (1, 0, 0)}
    assert support_set(2) == {(0, 1, 1), (1, 0, 1), (1, 1, 0)}
    assert support_set(3) == {(0, 2, 1), (1, 1, 1), (1, 0, 2), (2, 0, 1), (1, 2, 0)}


def test_support_set_covers_every_run():
    rng = np.random.default_rng(11)
    for n in (1, 2, 5, 9, 16):
        allowed = support_set(n)
        for _ in range(5):
            dist = run_cascade(n, random_init(rng), random_model(rng))
            assert set(dist.table) <= allowed


def test_support_partition_is_disjoint_cover():
    for n in range(1, 20):
        part = support_partition(n)
        union = part["h_only"] | part["l_only"] | part["shared"]
        assert union == support_set(n)
        total = len(part["h_only"]) + len(part["l_only"]) + len(part["shared"])
        assert total == len(support_set(n))


def test_swap_symmetry_is_exact():
    # exchanging the two sublevels relabels (l, m, n) -> (n, m, l) with
    # bitwise equal masses: each target mass is the same product reordered
    rng = np.random.default_rng(123)
    for _ in range(10):
        n = int(rng.integers(2, 15))
        a, b = rng.uniform(0.05, 0.95), rng.uniform(0.05, 0.95)
        ch = math.sqrt(rng.uniform(0.1, 0.9))
        cl = math.sqrt(1.0 - ch * ch)
        model = BranchingModel.manual(a, 1.0 - a, b, 1.0 - b)
        # relabeled model: the new stay line is the old other row's stay line
        mirror = BranchingModel.manual(1.0 - b, b, 1.0 - a, a)
        fwd = run_cascade(n, InitialExcitation(ch, cl), model)
        rev = run_cascade(n, InitialExcitation(cl, ch), mirror)
        assert set(rev.table) == {(nn, m, l) for (l, m, nn) in fwd.table}
        for (l, m, nn), f in fwd.table.items():
            assert rev.table[(nn, m, l)] == f


def test_amplitudes_are_root_masses():
    dist = run_cascade(5, InitialExcitation.balanced(), SYM)
    amps = dist.amplitudes()
    assert set(amps) == set(dist.table)
    for key, amp in amps.items():
        assert amp == math.sqrt(dist.table[key])


def test_run_cascade_domain_errors():
    with pytest.raises(DomainError):
        run_cascade(0, H_START, SYM)
    with pytest.raises(DomainError):
        run_cascade(-3, H_START, SYM)


# stay probabilities: the row ends, generic values, and near-absorbing
# rows whose long stay runs push the crossing tails below float range
STAY = st.one_of(
    st.sampled_from([0.0, 1.0]),
    st.floats(0.0, 1.0),
    st.floats(0.99, 1.0, exclude_max=True),
)
STARTS = st.one_of(
    st.just(H_START),
    st.just(L_START),
    st.tuples(st.floats(1e-3, 1.0), st.floats(1e-3, 1.0)).map(
        lambda pair: InitialExcitation.normalized(*pair)
    ),
)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 400), stay_h=STAY, stay_l=STAY, init=STARTS)
def test_array_cascade_matches_dict_dp_bitwise(n, stay_h, stay_l, init):
    model = BranchingModel.manual(stay_h, 1.0 - stay_h, 1.0 - stay_l, stay_l)
    table = run_cascade(n, init, model).table
    reference = dict_cascade(n, init, model)
    assert table == reference
    assert list(table) == list(reference)


def test_weights_view_is_read_only_and_positive():
    state = evolve_step(initial_state(5, H_START), BranchingModel.manual(1.0, 0.0, 0.5, 0.5))
    assert dict(state.weights) == {("H", 0, 0): 1.0}
    with pytest.raises(TypeError):
        state.weights[("L", 0, 1)] = 0.5
