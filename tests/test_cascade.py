"""Cascade recursion: hand-checked tables, conservation, support structure."""

import builtins
import math
import re
import sys

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from cqwsim import (
    BranchingModel,
    DomainError,
    InitialExcitation,
    JointDistribution,
    ValidationError,
    WellParams,
    conditional_states,
    enumerate_paths,
    joint_pm,
    marginals,
    parity_xor,
    run_cascade,
    sample_walks,
)
from cqwsim import cascade as cascade_module
from cqwsim.cascade import LIST_LIMIT
from oracles import dict_cascade, pascal_cascade, support_partition, support_set

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


# A valid record, one field set out of its domain, and the message that names it.
_BAD_FIELDS = [
    (WellParams(60.0, 0.0, 0.0, 1.0, 1.25), {"b": -1.0},
     "bias must be nonnegative, got b=-1.0"),
    (BranchingModel(0.5, 0.5, 0.5, 0.5), {"p_hh": 2.0},
     "p_hh=2.0 is not a probability"),
    (InitialExcitation(1.0, 0.0), {"c_l": 1.0},
     "initial amplitudes must be normalized: |c|^2 = 2.0"),
]


@pytest.mark.parametrize("record, change, message", _BAD_FIELDS,
                         ids=["well", "branching", "init"])
def test_records_check_every_construction_route(record, change, message):
    cls = type(record)
    values = [change.get(name, value) for name, value in zip(cls._fields, record)]
    exact = f"^{re.escape(message)}$"
    with pytest.raises(DomainError, match=exact):
        cls(*values)
    with pytest.raises(DomainError, match=exact):
        cls._make(values)
    with pytest.raises(DomainError, match=exact):
        record._replace(**change)
    # the valid routes keep the checked type
    assert type(cls._make(record)) is cls
    assert type(record._replace()) is cls and record._replace() == record


def test_manual_branching_wraps_the_domain_error():
    message = "manual branching: p_hh=2.0 is not a probability"
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        BranchingModel.manual(2.0, -1.0, 0.5, 0.5)


def test_initial_excitation_normalized_and_balanced():
    init = InitialExcitation.normalized(3.0, 4.0)
    assert init.c_h == pytest.approx(0.6, abs=1e-12)
    assert init.c_l == pytest.approx(0.8, abs=1e-12)
    bal = InitialExcitation.balanced()
    assert bal.c_h == bal.c_l
    assert bal.c_h**2 + bal.c_l**2 == pytest.approx(1.0, abs=1e-12)
    # the constructor's checks refuse the scaled pair
    bad = [(-1.0, 0.0), (-3.0, 4.0), (-math.inf, 0.0), (math.nan, 1.0),
           (-1e-320, 1e10)]  # scales to (-0.0, 1.0)
    for c_h, c_l in bad:
        with pytest.raises(DomainError):
            InitialExcitation.normalized(c_h, c_l)


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


# Any amplitude above this squares to inf, so the bound keeps the property's
# whole domain and leaves the assume few draws to reject.
ROOT_MAX = math.sqrt(sys.float_info.max)


@settings(max_examples=300, deadline=None)
@given(c_h=st.floats(0.0, ROOT_MAX), c_l=st.floats(0.0, ROOT_MAX))
def test_normalized_matches_direct_formula_in_normal_range(c_h, c_l):
    # Wherever the direct sum of squares is a normal float, no bit moves.
    total = c_h * c_h + c_l * c_l
    assume(sys.float_info.min <= total <= sys.float_info.max)
    norm = math.sqrt(total)
    init = InitialExcitation.normalized(c_h, c_l)
    assert (init.c_h, init.c_l) == (c_h / norm, c_l / norm)


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


def array_cascade(n_total, init, branching):
    """The numpy kernel at any size: ``_walk_arrays`` per start, then the decay."""
    b = branching
    walk = cascade_module._walk_arrays
    high = walk(n_total - 1, init.c_h * init.c_h, b.p_hh, b.p_hl, b.p_ll, b.p_lh)
    low = walk(n_total - 1, init.c_l * init.c_l, b.p_ll, b.p_lh, b.p_hh, b.p_hl)
    return cascade_module._decay(n_total, high, low).table


def assert_bitwise(table, reference):
    assert table == reference
    assert list(table) == sorted(table)


def cascade_reference(n_total, init, model):
    """What ``run_cascade`` must give bit for bit: the exact table correctly
    rounded when all four rates are 1/2, the dict DP otherwise."""
    if model[:4] == (0.5, 0.5, 0.5, 0.5):
        return pascal_cascade(n_total, init)
    return dict_cascade(n_total, init, model)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 400), stay_h=STAY, stay_l=STAY, init=STARTS)
@example(n=400, stay_h=0.995, stay_l=0.6, init=L_START)  # the H start is skipped
@example(n=37, stay_h=0.5, stay_l=0.5, init=InitialExcitation.normalized(0.6, 0.8))
def test_array_cascade_matches_dict_dp_bitwise(n, stay_h, stay_l, init):
    # run_cascade takes the list kernel at these sizes, or the closed form
    # for equal rates; the array kernel walks every row and must match the
    # dict DP
    model = BranchingModel.manual(stay_h, 1.0 - stay_h, 1.0 - stay_l, stay_l)
    assert_bitwise(run_cascade(n, init, model).table,
                   cascade_reference(n, init, model))
    assert_bitwise(array_cascade(n, init, model), dict_cascade(n, init, model))


# p_hh = 0.999 from a balanced start leaves subnormal masses in the table
@settings(max_examples=3, deadline=None)
@given(
    n=st.integers(LIST_LIMIT - 2, LIST_LIMIT + 40), stay_h=STAY, stay_l=STAY,
    init=STARTS,
)
@example(n=LIST_LIMIT, stay_h=0.999, stay_l=0.5, init=InitialExcitation.balanced())
@example(n=LIST_LIMIT + 1, stay_h=0.999, stay_l=0.5, init=InitialExcitation.balanced())
@example(n=LIST_LIMIT + 1, stay_h=0.995, stay_l=0.6, init=H_START)  # L start skipped
@example(n=LIST_LIMIT + 1, stay_h=0.5, stay_l=0.5, init=L_START)  # equal rates
def test_cascade_matches_dict_dp_across_the_kernel_cutoff(n, stay_h, stay_l, init):
    model = BranchingModel.manual(stay_h, 1.0 - stay_h, 1.0 - stay_l, stay_l)
    table = run_cascade(n, init, model).table
    assert_bitwise(table, cascade_reference(n, init, model))
    if stay_h == 0.999:
        assert 0.0 < min(table.values()) < sys.float_info.min


@pytest.mark.parametrize("rates", [
    (0.995, 0.005, 0.5, 0.5), (0.5, 0.5, 0.995, 0.005),
], ids=["skewed-start", "skewed-partner"])
def test_list_walk_stops_at_a_zero_growing_edge(rates):
    # skewed rows push the crossing tail below float range, as in the
    # benchmark's N = 640 analyze job: the lists stop short of their full
    # length, and the array walk holds only 0.0 past their ends
    steps = 639
    even, odd = cascade_module._walk(steps, 0.36, *rates)
    assert len(even) < steps // 2 + 1 and len(odd) < (steps + 1) // 2
    assert 0.0 not in even[-1:] + odd[-1:]
    full_even, full_odd = cascade_module._walk_arrays(steps, 0.36, *rates)
    for short, full in ((even, full_even), (odd, full_odd)):
        assert full[:len(short)] == short and not any(full[len(short):])
    init = InitialExcitation.normalized(0.6, 0.8)
    model = BranchingModel.manual(*rates)
    table = run_cascade(steps + 1, init, model).table
    assert_bitwise(table, dict_cascade(steps + 1, init, model))
    assert_bitwise(array_cascade(steps + 1, init, model), table)


def test_list_kernel_runs_up_to_the_cutoff(monkeypatch):
    calls = []
    evolve_step = cascade_module.evolve_step

    def counted(even, odd, *rates):
        calls.append(len(even))
        return evolve_step(even, odd, *rates)

    monkeypatch.setattr(cascade_module, "evolve_step", counted)
    model = BranchingModel.manual(0.7, 0.3, 0.45, 0.55)
    run_cascade(LIST_LIMIT, H_START, model)
    assert calls == []
    # one hop per start and ladder step, on arrays of length (N - 1) // 2 + 1
    run_cascade(LIST_LIMIT + 1, InitialExcitation.balanced(), model)
    assert calls == [LIST_LIMIT // 2 + 1] * (2 * LIST_LIMIT)
    # a start of zero weight is not walked
    calls.clear()
    run_cascade(LIST_LIMIT + 1, H_START, model)
    assert calls == [LIST_LIMIT // 2 + 1] * LIST_LIMIT
    # equal rates take the closed form at any N, and no array
    calls.clear()
    run_cascade(LIST_LIMIT + 1, InitialExcitation.balanced(), SYM)
    assert calls == []


def test_lists_run_above_the_cutoff_without_numpy(monkeypatch):
    model = BranchingModel.manual(0.7, 0.3, 0.45, 0.55)
    init = InitialExcitation.balanced()
    with_arrays = run_cascade(LIST_LIMIT + 1, init, model).table
    monkeypatch.setitem(sys.modules, "numpy", None)  # as if not installed
    assert cascade_module._array_kernel() is cascade_module._walk
    assert_bitwise(run_cascade(LIST_LIMIT + 1, init, model).table, with_arrays)


@pytest.mark.parametrize("error", [
    ModuleNotFoundError("No module named 'numpy._core'", name="numpy._core"),
    ImportError("numpy's C extensions failed to load", name="numpy"),
], ids=["missing-submodule", "broken-install"])
def test_array_kernel_raises_when_an_installed_numpy_fails(monkeypatch, error):
    real_import = builtins.__import__

    def failing_import(name, *args, **kwargs):
        if name == "numpy":
            raise error
        return real_import(name, *args, **kwargs)

    assert cascade_module._array_kernel() is cascade_module._walk_arrays
    monkeypatch.setattr(builtins, "__import__", failing_import)
    with pytest.raises(ImportError) as caught:
        cascade_module._array_kernel()
    assert caught.value is error


# equal rates: the correctly rounded exact table, subnormal entries included
# (N = 1100 from a balanced start; a faint L start at N = 1000), and exact
# zeros dropped where the smallest entries round to 0.0 (N = 1100)
@settings(max_examples=25, deadline=None)
@given(n=st.integers(1, 400), init=STARTS)
@example(n=1, init=L_START)
@example(n=400, init=H_START)
@example(n=1100, init=InitialExcitation.balanced())
@example(n=1000, init=InitialExcitation.normalized(1.0, 1e-4))
def test_equal_rates_give_the_correctly_rounded_table(n, init):
    table = run_cascade(n, init, SYM).table
    assert_bitwise(table, pascal_cascade(n, init))
    if n >= 1000:
        assert 0.0 < min(table.values()) < sys.float_info.min


@settings(max_examples=8, deadline=None)
@given(n=st.integers(1, 900), init=STARTS)
@example(n=800, init=InitialExcitation.balanced())
@example(n=LIST_LIMIT + 1, init=L_START)  # above the list cutoff
def test_symmetric_cascade_matches_manual_halves_and_arrays(n, init):
    # manual rows that normalize to 1/2 take the symmetric kind's closed form
    table = run_cascade(n, init, SYM).table
    manual = BranchingModel.manual(0.5, 0.5, 0.5, 0.5)
    assert manual[:4] == SYM[:4]
    assert_bitwise(run_cascade(n, init, manual).table, table)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(1, 12), stay_h=STAY, stay_l=STAY, init=STARTS,
    count=st.integers(1, 50), seed=st.integers(0, 2**32),
)
@example(n=5, stay_h=0.5, stay_l=0.5, init=InitialExcitation.balanced(),
         count=20, seed=0)  # the two starts' keys interleave
@example(n=6, stay_h=0.3, stay_l=0.6, init=L_START, count=7, seed=1)
def test_every_table_lists_its_keys_in_ascending_order(
    n, stay_h, stay_l, init, count, seed
):
    model = BranchingModel.manual(stay_h, 1.0 - stay_h, 1.0 - stay_l, stay_l)
    tables = [
        enumerate_paths(n, init, model).table,
        sample_walks(n, init, model, count, seed).table,
    ]
    # both kernels: the list cutoff set below n puts run_cascade on arrays
    for limit in (LIST_LIMIT, n - 1):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(cascade_module, "LIST_LIMIT", limit)
            tables.append(run_cascade(n, init, model).table)
    for table in tables:
        assert list(table) == sorted(table)
    ordered = JointDistribution(n, tables[-1])
    flipped = JointDistribution(n, dict(reversed(tables[-1].items())))
    assert list(flipped.table.items()) == list(ordered.table.items())
    assert conditional_states(flipped) == conditional_states(ordered)
    assert parity_xor(flipped).rows == parity_xor(ordered).rows
    assert marginals(flipped) == marginals(ordered)
    assert list(joint_pm(flipped).items()) == list(joint_pm(ordered).items())
