"""Path enumeration, Monte Carlo sampling, and the coherence audit."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cqwsim import (
    BranchingModel,
    DomainError,
    InitialExcitation,
    JointDistribution,
    SizeError,
    ValidationError,
    coherence_audit,
    enumerate_paths,
    iter_paths,
    run_cascade,
    sample_walks,
    tv_distance,
)

SYM = BranchingModel.symmetric()
H_START = InitialExcitation(1.0, 0.0)
BAL = InitialExcitation.balanced()


def test_iter_paths_counts_and_mass():
    records = list(iter_paths(3, BAL, SYM))
    assert len(records) == 8  # 2 starts x 2^2 branch choices
    assert math.fsum(r.probability for r in records) == pytest.approx(1.0, abs=1e-12)
    for rec in records:
        assert rec.start in ("H", "L")
        assert len(rec.choices) == 2
        assert sum(rec.counts) == 3


def test_iter_paths_skips_impossible_branches():
    records = list(iter_paths(4, H_START, SYM))
    assert all(r.start == "H" for r in records)
    assert len(records) == 8


def test_iter_paths_replay_consistency():
    # walking the recorded choices by hand must land on the recorded counts
    for rec in iter_paths(5, BAL, SYM):
        high = rec.start == "H"
        l = n = 0
        for crossed in rec.choices:
            if high and crossed:
                n += 1
                high = False
            elif (not high) and crossed:
                l += 1
                high = True
        if high:
            n += 1
        else:
            l += 1
        m = 5 - l - n
        assert rec.counts == (l, m, n)


def test_enumerate_paths_hand_tables():
    dist = enumerate_paths(3, H_START, SYM)
    assert isinstance(dist, JointDistribution)
    assert dist.table == {(0, 2, 1): 0.25, (1, 1, 1): 0.5, (1, 0, 2): 0.25}
    single = enumerate_paths(1, InitialExcitation.normalized(0.6, 0.8), SYM)
    assert single.table[(0, 0, 1)] == pytest.approx(0.36, abs=1e-15)
    assert single.table[(1, 0, 0)] == pytest.approx(0.64, abs=1e-15)


def test_enumerate_paths_limits():
    with pytest.raises(SizeError):
        enumerate_paths(21, BAL, SYM)
    with pytest.raises(DomainError):
        enumerate_paths(0, BAL, SYM)


def test_enumeration_matches_recursion():
    rng = np.random.default_rng(20260822)
    for _ in range(12):
        n = int(rng.integers(1, 11))
        a, b = rng.uniform(0.05, 0.95, 2)
        model = BranchingModel.manual(a, 1.0 - a, b, 1.0 - b)
        c = rng.uniform(0.05, 0.95)
        init = InitialExcitation(math.sqrt(c), math.sqrt(1.0 - c))
        exact = run_cascade(n, init, model)
        brute = enumerate_paths(n, init, model)
        assert set(exact.table) == set(brute.table)
        for key, f in exact.table.items():
            assert brute.table[key] == pytest.approx(f, abs=1e-12)


# stays of 0, 1, anywhere, and just below 1 (long runs, tiny weights)
_STAY = st.one_of(
    st.sampled_from([0.0, 1.0]),
    st.floats(0.0, 1.0),
    st.floats(0.99, 1.0, exclude_max=True),
)
_START = st.one_of(
    st.sampled_from([H_START, InitialExcitation(0.0, 1.0)]),
    st.builds(
        InitialExcitation.normalized,
        st.floats(0.01, 1.0), st.floats(0.01, 1.0),
    ),
)


@settings(max_examples=120, deadline=None)
@given(n=st.integers(1, 14), stay_h=_STAY, stay_l=_STAY, init=_START)
def test_enumeration_is_the_fold_of_iter_paths(n, stay_h, stay_l, init):
    model = BranchingModel.manual(stay_h, 1.0 - stay_h, 1.0 - stay_l, stay_l)
    folded = {}
    for record in iter_paths(n, init, model):
        folded[record.counts] = folded.get(record.counts, 0.0) + record.probability
    table = enumerate_paths(n, init, model).table
    assert table == folded
    assert list(table) == list(folded)


def _replayed_walks(n_total, init, model, count, seed):
    """One walker at a time, reading element i of each per-step draw."""
    rng = np.random.Generator(np.random.PCG64(seed))
    draws = [rng.random(count).tolist() for _ in range(n_total)]
    hits = {}
    for i in range(count):
        high = draws[0][i] < init.c_h * init.c_h
        l = n = 0
        for step in range(1, n_total):
            if high and draws[step][i] < model.p_hl:
                n += 1
                high = False
            elif not high and draws[step][i] < model.p_lh:
                l += 1
                high = True
        if high:
            n += 1
        else:
            l += 1
        key = (l, n_total - l - n, n)
        hits[key] = hits.get(key, 0) + 1
    order = sorted(hits, key=lambda key: key[0] * (n_total + 1) + key[2])
    return {key: hits[key] / count for key in order}


@pytest.mark.parametrize("seed", [0, 7, 2**32 + 5])
@pytest.mark.parametrize("n, count", [(1, 5), (4, 1), (7, 333), (12, 64)])
def test_sample_walks_replays_per_walker(n, count, seed):
    model = BranchingModel.manual(0.3, 0.7, 0.45, 0.55)
    init = InitialExcitation.normalized(0.6, 0.8)
    table = sample_walks(n, init, model, count=count, seed=seed).table
    expected = _replayed_walks(n, init, model, count, seed)
    assert table == expected
    assert list(table) == list(expected)


def test_sample_walks_deterministic_per_seed():
    a = sample_walks(6, BAL, SYM, count=20_000, seed=42)
    b = sample_walks(6, BAL, SYM, count=20_000, seed=42)
    c = sample_walks(6, BAL, SYM, count=20_000, seed=43)
    assert a.table == b.table
    assert a.table != c.table


def test_sample_walks_single_trajectory():
    dist = sample_walks(4, H_START, SYM, count=1, seed=7)
    assert len(dist.table) == 1
    ((key, freq),) = dist.table.items()
    assert freq == 1.0
    assert sum(key) == 4


def test_sample_walks_frequencies_converge():
    exact = run_cascade(6, BAL, SYM)
    approx = sample_walks(6, BAL, SYM, count=200_000, seed=3)
    assert tv_distance(exact, approx) < 0.01
    assert math.fsum(approx.table.values()) == pytest.approx(1.0, abs=1e-12)
    assert set(approx.table) <= set(exact.table)


def test_sample_walks_validation():
    with pytest.raises(DomainError):
        sample_walks(4, BAL, SYM, count=0, seed=1)
    with pytest.raises(DomainError):
        sample_walks(0, BAL, SYM, count=10, seed=1)


def test_tv_distance_hand_values():
    p = JointDistribution(n_total=1, table={(0, 0, 1): 1.0})
    q = JointDistribution(n_total=1, table={(0, 0, 1): 0.5, (1, 0, 0): 0.5})
    assert tv_distance(p, q) == 0.5
    assert tv_distance(p, p) == 0.0
    # plain dicts are accepted too
    assert tv_distance({(0, 0, 1): 1.0}, {(1, 0, 0): 1.0}) == 1.0


def test_audit_frozen_interference_case():
    plus = coherence_audit(3, H_START, SYM, sign_mode="all-positive")
    minus = coherence_audit(3, H_START, SYM, sign_mode="cmt-signs")
    assert plus.final_norm == pytest.approx(1.5, abs=1e-12)
    assert minus.final_norm == pytest.approx(0.5, abs=1e-12)
    assert plus.colliding_states == [(1, 1, 1)]
    assert minus.colliding_states == [(1, 1, 1)]


def test_audit_no_collision_preserves_norm():
    # N = 2 from a pure start: every outcome is reached by exactly one path,
    # so squared amplitudes sum to one regardless of sign convention
    for mode in ("all-positive", "cmt-signs"):
        report = coherence_audit(2, H_START, SYM, sign_mode=mode)
        assert report.colliding_states == []
        assert report.final_norm == pytest.approx(1.0, abs=1e-12)


def test_audit_collisions_only_above_n2():
    rng = np.random.default_rng(17)
    for _ in range(8):
        a, b = rng.uniform(0.1, 0.9, 2)
        model = BranchingModel.manual(a, 1.0 - a, b, 1.0 - b)
        report = coherence_audit(2, H_START, model, sign_mode="cmt-signs")
        assert report.colliding_states == []
        assert report.final_norm == pytest.approx(1.0, abs=1e-12)


def test_audit_validation():
    with pytest.raises(ValidationError):
        coherence_audit(3, H_START, SYM, sign_mode="negative")
    with pytest.raises(SizeError):
        coherence_audit(17, H_START, SYM)
    with pytest.raises(DomainError):
        coherence_audit(0, H_START, SYM)


def test_audit_report_shape():
    report = coherence_audit(4, BAL, SYM)
    assert report.sign_mode == "all-positive"
    assert isinstance(report.final_norm, float)
    for key in report.colliding_states:
        assert len(key) == 3
