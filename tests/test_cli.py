"""End-to-end command-line runs: schemas, exit codes, determinism."""

import ast
import gc
import importlib
import inspect
import io
import json
import os
import re
import runpy
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cqwsim
import cqwsim._run_simulate as run_simulate
import cqwsim.cli as cli
from cqwsim import JointDistribution, eigensolver, run_cascade
from cqwsim.cascade import LIST_LIMIT
from cqwsim.coupling import TUNNELING_DOMINANCE
from cqwsim.eigensolver import DESIGN_TOL
from cqwsim.oracle import AUDIT_LIMIT, ENUM_LIMIT


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def read_json(tmp_path, name):
    return json.loads((Path(tmp_path) / name).read_text())


def test_schema_conformant_config_runs(tmp_path):
    cfg = write_config(tmp_path, {
        "mode": "simulate",
        "n_total": 22,
        "init": {"ch": 0.70710678, "cl": 0.70710678},
        "branching": {"kind": "symmetric"},
    })
    out = tmp_path / "out"
    assert cli.main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    doc = read_json(out, "distribution.json")
    assert doc["n"] == 22
    assert (out / "distribution.csv").exists()
    total = sum(row["f"] for row in doc["table"])
    assert abs(total - 1.0) < 1e-12


def test_manual_row_sum_violation_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "n_total": 4,
        "branching": {
            "kind": "manual",
            "p_hh": 0.6, "p_hl": 0.5, "p_lh": 0.5, "p_ll": 0.5,
        },
    })
    code = cli.main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "validation"


def test_missing_n_total_names_the_key(tmp_path, capsys):
    cfg = write_config(tmp_path, {"branching": {"kind": "symmetric"}})
    code = cli.main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert "n_total" in err["message"]


def test_unknown_key_is_rejected(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "n_total": 4,
        "branching": {"kind": "symmetric"},
        "typo_key": 1,
    })
    code = cli.main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert "typo_key" in err["message"]


@pytest.mark.parametrize("doc, message", [
    ([1, 2], "config root must be a JSON object"),
    ({"well": 3}, "well must be an object"),
    ({"init": {"phase": 0.0}}, "unknown configuration key: init.phase"),
    ({"tolerances": {"energy": 1e-12}}, "unknown configuration key: tolerances"),
])
def test_config_structure_errors(tmp_path, capsys, doc, message):
    cfg = write_config(tmp_path, doc)
    code = cli.main(["simulate", "--n", "4", "--branching", "symmetric",
                     "--config", cfg, "--out", str(tmp_path / "o")])
    assert code == 2
    assert json.loads(capsys.readouterr().err)["message"] == message


@pytest.mark.parametrize("config, flags, message", [
    (b'\xff\xfe{"n_total": 4}', [], "utf-8"),
    (b"[" * 100_000, [], "recursion"),
    (b'{"n_total": ' + b"9" * 5000 + b"}", [], "4300"),
    (None, ["--n", "99999999999999999999"],
     f"n_total must be at most {sys.maxsize // 8}, got 99999999999999999999"),
    (None, ["--samples", str(cli.SAMPLE_LIMIT + 1)],
     f"sample_count must be at most {cli.SAMPLE_LIMIT}, got {cli.SAMPLE_LIMIT + 1}"),
    # an int beyond float range: float() of it raises OverflowError
    (b'{"init": {"ch": 1' + b"0" * 400 + b"}}", [], "init.ch must be finite"),
], ids=["not-utf8", "deep-nesting", "long-integer", "huge-n", "huge-samples",
        "int-beyond-float"])
def test_config_edge_cases_exit_2(tmp_path, capsys, config, flags, message):
    argv = ["verify", "--branching", "symmetric", *flags]
    if "--n" not in flags:
        argv += ["--n", "4"]
    if config is not None:
        path = tmp_path / "config.json"
        path.write_bytes(config)
        argv += ["--config", str(path)]
    out = tmp_path / "o"
    assert cli.main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    diagnostic = json.loads(err)
    assert diagnostic["error"] == "validation"
    assert message in diagnostic["message"]
    assert not out.exists()


@pytest.mark.parametrize("config", [["--config", ""], ["--config="]],
                         ids=["separate", "joined"])
def test_empty_config_path_exits_2(tmp_path, capsys, config):
    out = tmp_path / "o"
    code = cli.main(["simulate", *config, "--n", "3", "--branching", "symmetric",
                     "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    diagnostic = json.loads(err)
    assert diagnostic["error"] == "validation"
    assert diagnostic["message"].startswith("cannot read config file ")
    assert not out.exists()


# numpy refuses arrays of more than sys.maxsize bytes: the largest N that
# still builds float64 arrays is sys.maxsize // 8; the sample count is
# capped where the walks would run for minutes
@pytest.mark.parametrize("argv, key, limit", [
    (["simulate", "--n"], "n_total", sys.maxsize // 8),
    (["verify", "--n", "2", "--samples"], "sample_count", cli.SAMPLE_LIMIT),
], ids=["n", "samples"])
def test_sizes_above_the_array_limit_exit_2(tmp_path, capsys, argv, key, limit):
    out = tmp_path / "o"
    argv = argv + [str(limit + 1), "--branching", "symmetric", "--out", str(out)]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert json.loads(err) == {
        "error": "validation",
        "message": f"{key} must be at most {limit}, got {limit + 1}",
    }
    assert not out.exists()


@pytest.mark.parametrize("flag, value, key", [
    ("--ch", "nan", "init.ch"),
    ("--ch", "inf", "init.ch"),
    ("--cl", "-inf", "init.cl"),
    ("--v1", "nan", "well.v1"),
    ("--v2", "-inf", "well.v2"),
    ("--d", "inf", "well.d"),
    ("--period", "nan", "well.period"),
])
def test_non_finite_flag_exits_2(tmp_path, capsys, flag, value, key):
    out = tmp_path / "o"
    code = cli.main([
        "simulate", "--n", "8", "--branching", "symmetric", f"{flag}={value}",
        "--out", str(out),
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    diagnostic = json.loads(err)
    assert diagnostic["error"] == "validation"
    assert diagnostic["message"].startswith(f"{key} must be finite")
    assert not out.exists()


def test_flags_override_file_values(tmp_path):
    cfg = write_config(tmp_path, {
        "n_total": 4,
        "branching": {"kind": "symmetric"},
        "seed": 1,
    })
    out = tmp_path / "o"
    code = cli.main([
        "simulate", "--config", cfg, "--out", str(out), "--n", "6",
    ])
    assert code == 0
    assert read_json(out, "distribution.json")["n"] == 6


def test_output_format_selection(tmp_path):
    cfg = write_config(tmp_path, {
        "n_total": 5,
        "branching": {"kind": "symmetric"},
    })
    out_json = tmp_path / "aj"
    out_csv = tmp_path / "ac"
    assert cli.main(["simulate", "--config", cfg, "--out", str(out_json),
                     "--format", "json"]) == 0
    assert cli.main(["simulate", "--config", cfg, "--out", str(out_csv),
                     "--format", "csv"]) == 0
    assert {p.name for p in out_json.iterdir()} == {"distribution.json"}
    assert {p.name for p in out_csv.iterdir()} == {"distribution.csv"}


@pytest.mark.parametrize("argv", [
    ["levels", "--v1", "60", "--v2", "0", "--d", "1", "--period", "1.25"],
    ["verify", "--n", "5", "--branching", "symmetric"],
    ["audit", "--n", "5", "--branching", "symmetric"],
], ids=["levels", "verify", "audit"])
def test_csv_format_is_refused_where_no_csv_is_written(tmp_path, capsys, argv):
    out = tmp_path / "o"
    assert cli.main(argv + ["--format", "csv", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert json.loads(err) == {
        "error": "validation",
        "message": f"{argv[0]} mode writes JSON files only; output.format must be "
                   "'json' or 'both', got 'csv'",
    }
    assert not out.exists()


def test_byte_determinism(tmp_path):
    cfg = write_config(tmp_path, {
        "n_total": 12,
        "init": {"ch": 0.70710678, "cl": 0.70710678},
        "branching": {"kind": "symmetric"},
    })
    first = tmp_path / "r1"
    second = tmp_path / "r2"
    for out in (first, second):
        assert cli.main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    for name in ("distribution.json", "distribution.csv"):
        assert (first / name).read_bytes() == (second / name).read_bytes()


def test_design_mode_emits_levels(tmp_path):
    out = tmp_path / "design"
    code = cli.main([
        "design", "--v1", "60", "--v2", "0", "--d", "1", "--out", str(out),
    ])
    assert code == 0
    doc = read_json(out, "design.json")
    assert abs(doc["residual"]) < 1e-9
    assert len(doc["energies"]) == 2
    assert doc["energies"][1] - doc["energies"][0] == pytest.approx(
        doc["bias"], abs=1e-9
    )
    lines = (out / "levels.csv").read_text().splitlines()
    assert lines[0].startswith("index,")
    assert len(lines) == 3


def test_design_rejects_preset_bias(tmp_path, capsys):
    code = cli.main([
        "design", "--v1", "60", "--v2", "0", "--d", "1", "--b", "17",
        "--out", str(tmp_path / "o"),
    ])
    assert code == 2
    assert json.loads(capsys.readouterr().err)["error"] == "validation"


def _refusal(tmp_path, capsys, argv):
    """Run a command that must exit 3; return its one-line diagnostic message."""
    out = tmp_path / "o"
    assert cli.main([*argv, "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    diagnostic = json.loads(err)
    assert diagnostic["error"] == "numeric"
    assert not out.exists()
    return diagnostic["message"]


def test_infeasible_design_exits_3(tmp_path, capsys):
    # the well never holds two levels
    message = _refusal(tmp_path, capsys, ["design", "--v1", "0.5", "--v2", "0", "--d", "0.1"])
    cause = r"no bias B in .* two bound levels for V=0\.005\d*: .* unbound already at B=1e-06$"
    assert re.search(cause, message)


@pytest.mark.parametrize("argv, cause", [
    # the spacing exceeds the bias even where the second level leaves
    (["design", "--v1", "12", "--v2", "0", "--d", "1"], r"spacing exceeds the bias wherever two levels are bound for V=12\.0: .* at B2=\S+, where"),
    # the alignment root would hold a third level
    (["design", "--v1", "70", "--v2", "0", "--d", "1"], r"root holds 3 bound levels, not two, for V=70\.0: B=\S+$"),
    (["levels", "--v1", "70", "--v2", "0", "--d", "1", "--period", "1.25"],
     r"root holds 3 bound levels, not two, for V=70\.0: B=\S+$"),
], ids=["design-spacing-exceeds-bias", "design-three-levels", "levels-three-levels"])
def test_design_refusals_name_cause_and_bias(tmp_path, capsys, argv, cause):
    assert re.search(cause, _refusal(tmp_path, capsys, argv))


def test_design_refusal_is_one_message_from_every_command(tmp_path, capsys):
    # design, levels and physical simulate search one scale-free well, so
    # each well refuses with the same line, naming V = v1 d^2 and the root's
    # bias as B = b d^2
    for v1, d, period, held in (("100", 1.2, "1.5", 4), ("70", 1.0, "1.25", 3)):
        well = ["--v1", v1, "--v2", "0", "--d", repr(d), "--period", period]
        errors = []
        for argv in (["design"], ["levels"], ["simulate", "--n", "8", "--branching", "physical"]):
            assert cli.main([*argv, *well, "--out", str(tmp_path / "o")]) == 3
            errors.append(capsys.readouterr().err)
        assert errors[1:] == errors[:1] * 2
        message = json.loads(errors[0])["message"]
        pattern = rf"alignment root holds {held} bound levels, not two, for V=\S+: B=\S+"
        assert re.fullmatch(pattern, message)
        depth = float(v1) * (d * d)
        assert f"for V={depth}: " in message


def test_design_of_large_potentials_is_the_rescaled_design(tmp_path):
    # (1e8, 0, 0.0005) is the well (25, 0, 1) at 4e6 times its energy scale;
    # the search runs on the scale-free depth (v1 - v2) d^2, so both give
    # the same bias up to the factor d^2, within DESIGN_TOL / d^2
    large, scaled = tmp_path / "large", tmp_path / "scaled"
    argv = ["design", "--v1", "1e8", "--v2", "0", "--d", "0.0005", "--out", str(large)]
    assert cli.main(argv) == 0
    assert cli.main(["design", "--v1", "25", "--v2", "0", "--d", "1", "--out", str(scaled)]) == 0
    bias = read_json(large, "design.json")["bias"]
    assert bias == pytest.approx(
        read_json(scaled, "design.json")["bias"] / 2.5e-07, abs=DESIGN_TOL / 2.5e-07
    )


def test_design_of_a_well_far_wider_than_2_to_53(tmp_path):
    # (60 * 2^-160, 0, 2^80) is the well (60, 0, 1) scaled by 2^80, exactly:
    # the same bias up to 2^-160, and unit norms although a step of 1 from
    # the well's right edge is lost to rounding
    wide, unit = tmp_path / "wide", tmp_path / "unit"
    argv = ["design", "--v1", repr(60 * 2.0**-160), "--v2", "0", "--d", repr(2.0**80)]
    assert cli.main([*argv, "--out", str(wide)]) == 0
    assert cli.main(["design", "--v1", "60", "--v2", "0", "--d", "1", "--out", str(unit)]) == 0
    bias = read_json(unit, "design.json")["bias"]
    assert read_json(wide, "design.json")["bias"] == bias * 2.0**-160

    def norm_residuals(out):
        return [row.split(",")[-1] for row in (out / "levels.csv").read_text().splitlines()]

    assert norm_residuals(wide) == norm_residuals(unit)


def test_levels_solves_only_the_two_lowest_levels(tmp_path, capsys, monkeypatch):
    # the well holds about 31,800 levels; the design search solves levels 0
    # and 1 only, and counts the others to refuse the root. The chain is
    # designed on its scale-free well (1e10, 0, 1), so the diagnostic names
    # V = 1e10 and the bias in units of 1/d^2 = 0.01
    solved = []
    level_energy = eigensolver._level_energy

    def counted(depth, bias, n):
        solved.append(n)
        return level_energy(depth, bias, n)

    monkeypatch.setattr(eigensolver, "_level_energy", counted)
    code = cli.main([
        "levels", "--v1", "1e8", "--v2", "0", "--d", "10", "--period", "11",
        "--out", str(tmp_path / "o"),
    ])
    assert code == 3
    diagnostic = json.loads(capsys.readouterr().err)
    assert diagnostic["error"] == "numeric"
    assert re.fullmatch(
        r"alignment root holds 31831 bound levels, not two, for V=10000000000\.0: B=\S+",
        diagnostic["message"],
    )
    assert set(solved) == {0, 1}


# (V, 0, 1, period / d) at the edge of float range: v1 near 1e122 with
# d = 6.2e-61, and v1 near 1e-119 with d = 1e60. Both were refused once
# ("omega^3 overflows" and "degenerate branching row"), though their rows
# are those of the d = 1 well. p_hh is that well's, with its bias solved to
# float accuracy.
_FLOAT_RANGE_WELLS = [
    (1.5e122, 6.2e-61, 7.7e-61, 0.0030878170457133702),
    (5.766e-119, 1e60, 1.24194e60, 0.0030874009921023626),
]


@pytest.mark.parametrize(
    "v1, d, period, p_hh", _FLOAT_RANGE_WELLS, ids=["v1-1.5e122", "v1-5.766e-119"]
)
def test_levels_at_the_edge_of_float_range(tmp_path, v1, d, period, p_hh):
    # V and period / d formed as solve_chain forms them
    depth, span = (v1 - 0.0) * (d * d), period / d
    for kind in ("physical", "dipole-only"):
        edge, twin = tmp_path / f"edge-{kind}", tmp_path / f"twin-{kind}"
        well = ["--v1", repr(v1), "--v2", "0", "--d", repr(d), "--period", repr(period)]
        free = ["--v1", repr(depth), "--v2", "0", "--d", "1", "--period", repr(span)]
        assert cli.main(["levels", *well, "--branching", kind, "--out", str(edge)]) == 0
        assert cli.main(["levels", *free, "--branching", kind, "--out", str(twin)]) == 0
        rows = [read_json(out, "branching.json") for out in (edge, twin)]
        for key in ("p_hh", "p_hl", "p_lh", "p_ll"):
            assert rows[0][key] == rows[1][key]
        if kind == "physical":
            assert rows[0]["p_hh"] == p_hh
        # everything else is the twin's, scaled on output
        for key in ("omega_minus", "omega_zero", "omega_plus", "delta_e"):
            assert rows[0][key] == rows[1][key] / (d * d)
        coupled = [read_json(out, "coupled.json") for out in (edge, twin)]
        for key in ("bias", "spacing", "e_plus", "e_minus", "delta_e"):
            assert coupled[0][key] == coupled[1][key] / (d * d)
        for key in ("a_plus", "b_plus", "a_minus", "b_minus", "overlap"):
            assert coupled[0][key] == coupled[1][key]
        for key, dip in coupled[1]["dipoles"].items():
            assert coupled[0]["dipoles"][key] == dip * d


def test_levels_refuses_a_splitting_below_the_alignment_residual(tmp_path, capsys):
    # At period 8 tunneling splits the pair by about 3e-18, far below the
    # design's alignment residual (at most DESIGN_TOL), which a splitting
    # would otherwise report. Period 4 is still inside the domain.
    out = tmp_path / "o"
    argv = ["levels", "--v1", "60", "--v2", "0", "--d", "1", "--out", str(out)]
    assert cli.main(argv + ["--period", "8"]) == 3
    diagnostic = json.loads(capsys.readouterr().err)
    assert diagnostic["error"] == "numeric"
    match = re.fullmatch(
        r"tunneling no longer dominates the detuning: tunneling term (\S+) is "
        r"below 100 times the alignment detuning (\S+)", diagnostic["message"],
    )
    tunneling, detuning = float(match[1]), float(match[2])
    assert 0 < tunneling < 1e-16
    assert tunneling < TUNNELING_DOMINANCE * detuning and detuning <= DESIGN_TOL
    assert not out.exists()
    assert cli.main(argv + ["--period", "4"]) == 0
    assert read_json(out, "coupled.json")["delta_e"] > 1e-8


@pytest.mark.parametrize("mode", [
    ["design"], ["levels"], ["simulate", "--n", "22", "--branching", "physical"],
], ids=["design", "levels", "simulate-physical"])
def test_the_bias_is_not_an_option(tmp_path, capsys, mode):
    # the design search sets every bias: neither a flag nor a config key
    # gives one, and the refusal comes before any file is written
    well = {"v1": 70.0, "v2": 0.0, "d": 1.0, "period": 1.25}
    argv = [*mode, *(f"--{key}={value}" for key, value in well.items())]
    assert _diagnostic(capsys, [*argv, "--b", "17.90352138145792"], tmp_path) == (
        "unknown argument: --b"
    )
    config = write_config(tmp_path, {"well": {"b": 17.90352138145792}})
    assert _diagnostic(capsys, [*argv, "--config", config], tmp_path) == (
        "unknown configuration key: well.b"
    )


def test_analyze_mode_outputs(tmp_path):
    cfg = write_config(tmp_path, {
        "n_total": 22,
        "init": {"ch": 0.70710678, "cl": 0.70710678},
        "branching": {"kind": "symmetric"},
    })
    out = tmp_path / "an"
    assert cli.main(["analyze", "--config", cfg, "--out", str(out)]) == 0
    doc = read_json(out, "analysis.json")
    assert doc["n"] == 22
    assert doc["parity"]["gate"] == "XOR"
    assert doc["parity"]["all_hold"] is True
    assert doc["purity"]["idempotency_residual"] <= 1e-12
    kinds = {row["kind"] for row in doc["conditionals"]}
    assert "entangled-pair" in kinds
    heat = (out / "heatmap.csv").read_text().splitlines()
    assert heat[0] == "l,n,p"
    assert len(heat) == 1 + 23 * 23


def test_verify_mode_passes(tmp_path):
    out = tmp_path / "v"
    code = cli.main([
        "verify", "--n", "10", "--branching", "symmetric",
        "--samples", "0", "--out", str(out),
    ])
    assert code == 0
    doc = read_json(out, "oracle_report.json")
    assert set(doc) == {
        "max_abs_diff", "tv_distance", "final_norm", "colliding_states",
    }
    assert doc["max_abs_diff"] <= 1e-10
    assert doc["tv_distance"] is None


def _skewed_cascade(n, init, model):
    """``run_cascade`` with one entry raised by 1e-6, which verify must catch."""
    dist = run_cascade(n, init, model)
    table = dict(dist.table)
    key = sorted(table)[0]
    table[key] = table[key] + 1e-6
    return JointDistribution(n_total=dist.n_total, table=table)


def test_verify_detects_divergence(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "run_cascade", _skewed_cascade)
    out = tmp_path / "v"
    code = cli.main([
        "verify", "--n", "6", "--branching", "symmetric",
        "--samples", "0", "--out", str(out),
    ])
    assert code == 4
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "verification"
    # the report is still written for inspection
    assert read_json(out, "oracle_report.json")["max_abs_diff"] > 1e-10


def _assert_refused_above_cap(tmp_path, capsys, mode, cap, what):
    # the oracle checks its own cap, before any cascade runs, and the CLI
    # reports it as a validation problem: one line, no output directory
    out = tmp_path / "o"
    code = cli.main([
        mode, "--n", str(cap + 1), "--branching", "symmetric", "--out", str(out),
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert json.loads(err) == {
        "error": "validation",
        "message": f"{what} capped at {cap} photons, got {cap + 1}",
    }
    assert not out.exists()


def test_verify_rejects_oversized_n(tmp_path, capsys):
    _assert_refused_above_cap(tmp_path, capsys, "verify", ENUM_LIMIT, "exhaustive enumeration")


def test_audit_rejects_oversized_n(tmp_path, capsys):
    _assert_refused_above_cap(tmp_path, capsys, "audit", AUDIT_LIMIT, "amplitude audit")


def test_verify_at_the_enumeration_limit(tmp_path):
    cfg = write_config(tmp_path, {
        "n_total": ENUM_LIMIT,
        "init": {"ch": 0.6, "cl": 0.8},
        "branching": {
            "kind": "manual", "p_hh": 0.3, "p_hl": 0.7, "p_lh": 0.45, "p_ll": 0.55,
        },
    })
    out = tmp_path / "v"
    code = cli.main(["verify", "--config", cfg, "--samples", "0", "--out", str(out)])
    assert code == 0
    assert read_json(out, "oracle_report.json")["max_abs_diff"] <= cli.VERIFY_TOL


def test_audit_mode_sign_conventions(tmp_path):
    base = ["audit", "--n", "3", "--ch", "1", "--cl", "0",
            "--branching", "symmetric"]
    out_plus = tmp_path / "plus"
    out_minus = tmp_path / "minus"
    assert cli.main(base + ["--out", str(out_plus)]) == 0
    assert cli.main(base + ["--signs", "cmt-signs", "--out", str(out_minus)]) == 0
    plus = read_json(out_plus, "oracle_report.json")
    minus = read_json(out_minus, "oracle_report.json")
    assert plus["final_norm"] == pytest.approx(1.5, abs=1e-12)
    assert minus["final_norm"] == pytest.approx(0.5, abs=1e-12)
    assert plus["colliding_states"] == [[1, 1, 1]]
    assert plus["max_abs_diff"] is None and plus["tv_distance"] is None


def test_missing_branching_source_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, {"n_total": 4})
    code = cli.main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")])
    assert code == 2
    assert "branching" in json.loads(capsys.readouterr().err)["message"]


# Runs ``python -m cqwsim ARGS`` (or only imports the CLI) in a fresh
# interpreter, then prints the exit code, the numpy and scipy modules loaded,
# the cqwsim modules loaded, and which of dataclasses, inspect, argparse and
# gettext are loaded. The process entry ends at os._exit, so the probe makes
# that raise SystemExit and prints after it.
_LOAD_PROBE = """\
import json, os, runpy, sys
def _exit(code):
    raise SystemExit(code)
os._exit = _exit
code = None
if sys.argv[1:] != ["import"]:
    try:
        runpy.run_module("cqwsim", run_name="__main__", alter_sys=True)
    except SystemExit as exc:
        code = exc.code
else:
    import cqwsim.cli
print(json.dumps([code, [m for m in sys.modules if m.split(".")[0] in ("numpy", "scipy")],
                  sorted(m for m in sys.modules if m.split(".")[0] == "cqwsim"),
                  [m for m in ("dataclasses", "inspect", "argparse", "gettext")
                   if m in sys.modules]]))
"""


_PAIR = ["--v1", "60", "--v2", "0", "--d", "1", "--period", "1.25"]
# what every mode loads; the table adds each mode's runner, the physics and
# the analysis
_CLI_MODULES = ["cli", "cascade", "errors", "oracle", "output"]
_PHYSICS = ["eigensolver", "coupling"]
# the modes whose runner is a module of its own, loaded on dispatch
_RUNNER_MODES = ("design", "levels", "simulate", "analyze")


@pytest.mark.parametrize("argv, code, numpy, extra", [
    (["import"], None, False, []),
    (["--help"], 0, False, []),
    (["audit", "--n", "8", "--branching", "symmetric"], 0, False, []),
    (["design", "--v1", "100", "--v2", "0", "--d", "1.1"], 3, False,
     ["_run_design", "eigensolver"]),
    (["levels", "--v1", "5", "--v2", "0", "--d", "1", "--period", "1.5"], 3, False, ["_run_levels", *_PHYSICS]),
    (["simulate", "--n", "0", "--branching", "symmetric"], 2, False, []),
    (["simulate", "--n", "8", "--branching", "symmetric", "--bogus", "1"], 2, False, []),
    (["simulate", "--n", "8", "--branching", "symmetric"], 0, False, ["_run_simulate"]),
    (["analyze", "--n", "8", "--branching", "symmetric"], 0, False,
     ["_run_analyze", "analysis"]),
    (["design", "--v1", "60", "--v2", "0", "--d", "1"], 0, False,
     ["_run_design", "eigensolver"]),
    (["levels", *_PAIR], 0, False, ["_run_levels", *_PHYSICS]),
    (["simulate", "--n", "22", "--branching", "physical", *_PAIR], 0, False,
     ["_run_simulate", *_PHYSICS]),
    (["simulate", "--n", "22", "--branching", "dipole-only", *_PAIR], 0, False,
     ["_run_simulate", *_PHYSICS]),
    (["simulate", "--n", "8", "--branching", "symmetric", *_PAIR], 0, False,
     ["_run_simulate", "eigensolver"]),
    (["simulate", "--n", str(LIST_LIMIT - 1), "--branching", "symmetric", "--ch", "1",
      "--cl", "0"], 0, False, ["_run_simulate"]),
    (["simulate", "--n", str(LIST_LIMIT), "--branching", "symmetric"], 0, False,
     ["_run_simulate"]),
    (["analyze", "--n", str(LIST_LIMIT), "--branching", "symmetric"], 0, False,
     ["_run_analyze", "analysis"]),
    (["simulate", "--n", str(LIST_LIMIT + 1), "--branching", "symmetric"], 0, False,
     ["_run_simulate"]),
    (["simulate", "--n", str(LIST_LIMIT + 1), "--config", "manual.json"], 0, True,
     ["_run_simulate"]),
    (["verify", "--n", "8", "--branching", "symmetric"], 0, False, []),
    (["verify", "--n", "8", "--branching", "symmetric", "--samples", "1000"],
     0, False, []),
], ids=["import", "help", "audit", "design", "levels", "simulate-n0",
        "simulate-bad-flag", "simulate",
        "analyze", "design-feasible", "levels-feasible", "simulate-physical",
        "simulate-dipole-only", "simulate-symmetric-with-well",
        "simulate-equal-walk", "simulate-at-cutoff", "analyze-at-cutoff",
        "simulate-symmetric-above-cutoff", "simulate-array-cascade", "verify",
        "verify-samples"])
def test_cli_loads_numpy_only_to_build_arrays(tmp_path, argv, code, numpy, extra):
    # equal rates run in closed form at any N; only other rows build arrays
    write_config(tmp_path, {"init": {"ch": 0.6, "cl": 0.8}, "branching": {
        "kind": "manual", "p_hh": 0.7, "p_hl": 0.3, "p_lh": 0.45, "p_ll": 0.55}},
        "manual.json")
    src = Path(cqwsim.__file__).resolve().parents[1]
    out = [] if argv[0] in ("import", "--help") else ["--out", str(tmp_path / "o")]
    result = subprocess.run(
        [sys.executable, "-c", _LOAD_PROBE, *argv, *out],
        env={**os.environ, "PYTHONPATH": str(src)}, cwd=tmp_path,
        capture_output=True, text=True, check=True,
    )
    exit_code, loaded, package, stdlib = json.loads(result.stdout.splitlines()[-1])
    assert exit_code == code
    assert not any(m.startswith("scipy") for m in loaded)
    assert ("numpy" in loaded) == numpy
    if not numpy:
        assert loaded == []
    assert package == sorted(
        ["cqwsim"] + [f"cqwsim.{name}" for name in _CLI_MODULES + extra]
    )
    # a command that reaches dispatch loads its own runner and no other's,
    # and only analyze loads the heatmap writer, which lives in its runner
    runners = [m for m in package if m.startswith("cqwsim._run_")]
    dispatched = argv[0] in _RUNNER_MODES and code != 2
    assert runners == ([f"cqwsim._run_{argv[0]}"] if dispatched else [])
    assert ("cqwsim._run_analyze" in package) == (argv[0] == "analyze")
    # numpy imports inspect itself; cqwsim imports none of the four
    assert stdlib == (["inspect"] if numpy else [])


def test_symmetric_simulate_at_n_1e4_writes_the_same_bytes_without_numpy(tmp_path):
    # far above the list cutoff, equal rates load no numpy, and blocking it
    # (a None entry in sys.modules, as if not installed) changes no byte
    src = Path(cqwsim.__file__).resolve().parents[1]
    argv = ["simulate", "--n", "10000", "--branching", "symmetric"]
    outputs = []
    for name, prefix in (("numpy", ""), ("blocked", 'sys.modules["numpy"] = None\n')):
        probe = _LOAD_PROBE.replace("code = None\n", "code = None\n" + prefix, 1)
        result = subprocess.run(
            [sys.executable, "-c", probe, *argv, "--out", str(tmp_path / name)],
            env={**os.environ, "PYTHONPATH": str(src)}, cwd=tmp_path,
            capture_output=True, text=True, check=True,
        )
        exit_code, loaded, _, _ = json.loads(result.stdout.splitlines()[-1])
        assert exit_code == 0
        assert loaded == ([] if name == "numpy" else ["numpy"])  # the None entry
        outputs.append(_files(tmp_path / name))
    assert outputs[0] == outputs[1] != {}


def test_output_loads_no_module_beyond_json():
    # json loads json.encoder, whose C string escaper the writers use
    probe = (
        "import json, sys; before = set(sys.modules); import cqwsim.output; "
        "print(json.dumps(sorted(set(sys.modules) - before)))"
    )
    src = Path(cqwsim.__file__).resolve().parents[1]
    result = subprocess.run(
        [sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, check=True,
    )
    # __future__ is the annotations import every cqwsim module starts with
    assert json.loads(result.stdout) == [
        "__future__", "cqwsim", "cqwsim.errors", "cqwsim.output",
    ]


def _run_to_stdout(argv, stdout, cwd, unbuffered):
    """``python -m cqwsim ARGV`` with its stdout on ``stdout``."""
    src = Path(cqwsim.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return subprocess.run(
        [sys.executable, "-m", "cqwsim", *argv], stdout=stdout,
        stderr=subprocess.PIPE, env=env, cwd=cwd, text=True, timeout=120,
    )


def _files(out):
    return {path.name: path.read_bytes() for path in out.iterdir()}


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv", [
    ["simulate", "--n", "5", "--branching", "symmetric"],
    ["analyze", "--n", "5", "--branching", "symmetric"],
    ["--help"],
], ids=["simulate", "analyze", "help"])
def test_closed_stdout_writes_every_file_and_keeps_the_exit_code(
    tmp_path, capsys, argv, unbuffered
):
    # a reader that quits early (`cqwsim ... | head -0`): every "wrote" line
    # hits a closed pipe, and a buffered stdout still holds it at exit
    out = [] if argv == ["--help"] else ["--out", "o"]
    read, write = os.pipe()
    os.close(read)
    try:
        result = _run_to_stdout([*argv, *out], write, tmp_path, unbuffered)
    finally:
        os.close(write)
    assert (result.returncode, result.stderr) == (0, "")
    if out:
        assert cli.main([*argv, "--out", str(tmp_path / "normal")]) == 0
        capsys.readouterr()
        assert _files(tmp_path / "o") == _files(tmp_path / "normal") != {}


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_unwritable_stdout_is_a_diagnostic(tmp_path, unbuffered):
    # a full disk behind stdout is an error, reported as the output
    # directory's would be: one JSON line and exit 2, no traceback
    with open("/dev/full", "w") as full:
        result = _run_to_stdout(
            ["simulate", "--n", "5", "--branching", "symmetric", "--out", "o"],
            full, tmp_path, unbuffered,
        )
    assert result.returncode == 2
    assert json.loads(result.stderr) == {
        "error": "validation",
        "message": "cannot write stdout: [Errno 28] No space left on device",
    }


def test_main_leaves_the_collector_as_it_found_it(tmp_path, capsys, monkeypatch):
    # main touches no collector state: tests and the benchmark's tracer call
    # main in-process, and conftest's ResourceWarning rule needs the collector
    before = (gc.get_freeze_count(), gc.isenabled())
    out = ["--out", str(tmp_path / "o")]
    codes = [
        cli.main(["simulate", "--n", "8", "--branching", "symmetric", *out]),
        cli.main(["simulate", "--n", "0", "--branching", "symmetric", *out]),
        cli.main(["design", "--v1", "100", "--v2", "0", "--d", "1.1", *out]),
    ]
    monkeypatch.setattr(cli, "run_cascade", _skewed_cascade)
    codes.append(cli.main(["verify", "--n", "6", "--branching", "symmetric", *out]))
    capsys.readouterr()
    assert codes == [0, 2, 3, 4]
    assert (gc.get_freeze_count(), gc.isenabled()) == before


def test_console_script_and_module_run_the_same_entry(monkeypatch):
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    root = Path(cqwsim.__file__).resolve().parents[2]
    scripts = tomllib.loads((root / "pyproject.toml").read_text())["project"]["scripts"]
    module, _, name = scripts["cqwsim"].partition(":")
    assert getattr(sys.modules[module], name) is cli.entry
    calls = []
    monkeypatch.setattr(cli, "entry", lambda: calls.append("entry"))
    runpy.run_module("cqwsim", run_name="__main__")
    assert calls == ["entry"]


def _entry_process(argv, cwd, prelude=""):
    """``python -m cqwsim ARGV`` as a fresh process, or with ``prelude`` that
    code and then ``cli.entry()``; stdout goes to the file ``cwd/stdout``,
    block-buffered, and the result holds the exit code and stderr."""
    src = Path(cqwsim.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    env.pop("PYTHONUNBUFFERED", None)
    start = ["-m", "cqwsim"]
    if prelude:
        start = ["-c", prelude + "from cqwsim.cli import entry\nentry()\n"]
    with open(cwd / "stdout", "w") as stdout:
        return subprocess.run(
            [sys.executable, *start, *argv], stdout=stdout, stderr=subprocess.PIPE,
            env=env, cwd=cwd, text=True, timeout=120,
        )


@pytest.mark.parametrize("argv, prelude, code, error", [
    (["simulate", "--n", "5", "--branching", "symmetric"], "", 0, None),
    (["analyze", "--n", "5", "--branching", "symmetric"], "", 0, None),
    (["--help"], "", 0, None),
    (["simulate", "--n", "0", "--branching", "symmetric"], "", 2, "validation"),
    (["design", "--v1", "100", "--v2", "0", "--d", "1.1"], "", 3, "numeric"),
    # a tolerance no result meets: the report is written, then verify fails
    (["verify", "--n", "6", "--branching", "symmetric"],
     "import cqwsim.cli\ncqwsim.cli.VERIFY_TOL = -1.0\n", 4, "verification"),
], ids=["simulate", "analyze", "help", "exit-2", "exit-3", "exit-4"])
def test_process_exits_with_mains_code_and_flushed_streams(tmp_path, argv, prelude,
                                                            code, error):
    # the process ends at os._exit: its code is main's, the stdout file holds
    # a "wrote" line for every file written, and a failure its one stderr line
    out = [] if argv == ["--help"] else ["--out", "o"]
    result = _entry_process([*argv, *out], tmp_path, prelude)
    assert result.returncode == code
    lines = (tmp_path / "stdout").read_text().splitlines()
    if not out:
        assert lines[0].startswith("usage: cqwsim ") and result.stderr == ""
        return
    written = sorted(path.name for path in (tmp_path / "o").glob("*"))
    assert sorted(lines) == [f"wrote {Path('o', name)}" for name in written]
    assert (written != []) == (code in (0, 4))
    if error is None:
        assert result.stderr == ""
    else:
        assert result.stderr.count("\n") == 1
        assert json.loads(result.stderr)["error"] == error


def test_process_runs_each_atexit_callback_once(tmp_path):
    prelude = "import atexit\natexit.register(print, 'atexit callback')\n"
    argv = ["simulate", "--n", "5", "--branching", "symmetric", "--out", "o"]
    result = _entry_process(argv, tmp_path, prelude)
    assert (result.returncode, result.stderr) == (0, "")
    # the callback runs before the last flush, so its line reaches the file
    lines = (tmp_path / "stdout").read_text().splitlines()
    assert lines.count("atexit callback") == 1 and lines[-1] == "atexit callback"
    assert len(lines) == 3


@pytest.mark.skipif(not os.path.exists("/bin/sh"), reason="needs /bin/sh")
def test_process_started_without_stdout_writes_every_file(tmp_path):
    # `cqwsim ... >&-`: Python sets sys.stdout to None, so no line is printed
    src = Path(cqwsim.__file__).resolve().parents[1]
    argv = ["simulate", "--n", "5", "--branching", "symmetric"]
    result = subprocess.run(
        ["/bin/sh", "-c", 'exec "$@" >&-', "sh", sys.executable, "-m", "cqwsim",
         *argv, "--out", "o"],
        env={**os.environ, "PYTHONPATH": str(src)}, cwd=tmp_path,
        stderr=subprocess.PIPE, text=True, timeout=120,
    )
    assert (result.returncode, result.stderr) == (0, "")
    assert cli.main([*argv, "--out", str(tmp_path / "normal")]) == 0
    assert _files(tmp_path / "o") == _files(tmp_path / "normal") != {}


@pytest.mark.skipif(not os.path.exists("/bin/sh"), reason="needs /bin/sh")
@pytest.mark.parametrize("redirect", ["2>&-", "2</dev/null"], ids=["closed", "read-only"])
@pytest.mark.parametrize("argv, code", [
    (["simulate", "--n", "0", "--branching", "symmetric"], 2),
    (["design", "--v1", "100", "--v2", "0", "--d", "1.1"], 3),
], ids=["exit-2", "exit-3"])
def test_failure_without_a_writable_stderr_keeps_its_exit_code(tmp_path, argv, code,
                                                                redirect):
    # fd 2 closed at start (sys.stderr is None) or open for reading only: the
    # diagnostic is dropped, never printed to stdout, and the code is kept
    src = Path(cqwsim.__file__).resolve().parents[1]
    result = subprocess.run(
        ["/bin/sh", "-c", f'exec "$@" {redirect}', "sh", sys.executable, "-m", "cqwsim",
         *argv, "--out", "o"],
        env={**os.environ, "PYTHONPATH": str(src)}, cwd=tmp_path,
        stdout=subprocess.PIPE, text=True, timeout=120,
    )
    assert (result.returncode, result.stdout) == (code, "")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("argv, code", [
    (["import"], None),
    (["--help"], 0),
    (["design", "--v1", "60", "--v2", "0", "--d", "1"], 0),
    (["levels", *_PAIR], 0),
    (["simulate", "--n", "22", "--branching", "physical", *_PAIR], 0),
    (["simulate", "--n", "0", "--branching", "symmetric"], 2),
    (["analyze", "--n", "8", "--branching", "symmetric"], 0),
    (["verify", "--n", "8", "--branching", "symmetric", "--samples", "1000"], 0),
    (["audit", "--n", "8", "--branching", "symmetric"], 0),
    (["verify", "--n", "8", "--branching", "symmetric"], 0),
], ids=["import", "help", "design", "levels", "simulate-physical", "simulate-n0",
        "analyze", "verify", "audit", "verify-no-samples"])
def test_no_mode_loads_typing(tmp_path, argv, code):
    # without site, which may load typing or random before any cqwsim code
    # runs; only the Monte Carlo sampler loads random
    src = Path(cqwsim.__file__).resolve().parents[1]
    out = [] if argv[0] in ("import", "--help") else ["--out", str(tmp_path / "o")]
    probe = _LOAD_PROBE + (
        'print(json.dumps(["typing" in sys.modules, "random" in sys.modules]))\n'
    )
    result = subprocess.run(
        [sys.executable, "-S", "-c", probe, *argv, *out],
        env={**os.environ, "PYTHONPATH": str(src)}, cwd=tmp_path,
        capture_output=True, text=True, check=True,
    )
    *_, report, loaded = result.stdout.splitlines()
    typing_loaded, random_loaded = json.loads(loaded)
    assert json.loads(report)[0] == code
    assert typing_loaded is False
    assert random_loaded == (argv[0] == "verify" and "--samples" in argv)


def test_numpy_is_an_optional_extra():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    root = Path(cqwsim.__file__).resolve().parents[2]
    project = tomllib.loads((root / "pyproject.toml").read_text())["project"]
    assert project["dependencies"] == []
    extras = project["optional-dependencies"]
    for extra in ("arrays", "test"):
        numpy = [req for req in extras[extra] if re.match(r"numpy\b", req)]
        assert numpy == ["numpy>=1.24"]


def _import_sites(node, top, scope=""):
    """The enclosing def of each statement in ``node`` that imports ``top``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield from _import_sites(child, top, f"{scope}.{child.name}".lstrip("."))
            continue
        if isinstance(child, ast.Import):
            names = [alias.name for alias in child.names]
        elif isinstance(child, ast.ImportFrom) and child.level == 0:
            names = [child.module]
        else:
            names = []
        if any(name.split(".")[0] == top for name in names):
            yield scope
        yield from _import_sites(child, top, scope)


def _package_import_sites(top):
    """(module file, enclosing def) of each import of ``top`` in the package;
    the def is "" for an import at module level."""
    package = Path(cqwsim.__file__).parent
    return [
        (path.relative_to(package).as_posix(), scope)
        for path in sorted(package.rglob("*.py"))
        for scope in _import_sites(ast.parse(path.read_text(), str(path)), top)
    ]


def test_scipy_is_imported_only_inside_coupling_simpson():
    # scipy is a test dependency: no module may import it at load, and the
    # one function that imports it is the benchmark tracer's quadrature target
    assert _package_import_sites("scipy") == [("coupling.py", "simpson")]


def test_no_module_imports_typing():
    # the records are collections.namedtuple classes and the annotation-only
    # names come from collections.abc
    assert _package_import_sites("typing") == []


def test_no_module_uses_builtin_sum():
    # from Python 3.12 the builtin sum of floats is compensated, so a sum
    # with it would give other bytes on other interpreters; the package adds
    # left to right with functools.reduce(operator.add, ...)
    package = Path(cqwsim.__file__).parent
    uses = [
        (path.relative_to(package).as_posix(), node.lineno)
        for path in sorted(package.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Name) and node.id == "sum"
    ]
    assert uses == []


def test_docs_state_no_time_figures():
    # README and the package's comments and docstrings state contracts; a
    # measured time goes stale with the next change, so it belongs in
    # CHANGES.md. A number after ^, _ or a letter is math (int_0^1 s ds).
    figure = re.compile(r"(?<![\w^.])\d+(?:\.\d+)?(?:e[-+]?\d+)? ?(?:ms|µs|us|ns)\b"
                        r"|(?<![\w^.])\d+\.\d+ ?s\b")
    package = Path(cqwsim.__file__).resolve().parent
    paths = [package.parents[1] / "README.md", *sorted(package.glob("*.py"))]
    found = [
        (path.name, number, match.group())
        for path in paths
        for number, line in enumerate(path.read_text().splitlines(), 1)
        for match in figure.finditer(line)
    ]
    assert found == []


def test_numpy_is_imported_only_where_arrays_are_built():
    # numpy is an optional extra: no module imports it at load; the cascade
    # probes for it above its list cutoff, and the other three build arrays
    assert _package_import_sites("numpy") == [
        ("cascade.py", "_walk_arrays"), ("cascade.py", "_array_kernel"),
        ("coupling.py", "sample_chain_waves"), ("eigensolver.py", "evaluate_wave"),
    ]


def test_namespace_resolves_lazily():
    import importlib

    for name in cqwsim.__all__:
        home = importlib.import_module(f"cqwsim.{cqwsim._HOME[name]}")
        assert getattr(cqwsim, name) is getattr(home, name)
    namespace = {}
    exec("from cqwsim import *", namespace)
    assert {n for n in namespace if not n.startswith("__")} == set(cqwsim.__all__)
    assert namespace["run_cascade"] is cqwsim.cascade.run_cascade
    assert eigensolver is importlib.import_module("cqwsim.eigensolver")
    assert set(cqwsim.__all__) <= set(dir(cqwsim))
    with pytest.raises(AttributeError, match="no_such_name"):
        cqwsim.no_such_name


@pytest.mark.parametrize("argv", [
    ["simulate", "--n", "abc", "--branching", "symmetric"],
    ["simulate", "--n", "4", "--branching", "weird"],
    ["simulate", "--n", "4", "--branching", "symmetric", "--bogus", "1"],
    ["simulate", "--n", "4", "--format", "xml", "--branching", "symmetric"],
    ["bogus", "--n", "4"],
    [],
])
def test_bad_command_line_is_a_json_diagnostic(tmp_path, capsys, argv):
    out = tmp_path / "o"
    assert cli.main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert set(json.loads(err)) == {"error", "message"}
    assert not out.exists()


def test_help_lists_every_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["simulate", "--help"])
    assert exc.value.code == 0
    text = " ".join(capsys.readouterr().out.split())
    flags = [spec for spec in cli._KEYS.values() if spec.flag]
    assert len(flags) == 13
    for spec in flags:
        assert spec.flag in text and spec.help in text
    assert "--config" in text


@pytest.mark.parametrize("argv", [
    ["simulate", "--n", "4", "--branching", "symmetric", "-h"],
    ["--help"],
], ids=["h-after-flags", "help-without-mode"])
def test_help_anywhere_lists_every_flag(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 0
    text = capsys.readouterr().out
    for spec in cli._KEYS.values():
        if spec.flag:
            assert f"{spec.flag} " in text and spec.help in text
    assert "--config" in text


def _run_files(out, *flags):
    assert cli.main(["simulate", "--branching", "symmetric", *flags,
                     "--out", str(out)]) == 0
    return {path.name: path.read_bytes() for path in out.iterdir()}


def test_equals_and_space_forms_write_identical_files(tmp_path):
    spaced = _run_files(tmp_path / "a", "--n", "5", "--ch", "0.6")
    joined = _run_files(tmp_path / "b", "--n=5", "--ch=0.6")
    assert sorted(spaced) == ["distribution.csv", "distribution.json"]
    assert spaced == joined


def test_repeated_flag_keeps_its_last_value(tmp_path):
    assert _run_files(tmp_path / "a", "--n", "9", "--n=2", "--n", "5") == (
        _run_files(tmp_path / "b", "--n", "5")
    )


def _diagnostic(capsys, argv, tmp_path):
    out = tmp_path / "o"
    assert cli.main(argv[:1] + ["--out", str(out)] + argv[1:]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and not out.exists()
    diagnostic = json.loads(err)
    assert diagnostic["error"] == "validation"
    return diagnostic["message"]


def test_negative_amplitude_reaches_the_sign_check(tmp_path, capsys):
    argv = ["simulate", "--n", "4", "--branching", "symmetric", "--ch", "-3", "--cl", "4"]
    assert "must be nonnegative" in _diagnostic(capsys, argv, tmp_path)


def test_flag_without_a_value_exits_2(tmp_path, capsys):
    argv = ["simulate", "--n", "4", "--branching", "symmetric", "--seed"]
    assert "--seed" in _diagnostic(capsys, argv, tmp_path)


def test_abbreviated_flag_exits_2_naming_it(tmp_path, capsys):
    # flags are exact long names: a prefix is an unknown flag
    argv = ["simulate", "--n", "4", "--bran", "symmetric"]
    assert "--bran" in _diagnostic(capsys, argv, tmp_path)


# one valid value per flagged key, as a flag string and as a JSON value
_FLAG_VALUES = {
    "well.v1": ("61.5", 61.5), "well.v2": ("-2", -2.0), "well.d": ("1.1e0", 1.1),
    "well.period": ("1.3", 1.3), "n_total": ("7", 7),
    "init.ch": ("0.6", 0.6), "init.cl": ("0.8", 0.8),
    "branching.kind": ("manual", "manual"), "output.dir": ("res", "res"),
    "output.format": ("json", "json"), "seed": ("11", 11),
    "sample_count": ("300", 300), "sign_mode": ("cmt-signs", "cmt-signs"),
}
_BASE = {
    "n_total": 4,
    "well": {"v1": 60.0, "v2": 0.0, "d": 1.0, "period": 1.25},
    "branching": {"kind": "symmetric", "p_hh": 0.3, "p_hl": 0.7,
                  "p_lh": 0.6, "p_ll": 0.4},
}


def test_flag_values_cover_every_flagged_key():
    assert set(_FLAG_VALUES) == {key for key, spec in cli._KEYS.items() if spec.flag}


def test_readme_key_table_lists_every_key_and_flag():
    # README's "key | flag | default | meaning" table against _KEYS: one
    # row per key, and a row of several keys spells the later ones without
    # the block, as `branching.p_hh`, `p_hl`
    readme = Path(cqwsim.__file__).resolve().parents[2] / "README.md"
    lines = iter(readme.read_text().splitlines())
    next(line for line in lines if line == "| key | flag | default | meaning |")
    next(lines)  # the |---| rule
    table = {}
    for line in lines:
        if not line.startswith("|"):
            break
        names, flag = (cell.strip() for cell in line.split("|")[1:3])
        names = re.findall(r"`([\w.]+)`", names)
        block = names[0].rpartition(".")[0]
        for name in names:
            key = name if "." in name or not block else f"{block}.{name}"
            table[key] = flag.strip("`") if flag.startswith("`") else None
    assert table == {key: spec.flag for key, spec in cli._KEYS.items()}


def test_record_docstrings_name_their_fields():
    # README promises each record's fields and types in its docstring: the
    # paragraph starting "Fields:", split on ";" and read up to each "(",
    # lists exactly _fields, in order
    modules = [
        importlib.import_module(f"cqwsim.{path.stem}")
        for path in sorted(Path(cqwsim.__file__).resolve().parent.glob("*.py"))
        if not path.stem.startswith("__")
    ]
    records = [
        value
        for module in modules
        for value in vars(module).values()
        if isinstance(value, type) and issubclass(value, tuple)
        and hasattr(value, "_fields") and value.__module__ == module.__name__
    ]
    assert "SolvedChain" in {record.__name__ for record in records}
    mismatched = []
    for record in records:
        paragraph = re.search(r"^Fields:(.*?)(?:\n\n|\Z)", inspect.getdoc(record) or "",
                              re.S | re.M)
        named = () if paragraph is None else tuple(
            name.strip()
            for part in paragraph.group(1).split(";")
            for name in part.partition("(")[0].split(",")
        )
        if named != record._fields:
            mismatched.append((record.__name__, named, record._fields))
    assert mismatched == []


def test_readme_names_only_constants_that_exist():
    # each backticked UPPER_CASE name in README is assigned at the top level
    # of some module of the package
    package = Path(cqwsim.__file__).resolve().parent
    readme = package.parents[1] / "README.md"
    named = set(re.findall(r"`([A-Z][A-Z0-9_]+)`", readme.read_text()))
    assert named
    defined = {
        target.id
        for path in package.glob("*.py")
        for node in ast.parse(path.read_text(), str(path)).body
        if isinstance(node, (ast.Assign, ast.AnnAssign))
        for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
        if isinstance(target, ast.Name)
    }
    assert named - defined == set()


@pytest.mark.parametrize("key", sorted(_FLAG_VALUES))
def test_flag_string_equals_the_config_file_value(tmp_path, key):
    text, value = _FLAG_VALUES[key]
    document = json.loads(json.dumps(_BASE))
    parent, _, name = key.rpartition(".")
    (document.setdefault(parent, {}) if parent else document)[name] = value
    from_file = cli.load_config("simulate", write_config(tmp_path, document), {})
    base = write_config(tmp_path, _BASE, "base.json")
    args = cli._parse_args(["simulate", "--config", base, cli._KEYS[key].flag, text])
    from_flag = cli.load_config(*args)
    assert from_flag == from_file
    assert from_flag != cli.load_config("simulate", base, {})


def test_huge_amplitudes_normalize(tmp_path):
    out = tmp_path / "o"
    code = cli.main([
        "simulate", "--n", "3", "--branching", "symmetric",
        "--ch", "1e308", "--cl", "1e308", "--out", str(out),
    ])
    assert code == 0
    init = read_json(out, "distribution.json")["init"]
    assert init["ch"] == init["cl"] == pytest.approx(0.5**0.5, rel=1e-15)


@pytest.mark.parametrize("argv, target", [
    (["simulate", "--n", "8"], "run_cascade"),
    (["verify", "--n", "4", "--samples", "100"], "sample_walks"),
])
def test_out_of_memory_exits_3(tmp_path, capsys, monkeypatch, argv, target):
    def exhausted(*args):
        raise MemoryError("Unable to allocate 72.8 TiB")

    # patched where the mode's runner binds it: simulate's own module, or cli
    monkeypatch.setattr(run_simulate if argv[0] == "simulate" else cli, target, exhausted)
    code = cli.main(argv + ["--branching", "symmetric", "--out", str(tmp_path / "o")])
    assert code == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    diagnostic = json.loads(err)
    assert diagnostic["error"] == "numeric"
    assert diagnostic["message"].startswith("MemoryError")


@pytest.mark.parametrize("below", ["", "sub"])
def test_unwritable_output_dir_exits_2(tmp_path, capsys, below):
    blocker = tmp_path / "file"
    blocker.write_text("")
    out = blocker / below if below else blocker
    code = cli.main(["simulate", "--n", "3", "--branching", "symmetric",
                     "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err and err.count("\n") == 1
    diagnostic = json.loads(err)
    assert diagnostic["error"] == "validation"
    assert f"output.dir {out}" in diagnostic["message"]
    assert blocker.read_text() == ""


@pytest.mark.parametrize("argv, config", [
    (["--out", ""], None),
    (["--out="], None),
    ([], {"output": {"dir": ""}}),
], ids=["flag", "flag-joined", "file"])
def test_empty_output_dir_exits_2(tmp_path, capsys, monkeypatch, argv, config):
    # Path("") is the current directory
    monkeypatch.chdir(tmp_path)
    if config is not None:
        argv = argv + ["--config", write_config(tmp_path, config)]
    code = cli.main(["simulate", "--n", "3", "--branching", "symmetric", *argv])
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert json.loads(err) == {
        "error": "validation", "message": "output.dir must name a directory, got ''",
    }
    assert [p.name for p in tmp_path.iterdir()] == (["config.json"] if config else [])


# Values for the generated CLI runs, drawn per check in the key table.
_BAD_TYPES = st.one_of(
    st.text(max_size=3), st.booleans(), st.none(),
    st.lists(st.integers(0, 3), max_size=2), st.just({}),
)
# an int beyond float range is not finite either: float() of it overflows
_NON_FINITE = st.sampled_from(
    [float("nan"), float("inf"), float("-inf"), 10**400, -10**400]
)
_OUT_OF_DOMAIN = {
    cli._as_number: st.one_of(st.just(0.0), st.floats(-1e3, 1e3)),
    cli._as_count: st.sampled_from([-3, 0, 21, 40, sys.maxsize // 8 + 1]),
    cli._as_int: st.sampled_from([-5, -1]),
    cli._as_samples: st.sampled_from([-5, -1, cli.SAMPLE_LIMIT + 1]),
}
_UNKNOWN = [
    ("", "bogus", 1), ("", "tolerances", {"energy": 1e-12}),
    ("well", "bogus", 1.0), ("init", "phase", 0.0), ("output", "path", "x"),
]
_FLAG_KEYS = sorted(
    key for key, spec in cli._KEYS.items() if spec.flag and key != "output.dir"
)
_BLOCKS = sorted({key.partition(".")[0] for key in cli._KEYS if "." in key})


@st.composite
def _cli_case(draw):
    """A mode, a config (valid, then mutated) and flag overrides."""
    mode = draw(st.sampled_from(cli.MODES))
    d = draw(st.floats(0.8, 1.25))
    p_hh = draw(st.floats(0.0, 1.0))
    p_lh = draw(st.floats(0.0, 1.0))
    values = {
        "mode": mode,
        "well.v1": draw(st.floats(28.0, 58.0)) / (d * d),
        "well.v2": 0.0,
        "well.d": d,
        "well.period": d + draw(st.floats(0.15, 0.5)),
        "n_total": draw(st.integers(1, 12)),
        "init.ch": draw(st.floats(0.0, 1.0)),
        "init.cl": draw(st.floats(0.05, 1.0)),
        "branching.kind": draw(st.sampled_from(cli.KINDS)),
        "branching.p_hh": p_hh, "branching.p_hl": 1.0 - p_hh,
        "branching.p_lh": p_lh, "branching.p_ll": 1.0 - p_lh,
        "output.format": draw(st.sampled_from(cli.FORMATS)),
        "seed": draw(st.integers(0, 2**32)),
        "sample_count": draw(st.integers(0, 300)),
        "sign_mode": draw(st.sampled_from(["all-positive", "cmt-signs"])),
    }
    for _ in range(draw(st.integers(0, 3))):
        key = draw(st.sampled_from(sorted(cli._KEYS)))
        check = cli._KEYS[key].check
        change = draw(st.sampled_from(["missing", "type", "non-finite", "domain"]))
        if change == "missing":
            values.pop(key, None)
        elif change == "type" or check not in _OUT_OF_DOMAIN:
            values[key] = draw(_BAD_TYPES)
        elif change == "non-finite":
            values[key] = draw(_NON_FINITE)
        else:
            values[key] = draw(_OUT_OF_DOMAIN[check])
    block = draw(st.sampled_from([None, None, *_BLOCKS]))
    if block is not None and draw(st.booleans()):
        values = {k: v for k, v in values.items() if not k.startswith(block + ".")}
    flags = []
    for key in draw(st.sets(st.sampled_from(_FLAG_KEYS), max_size=4)):
        if key in values:
            value = values.pop(key) if draw(st.booleans()) else values[key]
            flags.append(f"{cli._KEYS[key].flag}={value}")
    document = {}
    for key, value in values.items():
        parent, _, name = key.rpartition(".")
        (document.setdefault(parent, {}) if parent else document)[name] = value
    if block is not None and draw(st.booleans()):
        document[block] = draw(st.one_of(st.none(), _BAD_TYPES))
    if draw(st.integers(0, 4)) == 0:
        parent, name, value = draw(st.sampled_from(_UNKNOWN))
        target = document.setdefault(parent, {}) if parent else document
        if isinstance(target, dict):
            target[name] = value
    return mode, document, flags


@settings(max_examples=200, deadline=None)
@given(case=_cli_case())
@example(case=("verify", {"n_total": 5, "branching": {"kind": "symmetric"},
                          "output": {"format": "csv"}}, []))
@example(case=("simulate", {"n_total": 5, "branching": {"kind": "symmetric"}},
               [f"--n={sys.maxsize // 8 + 1}"]))
@example(case=("levels", {"well": {"v1": 1e308, "v2": 0.0, "d": 1e200,
                                   "period": 2e200}}, []))
# (60, 0, 1, 1.25) at 2^400 times its energy scale: the chain is solved on its
# scale-free well, so only the written energies and frequencies, about 4e121,
# carry the scale
@example(case=("levels", {"well": {"v1": 60 * 2.0**400, "v2": 0.0, "d": 2.0**-200,
                                   "period": 1.25 * 2.0**-200}}, []))
# V = 60 d^2 underflows to 0, and period / d overflows
@example(case=("levels", {"well": {"v1": 60.0, "v2": 0.0, "d": 1e-170,
                                   "period": 2e-170}}, []))
@example(case=("levels", {"well": {"v1": 6e301, "v2": 0.0, "d": 1e-150,
                                   "period": 1e200}}, []))
@example(case=("design", {"well": {"v1": 10**400, "v2": 0, "d": 1}}, []))
@example(case=("simulate", {"n_total": 5, "init": {"ch": 10**400}}, []))
def test_every_generated_run_exits_cleanly(case):
    mode, document, flags = case
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "config.json"
        config.write_text(json.dumps(document))
        out = Path(tmp) / "out"
        stderr = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(stderr):
            code = cli.main([mode, "--config", str(config), "--out", str(out), *flags])
        err = stderr.getvalue()
        assert code in (0, 2, 3, 4)
        assert "Traceback" not in err
        if code == 0:
            assert err == ""
            assert any(out.iterdir())
        else:
            assert err.count("\n") == 1
            assert set(json.loads(err)) == {"error", "message"}
        if code == 2:
            assert not out.exists()
