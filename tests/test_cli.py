"""End-to-end command-line runs: schemas, exit codes, determinism."""

import io
import json
import os
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cqwsim
import cqwsim.cli as cli
from cqwsim import JointDistribution, eigensolver


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


@pytest.mark.parametrize("flag, value, key", [
    ("--ch", "nan", "init.ch"),
    ("--ch", "inf", "init.ch"),
    ("--cl", "-inf", "init.cl"),
    ("--v1", "nan", "well.v1"),
    ("--v2", "-inf", "well.v2"),
    ("--d", "inf", "well.d"),
    ("--period", "nan", "well.period"),
    ("--b", "inf", "well.b"),
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


def test_infeasible_design_exits_3(tmp_path, capsys):
    code = cli.main([
        "design", "--v1", "0.5", "--v2", "0", "--d", "0.1",
        "--out", str(tmp_path / "o"),
    ])
    assert code == 3
    assert json.loads(capsys.readouterr().err)["error"] == "numeric"


def test_levels_solves_only_the_two_lowest_levels(tmp_path, capsys, monkeypatch):
    # the well holds about 31,800 levels; coupling needs levels 0 and 1
    solved = []
    level_energy = eigensolver._level_energy

    def counted(params, n, tol):
        solved.append(n)
        return level_energy(params, n, tol)

    monkeypatch.setattr(eigensolver, "_level_energy", counted)
    code = cli.main([
        "levels", "--v1", "1e8", "--v2", "0", "--d", "10", "--period", "11",
        "--b", "0", "--out", str(tmp_path / "o"),
    ])
    assert code == 3
    assert json.loads(capsys.readouterr().err) == {
        "error": "numeric",
        "message": "wells misaligned: left ground 0.09869209628736167 vs right "
        "excited 0.39476838515025464 differ by 0.29607628886289294, "
        "tolerance 1e-06",
    }
    assert len(solved) <= 4


def test_levels_mode_with_fixed_bias(tmp_path):
    out = tmp_path / "levels"
    code = cli.main([
        "levels", "--v1", "60", "--v2", "0", "--d", "1",
        "--period", "1.25", "--b", "17.039989831736797",
        "--out", str(out),
    ])
    assert code == 0
    coupled = read_json(out, "coupled.json")
    branching = read_json(out, "branching.json")
    assert coupled["delta_e"] == pytest.approx(1.8208234292741468, abs=1e-6)
    assert set(branching) == {
        "p_hh", "p_hl", "p_lh", "p_ll",
        "omega_minus", "omega_zero", "omega_plus", "delta_e", "weighting",
    }
    assert branching["p_hh"] + branching["p_hl"] == pytest.approx(1.0, abs=1e-15)
    assert branching["p_lh"] + branching["p_ll"] == pytest.approx(1.0, abs=1e-15)


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


def test_verify_detects_divergence(tmp_path, capsys, monkeypatch):
    true_run = cli.run_cascade

    def skewed(n, init, model):
        dist = true_run(n, init, model)
        table = dict(dist.table)
        key = sorted(table)[0]
        table[key] = table[key] + 1e-6
        return JointDistribution(n_total=dist.n_total, table=table)

    monkeypatch.setattr(cli, "run_cascade", skewed)
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


def test_verify_rejects_oversized_n(tmp_path, capsys):
    code = cli.main([
        "verify", "--n", "21", "--branching", "symmetric",
        "--out", str(tmp_path / "o"),
    ])
    assert code == 2
    capsys.readouterr()


def test_verify_at_the_enumeration_limit(tmp_path):
    cfg = write_config(tmp_path, {
        "n_total": cli.ENUM_LIMIT,
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


def test_cli_import_loads_no_scipy():
    src = Path(cqwsim.__file__).resolve().parents[1]
    probe = (
        "import sys, cqwsim.cli; "
        "print([m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')])"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, check=True,
    )
    assert result.stdout.strip() == "[]"


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
    assert len(flags) == 14
    for spec in flags:
        assert spec.flag in text and spec.help in text
    assert "--config" in text


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

    monkeypatch.setattr(cli, target, exhausted)
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


# Values for the generated CLI runs, drawn per check in the key table.
_BAD_TYPES = st.one_of(
    st.text(max_size=3), st.booleans(), st.none(),
    st.lists(st.integers(0, 3), max_size=2), st.just({}),
)
_NON_FINITE = st.sampled_from([float("nan"), float("inf"), float("-inf")])
_OUT_OF_DOMAIN = {
    cli._as_number: st.one_of(st.just(0.0), st.floats(-1e3, 1e3)),
    cli._as_count: st.sampled_from([-3, 0, 21, 40]),
    cli._as_int: st.sampled_from([-5, -1]),
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
    if draw(st.booleans()):
        values["well.b"] = draw(st.floats(0.0, 30.0))
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
        else:
            assert err.count("\n") == 1
            assert set(json.loads(err)) == {"error", "message"}
        if code == 2:
            assert not out.exists()
