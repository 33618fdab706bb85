"""Golden digests of the CLI result files: refactors must keep every byte.

Each run goes through ``cli.main`` into a fresh directory; the record is
the exit code, the names of the files written and the sha256 of each. One
run per mode also goes through ``python -m cqwsim`` in a fresh process,
the path the benchmark times, and again with numpy blocked, since every
mode runs without the optional extra.
The chain runs use symmetric or manual branching, so their bytes depend
on no physics; the design, levels and physical-branching runs at the
paper's test pair guard the eigensolver and the closed-form integrals.
Stdout is not recorded: it names the temporary output directory.

To record the digests of runs added to ``RUNS``, run

    PYTHONPATH=src python tests/test_golden_outputs.py

which writes only the runs missing from the file. After a declared byte
change, name the runs to record again,

    PYTHONPATH=src python tests/test_golden_outputs.py levels-v60-p1.25

and state the change and its reason in CHANGES.md. No other entry is
rewritten.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

import cqwsim.cli as cli

GOLDEN = Path(__file__).with_name("golden_outputs.json")


def _manual(p_hh, p_hl, p_lh, p_ll, ch, cl):
    return {
        "init": {"ch": ch, "cl": cl},
        "branching": {
            "kind": "manual", "p_hh": p_hh, "p_hl": p_hl, "p_lh": p_lh, "p_ll": p_ll,
        },
    }


_PAIR = ["--v1", "60", "--v2", "0", "--d", "1", "--period", "1.25"]
# the well (57.66, 0, 1, 7.7 / 6.2) with its width scaled to 6.2e-61: its
# chain is solved on that scale-free well and scaled only on output
_EDGE = ["--v1", "1.5e122", "--v2", "0", "--d", "6.2e-61", "--period", "7.7e-61"]

# name -> (argv, config document or None)
RUNS = {
    "design-v60-d1": (["design", "--v1", "60", "--v2", "0", "--d", "1"], None),
    "levels-v60-p1.25": (["levels", *_PAIR], None),
    "levels-float-range-edge": (["levels", *_EDGE, "--branching", "physical"], None),
    "simulate-n22-physical": (
        ["simulate", "--n", "22", "--branching", "physical", *_PAIR], None),
    "simulate-n8-symmetric": (
        ["simulate", "--n", "8", "--branching", "symmetric"], None),
    "simulate-n800-manual": (
        ["simulate", "--n", "800"], _manual(0.7, 0.3, 0.45, 0.55, 0.6, 0.8)),
    "simulate-n1500-manual": (
        ["simulate", "--n", "1500", "--format", "csv"],
        _manual(0.7, 0.3, 0.45, 0.55, 0.6, 0.8)),
    "simulate-n1000-symmetric": (
        ["simulate", "--n", "1000", "--branching", "symmetric"], None),
    "simulate-n1000-symmetric-faint-l": (
        ["simulate", "--n", "1000", "--branching", "symmetric", "--ch", "1",
         "--cl", "1e-4"], None),
    "analyze-n501-symmetric": (
        ["analyze", "--n", "501", "--branching", "symmetric", "--ch", "0.6",
         "--cl", "0.8"], None),
    "analyze-n21-symmetric": (
        ["analyze", "--n", "21", "--branching", "symmetric", "--ch", "0.6",
         "--cl", "0.8"], None),
    "analyze-n400-skewed": (
        ["analyze", "--n", "400"], _manual(0.995, 0.005, 0.4, 0.6, 0.6, 0.8)),
    "analyze-n30-absorbing": (
        ["analyze", "--n", "30"], _manual(1.0, 0.0, 0.5, 0.5, 1.0, 0.0)),
    "verify-n12-samples": (
        ["verify", "--n", "12", "--branching", "symmetric", "--samples", "20000",
         "--seed", "7"], None),
    "verify-n16-manual-samples": (
        ["verify", "--n", "16", "--samples", "100000", "--seed", "3"],
        _manual(0.3, 0.7, 0.45, 0.55, 0.6, 0.8)),
    "audit-n10-all-positive": (
        ["audit", "--n", "10", "--branching", "symmetric", "--signs",
         "all-positive"], None),
    "audit-n10-cmt-signs": (
        ["audit", "--n", "10", "--branching", "symmetric", "--signs",
         "cmt-signs"], None),
}


def record(name: str, workdir: Path, main=cli.main) -> dict:
    """Run one golden case in ``workdir`` through ``main``; return its exit
    code and digests."""
    argv, config = RUNS[name]
    argv = list(argv)
    if config is not None:
        path = workdir / "config.json"
        path.write_text(json.dumps(config))
        argv += ["--config", str(path)]
    out = workdir / "out"
    code = main(argv + ["--out", str(out)])
    files = sorted(p.name for p in out.iterdir()) if out.exists() else []
    return {
        "exit": code,
        "files": {
            name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in files
        },
    }


@pytest.mark.parametrize("name", sorted(RUNS))
def test_golden_outputs(name, tmp_path, capsys):
    expected = json.loads(GOLDEN.read_text())[name]
    assert record(name, tmp_path) == expected
    capsys.readouterr()


def _run_python(args: list[str]) -> subprocess.CompletedProcess:
    """Run ``python ARGS`` in a fresh process with the package on its path."""
    src = Path(cli.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True,
        timeout=300,
    )


def _fresh_process(argv: list[str]) -> int:
    """Run ``python -m cqwsim ARGV`` as the benchmark times it; its exit code."""
    return _run_python(["-m", "cqwsim", *argv]).returncode


# numpy is an optional extra: a None entry in sys.modules makes every
# ``import numpy`` raise ModuleNotFoundError, as if it were not installed
_NO_NUMPY = 'import sys; sys.modules["numpy"] = None\n'


def _without_numpy(argv: list[str]) -> int:
    """``_fresh_process`` with numpy blocked before cqwsim loads."""
    run = "import runpy; runpy.run_module('cqwsim', run_name='__main__', alter_sys=True)"
    return _run_python(["-c", _NO_NUMPY + run, *argv]).returncode


@pytest.mark.parametrize("name", [
    "design-v60-d1", "levels-v60-p1.25", "simulate-n22-physical",
    "analyze-n21-symmetric", "verify-n12-samples", "audit-n10-cmt-signs",
])
def test_golden_outputs_through_the_process_entry(name, tmp_path):
    expected = json.loads(GOLDEN.read_text())[name]
    assert record(name, tmp_path, _fresh_process) == expected


# simulate-n1500-manual runs above cascade.LIST_LIMIT, on the list kernel here
@pytest.mark.parametrize("name", [
    "simulate-n1500-manual", "design-v60-d1", "levels-v60-p1.25",
    "analyze-n501-symmetric", "verify-n12-samples", "audit-n10-cmt-signs",
])
def test_golden_outputs_without_numpy(name, tmp_path):
    expected = json.loads(GOLDEN.read_text())[name]
    assert record(name, tmp_path, _without_numpy) == expected


def test_evaluate_wave_needs_numpy():
    # the one public function that returns an array needs the extra
    probe = _NO_NUMPY + (
        "from cqwsim import WellParams, evaluate_wave, solve_bound_states\n"
        "state = solve_bound_states(WellParams(60.0, 0.0, 0.0, 1.0))[0]\n"
        "try:\n"
        "    evaluate_wave(state, [0.5])\n"
        "except ModuleNotFoundError as exc:\n"
        "    print(exc.name)\n"
    )
    result = _run_python(["-c", probe])
    assert (result.returncode, result.stdout, result.stderr) == (0, "numpy\n", "")


def test_golden_file_covers_every_run():
    assert sorted(json.loads(GOLDEN.read_text())) == sorted(RUNS)


def record_digests(names: list[str]) -> None:
    """Record the named runs, or with no names the runs missing from the file.

    Every other entry of the file is kept as it is.
    """
    unknown = sorted(set(names) - set(RUNS))
    if unknown:
        raise SystemExit(f"unknown golden runs: {', '.join(unknown)}")
    digests = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    for case in names or sorted(set(RUNS) - set(digests)):
        with tempfile.TemporaryDirectory() as tmp:
            digests[case] = record(case, Path(tmp))
        print(f"recorded {case}", file=sys.stderr)
    GOLDEN.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")


def test_recorder_writes_only_what_it_is_told(tmp_path, monkeypatch, capsys):
    # with no names it adds the missing run and keeps every other entry,
    # even a stale one, byte for byte; a named run is recorded again
    golden = json.loads(GOLDEN.read_text())
    stale = dict(golden, **{"design-v60-d1": {"exit": 9, "files": {}}})
    del stale["simulate-n8-symmetric"]
    path = tmp_path / "golden.json"
    path.write_text(json.dumps(stale, indent=2, sort_keys=True) + "\n")
    monkeypatch.setattr(sys.modules[__name__], "GOLDEN", path)
    record_digests([])
    expected = dict(golden, **{"design-v60-d1": {"exit": 9, "files": {}}})
    assert path.read_text() == json.dumps(expected, indent=2, sort_keys=True) + "\n"
    record_digests(["simulate-n8-symmetric"])
    assert path.read_text() == json.dumps(expected, indent=2, sort_keys=True) + "\n"
    capsys.readouterr()


if __name__ == "__main__":
    record_digests(sys.argv[1:])
