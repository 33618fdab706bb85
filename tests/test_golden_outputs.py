"""Golden digests of the CLI result files: refactors must keep every byte.

Each run goes through ``cli.main`` into a fresh directory; the record is
the exit code, the names of the files written and the sha256 of each. One
run per mode also goes through ``python -m cqwsim`` in a fresh process,
the path the benchmark times, and again with numpy blocked, since every
mode runs without the optional extra. Every run is also recorded under each
other CPython from 3.10 to 3.13 found on PATH, by the pytest-free runner
``golden_runs.py`` with numpy blocked: the bytes must not depend on the
interpreter.
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

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

import cqwsim.cli as cli
from golden_runs import RUNS, record

GOLDEN = Path(__file__).with_name("golden_outputs.json")


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


def _other_interpreters() -> list[tuple[str, dict]]:
    """(path, environment) of each python3.X, 10 <= X <= 13, found on PATH
    that runs and is not this interpreter's version."""
    here = "%d.%d" % sys.version_info[:2]
    src = Path(cli.__file__).resolve().parents[1]
    found = []
    for version in ("3.10", "3.11", "3.12", "3.13"):
        path = shutil.which(f"python{version}")
        if version == here or path is None:
            continue
        # a pyenv shim runs the version its PYENV_VERSION names; elsewhere
        # the variable is ignored
        env = {**os.environ, "PYTHONPATH": str(src), "PYENV_VERSION": version,
               "PYTHONDONTWRITEBYTECODE": "1"}
        probe = subprocess.run(
            [path, "-c", "import sys; print('%d.%d' % sys.version_info[:2])"],
            env=env, capture_output=True, text=True, timeout=60,
        )
        if probe.returncode == 0 and probe.stdout.strip() == version:
            found.append((path, env))
    return found


def test_golden_outputs_on_other_pythons(tmp_path):
    interpreters = _other_interpreters()
    if not interpreters:
        pytest.skip("no other python3.10-3.13 found on PATH")
    expected = json.loads(GOLDEN.read_text())
    runner = Path(__file__).with_name("golden_runs.py")
    for path, env in interpreters:
        out = tmp_path / "records.json"
        script = _NO_NUMPY + (
            "import runpy\n"
            f"sys.argv = [{str(runner)!r}, {str(out)!r}]\n"
            f"runpy.run_path({str(runner)!r}, run_name='__main__')\n"
        )
        run = subprocess.run([path, "-c", script], env=env, capture_output=True,
                             text=True, timeout=300)
        assert run.returncode == 0, run.stderr
        records = json.loads(out.read_text())
        assert sorted(name for name in RUNS if records[name] != expected[name]) == [], path


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
