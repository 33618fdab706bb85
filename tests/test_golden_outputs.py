"""Golden digests of the CLI result files: refactors must keep every byte.

Each run goes through ``cli.main`` into a fresh directory; the record is
the exit code, the names of the files written and the sha256 of each.
Every run uses symmetric or manual branching, so the bytes depend on
neither the eigensolver nor the quadrature. Stdout is not recorded: it
names the temporary output directory.

To record new digests after a declared byte change, run

    PYTHONPATH=src python tests/test_golden_outputs.py

and state the change and its reason in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import json
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


# name -> (argv, config document or None)
RUNS = {
    "simulate-n8-symmetric": (
        ["simulate", "--n", "8", "--branching", "symmetric"], None),
    "simulate-n800-manual": (
        ["simulate", "--n", "800"], _manual(0.7, 0.3, 0.45, 0.55, 0.6, 0.8)),
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


def record(name: str, workdir: Path) -> dict:
    """Run one golden case in ``workdir``; return its exit code and digests."""
    argv, config = RUNS[name]
    argv = list(argv)
    if config is not None:
        path = workdir / "config.json"
        path.write_text(json.dumps(config))
        argv += ["--config", str(path)]
    out = workdir / "out"
    code = cli.main(argv + ["--out", str(out)])
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


def test_golden_file_covers_every_run():
    assert sorted(json.loads(GOLDEN.read_text())) == sorted(RUNS)


if __name__ == "__main__":
    digests = {}
    for case in sorted(RUNS):
        with tempfile.TemporaryDirectory() as tmp:
            digests[case] = record(case, Path(tmp))
    GOLDEN.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}", file=sys.stderr)
