"""The golden cases: each CLI run whose result files the digests in
``golden_outputs.json`` pin, and ``record``, which runs one of them.

The module needs neither pytest nor numpy, so any supported Python can run
it. As a script,

    PYTHONPATH=src python tests/golden_runs.py OUT.json

runs every case through ``cli.main`` and writes the records, by name, to
OUT.json; ``test_golden_outputs`` compares them with the digests under
each other interpreter it finds.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import cqwsim.cli as cli


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
    # asymmetric rows with p_ll = 0: a zero root is skipped and no two
    # colliding terms are equal, so the addition order shows in the bytes
    "audit-n16-manual-cmt-signs": (
        ["audit", "--n", "16", "--signs", "cmt-signs"],
        _manual(0.7, 0.3, 1.0, 0.0, 0.6, 0.8)),
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


if __name__ == "__main__":
    records = {}
    for case in sorted(RUNS):
        with tempfile.TemporaryDirectory() as tmp:
            records[case] = record(case, Path(tmp))
    Path(sys.argv[1]).write_text(json.dumps(records))
