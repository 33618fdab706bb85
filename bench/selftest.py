"""Tests of the benchmark harness itself, kept out of the cqwsim suite.

The file name does not match ``test_*.py``, so the repository's own pytest
run does not collect it. Run it explicitly from the repository root:

    python3 -m pytest bench/selftest.py -q
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _run_in_process(job, tmp_path):
    import cqwsim.cli as cli

    config = tmp_path / f"{job.key}.json"
    config.write_text(json.dumps(job.config))
    out = tmp_path / f"{job.key}-out"
    code, stdout, stderr = run.call_in_process(
        cli, [job.mode, "--config", str(config), "--out", str(out)])
    return code, stdout, stderr, checks.read_outputs(out)


def _first(workload, mode):
    return next(j for j in workloads.workload_jobs(workload, 3) if j.mode == mode)


def test_generator_is_deterministic_per_seed():
    for name in workloads.WORKLOADS:
        once = workloads.workload_jobs(name, 7)
        assert once == workloads.workload_jobs(name, 7)
        assert once != workloads.workload_jobs(name, 8)


def test_checker_rejects_corrupted_distribution(tmp_path):
    job = _first("paper-scale", "simulate")
    code, stdout, stderr, files = _run_in_process(job, tmp_path)
    checks.check_job(job, code, stdout, stderr, files)

    # Scale one probability consistently in both files, amplitude included,
    # so that only the normalization invariant can catch it.
    doc = json.loads(files["distribution.json"])
    entry = doc["table"][0]
    entry["f"] *= 1.5
    entry["amp"] = math.sqrt(entry["f"])
    lines = files["distribution.csv"].decode().split("\n")
    lines[1] = ",".join([str(entry["l"]), str(entry["m"]), str(entry["n"]),
                         "%.17g" % entry["f"], "%.17g" % entry["amp"]])
    files["distribution.json"] = json.dumps(doc).encode()
    files["distribution.csv"] = "\n".join(lines).encode()
    with pytest.raises(checks.CheckFailed, match="sums to"):
        checks.check_job(job, code, stdout, stderr, files)


def test_checker_rejects_mass_off_the_support(tmp_path):
    job = _first("paper-scale", "analyze")
    code, stdout, stderr, files = _run_in_process(job, tmp_path)
    checks.check_job(job, code, stdout, stderr, files)
    n_total = job.config["n_total"]
    lines = files["heatmap.csv"].decode().split("\n")
    lines[1 + n_total] = f"0,{n_total},0.5"  # (l, n) = (0, N): |l - n| > 1
    files["heatmap.csv"] = "\n".join(lines).encode()
    with pytest.raises(checks.CheckFailed, match="outside the support"):
        checks.check_job(job, code, stdout, stderr, files)


def test_missing_traced_name_records_zero(tmp_path, monkeypatch):
    import cqwsim.coupling
    import cqwsim.oracle

    # As if a refactor had removed or renamed these public names.
    monkeypatch.delattr(cqwsim.oracle, "sample_walks")
    monkeypatch.delattr(cqwsim.coupling, "simpson")
    tracer = tracing.Tracer()
    tracer.install()
    job = _first("paper-scale", "verify")
    try:
        tracer.job = job.key
        code, stdout, stderr, files = tracer.call(
            tracing.ROOT_SPAN, _run_in_process, job, tmp_path)
    finally:
        tracer.uninstall()
    checks.check_job(job, code, stdout, stderr, files)
    metrics = tracing.layer_metrics(tracer, 1)
    assert tracer.missing == ["cqwsim.coupling.simpson", "cqwsim.oracle.sample_walks"]
    assert metrics["oracle.sample_walks_s"] == 0.0
    assert metrics["oracle.walk_steps"] == 0.0
    assert metrics["coupling.quadrature_calls"] == 0.0
    assert metrics["oracle.enumerate_paths_s"] > 0.0


def test_self_times_add_up_to_the_root_spans():
    tracer = tracing.Tracer()
    tracer.call(tracing.ROOT_SPAN, tracer.call, "cascade.run_cascade", sum, range(10**5))
    self_times = tracer.self_times()
    (_, start, end, _, _), _ = tracer.spans
    assert min(self_times.values()) >= 0.0
    assert math.isclose(sum(self_times.values()), end - start)


def _main(tmp_path, monkeypatch, capsys, *args):
    monkeypatch.chdir(tmp_path)
    code = run.main(["--workload", "paper-scale", "--seed", "1", "--seconds", "0.01", *args])
    return code, capsys.readouterr().out.splitlines()


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_result_line_matches_benchmark_json(tmp_path, monkeypatch, capsys, trace, section):
    (tmp_path / "src").symlink_to(ROOT / "src")
    code, lines = _main(tmp_path, monkeypatch, capsys, "--trace", trace)
    assert code == 0
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())[section]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec}


def test_refuses_to_run_without_the_program(tmp_path, monkeypatch, capsys):
    code, lines = _main(tmp_path, monkeypatch, capsys)
    assert code != 0
    assert not any(line.startswith("{") for line in lines)
