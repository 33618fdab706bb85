"""cqwsim benchmark: seeded CLI workloads, end-to-end and per-layer metrics.

Run from the root of a checkout:

    python3 bench/run.py --workload paper-scale --seed 1 --seconds 40 --trace 0

``--trace 0`` times fresh ``python -m cqwsim`` processes (PYTHONPATH=src,
BLAS/OpenMP threads pinned to 1) in a closed loop with one client: each job
starts when the previous one has exited. Each job is followed by a fixed
reference task that uses no repository code, and job times are reported in
units of that task's time ("ref"), so that the host's speed, which drifts
for minutes at a time, cancels out. It reports set-up time (in seconds),
the job wall-time median, throughput, CPU and peak RSS per job; the raw
seconds are printed too. ``--trace 1`` runs
the same jobs in this process instead, once with cqwsim's public functions
wrapped in spans and once without, and reports per-layer self times and
counts per job. Every job's outputs are checked; the last stdout line is
one JSON object with the keys correct, attempted, failed and metrics.

Child outputs go to a temporary directory under ``.bench_work`` in the
checkout, removed at exit; span dumps and result records go to
``.bench_out``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

from checks import CheckFailed, check_job, read_outputs
from tracing import ROOT_SPAN, Tracer, layer_metrics
from workloads import WORKLOADS, workload_jobs

THREAD_PINS = {
    name: "1" for name in (
        "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
        "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
    )
}
IMPORTTIME_SAMPLES = 3
JOB_TIMEOUT_S = 60

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_p50_ref": "ref",
    "jobs_per_ref": "1/ref",
    "cpu_per_job_ref": "ref",
    "peak_rss_mb": "MB",
}

# The unit of the job metrics: a fresh interpreter that imports the libraries
# cqwsim uses and runs fixed pure-Python and numpy loops, so that start-up,
# file reads and compute all weigh in as they do in a job. It names no
# repository code, so no change to cqwsim moves it.
REFERENCE_TASK = """\
import numpy, scipy.integrate, scipy.linalg
s = 0
for i in range(300_000):
    s += i * i
a = numpy.arange(100_000.0)
for _ in range(20):
    a = numpy.sqrt(a * a + 1.0)
"""


def per_layer_unit(name: str) -> str:
    if name in ("cli.import_s", "cli.scipy_import_s"):
        return "s"
    if name.endswith("_ratio") or name == "cascade.support_fill":
        return "ratio"
    if name.endswith("bytes"):
        return "bytes/job"
    if name.endswith("_s"):
        return "s/job"
    return "count/job"


class SetupError(Exception):
    """The checkout cannot run cqwsim; no result is printed."""


class JobTimeout(Exception):
    """A child ran past JOB_TIMEOUT_S; it is killed and its job fails."""


@dataclass
class Outcome:
    """Measurements of one job run."""

    wall: float
    cpu: float = 0.0
    rss_kb: int = 0
    write_bytes: int = 0


@dataclass
class Timed:
    """One job's run and the reference task run right after it."""

    job: Outcome
    ref: Outcome


class Bench:
    """Shared state of one benchmark run: paths, child environment, tallies."""

    def __init__(self, root: Path, work: Path) -> None:
        self.src = root / "src"
        self.work = work
        self.env = dict(os.environ, **THREAD_PINS)
        old = os.environ.get("PYTHONPATH")
        self.env["PYTHONPATH"] = str(self.src) + (os.pathsep + old if old else "")
        self.failures: list[tuple[str, str]] = []
        self.attempted = 0

    def prepare(self, job) -> tuple[list[str], Path]:
        job_dir = self.work / job.key
        shutil.rmtree(job_dir, ignore_errors=True)
        job_dir.mkdir(parents=True)
        config = job_dir / "config.json"
        config.write_text(json.dumps(job.config))
        out = job_dir / "out"
        return [job.mode, "--config", str(config), "--out", str(out)], out

    def settle(self, job, outcome: Outcome, code: int, stdout: str, stderr: str,
               out: Path, reference: dict[str, str]) -> Outcome:
        """Check a finished job and clean up its files.

        The first run of a job stores its output digest in ``reference``;
        every later run must reproduce it byte for byte.
        """
        self.attempted += 1
        files = read_outputs(out)
        outcome.write_bytes = sum(len(data) for data in files.values())
        try:
            digest = check_job(job, code, stdout, stderr, files)
            if reference.setdefault(job.key, digest) != digest:
                raise CheckFailed("output digest differs from an earlier run of the same job")
        except CheckFailed as exc:
            self.failures.append((job.key, str(exc)))
        shutil.rmtree(out.parent, ignore_errors=True)
        return outcome

    def python(self, args: list[str], **kwargs) -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, *args], env=self.env, cwd=self.work,
            capture_output=True, text=True, timeout=JOB_TIMEOUT_S, **kwargs,
        )


def _on_alarm(signum, frame):
    raise JobTimeout()


def spawn(bench: Bench, args: list[str], cwd: Path, stdout, stderr) -> tuple[Outcome, int]:
    """Run ``python *args`` to exit; wall from spawn to exit, rusage of it."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, *args], stdout=stdout, stderr=stderr, env=bench.env, cwd=cwd)
    signal.alarm(JOB_TIMEOUT_S)
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except JobTimeout:
        proc.kill()
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        signal.alarm(0)
    wall = time.perf_counter() - start
    outcome = Outcome(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss)
    return outcome, os.waitstatus_to_exitcode(status)


def run_child(bench: Bench, job, reference: dict[str, str]) -> Outcome:
    """Run one job as a fresh ``python -m cqwsim`` process and check it."""
    argv, out = bench.prepare(job)
    job_dir = out.parent
    with open(job_dir / "stdout", "wb") as so, open(job_dir / "stderr", "wb") as se:
        outcome, code = spawn(bench, ["-m", "cqwsim", *argv], job_dir, so, se)
    stdout = (job_dir / "stdout").read_text()
    stderr = (job_dir / "stderr").read_text()
    return bench.settle(job, outcome, code, stdout, stderr, out, reference)


def run_reference(bench: Bench) -> Outcome:
    """Run REFERENCE_TASK once as a fresh process; it must succeed."""
    outcome, code = spawn(bench, ["-c", REFERENCE_TASK], bench.work,
                          subprocess.DEVNULL, subprocess.DEVNULL)
    if code != 0:
        raise SetupError(f"the reference task exited with {code}")
    return outcome


def check_import(bench: Bench) -> None:
    """Import cqwsim once: compiles bytecode, proves it comes from ``src``."""
    probe = bench.python(["-c", "import cqwsim.cli; print(cqwsim.cli.__file__)"])
    where = Path(probe.stdout.strip() or ".").resolve()
    if probe.returncode != 0 or bench.src.resolve() not in where.parents:
        raise SetupError(f"cannot import cqwsim from {bench.src}: {probe.stderr.strip()[-500:]}")


def setup_time(bench: Bench) -> float:
    """Wall time of one fresh ``python -c "import cqwsim.cli"``."""
    start = time.perf_counter()
    bench.python(["-c", "import cqwsim.cli"], check=True)
    return time.perf_counter() - start


def repeat_passes(run_pass, seconds: float, minimum: int) -> list:
    """Run whole passes: ``minimum`` of them, then more while one still fits.

    The machine's speed drifts for seconds at a time, so every job is timed
    once per pass and the passes are spread over the run.
    """
    passes = []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        passes.append(run_pass())
        now = time.perf_counter()
        if len(passes) >= minimum and now - start + (now - began) > seconds:
            return passes


def best_per_job(passes: list[list[Outcome]], field: str) -> list[float]:
    """Each job's lowest value of ``field`` over the passes, in job order."""
    return [min(getattr(o, field) for o in runs) for runs in zip(*passes)]


def per_job(passes: list[list[Timed]], ratio) -> list[float]:
    """Each job's median of ``ratio(timed)`` over the passes, in job order."""
    return [statistics.median(ratio(t) for t in runs) for runs in zip(*passes)]


def timed_run(bench: Bench, workload: str, seed: int, seconds: float) -> dict:
    check_import(bench)
    run_reference(bench)  # warm-up, and proof that the reference task runs
    jobs = workload_jobs(workload, seed)
    reference: dict[str, str] = {}
    setup: list[float] = []

    def one_pass() -> list[Timed]:
        setup.append(setup_time(bench))
        return [Timed(run_child(bench, job, reference), run_reference(bench)) for job in jobs]

    passes = repeat_passes(one_pass, seconds, minimum=3)
    walls = per_job(passes, lambda t: t.job.wall / t.ref.wall)
    cpus = per_job(passes, lambda t: t.job.cpu / t.ref.cpu)
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_p50_ref": statistics.median(walls),
        "jobs_per_ref": len(walls) / sum(walls),
        "cpu_per_job_ref": statistics.fmean(cpus),
        "peak_rss_mb": max(t.job.rss_kb for p in passes for t in p) / 1024.0,
    }
    raw_walls = per_job(passes, lambda t: t.job.wall)
    raw = {
        "ref_wall_s": statistics.median(t.ref.wall for p in passes for t in p),
        "ref_cpu_s": statistics.median(t.ref.cpu for p in passes for t in p),
        "wall_p50_s": statistics.median(raw_walls),
        "jobs_per_s": len(raw_walls) / sum(raw_walls),
        "cpu_s_per_job": statistics.fmean(per_job(passes, lambda t: t.job.cpu)),
        "per_job_wall_ref": dict(zip((f"{j.key}.{j.mode}" for j in jobs), walls)),
    }
    notes = [
        f"setup_s: median of {len(setup)} fresh imports, one before each pass",
        f"{len(jobs)} jobs x {len(passes)} passes, each job followed by the reference task;"
        " a job's value is its median over the passes",
        "unnormalised: " + ", ".join(
            f"{name} {raw[name]:.4g} {'1/s' if name == 'jobs_per_s' else 's'}"
            for name in ("ref_wall_s", "ref_cpu_s", "wall_p50_s", "jobs_per_s", "cpu_s_per_job")),
    ]
    return {"metrics": metrics, "notes": notes, "raw": raw}


def _outermost(stderr: str, package: str) -> float:
    """Summed cumulative import time, in s, of a package's outermost modules.

    ``-X importtime`` prints modules in post-order, nesting shown by indent,
    so reading the lines backwards visits every parent before its children.
    """
    total_us = 0
    ancestors: list[tuple[int, str]] = []
    for line in reversed(stderr.splitlines()):
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line.split("|")
        if not cumulative.strip().isdigit():
            continue
        depth = len(name) - len(name.lstrip())
        name = name.strip()
        while ancestors and ancestors[-1][0] >= depth:
            ancestors.pop()
        inside = any(a == package or a.startswith(package + ".") for _, a in ancestors)
        if (name == package or name.startswith(package + ".")) and not inside:
            total_us += int(cumulative)
        ancestors.append((depth, name))
    return total_us / 1e6


def import_profile(bench: Bench) -> dict[str, float]:
    cli_s, scipy_s = [], []
    for _ in range(IMPORTTIME_SAMPLES):
        result = bench.python(["-X", "importtime", "-c", "import cqwsim.cli"], check=True)
        cli_s.append(_outermost(result.stderr, "cqwsim"))
        scipy_s.append(_outermost(result.stderr, "scipy"))
    return {"cli.import_s": statistics.median(cli_s),
            "cli.scipy_import_s": statistics.median(scipy_s)}


def call_in_process(cli, argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            traceback.print_exc()
            code = 1
    return code, out.getvalue(), err.getvalue()


def in_process_pass(bench: Bench, cli, jobs, reference, tracer=None) -> list[Outcome]:
    outcomes = []
    for job in jobs:
        argv, out = bench.prepare(job)
        start = time.perf_counter()
        if tracer is None:
            code, stdout, stderr = call_in_process(cli, argv)
        else:
            tracer.job = job.key
            code, stdout, stderr = tracer.call(ROOT_SPAN, call_in_process, cli, argv)
        outcome = Outcome(time.perf_counter() - start)
        outcomes.append(bench.settle(job, outcome, code, stdout, stderr, out, reference))
    return outcomes


def import_checkout_cli(bench: Bench):
    sys.path.insert(0, str(bench.src))
    try:
        import cqwsim.cli as cli
    except ImportError as exc:
        raise SetupError(f"cannot import cqwsim from {bench.src}: {exc}") from exc
    if bench.src.resolve() not in Path(cli.__file__).resolve().parents:
        raise SetupError(f"cqwsim imported from {cli.__file__}, not from {bench.src}")
    return cli


def traced_run(bench: Bench, workload: str, seed: int, seconds: float, out_dir: Path) -> dict:
    """Per-layer run: an untraced warm-up pass, then traced and untraced passes."""
    cli = import_checkout_cli(bench)
    imports = import_profile(bench)
    jobs = workload_jobs(workload, seed)
    reference: dict[str, str] = {}
    in_process_pass(bench, cli, jobs, reference)
    tracer = Tracer()

    def pair() -> tuple[list[Outcome], list[Outcome]]:
        tracer.install()
        try:
            traced = in_process_pass(bench, cli, jobs, reference, tracer)
        finally:
            tracer.uninstall()
        return traced, in_process_pass(bench, cli, jobs, reference)

    pairs = repeat_passes(pair, seconds, minimum=1)
    traced = [t for t, _ in pairs]
    plain = [p for _, p in pairs]
    runs = len(jobs) * len(pairs)
    (out_dir / f"spans-{workload}-seed{seed}.json").write_text(
        json.dumps(tracer.span_records()))
    metrics = dict(imports)
    metrics.update(layer_metrics(tracer, runs))
    metrics["cli.write_bytes"] = sum(o.write_bytes for p in traced for o in p) / runs
    metrics["trace.overhead_ratio"] = (
        sum(best_per_job(traced, "wall")) / sum(best_per_job(plain, "wall")))
    traced_wall = sum(o.wall for p in traced for o in p)
    metrics["trace.accounted_ratio"] = sum(tracer.self_times().values()) / traced_wall
    notes = [
        f"{len(jobs)} jobs x {len(pairs)} traced and untraced passes, after one warm-up pass",
        "per-job metrics are means over the traced passes; overhead compares best passes",
        f"import times: median of {IMPORTTIME_SAMPLES} `-X importtime` runs",
        "self time by layer: " + ", ".join(
            f"{layer} {share:.1%}" for layer, share in layer_shares(tracer).items()),
    ]
    if tracer.missing:
        notes.append(f"names not found, recorded as zero: {', '.join(tracer.missing)}")
    if tracer.unobserved:
        notes.append(f"results not observable: {', '.join(sorted(tracer.unobserved))}")
    return {"metrics": metrics, "notes": notes}


def layer_shares(tracer: Tracer) -> dict[str, float]:
    totals: dict[str, float] = {}
    for name, seconds in tracer.self_times().items():
        layer = name.split(".")[0]
        totals[layer] = totals.get(layer, 0.0) + seconds
    whole = sum(totals.values()) or 1.0
    return {layer: t / whole for layer, t in sorted(totals.items(), key=lambda kv: -kv[1])}


def environment(bench: Bench) -> dict:
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as info:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in info if line.startswith("model name")),
                cpu)
    except OSError:
        pass
    versions = {}
    for package in ("numpy", "scipy"):
        try:
            versions[package] = metadata.version(package)
        except metadata.PackageNotFoundError:
            versions[package] = None
    return {
        "python": platform.python_version(),
        **versions,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "thread_pins": THREAD_PINS,
        "pythonpath": bench.env["PYTHONPATH"],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    os.environ.update(THREAD_PINS)
    signal.signal(signal.SIGALRM, _on_alarm)

    root = Path.cwd()
    out_dir = root / ".bench_out"
    (root / ".bench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=root / ".bench_work"))
    try:
        bench = Bench(root, work)
        if not (bench.src / "cqwsim" / "__init__.py").is_file():
            raise SetupError(f"no cqwsim package under {bench.src}")
        out_dir.mkdir(exist_ok=True)
        if args.trace:
            result = traced_run(bench, args.workload, args.seed, args.seconds, out_dir)
        else:
            result = timed_run(bench, args.workload, args.seed, args.seconds)
    except (SetupError, subprocess.SubprocessError) as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    env = environment(bench)
    units = END_TO_END_UNITS if not args.trace else {
        name: per_layer_unit(name) for name in result["metrics"]}
    metrics = {
        name: {"value": result["metrics"][name], "unit": unit} for name, unit in units.items()
    }
    failed = len(bench.failures)
    print("env " + json.dumps(env))
    for note in result["notes"]:
        print(note)
    for key, reason in bench.failures[:20]:
        print(f"FAILED {key}: {reason}")
    rate = failed / bench.attempted
    print(f"error_rate {rate:.6g} ({failed} of {bench.attempted} jobs failed a check)")
    for name, metric in metrics.items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": env, "notes": result["notes"], "raw": result.get("raw"),
        "failures": bench.failures, "attempted": bench.attempted, "metrics": metrics,
    }
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out_dir / name).write_text(json.dumps(record, indent=1))
    print(json.dumps({
        "correct": failed == 0, "attempted": bench.attempted,
        "failed": failed, "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
