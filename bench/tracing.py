"""Span tracer for the benchmark's in-process pass.

cqwsim carries no tracing code. The tracer wraps its public functions from
outside by replacing module attributes, in the defining module and in every
cqwsim module that imported the same object (``cli`` imports most names
directly). A span records (name, start, end, parent, job); a layer's self
time is its spans' durations minus those of their child spans. Counters are
taken at the same boundaries. A name that a later refactor removed is
listed in ``missing`` and its metrics stay zero.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable

from checks import support_size

Observer = Callable[[dict, tuple, dict, object], None]


def _arg(args: tuple, kwargs: dict, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _cascade_result(counts, args, kwargs, dist):
    n_total = _arg(args, kwargs, 0, "n_total")
    counts["cascade.table_entries"] += len(dist.table)
    counts["cascade.support_size"] += support_size(n_total)


def _enumerated(counts, args, kwargs, _):
    init = _arg(args, kwargs, 1, "init")
    starts = (init.c_h > 0) + (init.c_l > 0)
    counts["oracle.paths_enumerated"] += starts * 2 ** (_arg(args, kwargs, 0, "n_total") - 1)


def _walked(counts, args, kwargs, _):
    steps = _arg(args, kwargs, 0, "n_total") - 1
    counts["oracle.walk_steps"] += _arg(args, kwargs, 3, "count") * steps


def _conditional(counts, args, kwargs, state):
    counts["analysis.empty_slices"] += state.kind == "empty"


def _csv_written(counts, args, kwargs, text):
    counts["output.csv_rows"] += len(_arg(args, kwargs, 1, "rows"))
    counts["output.bytes"] += len(text)


def _json_written(counts, args, kwargs, text):
    counts["output.bytes"] += len(text)


@dataclass(frozen=True)
class Target:
    """One public name to wrap.

    ``span`` names the span (several names may share one, as the metric
    they feed); without it the wrapper only counts calls into ``calls``.
    ``home_only`` patches the defining module alone, for names such as
    ``simpson`` that belong to another package.
    """

    module: str
    name: str
    span: str | None = None
    calls: str | None = None
    observe: Observer | None = None
    infeasible: bool = False
    home_only: bool = False


TARGETS = (
    Target("cqwsim.eigensolver", "design_alignment", "eigensolver.design_alignment",
           calls="eigensolver.design_alignment_calls", infeasible=True),
    Target("cqwsim.eigensolver", "solve_bound_states", "eigensolver.solve_bound_states",
           calls="eigensolver.solve_bound_states_calls"),
    Target("cqwsim.eigensolver", "bisect_root", calls="eigensolver.bisect_root_calls"),
    Target("cqwsim.coupling", "couple_wells", "coupling.couple_wells"),
    Target("cqwsim.coupling", "sample_chain_waves", "coupling.dipoles"),
    Target("cqwsim.coupling", "dipole_matrix", "coupling.dipoles"),
    Target("cqwsim.coupling", "branching_model", "coupling.branching_model"),
    Target("cqwsim.coupling", "simpson", calls="coupling.quadrature_calls", home_only=True),
    Target("cqwsim.cascade", "run_cascade", "cascade.run_cascade",
           calls="cascade.run_cascade_calls", observe=_cascade_result),
    Target("cqwsim.cascade", "evolve_step", calls="cascade.evolve_step_calls"),
    Target("cqwsim.analysis", "conditional_state", "analysis.conditional_state",
           calls="analysis.conditional_state_calls", observe=_conditional),
    Target("cqwsim.analysis", "parity_xor", "analysis.other"),
    Target("cqwsim.analysis", "joint_pm", "analysis.other"),
    Target("cqwsim.analysis", "purity_check", "analysis.other"),
    Target("cqwsim.analysis", "entanglement_entropy", "analysis.other"),
    Target("cqwsim.oracle", "enumerate_paths", "oracle.enumerate_paths", observe=_enumerated),
    Target("cqwsim.oracle", "sample_walks", "oracle.sample_walks", observe=_walked),
    Target("cqwsim.oracle", "coherence_audit", "oracle.coherence_audit"),
    Target("cqwsim.oracle", "tv_distance", "oracle.tv_distance"),
    Target("cqwsim.output", "stable_json", "output.stable_json", observe=_json_written),
    Target("cqwsim.output", "csv_table", "output.csv_table", observe=_csv_written),
)

ROOT_SPAN = "cli.main"
SPAN_NAMES = tuple(dict.fromkeys([ROOT_SPAN] + [t.span for t in TARGETS if t.span]))


class Tracer:
    """Spans and counters of one traced pass, kept in memory."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int, str]] = []
        self.counts: defaultdict[str, float] = defaultdict(float)
        self.missing: list[str] = []
        self.unobserved: set[str] = set()
        self.job = ""
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def call(self, span: str, fn: Callable, *args, **kwargs):
        """Run ``fn`` inside a span that is a child of the open one."""
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((span, 0.0, 0.0, parent, self.job))
        self._stack.append(index)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (span, start, end, parent, self.job)

    def _wrap(self, target: Target, original: Callable) -> Callable:
        counts = self.counts

        def traced(*args, **kwargs):
            if target.calls:
                counts[target.calls] += 1
            try:
                if target.span:
                    result = self.call(target.span, original, *args, **kwargs)
                else:
                    result = original(*args, **kwargs)
            except Exception as exc:
                if target.infeasible and type(exc).__name__ == "InfeasibleDesignError":
                    counts["eigensolver.design_infeasible"] += 1
                raise
            if target.observe:
                try:
                    target.observe(counts, args, kwargs, result)
                except (AttributeError, TypeError, KeyError, IndexError):
                    self.unobserved.add(f"{target.module}.{target.name}")
            return result

        return traced

    def install(self, targets=TARGETS) -> None:
        self.missing = []
        package = [
            module for name, module in sorted(sys.modules.items())
            if name == "cqwsim" or name.startswith("cqwsim.")
        ]
        for target in targets:
            home = sys.modules.get(target.module)
            original = getattr(home, target.name, None)
            if not callable(original):
                self.missing.append(f"{target.module}.{target.name}")
                continue
            wrapper = self._wrap(target, original)
            for module in [home] if target.home_only else package:
                if getattr(module, target.name, None) is original:
                    self._saved.append((module, target.name, original))
                    setattr(module, target.name, wrapper)

    def uninstall(self) -> None:
        while self._saved:
            module, name, original = self._saved.pop()
            setattr(module, name, original)

    def self_times(self) -> dict[str, float]:
        """Self time per span name: duration minus child spans' durations."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals = dict.fromkeys(SPAN_NAMES, 0.0)
        for index, (name, start, end, _, _) in enumerate(self.spans):
            totals[name] = totals.get(name, 0.0) + (end - start) - child[index]
        return totals

    def span_records(self) -> list[dict]:
        return [
            {"name": name, "start": start, "end": end, "parent": parent, "job": job}
            for name, start, end, parent, job in self.spans
        ]


def layer_metrics(tracer: Tracer, jobs: int) -> dict[str, float]:
    """Per-job self times and counts, plus the ratios, of a traced pass."""
    metrics = {}
    self_times = tracer.self_times()
    metrics["cli.self_s"] = self_times[ROOT_SPAN] / jobs
    for name in SPAN_NAMES[1:]:
        metrics[f"{name}_s"] = self_times[name] / jobs
    per_job = [t.calls for t in TARGETS if t.calls] + [
        "cascade.table_entries", "analysis.empty_slices", "oracle.paths_enumerated",
        "oracle.walk_steps", "output.csv_rows", "output.bytes",
    ]
    counts = tracer.counts
    for name in per_job:
        metrics[name] = counts[name] / jobs
    designs = counts["eigensolver.design_alignment_calls"]
    metrics["eigensolver.design_infeasible_ratio"] = (
        counts["eigensolver.design_infeasible"] / designs if designs else 0.0
    )
    support = counts["cascade.support_size"]
    metrics["cascade.support_fill"] = (
        counts["cascade.table_entries"] / support if support else 0.0
    )
    return metrics
