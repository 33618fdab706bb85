"""Command line front end.

Each subcommand reads an optional JSON config file, applies flag
overrides on top, runs one pipeline stage, and writes its result files
into the output directory. The command line is the mode first, then
exact long flags as ``--flag value`` or ``--flag=value``; the key table
``_KEYS`` drives the flags, their conversion and ``--help``, without
argparse. Exit codes: 0 success, 2 configuration problem (a bad command
line and an N above an oracle's cap included), 3 numeric failure or
infeasible physics, 4 failed verification.

This module reads the command line and the config, writes the files and
holds the shared helpers. ``run`` dispatches ``design``, ``levels``,
``simulate`` and ``analyze`` to one module each (``_run_design`` and so
on), imported on dispatch, so a process compiles only its own runner.
``verify`` and ``audit`` run here, on the oracle functions bound when
this module loads; the benchmark's tracing selftest relies on that
binding (ROADMAP item 8).
"""

from __future__ import annotations

import atexit
import json
import os
import sys
from collections import namedtuple
from collections.abc import Iterable
from math import inf, isfinite
from pathlib import Path

from .cascade import BranchingModel, InitialExcitation, run_cascade
from .errors import CqwError, DomainError, ValidationError
from .oracle import (
    SIGN_MODES,
    coherence_audit,
    enumerate_paths,
    sample_walks,
    tv_distance,
)
from .output import stable_json

MODES = ("design", "levels", "simulate", "analyze", "verify", "audit")
CHAIN_MODES = ("simulate", "analyze", "verify", "audit")
FORMATS = ("json", "csv", "both")
JSON_ONLY = ("levels", "verify", "audit")  # the modes that write no CSV file
KINDS = ("symmetric", "dipole-only", "physical", "manual")
VERIFY_TOL = 1e-10


def _as_number(value, key: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(f"{key} must be a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an int beyond float range
        number = inf
    if not isfinite(number):
        raise ValidationError(f"{key} must be finite, got {value!r}")
    return number


def _as_int(value, key: str, minimum: int = 0, maximum: int | None = None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(f"{key} must be an integer, got {value!r}")
    if value < minimum:
        raise ValidationError(f"{key} must be at least {minimum}, got {value}")
    if maximum is not None and value > maximum:
        raise ValidationError(f"{key} must be at most {maximum}, got {value}")
    return value


# n_total sizes the cascade's float64 arrays above its list cutoff; numpy
# refuses an array of more than sys.maxsize bytes, 8 bytes an element
MAX_SIZE = sys.maxsize // 8
# the Monte Carlo walks take time, not memory, in proportion to the sample
# count, so the cap bounds a run's time
SAMPLE_LIMIT = 10**9


def _as_samples(value, key: str) -> int:
    return _as_int(value, key, maximum=SAMPLE_LIMIT)


def _as_count(value, key: str) -> int:
    return _as_int(value, key, minimum=1, maximum=MAX_SIZE)


def _as_dir(value, key: str) -> str:
    if not isinstance(value, str):
        raise ValidationError(f"{key} must be a string, got {value!r}")
    if not value:
        # Path("") is ".": the files would land in the current directory
        raise ValidationError(f"{key} must name a directory, got ''")
    return value


class _OneOf(tuple):
    """Choice check: the value must be one of the tuple's entries."""

    def __call__(self, value, key: str) -> str:
        if value not in self:
            raise ValidationError(f"{key} must be one of {tuple(self)}, got {value!r}")
        return value


class _Key(namedtuple("_Key", "check flag help default", defaults=(None, None, None))):
    """One configuration key.

    Fields: check (callable of value and key); flag, help (str or None);
    default (any value, None if the key has none).
    """

    __slots__ = ()


# Every configuration key: its check, flag, help text and default. The file
# nests a dotted key one level deep: "well.v1" is {"well": {"v1": ...}}.
_KEYS = {
    "mode": _Key(_OneOf(MODES)),
    "well.v1": _Key(_as_number, "--v1", "outer barrier height"),
    "well.v2": _Key(_as_number, "--v2", "well floor"),
    "well.d": _Key(_as_number, "--d", "well width"),
    "well.period": _Key(_as_number, "--period", "well-to-well spacing"),
    "n_total": _Key(_as_count, "--n", "total photon number"),
    "init.ch": _Key(_as_number, "--ch", "initial upper-sublevel amplitude", 1.0),
    "init.cl": _Key(_as_number, "--cl", "initial lower-sublevel amplitude", 1.0),
    "branching.kind": _Key(_OneOf(KINDS), "--branching", "branching weighting kind"),
    "branching.p_hh": _Key(_as_number),
    "branching.p_hl": _Key(_as_number),
    "branching.p_lh": _Key(_as_number),
    "branching.p_ll": _Key(_as_number),
    "output.dir": _Key(_as_dir, "--out", "output directory", "out"),
    "output.format": _Key(_OneOf(FORMATS), "--format", "which file kinds to write", "both"),
    "seed": _Key(_as_int, "--seed", "sampling seed", 0),
    "sample_count": _Key(_as_samples, "--samples", "Monte Carlo sample count", 0),
    "sign_mode": _Key(_OneOf(SIGN_MODES), "--signs", "audit sign mode", "all-positive"),
}
_BLOCKS = {key.partition(".")[0] for key in _KEYS if "." in key}
_FLAG_TYPES = {_as_number: float, _as_int: int, _as_samples: int, _as_count: int}


class RunConfig(namedtuple("RunConfig", (
    "mode well n init kind model out_dir fmt seed samples sign_mode"
))):
    """Fully validated inputs for one subcommand run.

    Fields: mode (str); well (WellParams or None), its b 0, since every
    bias is designed; n (int or None); init (InitialExcitation); kind (str
    or None); model (BranchingModel or None), ready for the symmetric and
    manual kinds; out_dir, fmt (str); seed, samples (int); sign_mode (str).
    """

    __slots__ = ()


def _read_config(path: str) -> dict:
    """Flatten a config file into checked dotted-key values."""
    try:
        data = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ValidationError(f"cannot read config file {path}: {exc}")
    except (ValueError, RecursionError) as exc:
        # undecodable bytes and over-long integers raise ValueError too, and
        # deep nesting RecursionError
        raise ValidationError(f"config file {path} is not valid JSON: {exc}")
    if not isinstance(data, dict):
        raise ValidationError("config root must be a JSON object")
    values = {}
    for name, value in data.items():
        if name not in _BLOCKS:
            items = [(name, value)]
        elif value is None or isinstance(value, dict):
            items = [(f"{name}.{sub}", v) for sub, v in (value or {}).items()]
        else:
            raise ValidationError(f"{name} must be an object")
        for key, v in items:
            if key not in _KEYS:
                raise ValidationError(f"unknown configuration key: {key}")
            values[key] = _KEYS[key].check(v, key)
    return values


def load_config(mode: str, config_path: str | None, flags: dict) -> RunConfig:
    """Merge file and flag settings into a validated RunConfig.

    Flags win over file values. Unknown keys anywhere in the file are
    rejected by name. The domain objects check their own domains.
    """
    values = {} if config_path is None else _read_config(config_path)
    for key, spec in _KEYS.items():
        if flags.get(key) is not None:
            values[key] = spec.check(flags[key], key)
        elif spec.default is not None:
            values.setdefault(key, spec.default)
    n = values.get("n_total")
    kind = values.get("branching.kind")
    well = model = None
    try:
        if any(key.startswith("well.") for key in values):
            for key in ("well.v1", "well.v2", "well.d"):
                if key not in values:
                    raise ValidationError(f"{key} is required")
            from .eigensolver import WellParams

            well = WellParams(
                values["well.v1"], values["well.v2"], 0.0,
                values["well.d"], values.get("well.period"),
            )
        init = InitialExcitation.normalized(values["init.ch"], values["init.cl"])
        if kind == "symmetric":
            model = BranchingModel.symmetric()
        if kind == "manual":
            probs = [f"branching.{name}" for name in ("p_hh", "p_hl", "p_lh", "p_ll")]
            for key in probs:
                if key not in values:
                    raise ValidationError(f"manual branching requires {key}")
            model = BranchingModel.manual(*(values[key] for key in probs))
    except DomainError as exc:
        raise ValidationError(str(exc)) from None

    needs_period = mode == "levels" or (
        mode in CHAIN_MODES and kind in ("physical", "dipole-only")
    )
    if mode in JSON_ONLY and values["output.format"] == "csv":
        raise ValidationError(
            f"{mode} mode writes JSON files only; output.format must be "
            f"'json' or 'both', got 'csv'"
        )
    if mode in CHAIN_MODES:
        if n is None:
            raise ValidationError(f"n_total is required for {mode} mode")
        if kind is None:
            raise ValidationError(f"branching.kind is required for {mode} mode")
    if (mode == "design" or needs_period) and well is None:
        raise ValidationError(f"{mode} mode requires a well block")
    if needs_period and well.period is None:
        raise ValidationError(f"{mode} mode requires well.period")
    return RunConfig(
        mode=mode,
        well=well,
        n=n,
        init=init,
        kind=kind,
        model=model,
        out_dir=values["output.dir"],
        fmt=values["output.format"],
        seed=values["seed"],
        samples=values["sample_count"],
        sign_mode=values["sign_mode"],
    )


def _say(text: str) -> None:
    """Print a line to stdout and flush it, so that a stdout that cannot be
    written fails here, buffered or not. A closed pipe (the reader quit
    early) drops the line, since the result files are the run's output;
    any other failure is a diagnostic, as for the output directory."""
    try:
        print(text, flush=True)
    except BrokenPipeError:
        pass
    except OSError as exc:
        raise ValidationError(f"cannot write stdout: {exc}") from None


def _emit(config: RunConfig, documents: list[tuple[str, str | Iterable[str]]]) -> None:
    """Write each document, given whole or as chunks written as they come."""
    out = Path(config.out_dir)
    for name, text in documents:
        if config.fmt != "both" and not name.endswith(f".{config.fmt}"):
            continue
        path = out / name
        try:
            out.mkdir(parents=True, exist_ok=True)
            with path.open("w") as handle:
                handle.writelines([text] if isinstance(text, str) else text)
        except OSError as exc:
            raise ValidationError(f"cannot write output.dir {config.out_dir}: {exc}")
        _say(f"wrote {path}")


def _solve_chain(config: RunConfig):
    """The configured well's chain, at its designed bias."""
    from .coupling import solve_chain

    well = config.well
    return solve_chain(well.v1, well.v2, well.d, well.period)


def _resolve_model(config: RunConfig, chain=None) -> BranchingModel:
    """The configured branching model; ``chain`` reuses a solved chain."""
    if config.model is not None:
        return config.model
    from .coupling import branching_model

    chain = chain or _solve_chain(config)
    return branching_model(chain.freqs, chain.dipoles, config.kind or "physical")


def _emit_report(config: RunConfig, **values) -> None:
    """Write ``oracle_report.json``, the one shape of ``verify`` and ``audit``:
    these four keys in this order, None where the mode has no value."""
    keys = ("max_abs_diff", "tv_distance", "final_norm", "colliding_states")
    _emit(config, [("oracle_report.json", stable_json(dict.fromkeys(keys) | values))])


def _run_verify(config: RunConfig) -> int:
    model = _resolve_model(config)
    # the enumeration refuses an N above its cap before the cascade runs
    exact = enumerate_paths(config.n, config.init, model)
    dist = run_cascade(config.n, config.init, model)
    keys = dist.table.keys() | exact.table.keys()
    max_abs_diff = max(
        abs(dist.table.get(key, 0.0) - exact.table.get(key, 0.0))
        for key in keys
    )
    tv = None
    if config.samples > 0:
        empirical = sample_walks(
            config.n, config.init, model, config.samples, config.seed
        )
        tv = tv_distance(dist, empirical)
    _emit_report(config, max_abs_diff=max_abs_diff, tv_distance=tv)
    if max_abs_diff > VERIFY_TOL:
        _fail(
            "verification",
            f"dynamic program deviates from path enumeration: "
            f"max_abs_diff={format(max_abs_diff, '.17g')} > {VERIFY_TOL}",
        )
        return 4
    return 0


def _run_audit(config: RunConfig) -> int:
    model = _resolve_model(config)
    report = coherence_audit(config.n, config.init, model, config.sign_mode)
    _emit_report(
        config, final_norm=report.final_norm, colliding_states=report.colliding_states
    )
    return 0


_RUNNERS = {"verify": _run_verify, "audit": _run_audit}


def run(config: RunConfig) -> int:
    """Run the configured mode: here for ``verify`` and ``audit``, else in
    the mode's own module, ``_run_<mode>``, loaded now."""
    runner = _RUNNERS.get(config.mode)
    if runner is None:
        # __import__, unlike importlib.import_module, shows in -X importtime
        runner = __import__(f"{__package__}._run_{config.mode}", fromlist=("run",)).run
    return runner(config)


def _fail(kind: str, message: str) -> None:
    """Print a one-line JSON diagnostic to stderr. A stderr that cannot
    take it drops it, as ``_say`` drops lines for a closed stdout: one
    closed at start (``sys.stderr`` is None, and ``print`` would fall back
    to stdout) or one that refuses the write. The exit code still tells
    the failure."""
    if sys.stderr is None:
        return
    try:
        print(json.dumps({"error": kind, "message": message}), file=sys.stderr)
    except OSError:
        pass


# flag -> (key, type): each value is converted as typed, then checked by
# load_config like a file value
_FLAGS = {"--config": ("config", str)} | {
    spec.flag: (key, _FLAG_TYPES.get(spec.check, str))
    for key, spec in _KEYS.items() if spec.flag
}


def _usage() -> str:
    lines = [f"usage: cqwsim {{{','.join(MODES)}}} [--flag VALUE | --flag=VALUE ...]",
             "", "Cascaded-well multiphoton emission simulator.", "",
             "  --config PATH  JSON config file"]
    for key, spec in _KEYS.items():
        if spec.flag:
            kind = _FLAGS[spec.flag][1].__name__.upper()
            value = "{%s}" % ",".join(spec.check) if isinstance(spec.check, _OneOf) else kind
            default = "" if spec.default is None else f" (default {spec.default})"
            lines.append(f"  {spec.flag} {value}  {spec.help}{default}")
    return "\n".join(lines)


def _parse_args(argv: list[str]) -> tuple[str, str | None, dict]:
    """Read ``MODE --flag VALUE --flag=VALUE ...`` into (mode, config, flags)."""
    if "-h" in argv or "--help" in argv:
        _say(_usage())
        raise SystemExit(0)
    tokens = iter(argv)
    mode = _KEYS["mode"].check(next(tokens, None), "mode")
    flags = {}
    for token in tokens:
        flag, eq, value = token.partition("=")
        if flag not in _FLAGS:
            raise ValidationError(f"unknown argument: {token}")
        if not eq:
            value = next(tokens, None)
            if value is None or value.startswith("--"):
                raise ValidationError(f"{flag} expects a value")
        key, kind = _FLAGS[flag]
        try:
            flags[key] = kind(value)
        except ValueError:
            raise ValidationError(f"{flag} expects {kind.__name__}, got {value!r}") from None
    return mode, flags.pop("config", None), flags


def main(argv: list[str] | None = None) -> int:
    try:
        return run(load_config(*_parse_args(sys.argv[1:] if argv is None else argv)))
    except ValidationError as exc:
        _fail("validation", str(exc))
        return 2
    except CqwError as exc:
        _fail("numeric", str(exc))
        return 3
    except MemoryError as exc:
        _fail("numeric", f"MemoryError: {str(exc) or 'out of memory'}")
        return 3


def entry() -> None:
    """Run ``main`` as a whole process and exit with its code.

    ``python -m cqwsim`` and the ``cqwsim`` script both start here. Once
    ``main`` has returned (or ``--help`` raised ``SystemExit(0)``), its
    files are closed and nothing the process made is needed again, yet
    the interpreter's shutdown would tear down every module and collect
    what is left. So the process ends here as ``Py_FinalizeEx`` would,
    less that teardown: the registered atexit callbacks run, stdout and
    stderr flush, and ``os._exit`` ends it with ``main``'s code. Python
    does not promise ``__del__`` for objects alive at exit anyway. Any
    other exception takes Python's normal path, traceback and exit 1.
    ``os._exit`` stays out of ``main``, which tests and the benchmark's
    tracer call in-process.

    A reader that closed stdout early costs no file and no exit code:
    ``_say`` drops the lines it cannot print, and the flush here drops
    what is still buffered.
    """
    try:
        code = main()
    except SystemExit as exc:
        if exc.code != 0:
            raise
        code = 0
    atexit._run_exitfuncs()
    for stream in (sys.stdout, sys.stderr):
        if stream is None:  # the process began with that fd closed
            continue
        try:
            stream.flush()
        except OSError:
            pass  # what _say could not write, and dropped or reported
    os._exit(code)


if __name__ == "__main__":
    entry()
