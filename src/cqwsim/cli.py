"""Command line front end.

Each subcommand reads an optional JSON config file, applies flag
overrides on top, runs one pipeline stage, and writes its result files
into the output directory. Exit codes: 0 success, 2 configuration
problem, 3 numeric failure or infeasible physics, 4 failed verification.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, dataclass, replace
from math import isfinite
from pathlib import Path
from typing import Callable, NamedTuple

from .analysis import (
    conditional_states,
    entanglement_entropy,
    joint_pm,
    parity_xor,
    purity_check,
)
from .cascade import InitialExcitation, run_cascade
from .coupling import (
    BranchingModel,
    branching_model,
    couple_wells,
    dipole_matrix,
    mode_frequencies,
    sample_chain_waves,
)
from .eigensolver import (
    WellParams,
    _lowest_states,
    composite_grid,
    count_levels,
    count_nodes,
    design_alignment,
    evaluate_wave,
    simpson,
)
from .errors import (
    CqwError,
    DomainError,
    InfeasibleDesignError,
    ValidationError,
)
from .oracle import (
    AUDIT_LIMIT,
    ENUM_LIMIT,
    SIGN_MODES,
    coherence_audit,
    enumerate_paths,
    sample_walks,
    tv_distance,
)
from .output import csv_table, heatmap_csv, stable_json

MODES = ("design", "levels", "simulate", "analyze", "verify", "audit")
CHAIN_MODES = ("simulate", "analyze", "verify", "audit")
FORMATS = ("json", "csv", "both")
KINDS = ("symmetric", "dipole-only", "physical", "manual")
VERIFY_TOL = 1e-10


def _as_number(value, key: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(f"{key} must be a number, got {value!r}")
    number = float(value)
    if not isfinite(number):
        raise ValidationError(f"{key} must be finite, got {value!r}")
    return number


def _as_int(value, key: str, minimum: int = 0) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(f"{key} must be an integer, got {value!r}")
    if value < minimum:
        raise ValidationError(f"{key} must be at least {minimum}, got {value}")
    return value


def _as_count(value, key: str) -> int:
    return _as_int(value, key, minimum=1)


def _as_str(value, key: str) -> str:
    if not isinstance(value, str):
        raise ValidationError(f"{key} must be a string, got {value!r}")
    return value


class _OneOf(tuple):
    """Choice check: the value must be one of the tuple's entries."""

    def __call__(self, value, key: str) -> str:
        if value not in self:
            raise ValidationError(f"{key} must be one of {tuple(self)}, got {value!r}")
        return value


class _Key(NamedTuple):
    check: Callable
    flag: str | None = None
    help: str | None = None
    default: object = None


# Every configuration key: its check, flag, help text and default. The file
# nests a dotted key one level deep: "well.v1" is {"well": {"v1": ...}}.
_KEYS = {
    "mode": _Key(_OneOf(MODES)),
    "well.v1": _Key(_as_number, "--v1", "outer barrier height"),
    "well.v2": _Key(_as_number, "--v2", "well floor"),
    "well.d": _Key(_as_number, "--d", "well width"),
    "well.period": _Key(_as_number, "--period", "well-to-well spacing"),
    "well.b": _Key(_as_number, "--b", "per-period bias drop"),
    "n_total": _Key(_as_count, "--n", "total photon number"),
    "init.ch": _Key(_as_number, "--ch", "initial upper-sublevel amplitude", 1.0),
    "init.cl": _Key(_as_number, "--cl", "initial lower-sublevel amplitude", 1.0),
    "branching.kind": _Key(_OneOf(KINDS), "--branching", "branching weighting kind"),
    "branching.p_hh": _Key(_as_number),
    "branching.p_hl": _Key(_as_number),
    "branching.p_lh": _Key(_as_number),
    "branching.p_ll": _Key(_as_number),
    "output.dir": _Key(_as_str, "--out", "output directory", "out"),
    "output.format": _Key(_OneOf(FORMATS), "--format", "which file kinds to write", "both"),
    "seed": _Key(_as_int, "--seed", "sampling seed", 0),
    "sample_count": _Key(_as_int, "--samples", "Monte Carlo sample count", 0),
    "sign_mode": _Key(_OneOf(SIGN_MODES), "--signs", "audit sign mode", "all-positive"),
}
_BLOCKS = {key.partition(".")[0] for key in _KEYS if "." in key}
_FLAG_TYPES = {_as_number: float, _as_int: int, _as_count: int}


@dataclass
class RunConfig:
    """Fully validated inputs for one subcommand run."""

    mode: str
    well: WellParams | None  # its b is the given bias, or 0 until designed
    bias: float | None
    n: int | None
    init: InitialExcitation
    kind: str | None
    model: BranchingModel | None  # ready for the symmetric and manual kinds
    out_dir: str
    fmt: str
    seed: int
    samples: int
    sign_mode: str


def _read_config(path: str) -> dict:
    """Flatten a config file into checked dotted-key values."""
    try:
        data = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ValidationError(f"cannot read config file {path}: {exc}")
    except json.JSONDecodeError as exc:
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
    values = _read_config(config_path) if config_path else {}
    for key, spec in _KEYS.items():
        if flags.get(key) is not None:
            values[key] = spec.check(flags[key], key)
        elif spec.default is not None:
            values.setdefault(key, spec.default)
    n = values.get("n_total")
    kind = values.get("branching.kind")
    bias = values.get("well.b")
    well = model = None
    try:
        if any(key.startswith("well.") for key in values):
            for key in ("well.v1", "well.v2", "well.d"):
                if key not in values:
                    raise ValidationError(f"{key} is required")
            well = WellParams(
                values["well.v1"], values["well.v2"], bias or 0.0,
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
    if mode == "design" and bias is not None:
        raise ValidationError(
            "well.b is not allowed in design mode; the bias search determines it"
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
    limit = {"verify": ENUM_LIMIT, "audit": AUDIT_LIMIT}.get(mode)
    if limit is not None and n > limit:
        raise ValidationError(
            f"n_total must be at most {limit} for {mode} mode, got {n}"
        )
    return RunConfig(
        mode=mode,
        well=well,
        bias=bias,
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


def _emit(config: RunConfig, documents: list[tuple[str, str]]) -> None:
    out = Path(config.out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
        for name, text in documents:
            if config.fmt != "both" and not name.endswith(f".{config.fmt}"):
                continue
            path = out / name
            path.write_text(text)
            print(f"wrote {path}")
    except OSError as exc:
        raise ValidationError(f"cannot write output.dir {config.out_dir}: {exc}")


def _physics(config: RunConfig):
    """Solve the chain physics shared by levels and physical branching."""
    well = config.well
    bias = config.bias
    if bias is None:
        bias = design_alignment(well.v1, well.v2, well.d).bias
    params = replace(well, b=bias)
    shifted = WellParams(
        well.v1 - bias, well.v2 - bias, bias, well.d, well.period
    )
    # only the two lowest levels enter; a deep well can hold thousands
    held = count_levels(params)
    if held < 2:
        raise InfeasibleDesignError(
            f"well holds {held} bound level(s); coupling needs two"
        )
    left = _lowest_states(params, 2)
    held = count_levels(shifted)
    if held < 2:
        raise InfeasibleDesignError(
            f"shifted well holds {held} bound level(s); coupling needs two"
        )
    right = _lowest_states(shifted, 2)
    split = couple_wells((left[0], left[1]), (right[0], right[1]), params)
    spacing = left[1].energy - left[0].energy
    freqs = mode_frequencies(spacing, split.delta_e)
    waves = sample_chain_waves(left[0], left[1], params)
    dipoles = dipole_matrix(split, split, waves, params)
    return bias, spacing, split, freqs, dipoles


def _resolve_model(config: RunConfig, physics=None) -> BranchingModel:
    """The configured branching model; ``physics`` reuses a solved chain."""
    if config.model is not None:
        return config.model
    *_, freqs, dipoles = physics if physics is not None else _physics(config)
    return branching_model(freqs, dipoles, config.kind or "physical")


def _run_design(config: RunConfig) -> int:
    well = config.well
    result = design_alignment(well.v1, well.v2, well.d)
    params = replace(well, b=result.bias)
    grid = composite_grid(params, list(result.levels), n_wells=1)
    rows = []
    for state in result.levels:
        psi = evaluate_wave(state, grid, 0.0)
        norm_residual = abs(simpson(psi * psi, grid) - 1.0)
        rows.append([state.index, state.energy, count_nodes(psi), norm_residual])
    document = {
        "well": {
            "v1": well.v1,
            "v2": well.v2,
            "d": well.d,
            "period": well.period,
        },
        "bias": result.bias,
        "residual": result.residual,
        "energies": [state.energy for state in result.levels],
    }
    _emit(config, [
        ("design.json", stable_json(document)),
        ("levels.csv", csv_table(
            ["index", "energy", "node_count", "norm_residual"], rows
        )),
    ])
    return 0


def _run_levels(config: RunConfig) -> int:
    physics = _physics(config)
    bias, spacing, split, freqs, dipoles = physics
    model = _resolve_model(config, physics)
    coupled = {
        "bias": bias,
        "spacing": spacing,
        **asdict(split),
        "dipoles": asdict(dipoles),
    }
    branching_doc = {
        "p_hh": model.p_hh,
        "p_hl": model.p_hl,
        "p_lh": model.p_lh,
        "p_ll": model.p_ll,
        "omega_minus": freqs.omega_minus,
        "omega_zero": freqs.omega_zero,
        "omega_plus": freqs.omega_plus,
        "delta_e": split.delta_e,
        "weighting": model.weighting,
    }
    _emit(config, [
        ("coupled.json", stable_json(coupled)),
        ("branching.json", stable_json(branching_doc)),
    ])
    return 0


def _run_simulate(config: RunConfig) -> int:
    model = _resolve_model(config)
    dist = run_cascade(config.n, config.init, model)
    amps = dist.amplitudes()
    table_rows = []
    csv_rows = []
    for key in sorted(dist.table):
        l, m, n = key
        f = dist.table[key]
        table_rows.append(
            {"l": l, "m": m, "n": n, "f": f, "amp": amps[key]}
        )
        csv_rows.append([l, m, n, f, amps[key]])
    document = {
        "n": config.n,
        "init": {"ch": config.init.c_h, "cl": config.init.c_l},
        "branching": asdict(model),
        "table": table_rows,
    }
    _emit(config, [
        ("distribution.json", stable_json(document)),
        ("distribution.csv", csv_table(["l", "m", "n", "f", "amp"], csv_rows)),
    ])
    return 0


def _run_analyze(config: RunConfig) -> int:
    model = _resolve_model(config)
    dist = run_cascade(config.n, config.init, model)
    conditionals = []
    for state in conditional_states(dist):
        entropy = None if state.kind == "empty" else entanglement_entropy(state)
        conditionals.append({
            "m": state.measured_m,
            "s": state.s,
            "kind": state.kind,
            "alpha": state.alpha,
            "beta": state.beta,
            "entropy": entropy,
            "weight": state.weight,
        })
    parity = parity_xor(dist)
    purity = purity_check(dist)
    document = {
        "n": config.n,
        "conditionals": conditionals,
        "parity": {
            "gate": parity.gate,
            "all_hold": parity.all_hold,
            "rows": [list(row) for row in parity.rows],
        },
        "purity": {
            "trace": purity.trace,
            "rank_one": purity.rank_one,
            "idempotency_residual": purity.idempotency_residual,
        },
    }
    _emit(config, [
        ("analysis.json", stable_json(document)),
        ("heatmap.csv", heatmap_csv(config.n, joint_pm(dist))),
    ])
    return 0


def _run_verify(config: RunConfig) -> int:
    model = _resolve_model(config)
    dist = run_cascade(config.n, config.init, model)
    exact = enumerate_paths(config.n, config.init, model)
    keys = sorted(set(dist.table) | set(exact.table))
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
    document = {
        "max_abs_diff": max_abs_diff,
        "tv_distance": tv,
        "final_norm": None,
        "colliding_states": None,
    }
    _emit(config, [("oracle_report.json", stable_json(document))])
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
    document = {
        "max_abs_diff": None,
        "tv_distance": None,
        "final_norm": report.final_norm,
        "colliding_states": [list(key) for key in report.colliding_states],
    }
    _emit(config, [("oracle_report.json", stable_json(document))])
    return 0


_RUNNERS = {
    "design": _run_design,
    "levels": _run_levels,
    "simulate": _run_simulate,
    "analyze": _run_analyze,
    "verify": _run_verify,
    "audit": _run_audit,
}


def run(config: RunConfig) -> int:
    return _RUNNERS[config.mode](config)


def _fail(kind: str, message: str) -> None:
    print(json.dumps({"error": kind, "message": message}), file=sys.stderr)


class _Parser(argparse.ArgumentParser):
    """Reports a bad command line as a ValidationError instead of exiting."""

    def error(self, message: str):
        raise ValidationError(message)


def _build_parser() -> argparse.ArgumentParser:
    common = _Parser(add_help=False)
    common.add_argument("--config", metavar="PATH", help="JSON config file")
    for key, spec in _KEYS.items():
        if spec.flag:
            choices = isinstance(spec.check, _OneOf)
            common.add_argument(
                spec.flag,
                dest=key,
                type=_FLAG_TYPES.get(spec.check, str),
                metavar="{%s}" % ",".join(spec.check) if choices else None,
                help=spec.help,
            )
    parser = _Parser(
        prog="cqwsim",
        description="Cascaded-well multiphoton emission simulator.",
    )
    subparsers = parser.add_subparsers(dest="mode", required=True)
    for mode, text in (
        ("design", "find the bias aligning neighboring wells"),
        ("levels", "solve coupling, dipoles, and branching"),
        ("simulate", "run the cascade and write the count distribution"),
        ("analyze", "conditional states, parity, and purity"),
        ("verify", "compare the cascade against exhaustive enumeration"),
        ("audit", "signed amplitude replay of the cascade"),
    ):
        subparsers.add_parser(mode, parents=[common], help=text)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return run(load_config(args.mode, args.config, vars(args)))
    except ValidationError as exc:
        _fail("validation", str(exc))
        return 2
    except CqwError as exc:
        _fail("numeric", str(exc))
        return 3
    except MemoryError as exc:
        _fail("numeric", f"MemoryError: {str(exc) or 'out of memory'}")
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
