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
from dataclasses import dataclass
from math import isfinite, sqrt
from pathlib import Path

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
    composite_grid,
    count_nodes,
    design_alignment,
    evaluate_wave,
    simpson,
    solve_bound_states,
)
from .errors import (
    CqwError,
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
FORMATS = ("json", "csv", "both")
KINDS = ("symmetric", "dipole-only", "physical", "manual")
VERIFY_TOL = 1e-10

_TOP_KEYS = {
    "mode", "well", "n_total", "init", "branching", "output", "seed",
    "sample_count", "sign_mode", "tolerances",
}
_WELL_KEYS = {"v1", "v2", "d", "period", "b"}
_INIT_KEYS = {"ch", "cl"}
_BRANCH_KEYS = {"kind", "p_hh", "p_hl", "p_lh", "p_ll"}
_OUTPUT_KEYS = {"dir", "format"}
_TOL_KEYS = {"energy", "design"}


@dataclass
class WellConfig:
    v1: float
    v2: float
    d: float
    period: float | None
    b: float | None


@dataclass
class BranchingSpec:
    kind: str
    probs: tuple[float, float, float, float] | None


@dataclass
class RunConfig:
    """Fully validated inputs for one subcommand run."""

    mode: str
    well: WellConfig | None
    n: int | None
    init: InitialExcitation
    branching: BranchingSpec | None
    out_dir: str
    fmt: str
    seed: int
    samples: int
    sign_mode: str
    energy_tol: float
    design_tol: float


def _as_number(value, key: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(f"{key} must be a number, got {value!r}")
    number = float(value)
    if not isfinite(number):
        raise ValidationError(f"{key} must be finite, got {value!r}")
    return number


def _as_int(value, key: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(f"{key} must be an integer, got {value!r}")
    return value


def _check_keys(block: dict, allowed: set[str], prefix: str) -> None:
    for key in block:
        if key not in allowed:
            raise ValidationError(f"unknown configuration key: {prefix}{key}")


def _block(data: dict, name: str, allowed: set[str]) -> dict:
    block = data.get(name)
    if block is None:
        return {}
    if not isinstance(block, dict):
        raise ValidationError(f"{name} must be an object")
    _check_keys(block, allowed, f"{name}.")
    return block


def parse_config(mode: str, config_path: str | None, overrides: dict) -> RunConfig:
    """Merge file and flag settings into a validated RunConfig.

    Flags win over file values. Unknown keys anywhere in the file are
    rejected by name.
    """
    if mode not in MODES:
        raise ValidationError(f"unknown mode {mode!r}")
    data: dict = {}
    if config_path:
        try:
            raw = Path(config_path).read_text()
        except OSError as exc:
            raise ValidationError(f"cannot read config file {config_path}: {exc}")
        try:
            data = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise ValidationError(
                f"config file {config_path} is not valid JSON: {exc}"
            )
        if not isinstance(data, dict):
            raise ValidationError("config root must be a JSON object")
        _check_keys(data, _TOP_KEYS, "")
        file_mode = data.get("mode")
        if file_mode is not None and file_mode not in MODES:
            raise ValidationError(
                f"mode must be one of {MODES}, got {file_mode!r}"
            )

    well_fields = {
        key: _as_number(value, f"well.{key}")
        for key, value in _block(data, "well", _WELL_KEYS).items()
    }
    for key in _WELL_KEYS:
        if overrides.get(key) is not None:
            well_fields[key] = _as_number(overrides[key], f"well.{key}")
    well = None
    if well_fields:
        for key in ("v1", "v2", "d"):
            if key not in well_fields:
                raise ValidationError(f"well.{key} is required")
        well = WellConfig(
            v1=well_fields["v1"],
            v2=well_fields["v2"],
            d=well_fields["d"],
            period=well_fields.get("period"),
            b=well_fields.get("b"),
        )
        if not well.v1 > well.v2:
            raise ValidationError("well.v1 must exceed well.v2")
        if not well.d > 0:
            raise ValidationError("well.d must be positive")
        if well.period is not None and not well.period > well.d:
            raise ValidationError("well.period must exceed well.d")
        if well.b is not None:
            if well.b < 0:
                raise ValidationError("well.b must be nonnegative")
            if not well.v2 < well.v1 - well.b:
                raise ValidationError(
                    "well.b too large: the lowered barrier falls below the floor"
                )

    n = None
    if "n_total" in data:
        n = _as_int(data["n_total"], "n_total")
    if overrides.get("n") is not None:
        n = int(overrides["n"])
    if n is not None and n < 1:
        raise ValidationError(f"n_total must be at least 1, got {n}")

    init_block = _block(data, "init", _INIT_KEYS)
    ch = _as_number(init_block["ch"], "init.ch") if "ch" in init_block else None
    cl = _as_number(init_block["cl"], "init.cl") if "cl" in init_block else None
    if overrides.get("ch") is not None:
        ch = _as_number(overrides["ch"], "init.ch")
    if overrides.get("cl") is not None:
        cl = _as_number(overrides["cl"], "init.cl")
    if ch is None:
        ch = 1.0
    if cl is None:
        cl = 1.0
    if ch < 0 or cl < 0:
        raise ValidationError(
            f"init amplitudes must be nonnegative, got ({ch}, {cl})"
        )
    if ch == 0 and cl == 0:
        raise ValidationError("init.ch and init.cl must not both be zero")
    init = InitialExcitation.normalized(ch, cl)

    branch_block = _block(data, "branching", _BRANCH_KEYS)
    kind = branch_block.get("kind")
    if kind is not None and not isinstance(kind, str):
        raise ValidationError(f"branching.kind must be a string, got {kind!r}")
    if overrides.get("branching") is not None:
        kind = overrides["branching"]
    branching = None
    if kind is not None or branch_block:
        if kind is None:
            raise ValidationError("branching.kind is required")
        if kind not in KINDS:
            raise ValidationError(
                f"branching.kind must be one of {KINDS}, got {kind!r}"
            )
        probs = None
        if kind == "manual":
            values = []
            for key in ("p_hh", "p_hl", "p_lh", "p_ll"):
                if key not in branch_block:
                    raise ValidationError(
                        f"manual branching requires branching.{key}"
                    )
                values.append(_as_number(branch_block[key], f"branching.{key}"))
            probs = tuple(values)
        branching = BranchingSpec(kind=kind, probs=probs)

    output_block = _block(data, "output", _OUTPUT_KEYS)
    out_dir = output_block.get("dir", "out")
    if not isinstance(out_dir, str):
        raise ValidationError(f"output.dir must be a string, got {out_dir!r}")
    if overrides.get("out") is not None:
        out_dir = overrides["out"]
    fmt = output_block.get("format", "both")
    if overrides.get("format") is not None:
        fmt = overrides["format"]
    if fmt not in FORMATS:
        raise ValidationError(
            f"output.format must be one of {FORMATS}, got {fmt!r}"
        )

    seed = _as_int(data["seed"], "seed") if "seed" in data else 0
    if overrides.get("seed") is not None:
        seed = int(overrides["seed"])
    if seed < 0:
        raise ValidationError(f"seed must be nonnegative, got {seed}")

    samples = (
        _as_int(data["sample_count"], "sample_count")
        if "sample_count" in data
        else 0
    )
    if overrides.get("samples") is not None:
        samples = int(overrides["samples"])
    if samples < 0:
        raise ValidationError(f"sample_count must be nonnegative, got {samples}")

    sign_mode = data.get("sign_mode", "all-positive")
    if overrides.get("signs") is not None:
        sign_mode = overrides["signs"]
    if sign_mode not in SIGN_MODES:
        raise ValidationError(
            f"sign_mode must be one of {SIGN_MODES}, got {sign_mode!r}"
        )

    tol_block = _block(data, "tolerances", _TOL_KEYS)
    energy_tol = (
        _as_number(tol_block["energy"], "tolerances.energy")
        if "energy" in tol_block
        else 1e-12
    )
    design_tol = (
        _as_number(tol_block["design"], "tolerances.design")
        if "design" in tol_block
        else 1e-9
    )
    if not energy_tol > 0:
        raise ValidationError("tolerances.energy must be positive")
    if not design_tol > 0:
        raise ValidationError("tolerances.design must be positive")

    needs_well = mode in ("design", "levels")
    needs_physics = branching is not None and branching.kind in (
        "physical", "dipole-only",
    )
    if mode == "design":
        if well is None:
            raise ValidationError(
                "design mode requires well.v1, well.v2, and well.d"
            )
        if well.b is not None:
            raise ValidationError(
                "well.b is not allowed in design mode; the bias search determines it"
            )
    if mode == "levels" or (mode not in ("design", "levels") and needs_physics):
        if well is None:
            raise ValidationError(f"{mode} mode requires a well block")
        if well.period is None:
            raise ValidationError(f"{mode} mode requires well.period")
    if mode in ("simulate", "analyze", "verify", "audit"):
        if n is None:
            raise ValidationError(f"n_total is required for {mode} mode")
        if branching is None:
            raise ValidationError(f"branching.kind is required for {mode} mode")
    if mode == "verify" and n is not None and n > ENUM_LIMIT:
        raise ValidationError(
            f"n_total must be at most {ENUM_LIMIT} for verify mode, got {n}"
        )
    if mode == "audit" and n is not None and n > AUDIT_LIMIT:
        raise ValidationError(
            f"n_total must be at most {AUDIT_LIMIT} for audit mode, got {n}"
        )
    if needs_well and well is None:
        raise ValidationError(f"{mode} mode requires a well block")

    return RunConfig(
        mode=mode,
        well=well,
        n=n,
        init=init,
        branching=branching,
        out_dir=out_dir,
        fmt=fmt,
        seed=seed,
        samples=samples,
        sign_mode=sign_mode,
        energy_tol=energy_tol,
        design_tol=design_tol,
    )


def _emit(config: RunConfig, documents: list[tuple[str, str]]) -> None:
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name, text in documents:
        if name.endswith(".json") and config.fmt == "csv":
            continue
        if name.endswith(".csv") and config.fmt == "json":
            continue
        path = out / name
        path.write_text(text)
        print(f"wrote {path}")


def _physics(config: RunConfig):
    """Solve the chain physics shared by levels and physical branching."""
    well = config.well
    bias = well.b
    if bias is None:
        bias = design_alignment(well.v1, well.v2, well.d, tol=config.design_tol).bias
    params = WellParams(well.v1, well.v2, bias, well.d, well.period)
    left = solve_bound_states(params, tol=config.energy_tol)
    if len(left) < 2:
        raise InfeasibleDesignError(
            f"well holds {len(left)} bound level(s); coupling needs two"
        )
    shifted = WellParams(
        well.v1 - bias, well.v2 - bias, bias, well.d, well.period
    )
    right = solve_bound_states(shifted, tol=config.energy_tol)
    if len(right) < 2:
        raise InfeasibleDesignError(
            f"shifted well holds {len(right)} bound level(s); coupling needs two"
        )
    split = couple_wells((left[0], left[1]), (right[0], right[1]), params)
    spacing = left[1].energy - left[0].energy
    freqs = mode_frequencies(spacing, split.delta_e)
    waves = sample_chain_waves(left[0], left[1], params)
    dipoles = dipole_matrix(split, split, waves, params)
    return bias, spacing, split, freqs, dipoles


def _resolve_model(config: RunConfig, physics=None) -> BranchingModel:
    """The configured branching model; ``physics`` reuses a solved chain."""
    kind = config.branching.kind if config.branching else "physical"
    if kind == "symmetric":
        return BranchingModel.symmetric()
    if kind == "manual":
        return BranchingModel.manual(*config.branching.probs)
    *_, freqs, dipoles = physics if physics is not None else _physics(config)
    return branching_model(freqs, dipoles, kind)


def _run_design(config: RunConfig) -> int:
    well = config.well
    result = design_alignment(well.v1, well.v2, well.d, tol=config.design_tol)
    params = WellParams(well.v1, well.v2, result.bias, well.d, well.period)
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
        "e_plus": split.e_plus,
        "e_minus": split.e_minus,
        "delta_e": split.delta_e,
        "a_plus": split.a_plus,
        "b_plus": split.b_plus,
        "a_minus": split.a_minus,
        "b_minus": split.b_minus,
        "overlap": split.overlap,
        "dipoles": {
            "d_hh": dipoles.d_hh,
            "d_hl": dipoles.d_hl,
            "d_lh": dipoles.d_lh,
            "d_ll": dipoles.d_ll,
            "d_hg": dipoles.d_hg,
            "d_lg": dipoles.d_lg,
        },
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


def _distribution_documents(config: RunConfig, model: BranchingModel):
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
        "branching": {
            "p_hh": model.p_hh,
            "p_hl": model.p_hl,
            "p_lh": model.p_lh,
            "p_ll": model.p_ll,
            "weighting": model.weighting,
        },
        "table": table_rows,
    }
    return dist, [
        ("distribution.json", stable_json(document)),
        ("distribution.csv", csv_table(["l", "m", "n", "f", "amp"], csv_rows)),
    ]


def _run_simulate(config: RunConfig) -> int:
    model = _resolve_model(config)
    _, documents = _distribution_documents(config, model)
    _emit(config, documents)
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


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH", help="JSON config file")
    common.add_argument("--out", metavar="DIR", help="output directory")
    common.add_argument("--format", choices=FORMATS, help="which file kinds to write")
    common.add_argument("--n", type=int, help="total photon number")
    common.add_argument("--ch", type=float, help="initial upper-sublevel amplitude")
    common.add_argument("--cl", type=float, help="initial lower-sublevel amplitude")
    common.add_argument("--branching", choices=KINDS, help="branching weighting kind")
    common.add_argument("--seed", type=int, help="sampling seed")
    common.add_argument("--samples", type=int, help="Monte Carlo sample count")
    common.add_argument("--signs", choices=SIGN_MODES, help="audit sign mode")
    common.add_argument("--v1", type=float, help="outer barrier height")
    common.add_argument("--v2", type=float, help="well floor")
    common.add_argument("--d", type=float, help="well width")
    common.add_argument("--period", type=float, help="well-to-well spacing")
    common.add_argument("--b", type=float, help="per-period bias drop")
    parser = argparse.ArgumentParser(
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
    args = _build_parser().parse_args(argv)
    try:
        config = parse_config(args.mode, args.config, vars(args))
        return run(config)
    except ValidationError as exc:
        _fail("validation", str(exc))
        return 2
    except CqwError as exc:
        _fail("numeric", str(exc))
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
