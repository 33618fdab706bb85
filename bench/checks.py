"""Output checks for one cqwsim job, independent of cqwsim's own code.

Every check reads the files a job wrote and tests an invariant that follows
from the model, not from the implementation: normalization, the
closed-form support of (l, m, n), amp^2 = f, row-stochastic branching, the
alignment condition of a design, and agreement between the files a mode
writes. A failing job must exit with its expected code and print exactly
one JSON diagnostic line, and write nothing.
"""

from __future__ import annotations

import hashlib
import json
from math import fsum, isfinite, log2
from pathlib import Path

MASS_TOL = 1e-9
ROW_TOL = 1e-9
VERIFY_TOL = 1e-10
DESIGN_TOL = 1e-9
TV_LIMIT = 0.05  # about 7x the expected TV distance of 1e5 samples

EXPECTED_FILES = {
    "design": {"design.json", "levels.csv"},
    "levels": {"coupled.json", "branching.json"},
    "simulate": {"distribution.json", "distribution.csv"},
    "analyze": {"analysis.json", "heatmap.csv"},
    "verify": {"oracle_report.json"},
    "audit": {"oracle_report.json"},
}
ERROR_KIND = {2: "validation", 3: "numeric"}


class CheckFailed(Exception):
    """A job's exit code, diagnostics or output files break an invariant."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol


def in_support(l: int, m: int, n: int, n_total: int) -> bool:
    """Closed-form support: l + m + n = N, |l - n| <= 1, l + n >= 1."""
    return (
        min(l, m, n) >= 0 and l + m + n == n_total
        and abs(l - n) <= 1 and l + n >= 1
    )


def support_size(n_total: int) -> int:
    """Number of triples in the closed-form support of ``n_total``."""
    return n_total // 2 + 2 * ((n_total + 1) // 2)


def _csv(text: str, header: list[str]) -> list[list[str]]:
    lines = text.split("\n")
    _require(lines[0] == ",".join(header), f"csv header {lines[0]!r}")
    _require(lines[-1] == "", "csv does not end with a newline")
    return [line.split(",") for line in lines[1:-1]]


def _check_branching(block: dict, spec: dict) -> None:
    rows = ((block["p_hh"], block["p_hl"]), (block["p_lh"], block["p_ll"]))
    for stay, cross in rows:
        _require(0.0 <= stay <= 1.0 and 0.0 <= cross <= 1.0,
                 f"branching entry outside [0, 1]: {stay}, {cross}")
        _require(_close(stay + cross, 1.0, ROW_TOL),
                 f"branching row sums to {stay + cross}")
    kind = spec["kind"]
    _require(block["weighting"] == kind,
             f"weighting {block['weighting']!r}, asked for {kind!r}")
    if kind == "symmetric":
        _require(all(block[k] == 0.5 for k in ("p_hh", "p_hl", "p_lh", "p_ll")),
                 "symmetric branching is not 1/2 everywhere")
    elif kind == "manual":
        for key in ("p_hh", "p_hl", "p_lh", "p_ll"):
            _require(_close(block[key], spec[key], ROW_TOL),
                     f"manual {key} {block[key]} != requested {spec[key]}")


def _check_init(doc_init: dict, config: dict) -> None:
    ch, cl = doc_init["ch"], doc_init["cl"]
    _require(_close(ch * ch + cl * cl, 1.0, 1e-12), "init not normalized")
    want = config["init"]
    _require(_close(ch * want["cl"], cl * want["ch"], 1e-12),
             "init direction differs from the requested amplitudes")


def _check_simulate(config: dict, files: dict[str, bytes]) -> None:
    n_total = config["n_total"]
    doc = json.loads(files["distribution.json"])
    _require(doc["n"] == n_total, f"n {doc['n']} != {n_total}")
    _check_init(doc["init"], config)
    _check_branching(doc["branching"], config["branching"])
    rows = _csv(files["distribution.csv"].decode(), ["l", "m", "n", "f", "amp"])
    _require(len(rows) == len(doc["table"]), "csv and json tables differ in length")
    seen = set()
    masses = []
    for row, entry in zip(rows, doc["table"]):
        l, m, n = (int(v) for v in row[:3])
        f, amp = float(row[3]), float(row[4])
        _require((l, m, n) not in seen, f"duplicate triple {(l, m, n)}")
        seen.add((l, m, n))
        _require(in_support(l, m, n, n_total), f"{(l, m, n)} outside the support")
        _require(isfinite(f) and f > 0.0, f"f={f} at {(l, m, n)}")
        _require(abs(amp * amp - f) <= 1e-12 * f + 1e-300, f"amp^2 != f at {(l, m, n)}")
        _require([entry[k] for k in ("l", "m", "n", "f", "amp")] == [l, m, n, f, amp],
                 f"json and csv disagree at {(l, m, n)}")
        masses.append(f)
    total = fsum(masses)
    _require(_close(total, 1.0, MASS_TOL), f"distribution sums to {total!r}")


def _heatmap(text: str, n_total: int) -> dict[tuple[int, int], float]:
    """Non-zero cells of heatmap.csv, checking the full (N+1)^2 layout."""
    side = n_total + 1
    lines = text.split("\n")
    _require(lines[0] == "l,n,p" and lines[-1] == "", "heatmap header or ending")
    _require(len(lines) - 2 == side * side, f"heatmap has {len(lines) - 2} rows")
    cells = {}
    for index, line in enumerate(lines[1:-1]):
        if line.endswith(",0"):
            continue
        l, n, p = line.split(",")
        l, n, p = int(l), int(n), float(p)
        _require(index == l * side + n, f"heatmap row {index} holds ({l}, {n})")
        _require(isfinite(p) and p > 0.0, f"heatmap p={p} at ({l}, {n})")
        _require(abs(l - n) <= 1 and 1 <= l + n <= n_total,
                 f"heatmap mass at ({l}, {n}) outside the support")
        cells[(l, n)] = p
    return cells


def _check_analyze(config: dict, files: dict[str, bytes]) -> None:
    n_total = config["n_total"]
    doc = json.loads(files["analysis.json"])
    _require(doc["n"] == n_total, f"n {doc['n']} != {n_total}")
    cells = _heatmap(files["heatmap.csv"].decode(), n_total)
    total = fsum(cells.values())
    _require(_close(total, 1.0, MASS_TOL), f"heatmap sums to {total!r}")

    slices: dict[int, list[float]] = {}
    for (l, n), p in cells.items():
        slices.setdefault(n_total - l - n, []).append(p)
    conditionals = doc["conditionals"]
    _require([c["m"] for c in conditionals] == list(range(n_total + 1)),
             "conditionals do not cover m = 0..N")
    weights = []
    for cond in conditionals:
        m, s, weight = cond["m"], n_total - cond["m"], cond["weight"]
        k = s // 2
        _require(cond["s"] == s, f"s={cond['s']} at m={m}")
        _require(_close(weight, fsum(slices.get(m, [])), 1e-12),
                 f"slice weight at m={m} disagrees with the heatmap")
        weights.append(weight)
        kind = cond["kind"]
        if kind == "empty":
            _require(weight == 0.0 and cond["entropy"] is None, f"empty slice m={m}")
        elif s % 2 == 0:
            _require(kind == "product" and cond["entropy"] == 0.0,
                     f"even slice m={m} is {kind}")
        else:
            _require(kind in ("product", "entangled-pair"), f"kind {kind!r} at m={m}")
            alpha, beta = cond["alpha"], cond["beta"]
            _require(_close(alpha * alpha + beta * beta, 1.0, 1e-9),
                     f"alpha^2 + beta^2 != 1 at m={m}")
            _require(_close(alpha * alpha, cells.get((k, k + 1), 0.0) / weight, 1e-9),
                     f"alpha^2 disagrees with the heatmap at m={m}")
            q = alpha * alpha
            entropy = 0.0 if q in (0.0, 1.0) else -q * log2(q) - (1 - q) * log2(1 - q)
            _require(_close(cond["entropy"], entropy, 1e-9), f"entropy at m={m}")
    _require(weights[n_total] == 0.0, "the all-central triple carries mass")
    _require(_close(fsum(weights), 1.0, MASS_TOL), "slice weights do not sum to 1")

    parity = doc["parity"]
    _require(parity["gate"] == ("XOR" if n_total % 2 == 0 else "NXOR"), "parity gate")
    _require(parity["all_hold"] is True, "parity law fails")
    for l, m, n, *_ in parity["rows"]:
        _require(in_support(l, m, n, n_total), f"parity row {(l, m, n)} off support")
    purity = doc["purity"]
    _require(_close(purity["trace"], 1.0, MASS_TOL), f"trace {purity['trace']}")
    _require(purity["rank_one"] is True, "state not rank one")
    _require(purity["idempotency_residual"] <= MASS_TOL, "idempotency residual")


def _check_verify(config: dict, files: dict[str, bytes]) -> None:
    doc = json.loads(files["oracle_report.json"])
    _require(doc["max_abs_diff"] <= VERIFY_TOL, f"max_abs_diff {doc['max_abs_diff']}")
    tv = doc["tv_distance"]
    _require(0.0 <= tv < TV_LIMIT, f"tv_distance {tv}")


def _check_audit(config: dict, files: dict[str, bytes]) -> None:
    doc = json.loads(files["oracle_report.json"])
    norm = doc["final_norm"]
    _require(isfinite(norm) and norm >= 0.0, f"final_norm {norm}")
    if config["sign_mode"] == "all-positive":
        # Positive amplitudes only add up where paths collide.
        _require(norm >= 1.0 - 1e-12, f"all-positive final_norm {norm} < 1")
    states = [tuple(s) for s in doc["colliding_states"]]
    _require(states == sorted(set(states)), "colliding states unsorted or repeated")
    for l, m, n in states:
        _require(in_support(l, m, n, config["n_total"]), f"{(l, m, n)} off support")


def _check_design(config: dict, files: dict[str, bytes]) -> None:
    well = config["well"]
    doc = json.loads(files["design.json"])
    bias, energies = doc["bias"], doc["energies"]
    _require(len(energies) == 2, f"{len(energies)} levels")
    e0, e1 = energies
    _require(well["v2"] < e0 < e1 < well["v1"] - bias, "levels outside the well")
    _require(abs(e1 - e0 - bias) <= DESIGN_TOL, f"|E1 - E0 - b| = {abs(e1 - e0 - bias)}")
    rows = _csv(files["levels.csv"].decode(), ["index", "energy", "node_count", "norm_residual"])
    _require([int(r[0]) for r in rows] == [0, 1], "level indices")
    _require([float(r[1]) for r in rows] == energies, "levels.csv energies differ")
    _require([int(r[2]) for r in rows] == [0, 1], "node counts differ from indices")
    _require(all(float(r[3]) < 1e-6 for r in rows), "wavefunction not normalized")


def _check_levels(config: dict, files: dict[str, bytes]) -> None:
    coupled = json.loads(files["coupled.json"])
    s = coupled["overlap"]
    _require(coupled["e_plus"] > coupled["e_minus"], "doublet not ordered")
    _require(_close(coupled["delta_e"], coupled["e_plus"] - coupled["e_minus"], 1e-12),
             "delta_e != e_plus - e_minus")
    for a, b in ((coupled["a_plus"], coupled["b_plus"]),
                 (coupled["a_minus"], coupled["b_minus"])):
        _require(_close(a * a + b * b + 2 * s * a * b, 1.0, 1e-9),
                 "mixing vector not normalized in the overlap metric")
    branching = json.loads(files["branching.json"])
    _check_branching(branching, config.get("branching", {"kind": "physical"}))
    low, mid, high = (branching[k] for k in ("omega_minus", "omega_zero", "omega_plus"))
    _require(0.0 < low < mid < high, "mode frequencies not ordered")
    _require(_close(high - mid, branching["delta_e"], 1e-9)
             and _close(mid - low, branching["delta_e"], 1e-9),
             "sidebands not split by delta_e")


CHECKERS = {
    "design": _check_design,
    "levels": _check_levels,
    "simulate": _check_simulate,
    "analyze": _check_analyze,
    "verify": _check_verify,
    "audit": _check_audit,
}


def read_outputs(out_dir: Path) -> dict[str, bytes]:
    if not out_dir.is_dir():
        return {}
    return {path.name: path.read_bytes() for path in sorted(out_dir.iterdir())}


def digest(code: int, stderr: str, files: dict[str, bytes]) -> str:
    h = hashlib.sha256(f"{code}\n{stderr}".encode())
    for name in sorted(files):
        h.update(f"\n{name}\n{len(files[name])}\n".encode())
        h.update(files[name])
    return h.hexdigest()


def check_job(job, code: int, stdout: str, stderr: str, files: dict[str, bytes]) -> str:
    """Check one finished job and return the digest of its outputs.

    Raises CheckFailed on a wrong exit code, a traceback, a diagnostic that
    is not one JSON line, or any violated output invariant.
    """
    _require(code == job.expect_exit, f"exit {code}, expected {job.expect_exit}")
    _require("Traceback" not in stderr, "traceback on stderr")
    if job.expect_exit == 0:
        _require(stderr == "", f"stderr on success: {stderr[:200]!r}")
        _require(set(files) == EXPECTED_FILES[job.mode], f"wrote {sorted(files)}")
        written = {line.rsplit("/", 1)[-1] for line in stdout.splitlines()}
        _require(written == set(files), "stdout does not list the files written")
        try:
            CHECKERS[job.mode](job.config, files)
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            raise CheckFailed(f"malformed {job.mode} output: {exc!r}") from exc
    else:
        lines = stderr.splitlines()
        _require(len(lines) == 1, f"{len(lines)} stderr lines")
        try:
            diag = json.loads(lines[0])
        except json.JSONDecodeError as exc:
            raise CheckFailed(f"diagnostic is not JSON: {lines[0][:200]!r}") from exc
        _require(isinstance(diag, dict) and set(diag) == {"error", "message"},
                 f"diagnostic keys {diag!r}")
        _require(diag["error"] == ERROR_KIND[job.expect_exit], f"error kind {diag['error']!r}")
        _require(not files, f"failing job wrote {sorted(files)}")
    return digest(code, stderr, files)
