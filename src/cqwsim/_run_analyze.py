"""The ``analyze`` command: conditional states, parity, purity and the
sideband heatmap, whose writer lives here since no other command writes it."""

from __future__ import annotations

from collections.abc import Iterator

from .analysis import (
    conditional_states,
    entanglement_entropy,
    joint_pm,
    parity_xor,
    purity_check,
)
from .cascade import run_cascade
from .cli import RunConfig, _emit, _resolve_model
from .errors import NumericError
from .output import format_float, stable_json


def heatmap_csv(n_total: int, mass: dict[tuple[int, int], float]) -> Iterator[str]:
    """The dense (n_total + 1)^2 table l,n,p of the sideband mass, by rows.

    Joined, the chunks equal ``csv_table(["l", "n", "p"], rows)`` over
    every (l, n) with ``mass.get((l, n), 0.0)``. The header is one chunk
    and each l one more, so a writer never holds the whole table. Each
    row is one join of precomputed ``",n,0"`` tails with only the cells
    present in ``mass`` formatted. A cell outside the grid raises
    NumericError: it has no row to go in.
    """
    side = n_total + 1
    tails = [f",{n},0" for n in range(side)]
    cells: dict[int, list[tuple[int, float]]] = {}
    for (l, n), p in mass.items():
        if not (0 <= l < side and 0 <= n < side):
            raise NumericError(
                f"heatmap cell {(l, n)} lies outside the {side}x{side} grid"
            )
        cells.setdefault(l, []).append((n, p))
    yield "l,n,p\n"
    for l in range(side):
        row = tails
        if l in cells:
            row = tails.copy()
            for n, p in cells[l]:
                row[n] = f",{n},{format_float(p)}"
        head = str(l)
        yield head + ("\n" + head).join(row) + "\n"


def run(config: RunConfig) -> int:
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
            "rows": parity.rows,
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
