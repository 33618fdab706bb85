"""The ``design`` command: the alignment bias and the well's levels."""

from __future__ import annotations

from .cli import RunConfig, _emit
from .eigensolver import design_alignment, product_integral, wave_nodes
from .output import csv_table, stable_json


def run(config: RunConfig) -> int:
    well = config.well
    result = design_alignment(well.v1, well.v2, well.d)
    rows = []
    for state in result.levels:
        norm_residual = abs(product_integral(state.wave, 0.0, state.wave, 0.0) - 1.0)
        rows.append([state.index, state.energy, wave_nodes(state.wave), norm_residual])
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
