"""The ``simulate`` command: the photon-count table."""

from __future__ import annotations

from .cascade import run_cascade
from .cli import RunConfig, _emit, _resolve_model
from .output import csv_table, stable_json


def run(config: RunConfig) -> int:
    model = _resolve_model(config)
    dist = run_cascade(config.n, config.init, model)
    table_rows = []
    csv_rows = []
    for ((l, m, n), f), amp in zip(dist.table.items(), dist.amplitudes().values()):
        table_rows.append({"l": l, "m": m, "n": n, "f": f, "amp": amp})
        csv_rows.append([l, m, n, f, amp])
    document = {
        "n": config.n,
        "init": {"ch": config.init.c_h, "cl": config.init.c_l},
        "branching": model._asdict(),
        "table": table_rows,
    }
    _emit(config, [
        ("distribution.json", stable_json(document)),
        ("distribution.csv", csv_table(["l", "m", "n", "f", "amp"], csv_rows)),
    ])
    return 0
