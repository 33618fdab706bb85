"""Byte-deterministic writers for the result files.

Floats are rendered with %.17g so every run of the same inputs produces
identical bytes and values round-trip exactly through JSON or CSV.
"""

from __future__ import annotations

import json
from math import isfinite

from .errors import NumericError


def format_float(value: float) -> str:
    if not isfinite(value):
        raise NumericError(f"cannot serialize non-finite value {value!r}")
    return "%.17g" % value


def _encode(value, indent: int) -> str:
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(value, dict):
        if not value:
            return "{}"
        parts = [
            f"{inner}{json.dumps(str(key))}: {_encode(item, indent + 1)}"
            for key, item in value.items()
        ]
        return "{\n" + ",\n".join(parts) + f"\n{pad}}}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        parts = [f"{inner}{_encode(item, indent + 1)}" for item in value]
        return "[\n" + ",\n".join(parts) + f"\n{pad}]"
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return format_float(value)
    if isinstance(value, str):
        return json.dumps(value)
    raise TypeError(f"cannot serialize {type(value).__name__}")


def stable_json(document: dict) -> str:
    """Render a document with fixed key order and %.17g floats."""
    return _encode(document, 0) + "\n"


def _cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return format_float(value)
    return str(value)


def csv_table(header: list[str], rows: list[list]) -> str:
    """Render a comma-separated table with a header line."""
    lines = [",".join(header)]
    lines.extend(",".join(_cell(value) for value in row) for row in rows)
    return "\n".join(lines) + "\n"


def heatmap_csv(n_total: int, mass: dict[tuple[int, int], float]) -> str:
    """The dense (n_total + 1)^2 table l,n,p of the sideband mass.

    Equal to ``csv_table(["l", "n", "p"], rows)`` over every (l, n) with
    ``mass.get((l, n), 0.0)``, but each row is one join of precomputed
    ``",n,0"`` tails with only the cells present in ``mass`` formatted.
    """
    side = n_total + 1
    tails = [f",{n},0" for n in range(side)]
    cells: dict[int, list[tuple[int, float]]] = {}
    for (l, n), p in mass.items():
        if 0 <= l < side and 0 <= n < side:
            cells.setdefault(l, []).append((n, p))
    lines = ["l,n,p"]
    for l in range(side):
        row = tails
        if l in cells:
            row = tails.copy()
            for n, p in cells[l]:
                row[n] = f",{n},{format_float(p)}"
        head = str(l)
        lines.append(head + ("\n" + head).join(row))
    return "\n".join(lines) + "\n"
