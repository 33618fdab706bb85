"""Byte-deterministic writers for the result files.

Floats are rendered with %.17g so every run of the same inputs produces
identical bytes and values round-trip exactly through JSON or CSV.

The writers make one pass over a document. An exact ``float`` or ``int``,
the bulk of every result file, is formatted in place by ``%`` with no
call; JSON keys and strings are escaped by the C function that
``json.dumps`` itself uses for a string; each container is joined once.
Any other value takes the full type checks, which keep the rules for
subclasses and refuse what has no rule: a non-finite float raises
NumericError, a record (a namedtuple) or an unknown type TypeError.

Only the writers every file kind shares live here; the dense heatmap
writer, which only ``analyze`` calls, is in that command's runner,
``_run_analyze``.
"""

from __future__ import annotations

from json.encoder import encode_basestring_ascii as _quote
from math import isfinite

from .errors import NumericError

_INF = float("inf")


def format_float(value: float) -> str:
    if not isfinite(value):
        raise NumericError(f"cannot serialize non-finite value {value!r}")
    return "%.17g" % value


def _encode(value, indent: int) -> str:
    """One value of any type: what ``_container`` does not format in place."""
    if isinstance(value, tuple) and hasattr(value, "_fields"):
        # a record is written through its _asdict(), never as a bare array
        raise TypeError(f"cannot serialize {type(value).__name__}")
    if isinstance(value, (dict, list, tuple)):
        return _container(value, indent)
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return format_float(value)
    if isinstance(value, str):
        return _quote(value)
    raise TypeError(f"cannot serialize {type(value).__name__}")


def _container(value: dict | list | tuple, indent: int) -> str:
    """A dict, list or tuple, one item a line, joined once."""
    if not value:
        return "{}" if isinstance(value, dict) else "[]"
    pad = "\n" + "  " * indent
    inner = pad + "  "
    if isinstance(value, dict):
        heads = [
            f"{inner}{_quote(key if type(key) is str else str(key))}: "
            for key in value
        ]
        items, bracket = value.values(), "{}"
    else:
        heads, items, bracket = [inner] * len(value), value, "[]"
    parts = [
        head + (
            "%.17g" % item if type(item) is float and -_INF < item < _INF
            else "%d" % item if type(item) is int
            else _quote(item) if type(item) is str
            else "true" if item is True
            else "false" if item is False
            else _encode(item, indent + 1)
        )
        for head, item in zip(heads, items)
    ]
    return bracket[0] + ",".join(parts) + pad + bracket[1]


def stable_json(document: dict) -> str:
    """Render a document with fixed key order and %.17g floats."""
    return _encode(document, 0) + "\n"


def _cell(value) -> str:
    """One CSV cell that ``csv_table`` does not format in place."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return format_float(value)
    # a string has no quoting rule here: a comma in it would shift the columns
    raise TypeError(f"cannot write a {type(value).__name__} cell")


def csv_table(header: list[str], rows: list[list]) -> str:
    """Render a comma-separated table with a header line.

    Cells are bools, ints or finite floats; any other cell raises
    TypeError naming its type.
    """
    lines = [",".join(header)]
    lines += [
        ",".join([
            "%.17g" % value if type(value) is float and -_INF < value < _INF
            else "%d" % value if type(value) is int
            else _cell(value)
            for value in row
        ])
        for row in rows
    ]
    lines.append("")
    return "\n".join(lines)
