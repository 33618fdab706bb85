"""Deterministic serialization helpers."""

import json
from collections import OrderedDict
from enum import IntEnum

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cqwsim import (
    BranchingModel,
    InitialExcitation,
    NumericError,
    joint_pm,
    run_cascade,
)
from cqwsim._run_analyze import heatmap_csv
from cqwsim.output import csv_table, format_float, stable_json
from oracles import reference_csv, reference_json

EDGE_FLOATS = [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
               1.7976931348623157e308, -1.7976931348623157e308]
NUMBERS = st.one_of(
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from(EDGE_FLOATS),
)
# st.text draws non-ASCII and control characters as well
SCALARS = st.one_of(st.none(), NUMBERS, st.text())
KEYS = st.one_of(st.text(), st.integers())
DOCUMENTS = st.dictionaries(KEYS, st.recursive(
    SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(KEYS, inner, max_size=4),
    ),
    max_leaves=30,
))


class Level(IntEnum):
    LOW = 1


def test_format_float_round_trips():
    rng = np.random.default_rng(1)
    for value in rng.uniform(-1e6, 1e6, 50).tolist():
        assert float(format_float(value)) == value
    assert format_float(1.0) == "1"
    assert format_float(0.5) == "0.5"


def test_format_float_rejects_non_finite():
    with pytest.raises(NumericError):
        format_float(float("nan"))
    with pytest.raises(NumericError):
        format_float(float("inf"))


def test_stable_json_is_valid_and_ordered():
    doc = {"b": 1.5, "a": [1, 2, None], "flag": True, "nested": {"z": 0.0, "y": "x"}}
    text = stable_json(doc)
    assert text.endswith("\n")
    assert not any(line != line.rstrip() for line in text.splitlines())
    parsed = json.loads(text)
    assert parsed == doc
    # insertion order survives, no alphabetic resorting
    assert list(parsed) == ["b", "a", "flag", "nested"]
    assert text.index('"b"') < text.index('"a"')


def test_stable_json_booleans_are_not_integers():
    text = stable_json({"on": True, "count": 1})
    assert "true" in text
    assert text.count("1") >= 1


def test_stable_json_refuses_records():
    model = BranchingModel.symmetric()
    with pytest.raises(TypeError, match="cannot serialize BranchingModel"):
        stable_json({"branching": model})
    with pytest.raises(TypeError, match="cannot serialize InitialExcitation"):
        stable_json({"inits": [InitialExcitation(1.0, 0.0)]})
    assert json.loads(stable_json({"branching": model._asdict()}))["branching"] == {
        "p_hh": 0.5, "p_hl": 0.5, "p_lh": 0.5, "p_ll": 0.5, "weighting": "symmetric",
    }
    assert json.loads(stable_json({"pair": (1, 2.5)})) == {"pair": [1, 2.5]}


@settings(max_examples=300, deadline=None)
@given(document=DOCUMENTS)
@example(document={})
@example(document={"": [], "\x00\u00e9\u2028": {}, 1: (), "t": [True, 1, False, 0]})
@example(document={"edges": EDGE_FLOATS, "s": "caf\u00e9\n\t\"\\\x7f\U0001f600"})
def test_stable_json_matches_the_recursive_reference(document):
    assert stable_json(document) == reference_json(document)


def test_stable_json_keeps_the_rules_for_subclasses():
    document = {
        "enum": Level.LOW, "float64": np.float64(0.1), "str": type("S", (str,), {})("x"),
        "ordered": OrderedDict([(Level.LOW, [1.5])]), "tuple": type("T", (tuple,), {})((1,)),
        "list": type("L", (list,), {})([2.5, None]), "top": [OrderedDict()],
    }
    assert stable_json(document) == reference_json(document)


@pytest.mark.parametrize("bad, error, message", [
    ({"a": float("nan")}, NumericError, "non-finite value nan"),
    ({"a": [1, {"b": float("inf")}]}, NumericError, "non-finite value inf"),
    ({"t": (1.0, -float("inf"))}, NumericError, "non-finite value -inf"),
    ({"a": [{"b": (BranchingModel.symmetric(),)}]}, TypeError,
     "cannot serialize BranchingModel"),
    (InitialExcitation(1.0, 0.0), TypeError, "cannot serialize InitialExcitation"),
    ({"a": [1, {2, 3}]}, TypeError, "cannot serialize set"),
    ({"a": b"x"}, TypeError, "cannot serialize bytes"),
])
def test_stable_json_refusals_keep_type_and_message(bad, error, message):
    for writer in (stable_json, reference_json):
        with pytest.raises(error) as caught:
            writer(bad)
        assert str(caught.value).endswith(message)


def test_stable_json_deterministic():
    doc = {"x": 0.1 + 0.2, "items": [{"k": 3.14159}, {"k": -0.0}]}
    assert stable_json(doc) == stable_json(doc)


def test_csv_table_layout():
    text = csv_table(["l", "n", "p"], [[0, 1, 0.5], [1, 0, 0.25]])
    lines = text.splitlines()
    assert lines[0] == "l,n,p"
    assert lines[1] == "0,1,0.5"
    assert text.endswith("\n")


@settings(max_examples=200, deadline=None)
@given(rows=st.lists(st.lists(NUMBERS, max_size=6), max_size=8))
@example(rows=[])
@example(rows=[[]])
@example(rows=[EDGE_FLOATS + [True, 1, False, 0, -(2**70)]])
def test_csv_table_matches_the_recursive_reference(rows):
    header = ["a", "b"]
    assert csv_table(header, rows) == reference_csv(header, rows)


@pytest.mark.parametrize("cell, name", [
    (None, "NoneType"), ([1, 2], "list"), ("x", "str"), ((1,), "tuple"),
    (np.int64(3), "int64"),
])
def test_csv_table_refuses_cells_without_a_rule(cell, name):
    with pytest.raises(TypeError, match=f"cannot write a {name} cell"):
        csv_table(["a", "b"], [[1, 0.5], [2, cell]])


def test_csv_table_refuses_non_finite_cells():
    for writer in (csv_table, reference_csv):
        with pytest.raises(NumericError, match="non-finite value inf"):
            writer(["a"], [[float("inf")]])


def dense_heatmap(n_total, mass):
    rows = [
        [l, n, mass.get((l, n), 0.0)]
        for l in range(n_total + 1)
        for n in range(n_total + 1)
    ]
    return csv_table(["l", "n", "p"], rows)


@pytest.mark.parametrize("n_total", range(1, 31))
def test_heatmap_csv_equals_dense_table(n_total):
    rng = np.random.default_rng(n_total)
    a, b = rng.uniform(0.05, 0.95, 2)
    model = BranchingModel.manual(a, 1.0 - a, b, 1.0 - b)
    mass = joint_pm(run_cascade(n_total, InitialExcitation.balanced(), model))
    assert "".join(heatmap_csv(n_total, mass)) == dense_heatmap(n_total, mass)


def test_heatmap_csv_absorbing_row_misses_diagonal_cells():
    # p_hh = 1 from an H start leaves a single cell, (0, 1)
    absorbing = BranchingModel.manual(1.0, 0.0, 0.5, 0.5)
    mass = joint_pm(run_cascade(9, InitialExcitation(1.0, 0.0), absorbing))
    assert mass == {(0, 1): 1.0}
    assert "".join(heatmap_csv(9, mass)) == dense_heatmap(9, mass)


def test_heatmap_csv_rejects_non_finite_mass():
    with pytest.raises(NumericError):
        "".join(heatmap_csv(2, {(1, 1): float("nan")}))


@pytest.mark.parametrize("cell", [(5, 1), (1, 3), (-1, 0), (0, -1)])
def test_heatmap_csv_refuses_cells_off_the_grid(cell):
    with pytest.raises(NumericError, match="outside the 3x3 grid"):
        "".join(heatmap_csv(2, {cell: 0.5, (1, 1): 0.5}))
