"""Deterministic serialization helpers."""

import json

import numpy as np
import pytest

from cqwsim import (
    BranchingModel,
    InitialExcitation,
    NumericError,
    joint_pm,
    run_cascade,
)
from cqwsim.output import csv_table, format_float, heatmap_csv, stable_json


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


def test_stable_json_deterministic():
    doc = {"x": 0.1 + 0.2, "items": [{"k": 3.14159}, {"k": -0.0}]}
    assert stable_json(doc) == stable_json(doc)


def test_csv_table_layout():
    text = csv_table(["l", "n", "p"], [[0, 1, 0.5], [1, 0, 0.25]])
    lines = text.splitlines()
    assert lines[0] == "l,n,p"
    assert lines[1] == "0,1,0.5"
    assert text.endswith("\n")


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
    assert heatmap_csv(n_total, mass) == dense_heatmap(n_total, mass)


def test_heatmap_csv_absorbing_row_misses_diagonal_cells():
    # p_hh = 1 from an H start leaves a single cell, (0, 1)
    absorbing = BranchingModel.manual(1.0, 0.0, 0.5, 0.5)
    mass = joint_pm(run_cascade(9, InitialExcitation(1.0, 0.0), absorbing))
    assert mass == {(0, 1): 1.0}
    assert heatmap_csv(9, mass) == dense_heatmap(9, mass)


def test_heatmap_csv_rejects_non_finite_mass():
    with pytest.raises(NumericError):
        heatmap_csv(2, {(1, 1): float("nan")})
