"""Every name the benchmark's tracer wraps still exists in the package.

``bench/tracing.py`` records a renamed or removed target as a name not
found and books zero for its metrics; this catches the rename in the test
suite instead of in a benchmark run.
"""

import importlib
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _targets():
    sys.path.insert(0, str(BENCH))
    try:
        return importlib.import_module("tracing").TARGETS
    finally:
        sys.path.remove(str(BENCH))


@pytest.mark.parametrize("target", _targets(), ids=lambda t: f"{t.module}.{t.name}")
def test_traced_name_imports_and_is_callable(target):
    module = importlib.import_module(target.module)
    assert callable(getattr(module, target.name, None))
