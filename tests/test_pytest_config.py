"""The project's pytest configuration reports a failing property, then runs on."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

TWO_TESTS = '''
from hypothesis import given, settings, strategies as st


@settings(database=None)
@given(st.integers())
def test_property_fails(x):
    assert x < 0


def test_plain_passes():
    assert True
'''


def test_failing_property_does_not_abort_the_run(tmp_path):
    # Writing a failing example's patch imports libcst, which warns on import.
    # Under the DeprecationWarning error filter alone that became an
    # INTERNALERROR (exit 3), and every later test was silently dropped.
    (tmp_path / "test_two.py").write_text(TWO_TESTS)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_two.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 1, run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout
    assert "INTERNALERROR" not in run.stdout + run.stderr
