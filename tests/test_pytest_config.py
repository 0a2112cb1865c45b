"""The test configuration in ``pyproject.toml`` keeps a failing run readable."""

import subprocess
import sys
from pathlib import Path

import pytest

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

FAILING_PROPERTY = """\
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(n):
    assert n < 0
"""


def test_failing_property_is_reported_as_a_failure(tmp_path):
    # on failure Hypothesis writes a patch through libcst, whose import warns
    # about deprecated API; turned into an error, that ended the whole run
    pytest.importorskip("hypothesis")
    pytest.importorskip("libcst")
    (tmp_path / "test_property.py").write_text(FAILING_PROPERTY)
    pytest_command = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider"]
    result = subprocess.run(
        [*pytest_command, "-c", str(PYPROJECT), str(tmp_path)],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        timeout=300,
    )
    output = result.stdout + result.stderr
    assert "INTERNALERROR" not in output
    assert "1 failed" in result.stdout
