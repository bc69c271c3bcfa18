"""The tier-1 pytest settings report a failing hypothesis test as a failure."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

FAILING_PROPERTY = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_always_fails(x):
    assert x != x
"""


def test_failing_given_test_is_reported_without_internal_error(tmp_path):
    test_file = tmp_path / "test_failing_property.py"
    test_file.write_text(FAILING_PROPERTY)
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"), "-q",
         "-p", "no:cacheprovider", str(test_file)],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        timeout=120,
    )
    output = result.stdout + result.stderr
    assert "INTERNALERROR" not in output
    assert "1 failed" in output
    assert result.returncode == 1
