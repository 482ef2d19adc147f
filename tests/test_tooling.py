"""The suite's own pytest settings."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_GIVEN_TEST = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 5
"""


def test_failing_given_test_reports_its_example(tmp_path):
    # pytest turns DeprecationWarnings into errors; the one raised while
    # Hypothesis writes its failure report must not crash that report
    (tmp_path / "test_fails.py").write_text(FAILING_GIVEN_TEST)
    out = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "-p", "no:cacheprovider",
         "-q", "test_fails.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    text = out.stdout + out.stderr
    assert out.returncode == 1, text
    assert "Falsifying example" in text
    assert "INTERNALERROR" not in text
