"""The suite's own pytest settings in pyproject.toml."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

FAILING_PROPERTY_THEN_PASSING = """\
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x > 0


def test_passes():
    pass
"""


def test_a_failing_property_test_does_not_end_the_session(tmp_path):
    """On a failure hypothesis imports libcst, whose import warns with a
    DeprecationWarning.  The suite turns those into errors, and raised in
    pytest's own hook it ended the session in INTERNALERROR before the later
    tests ran, hiding their results."""
    (tmp_path / "test_pair.py").write_text(FAILING_PROPERTY_THEN_PASSING)
    run = subprocess.run([sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "-q",
                          "-p", "no:cacheprovider", "test_pair.py"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout
