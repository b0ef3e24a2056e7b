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


def run_pair(tmp_path, text):
    """Run pytest under the suite's own settings on ``text`` as a test module."""
    (tmp_path / "test_pair.py").write_text(text)
    return subprocess.run([sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "-q",
                           "-p", "no:cacheprovider", "test_pair.py"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=300)


def test_a_failing_property_test_does_not_end_the_session(tmp_path):
    """On a failure hypothesis imports libcst, whose import warns with a
    DeprecationWarning.  The suite turns those into errors, and raised in
    pytest's own hook it ended the session in INTERNALERROR before the later
    tests ran, hiding their results."""
    run = run_pair(tmp_path, FAILING_PROPERTY_THEN_PASSING)
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout


THREAD_RAISES_THEN_PASSING = """\
import threading


def test_thread_raises():
    thread = threading.Thread(target=lambda: 1 / 0)
    thread.start()
    thread.join(timeout=60)
    assert not thread.is_alive()


def test_passes():
    pass
"""


def test_a_thread_that_raises_fails_its_test(tmp_path):
    """An exception that ends a thread the test started reaches pytest only
    as a warning; the suite makes it an error, so the test fails rather than
    passing with the exception in its warnings summary."""
    assert "1 failed, 1 passed" in run_pair(tmp_path, THREAD_RAISES_THEN_PASSING).stdout


def test_a_misspelt_setting_fails_the_run(tmp_path):
    """A key pytest does not know in ``[tool.pytest.ini_options]`` is an
    error, not a warning the run goes on past: with ``testpath`` for
    ``testpaths`` the run fails, and with the settings as they are it
    passes."""
    (tmp_path / "test_one.py").write_text("def test_passes():\n    pass\n")
    codes = {}
    for name, text in (("as_is", PYPROJECT.read_text()),
                       ("misspelt", PYPROJECT.read_text().replace("testpaths =", "testpath ="))):
        (tmp_path / f"{name}.toml").write_text(text)
        run = subprocess.run([sys.executable, "-m", "pytest", "-c", f"{name}.toml", "-q",
                              "-p", "no:cacheprovider", "test_one.py"],
                             cwd=tmp_path, capture_output=True, text=True, timeout=300)
        codes[name] = run.returncode, "Unknown config option: testpath" in run.stderr
    assert codes == {"as_is": (0, False), "misspelt": (4, True)}
