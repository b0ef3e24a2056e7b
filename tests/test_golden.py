"""CSV bytes and ``-v`` log pinned: ``mimosec sweep`` of
``golden/golden.cfg`` must write exactly the CSVs stored beside it, for any
worker count, and ``mimosec -v sweep`` must log the lines of
``golden/verbose.log``, with the seconds masked as ``*``.  A change meant
to alter them regenerates them with
``mimosec sweep tests/golden/golden.cfg --out DIR`` and copies the CSVs
(not the manifests, which carry a timestamp) into ``tests/golden/``; the
log comes from ``mimosec -v sweep ... --workers 1`` in a fresh process with
none of the BLAS thread or glibc malloc variables set.

``golden/reports.txt`` pins the stdout of ``fit``, ``gumbel``, ``clt`` and
``single``: each ``$ mimosec ...`` line is a command run from the
repository root, and the lines up to the next one are what it prints.  A
change meant to alter a report regenerates it by running its command there.

Each ``python`` code block of README.md must run to exit status 0."""

import re
import shlex
from pathlib import Path

import pytest

from mimosec.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

# The ```python blocks of README.md, in order.
EXAMPLES = re.findall(r"^```python\n(.*?)^```$",
                      (GOLDEN.parent.parent / "README.md").read_text(encoding="utf-8"),
                      re.MULTILINE | re.DOTALL)

# [command, expected stdout] of each report in golden/reports.txt.
REPORTS = [block.split("\n", 1) for block in
           (GOLDEN / "reports.txt").read_text().split("$ mimosec ")[1:]]


@pytest.mark.parametrize("workers", ["1", "2"])
def test_sweep_writes_the_golden_csvs(tmp_path, capsys, workers):
    assert main(["sweep", str(GOLDEN / "golden.cfg"), "--out", str(tmp_path),
                 "--workers", workers]) == 0
    expected = sorted(p.name for p in GOLDEN.glob("*.csv"))
    assert sorted(p.name for p in tmp_path.glob("*.csv")) == expected
    for name in expected:
        assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes(), name


# Runs ``mimosec -v sweep`` and prints its exit code, whether the heap is
# kept, then the log, which goes to stderr.
VERBOSE_SWEEP = """if True:
    import contextlib, io, sys
    import mimosec
    from mimosec.cli import main
    sys.stderr = log = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(["-v", "sweep", {cfg!r}, "--out", {out!r}, "--workers", {workers!r}])
    print(code, mimosec.SETTINGS["heap_left"] is None)
    print(log.getvalue(), end="")
"""


@pytest.mark.parametrize("workers", ["1", "2"])
def test_verbose_log_is_the_golden_one(tmp_path, fresh_python, workers):
    status, *lines = fresh_python(VERBOSE_SWEEP.format(
        cfg=str(GOLDEN / "golden.cfg"), out=str(tmp_path), workers=workers)).splitlines()
    if status == "0 False":
        pytest.skip("no working mallopt in this C library, so the head lines differ")
    assert status == "0 True"
    expected = (GOLDEN / "verbose.log").read_text().replace(": 1 workers,",
                                                            f": {workers} workers,")
    assert [re.sub(r", \d+\.\d\d s\)$", ", * s)", line) for line in lines] == expected.splitlines()


@pytest.mark.parametrize("command, expected", REPORTS, ids=[c for c, _ in REPORTS])
def test_report_is_the_golden_one(capsys, monkeypatch, command, expected):
    monkeypatch.chdir(GOLDEN.parent.parent)
    assert main(shlex.split(command)) == 0
    assert capsys.readouterr().out == expected


@pytest.mark.parametrize("code", EXAMPLES,
                         ids=[f"example-{i}" for i in range(1, len(EXAMPLES) + 1)])
def test_readme_example_runs(fresh_python, code):
    fresh_python(code)
