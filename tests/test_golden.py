"""CSV bytes pinned: ``mimosec sweep`` of ``golden/golden.cfg`` must write
exactly the CSVs stored beside it, for any worker count.  A change meant to
alter them regenerates them with
``mimosec sweep tests/golden/golden.cfg --out DIR`` and copies the CSVs
(not the manifests, which carry a timestamp) into ``tests/golden/``."""

from pathlib import Path

import pytest

from mimosec.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"


@pytest.mark.parametrize("workers", ["1", "2"])
def test_sweep_writes_the_golden_csvs(tmp_path, capsys, workers):
    assert main(["sweep", str(GOLDEN / "golden.cfg"), "--out", str(tmp_path),
                 "--workers", workers]) == 0
    expected = sorted(p.name for p in GOLDEN.glob("*.csv"))
    assert sorted(p.name for p in tmp_path.glob("*.csv")) == expected
    for name in expected:
        assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes(), name
