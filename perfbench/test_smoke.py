"""Smoke test of the benchmark itself (about a minute on two cores):

    python3 -m pytest perfbench/test_smoke.py

It is outside the package's ``tests`` directory, so the package's own test
run does not collect it.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(cwd, *args):
    return subprocess.run([sys.executable, *SPEC["command"][1:], *args], cwd=cwd,
                          capture_output=True, text=True, timeout=180)


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_emitted_with_its_unit(trace, kind):
    out = _bench(ROOT, "--workload", "hadp", "--seed", "1",
                 "--seconds", "1", "--trace", str(trace))
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == {m["name"]: m["unit"] for m in SPEC[kind]}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    # Metrics that are 0 when all is well are printed by name, not listed.
    printed = ("failed_share",) if trace == 0 else ("harness.resamples",
                                                    "harness.useful_trial_ratio")
    assert all(name in out.stdout for name in printed)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("_work", "__pycache__"))
    out = _bench(tmp_path, "--workload", "tas", "--seed", "1", "--seconds", "1",
                 "--trace", "0")
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
