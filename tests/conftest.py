# Imported first: mimosec pins BLAS to one thread per process, and pytest loads
# this file before the test modules import numpy, so the suite and its worker
# pools run with the threads users get.
import mimosec

import os
import subprocess
import sys
from pathlib import Path

import pytest


@pytest.fixture
def fresh_python():
    """Run code in a new interpreter that finds this package and sees none
    of the BLAS thread or glibc malloc variables except those passed;
    returns its stdout."""
    unset = (*mimosec.BLAS_THREAD_VARS, *mimosec.MALLOC_VARS, "GLIBC_TUNABLES")

    def run(code, **env):
        clean = {k: v for k, v in os.environ.items() if k not in unset}
        clean.update(env, PYTHONPATH=str(Path(mimosec.__file__).resolve().parents[1]))
        return subprocess.run([sys.executable, "-c", code], env=clean, check=True,
                              capture_output=True, text=True, timeout=120).stdout
    return run


@pytest.fixture
def pool_sizes(monkeypatch):
    """Replace the sweep's process pool with an in-process one; returns the
    list of ``max_workers`` each pool was asked for."""
    import mimosec.harness as harness

    started = []

    class SerialPool:
        def __init__(self, max_workers, **worker_setup):
            started.append(max_workers)

        map = staticmethod(map)

        def shutdown(self, **how):
            pass

    monkeypatch.setattr(harness, "ProcessPoolExecutor", SerialPool)
    return started
