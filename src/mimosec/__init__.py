"""Monte Carlo secrecy-rate simulator for massive MIMO downlinks with
reduced-complexity transmitters (antenna selection and hybrid
analog-digital precoding)."""

__version__ = "0.1.0"

import ctypes
import os
import sys

# glibc's own malloc settings.  Any of them, or a glibc.malloc. entry in
# GLIBC_TUNABLES, means the user has tuned malloc, and that tuning wins.
MALLOC_VARS = ("MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_", "MALLOC_TOP_PAD_")


def keep_heap(libc, environ):
    """Keep freed trial arrays in the heap: returns None, or why it was not.

    At large M a trial allocates and frees several MiB of arrays.  glibc's
    dynamic trim threshold (twice the largest mmapped chunk freed so far)
    is smaller than that, so it hands the top of the heap back to the
    kernel after every trial and the next trial faults it in again.  This
    sets the mmap threshold to 32 MiB, the ceiling of glibc's dynamic one
    on 64-bit, and the trim threshold to twice that, glibc's own rule.
    Nothing is set when ``environ`` holds one of glibc's own malloc
    settings ("malloc set by the user") or ``libc`` has no working
    ``mallopt`` ("no mallopt": macOS and Windows have none; musl's returns
    0).  The arithmetic, and so every result, is unchanged.
    """
    if (any(var in environ for var in MALLOC_VARS)
            or "glibc.malloc." in environ.get("GLIBC_TUNABLES", "")):
        return "malloc set by the user"
    mallopt = getattr(libc, "mallopt", None)
    M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3
    if (mallopt is None or not mallopt(M_MMAP_THRESHOLD, 32 << 20)
            or not mallopt(M_TRIM_THRESHOLD, 64 << 20)):
        return "no mallopt"
    return None


# One BLAS thread per process.  Trials multiply K x K matrices, too small to
# gain from BLAS threads; with a pool of trial workers each worker's threads
# only contend for the cores.  OpenBLAS reads these variables once, when numpy
# loads it, so they are set here, before any submodule imports numpy, and
# forked pool workers inherit them.  A value already set in the environment
# wins.  When numpy was imported first the setting comes too late.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# What the import set, the one record of it, for the sweep log, which a later
# change to os.environ must not alter: the BLAS variables as the import left
# them (setdefault sets each one the user has not), whether numpy was loaded
# first, and, set below, why the heap is left to the C library (or None).
SETTINGS = {"blas_threads": {var: os.environ.setdefault(var, "1") for var in BLAS_THREAD_VARS},
            "numpy_before_pin": "numpy" in sys.modules}

from .asymptotics import (FitResult, GumbelCheck, clt_check, fit_cost_anchor,
                          fit_growth, gumbel_check, phase_aligned_sums)
from .beamforming import (BeamformerSet, SwitchedBeamformerSet,
                          analog_phase_match, analog_selection_matrix,
                          build_beamformers, digital_mrt_selected,
                          mrt_effective, power_uniform, quantize_phases,
                          select_antennas_protocol1, stepwise_tas,
                          zf_effective)
from .channel import (ChannelRealization, complex_normal, derive_seed,
                      derived_rng, sample_realization)
from .config import SCHEMES, SweepSpec, SystemConfig
from .errors import (ConfigParseError, ConfigurationError,
                     DegenerateChannelError, FitError, InfeasibleSelectionError,
                     MimosecError, SingularChannelError)
from .harness import SweepPoint, SweepResult, run_sweep, run_sweeps, run_trial, sweep_trial
from .metrics import RateReport, rate_report

# The heap is kept once per process, after the imports so that what they freed
# is still handed back, and before any pool forks; unlike the BLAS pin it
# takes effect even when numpy was imported first.
try:
    _libc = ctypes.CDLL(None)
except (OSError, TypeError):  # Windows has no handle on the process's symbols
    _libc = None
SETTINGS["heap_left"] = keep_heap(_libc, os.environ)
del _libc

__all__ = [
    "BeamformerSet", "ChannelRealization", "ConfigParseError",
    "ConfigurationError", "DegenerateChannelError", "FitError", "FitResult",
    "GumbelCheck", "InfeasibleSelectionError", "MimosecError", "RateReport",
    "SCHEMES", "SingularChannelError", "SwitchedBeamformerSet", "SweepPoint",
    "SweepResult", "SweepSpec", "SystemConfig", "analog_phase_match",
    "analog_selection_matrix", "build_beamformers", "clt_check",
    "complex_normal", "derive_seed", "derived_rng", "digital_mrt_selected",
    "fit_cost_anchor", "fit_growth", "gumbel_check", "mrt_effective",
    "phase_aligned_sums", "power_uniform", "quantize_phases", "rate_report",
    "run_sweep", "run_sweeps", "run_trial", "sample_realization",
    "select_antennas_protocol1", "stepwise_tas", "sweep_trial", "zf_effective",
]
