"""Monte Carlo secrecy-rate simulator for massive MIMO downlinks with
reduced-complexity transmitters (antenna selection and hybrid
analog-digital precoding)."""

__version__ = "0.1.0"

import os
import sys

# One BLAS thread per process.  Trials multiply K x K matrices, too small to
# gain from BLAS threads; with a pool of trial workers each worker's threads
# only contend for the cores.  OpenBLAS reads these variables once, when numpy
# loads it, so they are set here, before any submodule imports numpy, and
# forked pool workers inherit them.  A value already set in the environment
# wins.  When numpy was imported first the setting comes too late, and
# NUMPY_BEFORE_PIN records that for the sweep log.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
NUMPY_BEFORE_PIN = "numpy" in sys.modules
for _var in BLAS_THREAD_VARS:
    os.environ.setdefault(_var, "1")
del _var

from .asymptotics import (FitResult, GumbelCheck, clt_check, fit_cost_anchor,
                          fit_growth, gumbel_check, phase_aligned_sums)
from .beamforming import (SCHEMES, BeamformerSet, SwitchedBeamformerSet,
                          analog_phase_match, analog_selection_matrix,
                          build_beamformers, digital_mrt_selected,
                          mrt_effective, power_uniform, quantize_phases,
                          select_antennas_protocol1, stepwise_tas,
                          zf_effective)
from .channel import (ChannelRealization, complex_normal, derive_seed,
                      derived_rng, sample_realization)
from .config import SystemConfig
from .errors import (ConfigParseError, ConfigurationError,
                     DegenerateChannelError, FitError, InfeasibleSelectionError,
                     MimosecError, SingularChannelError)
from .harness import (SweepPoint, SweepResult, SweepSpec, run_sweep, run_sweeps,
                      run_trial)
from .metrics import RateReport, esnr_k, rate_report, sinr_k

__all__ = [
    "BeamformerSet", "ChannelRealization", "ConfigParseError",
    "ConfigurationError", "DegenerateChannelError", "FitError", "FitResult",
    "GumbelCheck", "InfeasibleSelectionError", "MimosecError", "RateReport",
    "SCHEMES", "SingularChannelError", "SwitchedBeamformerSet", "SweepPoint",
    "SweepResult", "SweepSpec", "SystemConfig", "analog_phase_match",
    "analog_selection_matrix", "build_beamformers", "clt_check",
    "complex_normal", "derive_seed", "derived_rng", "digital_mrt_selected",
    "esnr_k", "fit_cost_anchor", "fit_growth", "gumbel_check",
    "mrt_effective", "phase_aligned_sums", "power_uniform", "quantize_phases",
    "rate_report", "run_sweep", "run_sweeps", "run_trial",
    "sample_realization", "select_antennas_protocol1", "sinr_k",
    "stepwise_tas", "zf_effective",
]
