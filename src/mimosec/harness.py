"""Monte Carlo sweep driver: runs seeded trials over a grid of array sizes
and aggregates the rate metrics with standard errors."""

import logging
import os
import time
from collections import namedtuple
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from . import BLAS_THREAD_VARS, NUMPY_BEFORE_PIN
from .beamforming import SCHEMES, build_beamformers
from .channel import derive_seed, sample_realization
from .config import MAX_SIZE, SystemConfig
from .errors import (ConfigParseError, ConfigurationError,
                     DegenerateChannelError, SingularChannelError)
from .metrics import RateReport, rate_report

log = logging.getLogger(__name__)

COST_ESTIMATORS = ("mean_of_ratios", "ratio_of_means")

# Retry budget for resampling measure-zero degenerate draws.
_MAX_RESAMPLES = 16

# What a trial is redrawn for: an exactly zero coefficient, and an effective
# channel too ill-conditioned for zero forcing.  Named in the -v log line.
RESAMPLE_CAUSES = (DegenerateChannelError, SingularChannelError)
_CAUSE_NAMES = ("zero coefficient", "ill-conditioned")

# Most worker processes a sweep may start.  Each is a forked copy of the
# parent holding numpy, so a count in the thousands would exhaust the
# machine's processes and memory before a trial runs.
MAX_WORKERS = 64

# Finest phase-shifter resolution: a grid of more points than 2**52 is finer
# than a double resolves an angle near pi.
_MAX_QUANT_BITS = 52

# One row of the sweep-spec schema: the SweepSpec attribute, the key it goes
# by in config files and in manifests, its kind (a key of FIELD_KINDS) and its
# default, NO_DEFAULT when the key is required.  A vector names in ``size`` the
# count field, listed before it, that gives its length.
NO_DEFAULT = object()
SpecField = namedtuple("SpecField", "name key manifest kind default size",
                       defaults=(NO_DEFAULT, None))

# The schema, in manifest order.
SPEC_FIELDS = (
    SpecField("scenario", "scenario", "scenario", "string"),
    SpecField("scheme", "scheme", "scheme", "string"),
    SpecField("K", "K", "K", "int"),
    SpecField("J", "J", "J", "int"),
    SpecField("L", "L", "L", "int"),
    SpecField("total_power", "total_power", "total_power", "float"),
    SpecField("sigma2", "sigma2", "sigma2", "float"),
    SpecField("rho2", "rho2", "rho2", "float"),
    SpecField("betas", "beta", "betas", "vector", size="K"),
    SpecField("thetas", "theta", "thetas", "vector", size="J"),
    SpecField("weights", "weights", "weights", "vector", (1.0,), size="K"),
    SpecField("m_values", "m_values", "m_values", "m_grid"),
    SpecField("trials", "trials", "trials", "int"),
    SpecField("master_seed", "seed", "seed", "int"),
    SpecField("quant_bits", "quant_bits", "quant_bits", "int", None),
    SpecField("cost_estimator", "cost_estimator", "cost_estimator", "string", "mean_of_ratios"),
)

# What a value of each field kind must be, as JSON has it.
FIELD_KINDS = {"int": "an integer", "float": "a number", "string": "a string",
               "vector": "a list of numbers", "m_grid": "a list of integers"}
_SCALAR_TYPES = {"int": int, "float": (int, float), "string": str}
_ITEM_KIND = {"vector": "float", "m_grid": "int"}


def _is_kind(value, kind: str) -> bool:
    if kind in _ITEM_KIND:
        return (isinstance(value, (list, tuple))
                and all(_is_kind(v, _ITEM_KIND[kind]) for v in value))
    return isinstance(value, _SCALAR_TYPES[kind]) and not isinstance(value, bool)


# The two networks used throughout the experiment matrix: 16 users at 0 dB
# receive SNR overheard by 2 (sparse) or 16 (dense) eavesdroppers at -10 dB.
# Keyed like manifests; a config's ``preset`` key fills in what it omits.
_SPARSE = dict(K=16, J=2, L=16, total_power=1.0, sigma2=1.0, rho2=1.0,
               betas=(1.0,), thetas=(0.1,))
PRESETS = {"sparse": _SPARSE, "dense": dict(_SPARSE, J=16)}


@dataclass(frozen=True)
class SweepSpec:
    """One Monte Carlo sweep: a network profile swept over array sizes.

    ``m_values`` must be strictly increasing and each at least
    max(L, K) so every scheme stays feasible, and at most ``MAX_SIZE``.
    ``quant_bits`` is the phase-shifter resolution and is required exactly
    for scheme HADP_B.
    """

    scenario: str
    scheme: str
    K: int
    J: int
    L: int
    total_power: float
    sigma2: float
    rho2: float
    betas: np.ndarray
    thetas: np.ndarray
    weights: np.ndarray
    m_values: tuple
    trials: int
    master_seed: int
    quant_bits: int | None = None
    cost_estimator: str = "mean_of_ratios"

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ConfigurationError(f"unknown scheme '{self.scheme}', expected one of "
                                     f"{SCHEMES}", field="scheme")
        if self.cost_estimator not in COST_ESTIMATORS:
            raise ConfigurationError(f"unknown cost_estimator '{self.cost_estimator}', "
                                     f"expected one of {COST_ESTIMATORS}", field="cost_estimator")
        # The network at its smallest feasible size checks the counts and
        # vectors, and normalizes the vectors so the sweep round-trips
        # through manifests.
        floor = max(self.L, self.K)
        probe = self.config_for(floor)
        for name in ("betas", "thetas", "weights"):
            object.__setattr__(self, name, getattr(probe, name))
        m = tuple(int(v) for v in self.m_values)
        object.__setattr__(self, "m_values", m)
        # An empty m_values is allowed; it emits a header-only CSV.
        if any(b <= a for a, b in zip(m, m[1:])):
            raise ConfigurationError("m_values must be strictly increasing", field="m_values")
        if any(not floor <= v <= MAX_SIZE for v in m):
            raise ConfigurationError(f"every m must be between max(L, K) = {floor} "
                                     f"and {MAX_SIZE}", field="m_values")
        if (self.scheme == "HADP_B") != (self.quant_bits is not None):
            raise ConfigurationError("quant_bits is required for scheme HADP_B "
                                     "and must be absent otherwise", field="quant_bits")
        if self.quant_bits is not None and not 1 <= self.quant_bits <= _MAX_QUANT_BITS:
            raise ConfigurationError(f"quant_bits must be between 1 and {_MAX_QUANT_BITS}, "
                                     f"got {self.quant_bits}", field="quant_bits")
        if not 1 <= self.trials <= MAX_SIZE:
            raise ConfigurationError(f"trials must be between 1 and {MAX_SIZE}, "
                                     f"got {self.trials}", field="trials")
        if self.master_seed < 0:
            raise ConfigurationError("master_seed must be non-negative", field="master_seed")

    @classmethod
    def from_dict(cls, entries, *, path: str | None = None) -> "SweepSpec":
        """Inverse of ``to_dict``: build a spec from a dict keyed like a
        manifest's ``sweep`` object.  Absent optional keys take their default
        and a one-element vector repeats to its length.  A bad key or value
        raises ConfigParseError naming the manifest key and ``path``."""
        if not isinstance(entries, dict):
            raise ConfigParseError("expected an object of sweep settings", path=path)
        unknown = [key for key in entries if key not in {f.manifest for f in SPEC_FIELDS}]
        if unknown:
            raise ConfigParseError("unknown key", path=path, key=unknown[0])
        values = {}
        for f in SPEC_FIELDS:
            value = values[f.name] = entries.get(f.manifest, f.default)
            if value is NO_DEFAULT:
                raise ConfigParseError("missing required key", path=path, key=f.manifest)
            if not (_is_kind(value, f.kind) or (value is None and f.default is None)):
                raise ConfigParseError(f"expected {FIELD_KINDS[f.kind]}, got {value!r}",
                                       path=path, key=f.manifest)
            # A count above MAX_SIZE is left for SystemConfig to reject, so
            # the repeat never builds a list that large.
            if f.size is not None and len(value) == 1 and values[f.size] <= MAX_SIZE:
                values[f.name] = list(value) * values[f.size]
        try:
            return cls(**values)
        except ConfigurationError as exc:
            key = next((f.manifest for f in SPEC_FIELDS if f.name == exc.field), None)
            raise ConfigParseError(str(exc), path=path, key=key) from exc

    def to_dict(self) -> dict:
        """The spec as JSON values, keyed and ordered as in manifests."""
        return {f.manifest: list(getattr(self, f.name)) if f.kind in _ITEM_KIND
                else getattr(self, f.name) for f in SPEC_FIELDS}

    def config_for(self, m: int) -> SystemConfig:
        """System config of this network at array size m."""
        return SystemConfig(M=int(m), K=self.K, J=self.J, L=self.L,
                            total_power=self.total_power, sigma2=self.sigma2,
                            rho2=self.rho2, betas=self.betas,
                            thetas=self.thetas, weights=self.weights)

    def with_seed(self, master_seed: int) -> "SweepSpec":
        return replace(self, master_seed=master_seed)


@dataclass(frozen=True)
class SweepPoint:
    """Aggregated statistics of one array size within a sweep."""

    m: int
    trials: int
    resamples: int
    r_sum_mean: float
    r_sum_se: float
    r_sum_noeve_mean: float
    r_sum_noeve_se: float
    leakage_mean: float
    leakage_se: float
    cost_mean: float
    cost_se: float


@dataclass(frozen=True)
class SweepResult:
    """Per-m statistics plus an echo of the sweep that produced them."""

    spec: SweepSpec
    points: tuple


def run_trial(cfg: SystemConfig, scheme: str, quant_bits: int | None,
              master_seed: int, trial_index: int) -> RateReport:
    """Sample one realization, build the scheme's beamformers from H only,
    and evaluate the rate metrics.

    Degenerate draws (exact-zero coefficients, ill-conditioned zero
    forcing) raise; the sweep driver resamples and counts them.
    """
    ch = sample_realization(cfg, master_seed, trial_index)
    bf = build_beamformers(ch.H, cfg, scheme, quant_bits)
    return rate_report(ch, bf, cfg)


def _trial_with_resampling(cfg, scheme, quant_bits, seed, trial_index, trials):
    """Run one trial, retrying on measure-zero degeneracies with a fresh
    derived stream.  Returns the report and the number of redrawn attempts
    per cause, an array indexed like ``RESAMPLE_CAUSES``."""
    resamples = np.zeros(len(RESAMPLE_CAUSES), dtype=int)
    for attempt in range(_MAX_RESAMPLES + 1):
        try:
            return run_trial(cfg, scheme, quant_bits, seed,
                             attempt * trials + trial_index), resamples
        except RESAMPLE_CAUSES as exc:
            if attempt == _MAX_RESAMPLES:
                raise
            resamples[next(i for i, cause in enumerate(RESAMPLE_CAUSES)
                           if isinstance(exc, cause))] += 1
    raise AssertionError("unreachable")


def _block_task(args):
    """Run trials lo..hi-1 of array size m; returns (m, lo, a (4, hi-lo)
    array of r_sum, r_sum_noeve, leakage and cost, resamples per cause)."""
    spec, m, lo, hi = args
    cfg = spec.config_for(m)
    seed = derive_seed(spec.master_seed, m)
    rows = np.empty((4, hi - lo))
    resamples = np.zeros(len(RESAMPLE_CAUSES), dtype=int)
    for i, t in enumerate(range(lo, hi)):
        report, extra = _trial_with_resampling(cfg, spec.scheme, spec.quant_bits,
                                               seed, t, spec.trials)
        rows[:, i] = report.r_sum, report.r_sum_noeve, report.leakage, report.cost
        resamples += extra
    return m, lo, rows, resamples


def _standard_error(x: np.ndarray) -> float:
    if x.size < 2:
        return 0.0
    return float(np.std(x, ddof=1) / np.sqrt(x.size))


def _cost_stats(r_sum, r_noeve, cost, estimator):
    """(mean, se) of the relative cost under the requested estimator."""
    n = cost.size
    if estimator == "mean_of_ratios":
        return float(np.mean(cost)), _standard_error(cost)
    # ratio of means, SE by first-order error propagation
    ym = float(np.mean(r_noeve))
    if ym == 0.0:
        return 0.0, 0.0
    xm = float(np.mean(r_sum))
    mean = 1.0 - xm / ym
    if n < 2:
        return mean, 0.0
    cov = np.cov(r_sum, r_noeve, ddof=1)
    var = (cov[0, 0] / ym ** 2 - 2.0 * xm * cov[0, 1] / ym ** 3
           + xm ** 2 * cov[1, 1] / ym ** 4) / n
    return mean, float(np.sqrt(max(var, 0.0)))


def _aggregate(spec: SweepSpec, m: int, r_sum, r_noeve, leakage, cost,
               resamples: int) -> SweepPoint:
    cost_mean, cost_se = _cost_stats(r_sum, r_noeve, cost, spec.cost_estimator)
    return SweepPoint(
        m=m, trials=spec.trials, resamples=resamples,
        r_sum_mean=float(np.mean(r_sum)), r_sum_se=_standard_error(r_sum),
        r_sum_noeve_mean=float(np.mean(r_noeve)), r_sum_noeve_se=_standard_error(r_noeve),
        leakage_mean=float(np.mean(leakage)), leakage_se=_standard_error(leakage),
        cost_mean=cost_mean, cost_se=cost_se,
    )


def run_sweep(spec: SweepSpec, workers: int = 1) -> SweepResult:
    """Run the full sweep and aggregate per-m statistics.

    Parameters
    ----------
    spec : SweepSpec
        Network profile, scheme, m grid, trial count and master seed.
    workers : int
        Process count for the trial loop, at most ``MAX_WORKERS``; below 1
        runs serially.  Each array size goes out in blocks of
        ``trials // (4 * workers)`` trials, about four per worker, and no
        more processes start than there are blocks.
        Results are placed by trial index before aggregation, so the output
        is bitwise-identical for any worker count.
    """
    if workers > MAX_WORKERS:
        raise ConfigurationError(f"workers must be at most {MAX_WORKERS}, got {workers}")
    workers = max(1, workers)
    block = max(1, spec.trials // (4 * workers))
    tasks = [(spec, m, lo, min(lo + block, spec.trials))
             for m in spec.m_values for lo in range(0, spec.trials, block)]
    processes = min(workers, len(tasks))
    log.info("%s %s: %d workers, %d trials per block, env %s%s", spec.scenario, spec.scheme,
             processes, block, " ".join(f"{var}={os.environ.get(var, 'unset')}"
                                      for var in BLAS_THREAD_VARS),
             " (set after numpy loaded, so BLAS kept its own thread count)"
             if NUMPY_BEFORE_PIN else "")
    points = []
    values = np.empty((4, spec.trials))
    resamples = np.zeros(len(RESAMPLE_CAUSES), dtype=int)
    last = time.perf_counter()
    pool = ProcessPoolExecutor(max_workers=processes) if processes > 1 else None
    try:
        # Tasks are m-major and both maps yield in task order, so an m is
        # complete when the block ending at its last trial arrives.
        results = map(_block_task, tasks) if pool is None else pool.map(_block_task, tasks)
        for m, lo, rows, extra in results:
            values[:, lo:lo + rows.shape[1]] = rows
            resamples += extra
            if lo + rows.shape[1] < spec.trials:
                continue
            points.append(_aggregate(spec, m, *values, int(resamples.sum())))
            now = time.perf_counter()
            causes = ", ".join(f"{n} {name}" for n, name in zip(resamples, _CAUSE_NAMES))
            log.info("%s %s m=%d: r_sum=%.4f cost=%.4f (%d trials, %d resampled: %s, %.2f s)",
                     spec.scenario, spec.scheme, m, points[-1].r_sum_mean,
                     points[-1].cost_mean, spec.trials, points[-1].resamples, causes,
                     now - last)
            resamples[:] = 0
            last = now
    finally:
        if pool is not None:
            pool.shutdown()
    return SweepResult(spec=spec, points=tuple(points))
