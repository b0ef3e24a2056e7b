"""Monte Carlo sweep driver: runs seeded trials over a grid of array sizes
and aggregates the rate metrics with standard errors."""

import logging
import re
import time
from collections import Counter, namedtuple
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import SETTINGS
from .beamforming import (HYBRID_SCHEMES, MAX_QUANT_BITS, SCHEMES, analog_phase_match,
                          build_beamformers, build_key)
from .channel import carve, derive_seed, trial_normals
from .channel import sample_realization  # unused here: perfbench/inproc.py patches it by name
from .config import MAX_SIZE, SystemConfig
from .errors import (ConfigParseError, ConfigurationError,
                     DegenerateChannelError, SingularChannelError)
from .metrics import RateReport, rate_report, user_rates

log = logging.getLogger(__name__)

COST_ESTIMATORS = ("mean_of_ratios", "ratio_of_means")

# Retry budget for resampling measure-zero degenerate draws.
_MAX_RESAMPLES = 16

# What a trial is redrawn for, and its name in the -v log line: an exactly zero
# coefficient, and an effective channel too ill-conditioned for zero forcing.
RESAMPLE_CAUSES = {DegenerateChannelError: "zero coefficient",
                   SingularChannelError: "ill-conditioned"}

# Most worker processes a sweep may start.  Each is a forked copy of the
# parent holding numpy, so a count in the thousands would exhaust the
# machine's processes and memory before a trial runs.
MAX_WORKERS = 64

# One row of the sweep-spec schema: the SweepSpec attribute, the key it goes
# by in config files and in manifests, its kind (a key of FIELD_KINDS) and its
# default, NO_DEFAULT when the key is required.
NO_DEFAULT = object()
SpecField = namedtuple("SpecField", "name key manifest kind default", defaults=(NO_DEFAULT,))

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
    SpecField("betas", "beta", "betas", "vector"),
    SpecField("thetas", "theta", "thetas", "vector"),
    SpecField("weights", "weights", "weights", "vector", (1.0,)),
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
    ``L`` is the RF-chain count of scheme TAS_B; the other schemes have one
    chain per user and need ``L == K``.  ``quant_bits`` is the phase-shifter
    resolution and is required exactly for scheme HADP_B.
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
        # The scenario names the output files and leads every CSV row, where
        # a control character such as a carriage return is written unquoted
        # and splits the row when it is read back.
        if re.search(r"[\x00-\x1f\x7f-\x9f]", self.scenario):
            raise ConfigurationError(f"scenario must not contain control characters, "
                                     f"got {self.scenario!r}", field="scenario")
        if self.scheme not in SCHEMES:
            raise ConfigurationError(f"unknown scheme '{self.scheme}', expected one of "
                                     f"{SCHEMES}", field="scheme")
        if self.cost_estimator not in COST_ESTIMATORS:
            raise ConfigurationError(f"unknown cost_estimator '{self.cost_estimator}', "
                                     f"expected one of {COST_ESTIMATORS}", field="cost_estimator")
        # The network at its smallest feasible size checks the counts and
        # vectors, and normalizes the vectors so the sweep round-trips
        # through manifests.
        probe = self.config_for(max(self.L, self.K))
        for name in ("betas", "thetas", "weights"):
            object.__setattr__(self, name, getattr(probe, name))
        m = tuple(int(v) for v in self.m_values)
        object.__setattr__(self, "m_values", m)
        # An empty m_values is allowed; it emits a header-only CSV.
        if any(b <= a for a, b in zip(m, m[1:])):
            raise ConfigurationError("m_values must be strictly increasing", field="m_values")
        if m and m[-1] > MAX_SIZE:
            raise ConfigurationError(f"every m must be at most {MAX_SIZE}", field="m_values")
        if m:
            self.config_for(m[0])  # the smallest m, checked against the floor
        if (self.scheme == "HADP_B") != (self.quant_bits is not None):
            raise ConfigurationError("quant_bits is required for scheme HADP_B "
                                     "and must be absent otherwise", field="quant_bits")
        if self.scheme != "TAS_B" and self.L != self.K:
            raise ConfigurationError(f"scheme {self.scheme} has one RF chain per user, so L "
                                     f"must equal K = {self.K}, got {self.L}", field="L")
        if self.quant_bits is not None and not 1 <= self.quant_bits <= MAX_QUANT_BITS:
            raise ConfigurationError(f"quant_bits must be between 1 and {MAX_QUANT_BITS}, "
                                     f"got {self.quant_bits}", field="quant_bits")
        if not 1 <= self.trials <= MAX_SIZE:
            raise ConfigurationError(f"trials must be between 1 and {MAX_SIZE}, "
                                     f"got {self.trials}", field="trials")
        if self.master_seed < 0:
            raise ConfigurationError("master_seed must be non-negative", field="master_seed")

    @classmethod
    def from_dict(cls, entries, *, path: str | None = None) -> "SweepSpec":
        """Inverse of ``to_dict``: build a spec from a dict keyed like a
        manifest's ``sweep`` object.  Absent optional keys take their default.
        A bad key or value raises ConfigParseError naming the manifest key and
        ``path``."""
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
        """System config of this network at array size m, which must be at
        least max(L, K): below it some scheme is infeasible."""
        floor = max(self.L, self.K)
        if m < floor:
            raise ConfigurationError(f"m must be at least max(L, K) = {floor}, got {m}",
                                     field="m_values")
        return SystemConfig(M=int(m), K=self.K, J=self.J, L=self.L,
                            total_power=self.total_power, sigma2=self.sigma2,
                            rho2=self.rho2, betas=self.betas,
                            thetas=self.thetas, weights=self.weights)


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


def _reused(uses) -> frozenset:
    """What more than one of ``uses`` makes from H: a build and its user half, or a phase match."""
    made = Counter(build_key(*use) for use in uses)
    made.update(("phase match", cfg.K) for cfg, scheme, _ in uses if scheme in HYBRID_SCHEMES)
    return frozenset(key for key, n in made.items() if n > 1)


class _Trial:
    """One trial index t of array size m, drawn once for ``uses``, the
    (cfg, scheme, quant_bits) that evaluate it: the trial's stream is drawn
    at the widest K + J of the uses and carved into a read-only realization
    per (K, J) with one H per K, and each key of ``reused``, which is
    ``_reused(uses)``, is made once."""

    def __init__(self, m: int, seed: int, t: int, uses, reused: frozenset):
        normals = trial_normals(seed, t, 2 * m * max(cfg.K + cfg.J for cfg, _, _ in uses))
        self.draws, H = {}, {}
        for cfg, _, _ in uses:
            if (cfg.K, cfg.J) not in self.draws:
                ch = carve(normals, m, cfg.K, cfg.J, H.get(cfg.K))
                ch.H.flags.writeable = ch.G.flags.writeable = False
                self.draws[cfg.K, cfg.J] = ch
                H[cfg.K] = ch.H
        self.reused = reused
        self.built = {}

    def _stage(self, key, make):
        """``make()``, kept for the other uses if more than one makes ``key``.
        A build that raises is not kept, so each use redraws its own."""
        if key not in self.reused:
            return make()
        if key not in self.built:
            self.built[key] = make()
        return self.built[key]

    def report(self, cfg: SystemConfig, scheme: str, quant_bits: int | None) -> RateReport:
        """The rate metrics of one use: its scheme's beamformers and the user
        half of the report, made from the H of its K, then the rest from its G."""
        ch = self.draws[cfg.K, cfg.J]

        def build():
            phase_match = (self._stage(("phase match", cfg.K), lambda: analog_phase_match(ch.H))
                           if scheme in HYBRID_SCHEMES else None)
            bf = build_beamformers(ch.H, cfg, scheme, quant_bits, phase_match)
            return bf, user_rates(ch.H, bf, cfg)

        bf, user = self._stage(build_key(cfg, scheme, quant_bits), build)
        return rate_report(ch, bf, cfg, user)


def run_trial(cfg: SystemConfig, scheme: str, quant_bits: int | None,
              master_seed: int, trial_index: int, *, trial: _Trial | None = None) -> RateReport:
    """Sample one realization, build the scheme's beamformers from H only,
    and evaluate the rate metrics.

    Degenerate draws (exact-zero coefficients, ill-conditioned zero
    forcing) raise; a sweep resamples and counts them.  ``trial``,
    when given, is the ``_Trial`` of this array size, ``master_seed`` and
    ``trial_index`` drawn for this use among others, whose draw and shared
    builds are used; by default the trial is drawn for this use alone.
    """
    if trial is None:
        trial = _Trial(cfg.M, master_seed, trial_index, [(cfg, scheme, quant_bits)], frozenset())
    return trial.report(cfg, scheme, quant_bits)


def _trial_with_resampling(cfg, scheme, quant_bits, seed, trial_index, trials, trial=None):
    """Run one trial, on ``trial`` if given, retrying on measure-zero
    degeneracies with a fresh derived stream drawn for this use alone.
    Returns the report and the number of redrawn attempts per cause, an
    array indexed like ``RESAMPLE_CAUSES``."""
    resamples = np.zeros(len(RESAMPLE_CAUSES), dtype=int)
    for attempt in range(_MAX_RESAMPLES + 1):
        try:
            return run_trial(cfg, scheme, quant_bits, seed, attempt * trials + trial_index,
                             trial=trial), resamples
        except tuple(RESAMPLE_CAUSES) as exc:
            if attempt == _MAX_RESAMPLES:
                raise
            resamples[next(i for i, cause in enumerate(RESAMPLE_CAUSES)
                           if isinstance(exc, cause))] += 1
            trial = None


def _block_task(args):
    """Run trials lo..hi-1 of array size m for each sweep of ``members``, a
    tuple of (position, spec) sharing the master seed, trial index by trial
    index: each trial is one ``_Trial`` for every sweep with more trials
    than its index, so its channels are drawn once and each build from H
    that several of the sweeps make is made once.  The draw's seconds count
    in the first of those sweeps.  Returns (m, lo, and per member
    (position, a (4, n) array of r_sum, r_sum_noeve, leakage and cost over
    its n trials in the block, resamples per cause, seconds in its trials)).
    """
    m, lo, hi, members = args
    seed = derive_seed(members[0][1].master_seed, m)
    runs = [(spec, (spec.config_for(m), spec.scheme, spec.quant_bits),
             np.empty((4, min(hi, spec.trials) - lo)),
             np.zeros(len(RESAMPLE_CAUSES), dtype=int)) for _, spec in members]
    seconds = [0.0] * len(runs)
    for t in range(lo, hi):
        active = [j for j, run in enumerate(runs) if t < run[0].trials]
        if t == lo or len(active) < len(uses):  # sweeps drop out, none come back
            uses = [runs[j][1] for j in active]
            reused = _reused(uses)
        trial = None  # the last trial's draws go before the next is drawn
        start = time.perf_counter()
        trial = _Trial(m, seed, t, uses, reused)
        seconds[active[0]] += time.perf_counter() - start
        for j in active:
            spec, use, rows, resamples = runs[j]
            start = time.perf_counter()
            report, extra = _trial_with_resampling(*use, seed, t, spec.trials, trial)
            seconds[j] += time.perf_counter() - start
            rows[:, t - lo] = report.r_sum, report.r_sum_noeve, report.leakage, report.cost
            resamples += extra
    return m, lo, [(i, rows, resamples, sec)
                   for (i, _), (_, _, rows, resamples), sec in zip(members, runs, seconds)]


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


def _tasks(specs, workers: int):
    """The blocks of a run of ``specs`` as ``_block_task`` arguments, and the
    block size and draw-sharing group of each spec.  Specs with equal master
    seed draw from the same trial streams, whatever their K and J, so they
    form one group; its blocks go array size by array size, over
    ``max(1, trials // (4 * workers))`` consecutive trial indices of its
    largest trial count."""
    groups = {}
    for i, spec in enumerate(specs):
        groups.setdefault(spec.master_seed, []).append(i)
    tasks, blocks, group_of = [], {}, {}
    for members in groups.values():
        block = max(1, max(specs[i].trials for i in members) // (4 * workers))
        for i in members:
            blocks[i], group_of[i] = block, members
        for m in sorted({m for i in members for m in specs[i].m_values}):
            at_m = [i for i in members if m in specs[i].m_values]
            top = max(specs[i].trials for i in at_m)
            for lo in range(0, top, block):
                tasks.append((m, lo, min(lo + block, top),
                              tuple((i, specs[i]) for i in at_m if specs[i].trials > lo)))
    return tasks, blocks, group_of


def _names(specs, positions) -> str:
    return ", ".join(f"{specs[j].scenario} {specs[j].scheme}" for j in positions)


def run_sweeps(specs, workers: int = 1) -> list:
    """Run several sweeps through one pool map and aggregate each one's
    per-m statistics; returns their ``SweepResult`` in the order given.

    The channels of any K and J at a given m and trial index are a prefix
    of one stream of normals, which depends on the master seed alone, and
    beamformers depend on H and the transmit-side settings alone.  So the
    blocks of sweeps with equal master seed draw each trial once for all of
    them, and make each build from H once for the sweeps whose
    transmit-side settings are equal (redraws of a degenerate trial stay
    per sweep).  Each result is that of the sweep run on its own.

    Parameters
    ----------
    specs : sequence of SweepSpec
    workers : int
        Process count for the trial loop, at most ``MAX_WORKERS``; below 1
        runs serially.  A group of sweeps sharing draws goes out array size
        by array size in blocks of ``trials // (4 * workers)`` trials of its
        largest trial count, about four per worker, and no more processes
        start than there are blocks.  Results are placed by trial index
        before aggregation, so the output is bitwise-identical for any
        worker count.
    """
    if workers > MAX_WORKERS:
        raise ConfigurationError(f"workers must be at most {MAX_WORKERS}, got {workers}")
    specs = list(specs)
    workers = max(1, workers)
    tasks, blocks, group_of = _tasks(specs, workers)
    processes = min(workers, len(tasks))
    env = " ".join(f"{var}={value}" for var, value in SETTINGS["blas_threads"].items())
    heap = (f"heap left to the C library ({SETTINGS['heap_left']})" if SETTINGS["heap_left"]
            else "heap kept between trials")
    for i, spec in enumerate(specs):
        draws = [j for j in group_of[i] if j != i]
        builds = [j for j in draws if build_key(specs[j], specs[j].scheme, specs[j].quant_bits)
                  == build_key(spec, spec.scheme, spec.quant_bits)]
        log.info("%s %s: %d workers, %d trials per block, env %s%s, %s%s%s", spec.scenario,
                 spec.scheme, processes, blocks[i], env,
                 " (set after numpy loaded, so BLAS kept its own thread count)"
                 if SETTINGS["numpy_before_pin"] else "", heap,
                 f"; shares channel draws with {_names(specs, draws)}" if draws else "",
                 f"; shares beamformer builds with {_names(specs, builds)}" if builds else "")
    points = [[] for _ in specs]
    values = [np.empty((4, spec.trials)) for spec in specs]
    resamples = np.zeros((len(specs), len(RESAMPLE_CAUSES)), dtype=int)
    seconds = [0.0] * len(specs)
    pool = ProcessPoolExecutor(max_workers=processes) if processes > 1 else None
    try:
        # A group's tasks are m-major and both maps yield in task order, so a
        # sweep's m is complete when the block ending at its last trial arrives.
        results = map(_block_task, tasks) if pool is None else pool.map(_block_task, tasks)
        for m, lo, parts in results:
            for i, rows, extra, sec in parts:
                spec = specs[i]
                values[i][:, lo:lo + rows.shape[1]] = rows
                resamples[i] += extra
                seconds[i] += sec
                if lo + rows.shape[1] < spec.trials:
                    continue
                point = _aggregate(spec, m, *values[i], int(resamples[i].sum()))
                points[i].append(point)
                causes = ", ".join(f"{n} {name}"
                                   for n, name in zip(resamples[i], RESAMPLE_CAUSES.values()))
                log.info("%s %s m=%d: r_sum=%.4f cost=%.4f (%d trials, %d resampled: %s, %.2f s)",
                         spec.scenario, spec.scheme, m, point.r_sum_mean, point.cost_mean,
                         spec.trials, point.resamples, causes, seconds[i])
                resamples[i], seconds[i] = 0, 0.0
    finally:
        if pool is not None:
            pool.shutdown()
    return [SweepResult(spec=spec, points=tuple(p)) for spec, p in zip(specs, points)]


def run_sweep(spec: SweepSpec, workers: int = 1) -> SweepResult:
    """Run one sweep and aggregate its per-m statistics: ``run_sweeps`` of
    the one spec."""
    return run_sweeps([spec], workers)[0]
