"""Monte Carlo sweep driver: runs seeded trials over a grid of array sizes
and aggregates the rate metrics with standard errors."""

import logging
import signal
import time
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass

import numpy as np

from . import SETTINGS
from .beamforming import HYBRID_SCHEMES, analog_phase_match, build_beamformers, build_key
from .channel import carve, derive_seed, trial_normals
from .channel import sample_realization  # unused here: perfbench/inproc.py patches it by name
from .config import SweepSpec, SystemConfig, as_integer
from .errors import ConfigurationError, DegenerateChannelError, MimosecError, SingularChannelError
from .metrics import RateReport, rate_report

log = logging.getLogger(__name__)

# Retry budget for resampling measure-zero degenerate draws.
_MAX_RESAMPLES = 16

# What a trial is redrawn for, and its name in the -v log line: an exactly zero
# coefficient, and an effective channel too ill-conditioned for zero forcing.
RESAMPLE_CAUSES = {DegenerateChannelError: "zero coefficient",
                   SingularChannelError: "ill-conditioned"}
# A trial's outcome: r_sum, r_sum_noeve, leakage, cost, redraws per cause, seconds.
_COLUMNS = 5 + len(RESAMPLE_CAUSES)

# Most worker processes a sweep may start.  Each is a forked copy of the
# parent holding numpy, so a count in the thousands would exhaust the
# machine's processes and memory before a trial runs.
MAX_WORKERS = 64


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
    """What more than one of ``uses`` makes from H: a build, or a phase match."""
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
        """The rate metrics of one use: its scheme's beamformers, made from
        the H of its K, evaluated on its realization."""
        ch = self.draws[cfg.K, cfg.J]

        def build():
            phase_match = (self._stage(("phase match", cfg.K), lambda: analog_phase_match(ch.H))
                           if scheme in HYBRID_SCHEMES else None)
            return build_beamformers(ch.H, cfg, scheme, quant_bits, phase_match)

        return rate_report(ch, self._stage(build_key(cfg, scheme, quant_bits), build), cfg)


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
    tuple of (position, spec) sharing the master seed, each with at least hi
    trials, trial index by trial index: each trial is one ``_Trial`` for all
    the sweeps, so its channels are drawn once and each build from H that
    several of them make is made once.  Returns an (n, columns, hi - lo)
    array of each sweep's outcome per trial.  The columns are r_sum,
    r_sum_noeve, leakage and cost, the redraws per ``RESAMPLE_CAUSES``
    cause, then the seconds, which bill each trial's draw to the sweeps in
    equal shares and a build that several share to the one that made it.
    """
    m, lo, hi, members = args
    seed = derive_seed(members[0][1].master_seed, m)
    uses = [(spec.config_for(m), spec.scheme, spec.quant_bits) for _, spec in members]
    reused = _reused(uses)
    outcomes = np.zeros((hi - lo, len(members), _COLUMNS))
    for t, out in zip(range(lo, hi), outcomes):
        trial = None  # the last trial's draws go before the next is drawn
        start = time.perf_counter()
        trial = _Trial(m, seed, t, uses, reused)
        out[:, -1] = (time.perf_counter() - start) / len(members)
        for j, ((_, spec), use) in enumerate(zip(members, uses)):
            start = time.perf_counter()
            report, redraws = _trial_with_resampling(*use, seed, t, spec.trials, trial)
            out[j, :-1] = report.r_sum, report.r_sum_noeve, report.leakage, report.cost, *redraws
            out[j, -1] += time.perf_counter() - start
    return outcomes.transpose(1, 2, 0)


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


def _aggregate(spec: SweepSpec, m: int, outcome: np.ndarray) -> SweepPoint:
    r_sum, r_noeve, leakage, cost = outcome[:4]
    cost_mean, cost_se = _cost_stats(r_sum, r_noeve, cost, spec.cost_estimator)
    return SweepPoint(
        m=m, trials=spec.trials, resamples=int(outcome[4:-1].sum()),
        r_sum_mean=float(np.mean(r_sum)), r_sum_se=_standard_error(r_sum),
        r_sum_noeve_mean=float(np.mean(r_noeve)), r_sum_noeve_se=_standard_error(r_noeve),
        leakage_mean=float(np.mean(leakage)), leakage_se=_standard_error(leakage),
        cost_mean=cost_mean, cost_se=cost_se,
    )


def _tasks(specs, workers: int) -> list:
    """The blocks of a run of ``specs`` as ``_block_task`` arguments.  Specs
    with equal master seed draw from the same trial streams, whatever their
    K and J, so they form one group; its blocks go array size by array
    size, over at most ``max(1, trials // (4 * workers))`` consecutive
    trial indices of its largest trial count, and end where a member's
    trials end, so every member of a block runs all of its trial indices."""
    groups = {}
    for i, spec in enumerate(specs):
        groups.setdefault(spec.master_seed, []).append(i)
    tasks = []
    for members in groups.values():
        block = max(1, max(specs[i].trials for i in members) // (4 * workers))
        for m in sorted({m for i in members for m in specs[i].m_values}):
            at_m = [i for i in members if m in specs[i].m_values]
            cuts = sorted(set(range(0, max(specs[i].trials for i in at_m), block))
                          | {specs[i].trials for i in at_m})
            for lo, hi in zip(cuts, cuts[1:]):
                tasks.append((m, lo, hi, tuple((i, specs[i]) for i in at_m
                                               if specs[i].trials >= hi)))
    return tasks


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
        by array size in blocks of at most ``trials // (4 * workers)`` trials
        of its largest trial count, about four per worker, each ending where
        a sweep's trials end; no more processes start than there are blocks.
        A sweep's outcomes, r_sum, r_sum_noeve, leakage, cost, the redraws
        per cause and the seconds, fill one array per m by trial index, so
        the output is bitwise-identical for any worker count.  The ``-v``
        head line's sharing census is read from the blocks; the seconds of a
        ``-v`` line bill a block's draws in equal shares to its sweeps and a
        shared build to the sweep that made it.  A worker process that ends
        abruptly raises MimosecError naming the block whose result was awaited.
    """
    workers = as_integer(workers, "workers")
    if workers > MAX_WORKERS:
        raise ConfigurationError(f"workers must be at most {MAX_WORKERS}, got {workers}")
    specs = list(specs)
    workers = max(1, workers)
    tasks = _tasks(specs, workers)
    processes = min(workers, len(tasks))
    env = " ".join(f"{var}={value}" for var, value in SETTINGS["blas_threads"].items())
    heap = (f"heap left to the C library ({SETTINGS['heap_left']})" if SETTINGS["heap_left"]
            else "heap kept between trials")
    for i, spec in enumerate(specs):
        own = [(hi - lo, members) for _, lo, hi, members in tasks if i in dict(members)]
        draws = sorted({j for _, members in own for j, _ in members} - {i})
        builds = [j for j in draws if build_key(specs[j], specs[j].scheme, specs[j].quant_bits)
                  == build_key(spec, spec.scheme, spec.quant_bits)]
        log.info("%s %s: %d workers, %d trials per block, env %s%s, %s%s%s", spec.scenario,
                 spec.scheme, processes, max((n for n, _ in own), default=0), env,
                 " (set after numpy loaded, so BLAS kept its own thread count)"
                 if SETTINGS["numpy_before_pin"] else "", heap,
                 f"; shares channel draws with {_names(specs, draws)}" if draws else "",
                 f"; shares beamformer builds with {_names(specs, builds)}" if builds else "")
    points = [[] for _ in specs]
    outcomes = [np.empty((_COLUMNS, spec.trials)) for spec in specs]
    # Workers ignore SIGINT, which a terminal sends the whole process group:
    # the parent alone ends the run, and an idle worker prints no traceback.
    pool = (ProcessPoolExecutor(max_workers=processes, initializer=signal.signal,
                                initargs=(signal.SIGINT, signal.SIG_IGN))
            if processes > 1 else None)
    awaited = tasks[0] if tasks else None
    try:
        # A group's tasks are m-major and both maps yield in task order, so a
        # sweep's m is complete when the block ending at its last trial arrives.
        results = map(_block_task, tasks) if pool is None else pool.map(_block_task, tasks)
        for awaited in tasks:
            m, lo, hi, members = awaited
            for (i, spec), rows in zip(members, next(results)):
                outcome = outcomes[i]
                outcome[:, lo:hi] = rows
                if hi < spec.trials:
                    continue
                point = _aggregate(spec, m, outcome)
                points[i].append(point)
                causes = ", ".join(f"{n:.0f} {name}" for n, name
                                   in zip(outcome[4:-1].sum(axis=1), RESAMPLE_CAUSES.values()))
                log.info("%s %s m=%d: r_sum=%.4f cost=%.4f (%d trials, %d resampled: %s, %.2f s)",
                         spec.scenario, spec.scheme, m, point.r_sum_mean, point.cost_mean,
                         spec.trials, point.resamples, causes, outcome[-1].sum())
    except BrokenProcessPool:
        # A worker was lost while the blocks were being sent, or while one was awaited.
        m, lo, hi, _ = awaited
        raise MimosecError("a worker process ended abruptly (killed, or out of memory); "
                           f"no result for m={m}, trials {lo}..{hi - 1}") from None
    finally:
        if pool is not None:
            # Blocks not started yet are dropped, so that an interrupt or an
            # error ends the run without waiting for them.
            pool.shutdown(cancel_futures=True)
    return [SweepResult(spec=spec, points=tuple(p)) for spec, p in zip(specs, points)]


def run_sweep(spec: SweepSpec, workers: int = 1) -> SweepResult:
    """Run one sweep and aggregate its per-m statistics: ``run_sweeps`` of
    the one spec."""
    return run_sweeps([spec], workers)[0]
