"""Monte Carlo sweep driver: runs seeded trials over a grid of array sizes
and aggregates the rate metrics with standard errors."""

import logging
import math
import signal
import time
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, fields

import numpy as np

from . import SETTINGS
from .beamforming import build_beamformers, build_key, shared_stages
from .channel import carve, derive_seed, sample_realization, trial_normals
from .config import SweepSpec, SystemConfig, as_integer
from .errors import DegenerateChannelError, MimosecError, SingularChannelError
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


class _Group:
    """The sweeps ``specs`` of one group, which share their master seed, at
    array size m, with ``reused`` what more than one of them makes from H
    (see ``_tasks``).  Array size m draws from the stream
    ``derive_seed(master_seed, m)``.  ``draw(t)`` draws trial t from its
    index t once for all the sweeps, at their widest K + J, and carves it
    into a read-only realization per (K, J) with one H per K; ``run(j, t)``
    evaluates sweep j on it.  A sweep whose draw is degenerate redraws it
    alone, redraw a from index ``a * trials + t`` of its own trial count."""

    def __init__(self, m: int, specs, reused: frozenset = frozenset()):
        self.m, self.specs, self.reused = m, specs, reused
        self.seed = derive_seed(specs[0].master_seed, m)
        self.uses = [(spec.config_for(m), spec.scheme, spec.quant_bits) for spec in specs]

    def draw(self, t: int):
        self.draws, self.built, H = {}, {}, {}  # the last trial's go before this one is drawn
        normals = trial_normals(self.seed, t,
                                2 * self.m * max(cfg.K + cfg.J for cfg, _, _ in self.uses))
        for cfg, _, _ in self.uses:
            if (cfg.K, cfg.J) not in self.draws:
                ch = carve(normals, self.m, cfg.K, cfg.J, H.get(cfg.K))
                ch.H.flags.writeable = ch.G.flags.writeable = False
                self.draws[cfg.K, cfg.J] = ch
                H[cfg.K] = ch.H
        return self

    def _stage(self, key, make):
        """``make()``, kept for the other sweeps if more than one makes ``key``.
        A build that raises is not kept, so each sweep redraws its own."""
        if key not in self.reused:
            return make()
        if key not in self.built:
            self.built[key] = make()
        return self.built[key]

    def report(self, cfg: SystemConfig, scheme: str, quant_bits: int | None) -> RateReport:
        """The rate metrics of one sweep on the trial drawn: its scheme's
        beamformers, made from the H of its K, evaluated on its realization."""
        ch = self.draws[cfg.K, cfg.J]
        bf = self._stage(build_key(cfg, scheme, quant_bits),
                         lambda: build_beamformers(ch.H, cfg, scheme, quant_bits, self._stage))
        return rate_report(ch, bf, cfg)

    def run(self, j: int, t: int):
        """Sweep j's report on trial t, which ``draw`` drew, redrawn at most
        ``_MAX_RESAMPLES`` times while degenerate, and its redraws per cause,
        an array indexed like ``RESAMPLE_CAUSES``."""
        resamples = np.zeros(len(RESAMPLE_CAUSES), dtype=int)
        for attempt in range(_MAX_RESAMPLES + 1):
            try:
                return run_trial(*self.uses[j], self.seed, attempt * self.specs[j].trials + t,
                                 trial=None if attempt else self), resamples
            except tuple(RESAMPLE_CAUSES) as exc:
                if attempt == _MAX_RESAMPLES:
                    raise
                resamples += [isinstance(exc, cause) for cause in RESAMPLE_CAUSES]


def run_trial(cfg: SystemConfig, scheme: str, quant_bits: int | None,
              master_seed: int, trial_index: int, *, trial: _Group | None = None) -> RateReport:
    """Sample one realization of the stream ``master_seed`` (see
    ``sample_realization``), build the scheme's beamformers from H only,
    and evaluate the rate metrics.

    Degenerate draws (exact-zero coefficients, ill-conditioned zero
    forcing) raise; a sweep resamples and counts them.  ``trial``, when
    given, is the ``_Group`` that drew this trial, whose draw and shared
    builds are used.
    """
    if trial is not None:
        return trial.report(cfg, scheme, quant_bits)
    ch = sample_realization(cfg, master_seed, trial_index)
    ch.H.flags.writeable = ch.G.flags.writeable = False
    return rate_report(ch, build_beamformers(ch.H, cfg, scheme, quant_bits), cfg)


def sweep_trial(spec: SweepSpec, m: int, trial_index: int):
    """Trial ``trial_index`` of the sweep ``spec`` at array size m, drawn and
    redrawn as the sweep draws it: its ``RateReport``, and its redraws per
    cause, an array indexed like ``RESAMPLE_CAUSES``."""
    return _Group(m, [spec]).draw(trial_index).run(0, trial_index)


def _block_task(args):
    """Run trials lo..hi-1 of array size m for each sweep of ``members``, a
    tuple of (position, spec) of one group, each with at least hi trials, as
    one ``_Group``.  Returns an (n, columns, hi - lo) array of each sweep's
    outcome per trial: r_sum, r_sum_noeve, leakage and cost, the redraws per
    ``RESAMPLE_CAUSES`` cause, then the seconds (see ``run_sweeps``)."""
    m, lo, hi, members, reused = args
    group = _Group(m, [spec for _, spec in members], reused)
    outcomes = np.zeros((hi - lo, len(members), _COLUMNS))
    for t, out in zip(range(lo, hi), outcomes):
        start = time.perf_counter()
        group.draw(t)
        out[:, -1] = (time.perf_counter() - start) / len(members)
        for j in range(len(members)):
            start = time.perf_counter()
            report, redraws = group.run(j, t)
            out[j, :-1] = report.r_sum, report.r_sum_noeve, report.leakage, report.cost, *redraws
            out[j, -1] += time.perf_counter() - start
    return outcomes.transpose(1, 2, 0)


def _aggregate(spec: SweepSpec, m: int, outcome: np.ndarray) -> SweepPoint:
    """The mean and standard error (0 for one trial) of each rate row of
    ``outcome``.  Under ``ratio_of_means`` the cost is 1 - R, R = mean r_sum /
    mean r_sum_noeve, and its standard error is that of the residuals
    (r_sum - R r_sum_noeve) / mean r_sum_noeve, first-order error
    propagation; both are 0 when the mean r_sum_noeve is 0.  A statistic
    that overflows to a non-finite value raises MimosecError."""
    rows = outcome[:4].copy()
    n = rows.shape[1]
    # Overflow is caught by the finite check below, not warned about.
    with np.errstate(over="ignore", invalid="ignore"):
        mean = rows.mean(axis=1)
        if spec.cost_estimator == "ratio_of_means":
            noeve = mean[1]
            mean[3] = 1.0 - mean[0] / noeve if noeve else 0.0
            rows[3] = (rows[0] - mean[0] / noeve * rows[1]) / noeve if noeve else 0.0
        se = rows.std(axis=1, ddof=1) / np.sqrt(n) if n > 1 else np.zeros(4)
    # SweepPoint's fields after the counts are each rate row's mean, then its SE.
    stats = [float(x) for pair in zip(mean, se) for x in pair]
    for f, value in zip(fields(SweepPoint)[3:], stats):
        if not math.isfinite(value):
            raise MimosecError(f"{spec.scenario} {spec.scheme} m={m}: {f.name} is not finite "
                               f"({value}): the rates overflow double precision when aggregated")
    return SweepPoint(m, spec.trials, int(outcome[4:-1].sum()), *stats)


def _tasks(specs, made, workers: int) -> list:
    """The blocks of a run of ``specs``, cut as ``run_sweeps`` says, as
    ``_block_task`` arguments.  ``made[i]`` is what spec i makes from H, its
    build key and ``shared_stages`` keys; a block carries those that more
    than one of its members makes."""
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
                runs = [i for i in at_m if specs[i].trials >= hi]
                keys = Counter(key for i in runs for key in made[i])
                tasks.append((m, lo, hi, tuple((i, specs[i]) for i in runs),
                              frozenset(key for key, n in keys.items() if n > 1)))
    return tasks


def run_sweeps(specs, workers: int = 1) -> list:
    """Run several sweeps through one pool map and aggregate each one's
    per-m statistics; returns their ``SweepResult`` in the order given.

    The channels of any K and J at a given m and trial index are a prefix
    of one stream of normals, which depends on the master seed alone, and
    beamformers depend on H and the transmit-side settings alone.  So the
    blocks of sweeps with equal master seed draw each trial once for all of
    them, and make each build from H, and each ``shared_stages`` product
    of H, once for the sweeps that make it (redraws of a degenerate trial
    stay per sweep).  Each result is that of the sweep run on its own.

    Parameters
    ----------
    specs : sequence of SweepSpec
    workers : int
        Process count for the trial loop, at most ``MAX_WORKERS``; below 1
        runs serially.  A group of sweeps sharing draws goes out array size
        by array size in blocks of at most ``max(1, trials // (4 * workers))``
        trials of its largest trial count, about four per worker, each ending
        where a sweep's trials end; no more processes start than there are blocks.
        A sweep's outcomes, r_sum, r_sum_noeve, leakage, cost, the redraws
        per cause and the seconds, fill one array per m by trial index, so
        the output is bitwise-identical for any worker count.  The ``-v``
        head line's sharing census is read from the blocks; the seconds of a
        ``-v`` line bill a block's draws in equal shares to its sweeps and a
        shared build to the sweep that made it.  A worker process that ends
        abruptly raises MimosecError naming the block whose result was awaited.
    """
    workers = max(1, as_integer(workers, "workers", high=MAX_WORKERS))
    specs = list(specs)
    made = [(build_key(s, s.scheme, s.quant_bits), *shared_stages(s, s.scheme)) for s in specs]
    tasks = _tasks(specs, made, workers)
    processes = min(workers, len(tasks))
    env = " ".join(f"{var}={value}" for var, value in SETTINGS["blas_threads"].items())
    heap = (f"heap left to the C library ({SETTINGS['heap_left']})" if SETTINGS["heap_left"]
            else "heap kept between trials")
    names = [f"{s.scenario} {s.scheme}" for s in specs]
    for i, spec in enumerate(specs):
        own = [(hi - lo, members) for _, lo, hi, members, _ in tasks if i in dict(members)]
        draws = sorted({j for _, members in own for j, _ in members} - {i})
        builds = [j for j in draws if made[j][0] == made[i][0]]
        shares = [("channel draws", draws), ("beamformer builds", builds)]
        shares += [(f"a {key[0]}", [j for j in draws if j not in builds and key in made[j][1:]])
                   for key in made[i][1:]]
        log.info("%s %s: %d workers, %d trials per block, env %s%s, %s%s", spec.scenario,
                 spec.scheme, processes, max((n for n, _ in own), default=0), env,
                 " (set after numpy loaded, so BLAS kept its own thread count)"
                 if SETTINGS["numpy_before_pin"] else "", heap,
                 "".join(f"; shares {what} with {', '.join(names[j] for j in js)}"
                         for what, js in shares if js))
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
            m, lo, hi, members, _ = awaited
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
        m, lo, hi, *_ = awaited
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
