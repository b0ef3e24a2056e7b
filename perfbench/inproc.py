"""In-process half of the benchmark, started by run.py in the program's
environment (PYTHONPATH=src, no BLAS thread pinning).

    python inproc.py check <workload> <config> <seed> <seconds> <workdir>
    python inproc.py trace <workload> <config> <seed> <seconds> <workdir>

``check`` cross-checks ``rate_report`` against the scalar-loop oracle of
``tests/oracles.py`` on sampled trials and reports library versions.
``trace`` adds the per-layer run: timed calls into the public functions of
each layer at fixed array sizes, and a serial replay of a slice of the
workload with spans around the channel draw, the beamformer build and
``rate_report`` of every trial.  Both print one JSON object as their last
line.
"""

import dataclasses
import importlib.util
import json
import random
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import scipy

import mimosec.harness as harness
from mimosec import (SCHEMES, SystemConfig, analog_phase_match, build_beamformers,
                     derive_seed, derived_rng, quantize_phases, rate_report,
                     run_sweep, run_trial, sample_realization,
                     select_antennas_protocol1, stepwise_tas, zf_effective)
from mimosec.cli import emit_results, parse_config
from mimosec.errors import DegenerateChannelError, SingularChannelError

ROOT = Path(__file__).resolve().parent.parent
PROBE_M = (16, 64, 1024, 4096)
TAS_B_PROBE_M = (16, 64, 1024)   # the greedy search at 4096 is not in any workload
QUANT_BITS = 4
ORACLE_RTOL = 1e-9               # float64 sums of at most a few thousand terms
LAYERS = ("channel", "beamforming", "metrics")
# The replay runs trials // REPLAY_DIVISOR per m, so that two rounds of its
# three replays fit in the second half of a run.
REPLAY_DIVISOR = 4

# Library calls made by the harness, by the name the harness looks them up
# under, and the layer each belongs to.
TRACED = {"sample_realization": "channel", "build_beamformers": "beamforming",
          "rate_report": "metrics", "run_trial": "harness"}


def _load_oracles():
    """Import tests/oracles.py without writing bytecode next to it."""
    sys.dont_write_bytecode = True
    spec = importlib.util.spec_from_file_location("oracles", ROOT / "tests" / "oracles.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _versions():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_config": blas.get("openblas configuration")}


def oracle_check(specs, seed):
    """Compare rate_report with the scalar oracle on one sampled trial of
    each sweep, at its smallest array size.  Returns a list of problems."""
    oracles = _load_oracles()
    pick = random.Random(seed)
    problems = []
    for spec in specs:
        m = spec.m_values[0]
        cfg = spec.config_for(m)
        trial = pick.randrange(spec.trials)
        ch = sample_realization(cfg, derive_seed(spec.master_seed, m), trial)
        try:
            bf = build_beamformers(ch.H, cfg, spec.scheme, spec.quant_bits)
        except (DegenerateChannelError, SingularChannelError):
            continue  # measure-zero draw; the sweep resamples it
        got = rate_report(ch, bf, cfg)
        ref = oracles.report(ch.H, ch.G, bf.F, bf.W, bf.powers, cfg.betas, cfg.thetas,
                             cfg.weights, cfg.sigma2, cfg.rho2)
        for key in ("sinr", "esnr", "r_secrecy", "r_noeve", "r_sum", "r_sum_noeve",
                    "leakage", "cost"):
            if not np.allclose(getattr(got, key), ref[key], rtol=ORACLE_RTOL, atol=1e-12):
                problems.append(f"{spec.scenario} {spec.scheme} m={m} trial={trial}: "
                                f"rate_report.{key} differs from the scalar oracle")
    return problems


class Tracer:
    """Spans kept in memory: (name, start, end, parent index, trial id).

    A span is named after its layer; each traced run_trial call opens a new
    trial id, which the draw, build and report spans under it share.
    """

    def __init__(self):
        self.spans = []
        self.stack = []  # (span index, trial id) of the open spans
        self.trials = 0
        self.bytes_drawn = 0

    def wrap(self, layer, fn):
        def traced(*args, **kwargs):
            parent, trial = self.stack[-1] if self.stack else (-1, 0)
            if layer == "harness":
                self.trials += 1
                trial = self.trials
            index = len(self.spans)
            self.spans.append(None)
            self.stack.append((index, trial))
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self.stack.pop()
                self.spans[index] = (layer, start, end, parent, trial)
            if layer == "channel":
                self.bytes_drawn += result.H.nbytes + result.G.nbytes
            return result
        return traced

    def sweep(self, spec):
        """run_sweep(spec, workers=1) with every harness call into a layer
        traced; the root span is the whole sweep."""
        originals = {name: getattr(harness, name) for name in TRACED}
        for name, layer in TRACED.items():
            setattr(harness, name, self.wrap(layer, originals[name]))
        try:
            return self.wrap("sweep", run_sweep)(spec, workers=1)
        finally:
            for name, fn in originals.items():
                setattr(harness, name, fn)

    def self_times(self):
        """Seconds of each layer's own work, and each trial's harness self time."""
        child = [0.0] * len(self.spans)
        for layer, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals = dict.fromkeys(LAYERS + ("harness", "sweep"), 0.0)
        trial_self = []
        for i, (layer, start, end, parent, _) in enumerate(self.spans):
            own = end - start - child[i]
            totals[layer] += own
            if layer == "harness":
                trial_self.append(own)
        # The harness owns everything between the layer calls: its per-trial
        # frames (run_trial and its callers) and the loop, aggregation and
        # logging of run_sweep.
        totals["harness"] += totals.pop("sweep")
        return totals, trial_self

    def write(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "trial"],
                       "spans": self.spans}, fh)


def _timed(fn):
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def _schemes(M):
    return [s for s in SCHEMES if s != "TAS_B" or M in TAS_B_PROBE_M]


def _draw(cfg, seed):
    """A channel on which every probed scheme's build succeeds."""
    for trial in range(100):
        ch = sample_realization(cfg, seed, trial)
        try:
            for scheme in _schemes(cfg.M):
                build_beamformers(ch.H, cfg, scheme, QUANT_BITS if scheme == "HADP_B" else None)
        except (DegenerateChannelError, SingularChannelError):
            continue
        return ch, trial
    raise RuntimeError("no usable channel draw in 100 trials")


def layer_probes(seed, specs, workdir):
    """Timed calls into each layer: metric name -> (callable, scale, unit)."""
    probes = {"channel.derived_rng_us": (
        lambda: [derived_rng(seed, i) for i in range(100)], 1e6 / 100, "us")}
    H4096 = None
    for M in PROBE_M:
        cfg = SystemConfig.uniform(M=M, K=16, J=2, L=16, total_power=1.0,
                                   sigma2=1.0, rho2=1.0)
        ch, trial = _draw(cfg, seed)
        probes[f"channel.sample_realization_ms.m{M}"] = (
            lambda cfg=cfg, t=trial: sample_realization(cfg, seed, t), 1e3, "ms")
        probes[f"beamforming.select_antennas_protocol1_ms.m{M}"] = (
            lambda H=ch.H: select_antennas_protocol1(H), 1e3, "ms")
        if M in TAS_B_PROBE_M:
            probes[f"beamforming.stepwise_tas_ms.m{M}"] = (
                lambda H=ch.H, cfg=cfg: stepwise_tas(H, cfg.L, cfg), 1e3, "ms")
        for scheme in _schemes(M):
            qb = QUANT_BITS if scheme == "HADP_B" else None
            bf = build_beamformers(ch.H, cfg, scheme, qb)
            probes[f"beamforming.build_ms.{scheme}.m{M}"] = (
                lambda H=ch.H, cfg=cfg, s=scheme, qb=qb: build_beamformers(H, cfg, s, qb),
                1e3, "ms")
            probes[f"metrics.rate_report_ms.{scheme}.m{M}"] = (
                lambda ch=ch, bf=bf, cfg=cfg: rate_report(ch, bf, cfg), 1e3, "ms")
            probes[f"harness.run_trial_ms.{scheme}.m{M}"] = (
                lambda cfg=cfg, s=scheme, qb=qb, t=trial: run_trial(cfg, s, qb, seed, t),
                1e3, "ms")
        H4096 = ch.H
    F = analog_phase_match(H4096)
    H_eff = quantize_phases(F, QUANT_BITS).T @ H4096
    probes["beamforming.analog_phase_match_ms"] = (lambda: analog_phase_match(H4096), 1e3, "ms")
    probes["beamforming.quantize_phases_ms"] = (lambda: quantize_phases(F, QUANT_BITS), 1e3, "ms")
    probes["beamforming.zf_effective_ms"] = (lambda: zf_effective(H_eff), 1e3, "ms")
    results = [run_sweep(dataclasses.replace(s, trials=1), workers=1) for s in specs]
    out = Path(workdir) / "emit.csv"
    probes["cli.emit_results_ms"] = (
        lambda: [emit_results(r, out) for r in results], 1e3, "ms")
    return probes


def stepwise_tas_temp_mb(seed):
    """Peak bytes numpy allocates inside one greedy selection at M=1024."""
    cfg = SystemConfig.uniform(M=1024, K=16, J=2, L=16, total_power=1.0,
                               sigma2=1.0, rho2=1.0)
    H = _draw(cfg, seed)[0].H
    tracemalloc.start()
    try:
        stepwise_tas(H, cfg.L, cfg)
        return tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()


def _points(result):
    return [dataclasses.astuple(p) for p in result.points]


def replay(specs, until):
    """Replay a slice of the workload serially, traced and untraced, and on
    two workers, in rounds until ``until`` (at least two rounds)."""
    sliced = [dataclasses.replace(s, trials=max(1, s.trials // REPLAY_DIVISOR))
              for s in specs]
    rounds, problems, tracer = [], [], None
    while len(rounds) < 2 or time.perf_counter() < until:
        tracer = Tracer()
        # Alternate which of the traced and untraced replays goes first, so
        # that a drift in machine speed does not count as tracing overhead.
        order = ("traced", "serial") if len(rounds) % 2 == 0 else ("serial", "traced")
        for kind in order:
            start = time.perf_counter()
            if kind == "traced":
                traced = [tracer.sweep(s) for s in sliced]
                t_traced = time.perf_counter() - start
            else:
                serial = [run_sweep(s, workers=1) for s in sliced]
                t_w1 = time.perf_counter() - start
        start = time.perf_counter()
        pooled = [run_sweep(s, workers=2) for s in sliced]
        t_w2 = time.perf_counter() - start
        for s, a, b, c in zip(sliced, traced, serial, pooled):
            if not _points(a) == _points(b) == _points(c):
                problems.append(f"{s.scenario} {s.scheme}: traced, serial and two-worker "
                                f"replays disagree")
        totals, trial_self = tracer.self_times()
        rounds.append({"traced": t_traced, "w1": t_w1, "w2": t_w2, "totals": totals,
                       "trial_self_us": statistics.median(trial_self) * 1e6,
                       "resamples": sum(p.resamples for r in serial for p in r.points),
                       "trials": sum(s.trials * len(s.m_values) for s in sliced),
                       "bytes_drawn": tracer.bytes_drawn})
    return rounds, problems, tracer, len(sliced) * len(rounds)


def fixed_share(metrics):
    """Share of a trial at M=16 that does not grow with M: the intercept at
    M=0 of the line through run_trial at M=16 and M=64, summed over the
    schemes, against their run_trial at M=16."""
    fixed = total = 0.0
    for scheme in SCHEMES:
        t16 = metrics[f"harness.run_trial_ms.{scheme}.m16"][0]
        t64 = metrics[f"harness.run_trial_ms.{scheme}.m64"][0]
        fixed += t16 - 16 * (t64 - t16) / (64 - 16)
        total += t16
    return fixed / total


def trace(workload, specs, seed, seconds, workdir):
    start = time.perf_counter()
    metrics = {"beamforming.stepwise_tas_temp_mb": (stepwise_tas_temp_mb(seed), "MB")}
    probes = layer_probes(seed, specs, workdir)
    samples = {name: [] for name in probes}
    # Round-robin over the probes so that a slow spell on a shared machine
    # spreads over all of them; half the run goes to the probes.
    while min(len(v) for v in samples.values()) < 3 or \
            time.perf_counter() < start + seconds / 2:
        for name, (fn, scale, _) in probes.items():
            samples[name].append(_timed(fn) * scale)
    for name, (_, _, unit) in probes.items():
        metrics[name] = (statistics.median(samples[name]), unit)
    metrics["harness.fixed_share.m16"] = (fixed_share(metrics), "ratio")

    rounds, problems, tracer, attempted = replay(specs, start + seconds)
    tracer.write(Path(workdir).parent / f"spans-{workload}.json")

    def med(key):
        return statistics.median(r[key] for r in rounds)

    w1, w2 = med("w1"), med("w2")
    metrics.update({
        "harness.run_sweep_s.w1": (w1, "s"),
        "harness.run_sweep_s.w2": (w2, "s"),
        "harness.parallel_efficiency": (w1 / (2 * w2), "ratio"),
        "harness.dispatch_s": (w2 - w1 / 2, "s"),
        "harness.trial_self_us": (med("trial_self_us"), "us"),
        "channel.bytes_drawn": (rounds[-1]["bytes_drawn"], "B"),
        "trace.overhead_ratio": (med("traced") / w1, "ratio"),
    })
    for layer in LAYERS + ("harness",):
        own = statistics.median(r["totals"][layer] for r in rounds)
        metrics[f"self.{layer}_s"] = (own, "s")
        share = statistics.median(r["totals"][layer] / r["traced"] for r in rounds)
        metrics[f"share.{layer}" if layer != "harness" else "share.harness_self"] = (
            share, "ratio")
    # Redrawn trials are 0 when all is well, so these two are counts for the
    # record, not metrics a relative bound could compare.
    resamples, trials = rounds[-1]["resamples"], rounds[-1]["trials"]
    counts = {"harness.resamples": resamples,
              "harness.useful_trial_ratio": trials / (trials + resamples)}
    return metrics, counts, problems, attempted


def main():
    mode, name, config, seed, seconds, workdir = sys.argv[1:7]
    seed, seconds = int(seed), float(seconds)
    specs = parse_config(config)
    problems = oracle_check(specs, seed)
    out = {"versions": _versions(), "failures": problems}
    if mode == "trace":
        metrics, counts, replay_problems, attempted = trace(name, specs, seed, seconds, workdir)
        out.update(metrics=metrics, counts=counts, attempted=attempted,
                   failed=len(replay_problems),
                   failures=problems + replay_problems)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
