"""mimosec benchmark: runs a workload's sweeps through the CLI as a user would.

    python3 perfbench/run.py --workload tas --seed 1 --seconds 60 --trace 0
    python3 perfbench/run.py --report --runs 10 --seconds 60

With ``--trace 0`` it times fresh ``python -m mimosec.cli sweep`` processes
on a config generated from the seed, checks every CSV they write, and prints
the end-to-end metrics.  With ``--trace 1`` it runs the same set-up probes
and then the in-process traced run of ``inproc.py``, and prints the
per-layer metrics.  Either way the last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--report`` repeats each workload under distinct seeds and prints, per
metric, the median, the quartiles and the spread against the bound in
BENCHMARK.json.  Run it from the root of a checkout; the package is used
from ``src`` (``PYTHONPATH=src``), not from an installed copy.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from checks import MAX_REL_DRIFT, check_csv, max_rel_drift, sha256
from workloads import DEFAULT_SEED, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "_work"
REFERENCE = HERE / "reference"

# Removed from the program's environment so that "default flags" means the
# program's own worker and BLAS defaults, whatever the caller had set.
THREAD_ENV = ("SIM_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
              "MKL_NUM_THREADS")
SETUP_REPEATS = 5
RUN_LIMIT_S = 170  # a run must end within 180 s, whatever the program does

# Runs in a fresh interpreter: the user's wait before a sweep starts work.
SETUP_CODE = """\
import json, sys, time
t0 = time.perf_counter()
import mimosec.cli
t1 = time.perf_counter()
mimosec.cli.parse_config(sys.argv[1])
t2 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "parse_config_ms": (t2 - t1) * 1e3}))
"""


class Run:
    """Children of one benchmark run: environment, deadline and scratch files."""

    def __init__(self, workload, seed):
        self.workload = workload
        self.seed = seed
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.dir = WORK / f"{workload.name}-{seed}-{os.getpid()}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.config = self.dir / "workload.cfg"
        self.config.write_text(workload.config_text(seed))
        self.env = {k: v for k, v in os.environ.items() if k not in THREAD_ENV}
        src = str(ROOT / "src")
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)
        self.removed_env = {k: os.environ[k] for k in THREAD_ENV if k in os.environ}
        self.setups = []

    def python(self, argv, log_name):
        """Run the interpreter on argv in its own session.

        Returns (exit code, wall seconds, rusage of the child and every
        descendant it waited for, stdout text).  The whole session is killed
        at the run's deadline and after the child exits, so no worker
        outlives it.
        """
        out_path = self.dir / f"{log_name}.out"
        with out_path.open("w") as out, (self.dir / f"{log_name}.err").open("w") as err:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *argv], cwd=ROOT, env=self.env,
                                    stdout=out, stderr=err, start_new_session=True)
            timer = threading.Timer(max(0.0, self.deadline - time.monotonic()),
                                    _kill_session, (proc.pid,))
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
                _kill_session(proc.pid)
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, wall, usage, out_path.read_text()

    def setup(self):
        """One fresh interpreter that imports the CLI and parses the workload
        config; records its wall time and its own import and parse timings."""
        i = len(self.setups)
        code, wall, _, out = self.python(["-c", SETUP_CODE, str(self.config)], f"setup{i}")
        if code != 0:
            raise BenchmarkError(self.failure(f"setup{i}", code))
        self.setups.append(dict(json.loads(out.strip().splitlines()[-1]), setup_s=wall))

    def failure(self, log_name, code):
        tail = (self.dir / f"{log_name}.err").read_text().strip().splitlines()[-5:]
        return f"{log_name} exited with {code}: " + " | ".join(tail)

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)


class BenchmarkError(Exception):
    """The benchmark could not run the program at all."""


def _kill_session(pid):
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _median(values):
    return statistics.median(values) if values else float("nan")


def _metric(value, unit):
    return {"value": value, "unit": unit}


def run_sweeps(run, seconds):
    """Start sweep processes back to back, with the set-up probes between
    the first of them, for about ``seconds`` seconds in all, and check every
    CSV they write.  Returns (samples, failures, digests, drift)."""
    workload = run.workload
    reference = REFERENCE / workload.name if run.seed == DEFAULT_SEED else None
    samples, failures, digests, drift = [], [], None, None
    start = time.monotonic()
    while True:
        # Spread over the run, the set-up probes see the same machine as
        # the sweeps do.
        if len(run.setups) < SETUP_REPEATS:
            run.setup()
        i = len(samples)
        out_dir = run.dir / f"out{i}"
        code, wall, usage, _ = run.python(
            workload.sweep_argv(str(run.config), str(out_dir)), f"sweep{i}")
        samples.append({"sweep_s": wall, "cpu_s": usage.ru_utime + usage.ru_stime,
                        "peak_rss_mb": usage.ru_maxrss / 1024.0})
        problems = [f"sweep process exited with {code}"] if code != 0 else []
        sums = {}
        for sweep in workload.sweeps if code == 0 else ():
            path = out_dir / sweep.csv_name
            found = check_csv(path, sweep)
            if not found:
                sums[sweep.csv_name] = sha256(path)
                if reference is not None:
                    d = max_rel_drift(path, reference / sweep.csv_name)
                    drift = d if drift is None else max(drift, d)
                    if d > MAX_REL_DRIFT:
                        found.append(f"{sweep.csv_name}: drift {d:.3g} from reference")
            problems += found
        if not problems:
            if digests is None:
                digests = sums
            elif sums != digests:
                problems.append("CSV bytes differ between sweeps of the same config")
        failures.append(problems)
        for p in problems:
            print(f"FAIL sweep {i}: {p}", file=sys.stderr)
        shutil.rmtree(out_dir, ignore_errors=True)
        next_s = _median([s["sweep_s"] for s in samples])
        if len(run.setups) < SETUP_REPEATS:
            next_s += _median([s["setup_s"] for s in run.setups])
        if time.monotonic() - start + next_s > seconds or time.monotonic() > run.deadline - 30:
            while len(run.setups) < SETUP_REPEATS:
                run.setup()
            return samples, failures, digests, drift


def run_record(run, inproc, digests, drift):
    """What a later run must match before its numbers compare with these."""
    nproc = shutil.which("nproc")
    try:
        # The ceiling keeps git from finding a repository above the checkout.
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10,
                             env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
                             ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        git = None
    reference = {}
    if run.seed == DEFAULT_SEED and digests:
        reference = {name: digest == sha256(REFERENCE / run.workload.name / name)
                     for name, digest in digests.items()}
    return {
        "workload": run.workload.name, "seed": run.seed,
        "nproc": int(subprocess.run([nproc], capture_output=True, text=True,
                                    env=run.env).stdout) if nproc else None,
        "affinity": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
        "thread_env_removed": run.removed_env,
        "thread_env_child": {k: run.env.get(k) for k in THREAD_ENV},
        "python": sys.version.split()[0], **inproc.get("versions", {}),
        "git_revision": git, "csv_sha256": digests,
        "csv_matches_reference": reference or None, "csv_max_rel_drift": drift,
    }


def run_inproc(run, mode, seconds):
    """Run ``inproc.py`` in the program's environment; returns its JSON."""
    argv = [str(HERE / "inproc.py"), mode, run.workload.name, str(run.config),
            str(run.seed), str(seconds), str(run.dir)]
    code, _, _, out = run.python(argv, f"inproc-{mode}")
    if code != 0:
        raise BenchmarkError(run.failure(f"inproc-{mode}", code))
    return json.loads(out.strip().splitlines()[-1])


def run_workload(name, seed, seconds, trace):
    """One benchmark run; returns the result object of the last output line."""
    run = Run(WORKLOADS[name], seed)
    try:
        if trace:
            start = time.monotonic()
            for _ in range(SETUP_REPEATS):
                run.setup()
            inproc = run_inproc(run, "trace", max(0.0, seconds - (time.monotonic() - start)))
            metrics = {k: _metric(v, u) for k, (v, u) in inproc["metrics"].items()}
            metrics["cli.import_s"] = _metric(_median([s["import_s"] for s in run.setups]), "s")
            metrics["cli.parse_config_ms"] = _metric(
                _median([s["parse_config_ms"] for s in run.setups]), "ms")
            # Each replayed sweep is an attempt; it fails when its three
            # replays (traced, serial, two workers) disagree.
            attempted, failed = inproc["attempted"], inproc["failed"]
            failures = inproc["failures"]
            digests = drift = None
            counts = inproc["counts"]
            print(f"{name}: harness.resamples {counts['harness.resamples']} count, "
                  f"harness.useful_trial_ratio {counts['harness.useful_trial_ratio']:.6g} ratio")
        else:
            samples, sweep_failures, digests, drift = run_sweeps(run, seconds)
            inproc = run_inproc(run, "check", seconds)
            # Counted per sweep (one CSV), the unit failed_share is defined on.
            n = len(run.workload.sweeps)
            attempted = n * len(samples)
            failed = n * sum(1 for f in sweep_failures if f)
            failures = [p for f in sweep_failures for p in f] + inproc["failures"]
            metrics = {
                "sweep_s": _metric(_median([s["sweep_s"] for s in samples]), "s"),
                "cpu_s": _metric(_median([s["cpu_s"] for s in samples]), "s"),
                "setup_s": _metric(_median([s["setup_s"] for s in run.setups]), "s"),
                "peak_rss_mb": _metric(_median([s["peak_rss_mb"] for s in samples]), "MB"),
            }
            print(f"{name}: {len(samples)} sweep processes, sweep_s "
                  f"{[round(s['sweep_s'], 3) for s in samples]}, setup_s "
                  f"{[round(s['setup_s'], 3) for s in run.setups]}, failed_share "
                  f"{failed / attempted:.3g} share")
        for p in inproc["failures"]:
            print(f"FAIL: {p}", file=sys.stderr)
        print("record: " + json.dumps(run_record(run, inproc, digests, drift)))
        return {"correct": not failures, "attempted": attempted, "failed": failed,
                "metrics": metrics}
    finally:
        run.close()


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def report(runs, seconds, trace, names):
    """Repeat each workload under distinct seeds; print the steadiness table."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    for name in names:
        values, attempted, failed = {}, 0, 0
        for i in range(runs):
            result = run_workload(name, DEFAULT_SEED + 1 + i, seconds, trace)
            print(json.dumps(result), flush=True)
            attempted += result["attempted"]
            failed += result["failed"]
            for key, m in result["metrics"].items():
                values.setdefault(key, (m["unit"], []))[1].append(m["value"])
        print(f"== {name}: {runs} runs of {seconds} s, trace {int(trace)}")
        print(f"{'metric':48s} {'unit':6s} {'median':>11s} {'q1':>11s} {'q3':>11s} "
              f"{'spread':>7s} {'bound':>6s}")
        for key, (unit, vals) in values.items():
            med = statistics.median(vals)
            q1, q3 = _quartiles(vals)
            spread = (q3 - q1) / abs(med) if med else float("nan")
            bound = bounds.get(key)
            verdict = "" if bound is None else (
                "steady" if spread < bound / 3 else "ok" if spread <= bound else "WIDE")
            print(f"{key:48s} {unit:6s} {med:11.5g} {q1:11.5g} {q3:11.5g} "
                  f"{spread:7.3f} {'' if bound is None else bound:>6} {verdict}")
        print(f"{'failed_share':48s} {'share':6s} {failed / max(attempted, 1):11.5g} "
              f"({failed} of {attempted} sweeps)", flush=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=60)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--report", action="store_true",
                        help="repeat every workload (or --workload) and print spreads")
    parser.add_argument("--runs", type=int, default=10, help="runs per workload in --report")
    args = parser.parse_args()
    if not (ROOT / "src" / "mimosec" / "cli.py").is_file():
        print(f"error: no mimosec sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.report:
            report(args.runs, args.seconds, args.trace,
                   [args.workload] if args.workload else list(WORKLOADS))
            return 0
        if args.workload is None:
            parser.error("--workload is required unless --report is given")
        result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
