"""Benchmark workloads: the sweep configs the program is run on.

Each workload is a list of sweep documents in the program's own config
format.  The benchmark writes them to a file whose only free input is the
seed, so the program never sees anything but that file.  Trial counts are
scaled down from ``configs/full_suite.cfg`` to between a fifth and a third,
so that one sweep process takes about 9 s, of which interpreter start-up is
a sixth, and a run holds five or six of them.  The pool still hands out
chunks of ``trials // (workers * 4)`` trials, several at a time as in the
full suite.
"""

from dataclasses import dataclass

DEFAULT_SEED = 20260810  # the master seed of configs/full_suite.cfg


@dataclass(frozen=True)
class Sweep:
    preset: str
    scenario: str
    scheme: str
    m_values: tuple
    trials: int
    quant_bits: int | None = None

    def document(self, seed: int) -> str:
        lines = [f"preset: {self.preset}", f"scenario: {self.scenario}",
                 f"scheme: {self.scheme}"]
        if self.quant_bits is not None:
            lines.append(f"quant_bits: {self.quant_bits}")
        lines += [f"m_values: {','.join(str(m) for m in self.m_values)}",
                  f"trials: {self.trials}", f"seed: {seed}"]
        return "\n".join(lines) + "\n"

    @property
    def csv_name(self) -> str:
        # The CLI names each CSV <scenario>_<scheme>.csv.
        return f"{self.scenario}_{self.scheme}.csv"


@dataclass(frozen=True)
class Workload:
    name: str
    sweeps: tuple

    def config_text(self, seed: int) -> str:
        return "---\n".join(s.document(seed) for s in self.sweeps)

    def sweep_argv(self, config: str, out_dir: str) -> list:
        # No --workers: the CLI default (SIM_THREADS or CPU count).
        return ["-m", "mimosec.cli", "sweep", config, "--out", out_dir]


LARGE_M = tuple(2 ** e for e in range(6, 13))   # 64 .. 4096
TAS_B_M = tuple(2 ** e for e in range(6, 11))   # 64 .. 1024

# Why each workload exists is in BENCHMARK.json and README.md.
WORKLOADS = {w.name: w for w in (
    Workload(
        name="tas",
        sweeps=(Sweep("sparse", "sparse", "TAS_A", LARGE_M, 44),
                Sweep("dense", "dense", "TAS_A", LARGE_M, 44),
                Sweep("sparse", "sparse", "TAS_B", TAS_B_M, 22))),
    Workload(
        name="hadp",
        sweeps=(Sweep("sparse", "sparse", "HADP_A", LARGE_M, 72),
                Sweep("dense", "dense", "HADP_A", LARGE_M, 72),
                Sweep("sparse", "sparse-b4", "HADP_B", LARGE_M, 72, quant_bits=4))),
)}
