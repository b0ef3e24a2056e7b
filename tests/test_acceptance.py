"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest -s`` to see them live).

The six Monte Carlo sweeps of criteria 6-10 run as one ``run_sweeps``
call, sharing draws and builds as ``mimosec sweep`` does, and the criteria
read their sweeps from that one run; every tolerance is pinned here, not in
helper code.
"""

import time

import numpy as np
import pytest

import oracles
from mimosec import (SweepSpec, SystemConfig, BeamformerSet, build_beamformers,
                     clt_check, complex_normal, derived_rng,
                     fit_cost_anchor, fit_growth, gumbel_check,
                     phase_aligned_sums, rate_report, run_sweeps, run_trial,
                     sample_realization)
from mimosec.cli import main as cli_main
from mimosec.config import PRESETS

SEED = 20260810
M_GRID = (64, 128, 256, 512, 1024, 2048, 4096)
TRIALS = 200
WORKERS = 2


def verdict(number: int, name: str, ok: bool, detail: str = ""):
    line = f"[criterion {number:2d}] {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def preset_spec(scheme: str, preset: str, quant_bits=None) -> SweepSpec:
    """The sweep of ``scheme`` over M_GRID on the shipped ``preset`` network."""
    return SweepSpec(**PRESETS[preset], scenario=preset, scheme=scheme, m_values=M_GRID,
                     trials=TRIALS, master_seed=SEED, quant_bits=quant_bits)


QUANT_BITS = (2, 4, 16)
SWEEPS = {"tas_sparse": preset_spec("TAS_A", "sparse"),
          "hadp_sparse": preset_spec("HADP_A", "sparse"),
          "tas_dense": preset_spec("TAS_A", "dense"),
          **{bits: preset_spec("HADP_B", "sparse", bits) for bits in QUANT_BITS}}


@pytest.fixture(scope="module")
def shared_run():
    """The six sweeps of SWEEPS, keyed alike, and the seconds of their one run."""
    t = time.perf_counter()
    results = run_sweeps(SWEEPS.values(), workers=WORKERS)
    return dict(zip(SWEEPS, results)), time.perf_counter() - t


@pytest.fixture(scope="module")
def sweep_times(shared_run):
    seconds = shared_run[1]
    return dict.fromkeys(("tas_sparse", "hadp_sparse", "tas_dense", "hadp_quantized"),
                         seconds)


@pytest.fixture(scope="module")
def tas_sparse(shared_run):
    return shared_run[0]["tas_sparse"]


@pytest.fixture(scope="module")
def hadp_sparse(shared_run):
    return shared_run[0]["hadp_sparse"]


@pytest.fixture(scope="module")
def tas_dense(shared_run):
    return shared_run[0]["tas_dense"]


@pytest.fixture(scope="module")
def hadp_quantized(shared_run):
    return {bits: shared_run[0][bits] for bits in QUANT_BITS}


def regression_on_log2m(points):
    """OLS slope of a per-m mean against log2 m, with the slope's standard
    error propagated from the per-point standard errors."""
    x = np.log2([p.m for p in points])
    y = np.array([p.leakage_mean for p in points])
    se = np.array([p.leakage_se for p in points])
    xc = x - x.mean()
    sxx = np.sum(xc ** 2)
    slope = float(np.sum(xc * y) / sxx)
    slope_se = float(np.sqrt(np.sum(xc ** 2 * se ** 2)) / sxx)
    return slope, slope_se


def test_c01_formula_oracle_equivalence():
    rng = derived_rng(1001)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        M = int(rng.integers(1, 5))
        K = int(rng.integers(1, 3))
        J = int(rng.integers(0, 3))
        L = int(rng.integers(1, M + 1))
        cfg = SystemConfig.uniform(M=M, K=K, J=J, L=L,
                                   total_power=float(rng.uniform(0.5, 2.0)),
                                   sigma2=float(rng.uniform(0.5, 2.0)),
                                   rho2=float(rng.uniform(0.5, 2.0)),
                                   beta=float(rng.uniform(0.2, 2.0)),
                                   theta=float(rng.uniform(0.05, 0.5)))
        ch = sample_realization(cfg, 1002, int(rng.integers(0, 10 ** 6)))
        F = complex_normal(rng, (M, L))
        F = F / np.linalg.norm(F, axis=0)
        W = complex_normal(rng, (L, K))
        W = W / np.linalg.norm(W, axis=0)
        powers = rng.uniform(0.0, cfg.total_power / K, K)
        bf = BeamformerSet(F=F, W=W, powers=powers)
        report = rate_report(ch, bf, cfg)
        ref = oracles.report(ch.H, ch.G, F, W, powers, cfg.betas, cfg.thetas,
                             cfg.weights, cfg.sigma2, cfg.rho2)

        def reldiff(a, b):
            b = np.asarray(b)
            scale = np.maximum(np.abs(b), 1e-300)
            return float(np.max(np.abs(np.asarray(a) - b) / scale))

        for k in range(K):
            worst = max(worst, reldiff(report.sinr[k], ref["sinr"][k]))
            if ref["esnr"][k] != 0.0:
                worst = max(worst, reldiff(report.esnr[k], ref["esnr"][k]))
        worst = max(worst, reldiff(report.r_sum, ref["r_sum"]),
                    reldiff(report.r_sum_noeve, ref["r_sum_noeve"]),
                    reldiff(report.cost, ref["cost"]) if ref["cost"] else 0.0)
    elapsed = time.perf_counter() - t0
    verdict(1, "formula oracle equivalence", worst < 1e-12 and elapsed < 1.0,
            f"max rel diff {worst:.2e}, {elapsed:.2f}s")


def test_c02_constraint_suite():
    t0 = time.perf_counter()
    cfg = SystemConfig.uniform(M=64, K=16, J=2, L=16, total_power=1.0,
                               sigma2=1.0, rho2=1.0)
    norm_tol = 1e-12
    zf_checked = 0
    ok = True
    for scheme, bits in (("TAS_A", None), ("TAS_B", None),
                         ("HADP_A", None), ("HADP_B", 4)):
        for trial in range(1000):
            ch = sample_realization(cfg, 2001, trial)
            bf = build_beamformers(ch.H, cfg, scheme, bits)
            ok &= bool(np.max(np.abs(np.linalg.norm(bf.F, axis=0) - 1.0)) < norm_tol)
            ok &= bool(np.max(np.abs(np.linalg.norm(bf.W, axis=0) - 1.0)) < norm_tol)
            ok &= bool(bf.powers.sum() <= cfg.total_power * (1 + norm_tol))
            if scheme == "HADP_B":
                h_eff = bf.F.T @ ch.H
                if np.linalg.cond(h_eff) < 1e6:
                    zf_checked += 1
                    gains = h_eff.T @ bf.W
                    off = np.abs(gains - np.diag(np.diag(gains)))
                    ok &= bool(off.max() < 1e-8 * np.abs(np.diag(gains)).max())
            if not ok:
                break
    elapsed = time.perf_counter() - t0
    verdict(2, "beamformer constraint suite", ok and elapsed < 30.0,
            f"zf residual checked on {zf_checked} realizations, {elapsed:.1f}s")


def test_c03_extreme_value_check():
    t0 = time.perf_counter()
    check = gumbel_check(2 ** 14, 10_000, seed=0)
    h_m = oracles.harmonic_number(2 ** 14)
    mean_rel = abs(check.sample_mean_max - h_m) / h_m
    elapsed = time.perf_counter() - t0
    verdict(3, "extreme-value (Gumbel) check",
            check.ks_statistic < 0.03 and mean_rel < 0.01 and elapsed < 10.0,
            f"KS {check.ks_statistic:.4f}, mean max off by {mean_rel:.2%}, "
            f"{elapsed:.1f}s")


def test_c04_l1_norm_lln_check():
    t0 = time.perf_counter()
    m = 2 ** 12
    h = complex_normal(derived_rng(4001), (1000, m))
    mean_scaled_l1 = float(np.mean(np.abs(h).sum(axis=1) / m))
    target = np.sqrt(np.pi / 4.0)
    rel = abs(mean_scaled_l1 - target) / target
    elapsed = time.perf_counter() - t0
    verdict(4, "L1-norm LLN check", rel < 0.005 and elapsed < 5.0,
            f"mean {mean_scaled_l1:.6f} vs {target:.6f} ({rel:.3%}), {elapsed:.1f}s")


def test_c05_clt_check():
    t0 = time.perf_counter()
    ks = clt_check(256, 10_000, seed=0)
    var_s = float(np.var(phase_aligned_sums(256, 10_000, derived_rng(5001))))
    # Y: same statistic built from an independent eavesdropper-style pair
    rng = derived_rng(5002)
    h = complex_normal(rng, (10_000, 256))
    g = complex_normal(rng, (10_000, 256))
    y = (g * np.conj(h) / np.abs(h)).sum(axis=1) / np.sqrt(256)
    var_y = float(np.var(y))
    # aggregate overheard power through the actual transmit chain
    cfg = SystemConfig.uniform(M=256, K=1, J=16, L=1, total_power=1.0,
                               sigma2=1.0, rho2=1.0, theta=0.1)
    esnr_samples = np.array([run_trial(cfg, "HADP_A", None, 5003, t).esnr[0]
                             for t in range(10_000)])
    eve_mean = float(esnr_samples.mean())  # P_k = rho2 = 1: ESNR equals it
    elapsed = time.perf_counter() - t0
    ok = (ks < 0.02 and abs(var_s - 1.0) < 0.03 and abs(var_y - 1.0) < 0.03
          and abs(eve_mean - 1.6) / 1.6 < 0.03 and elapsed < 20.0)
    verdict(5, "CLT check", ok,
            f"KS {ks:.4f}, var(S) {var_s:.4f}, var(Y) {var_y:.4f}, "
            f"overheard mean {eve_mean:.4f} vs 1.6, {elapsed:.1f}s")


def test_c06_leakage_flatness(tas_sparse, hadp_sparse, sweep_times):
    details = []
    ok = True
    for name, sweep in (("TAS_A", tas_sparse), ("HADP_A", hadp_sparse)):
        slope, slope_se = regression_on_log2m(sweep.points)
        ok &= abs(slope) <= 2.0 * slope_se
        details.append(f"{name} slope {slope:+.5f} (se {slope_se:.5f})")
    elapsed = sweep_times["tas_sparse"] + sweep_times["hadp_sparse"]
    ok &= elapsed < 600.0
    verdict(6, "leakage flatness", ok, "; ".join(details) + f", sweeps {elapsed:.0f}s")


def test_c07_growth_law_separation(tas_sparse, hadp_sparse):
    m = [p.m for p in tas_sparse.points]
    tas_y = [p.r_sum_noeve_mean for p in tas_sparse.points]
    hadp_y = [p.r_sum_noeve_mean for p in hadp_sparse.points]
    r2_tas_loglog = fit_growth(m, tas_y, 16, "LOGLOG_GROWTH").r_squared
    r2_tas_log = fit_growth(m, tas_y, 16, "LOG_GROWTH").r_squared
    r2_hadp_log = fit_growth(m, hadp_y, 16, "LOG_GROWTH").r_squared
    r2_hadp_loglog = fit_growth(m, hadp_y, 16, "LOGLOG_GROWTH").r_squared
    ok = (r2_tas_loglog > 0.9 and r2_hadp_log > 0.9
          and r2_tas_log < r2_tas_loglog and r2_hadp_loglog < r2_hadp_log)
    verdict(7, "growth-law separation", ok,
            f"TAS loglog R2 {r2_tas_loglog:.4f} vs cross {r2_tas_log:.4f}; "
            f"HADP log R2 {r2_hadp_log:.4f} vs cross {r2_hadp_loglog:.4f}")


def test_c08_cost_decay_tracking(tas_sparse, hadp_sparse):
    details = []
    ok = True
    anchor = 4096
    for name, sweep, model in (("TAS_A", tas_sparse, "LOGLOG_COST"),
                               ("HADP_A", hadp_sparse, "LOG_COST")):
        m = np.array([p.m for p in sweep.points], dtype=float)
        c = np.array([p.cost_mean for p in sweep.points])
        fit = fit_cost_anchor(m, c, model, anchor)
        x = np.log2(np.log(m)) if model == "LOGLOG_COST" else np.log2(m)
        predicted = fit.intercept / x
        mask = m >= 256
        rel = np.abs(predicted[mask] / c[mask] - 1.0)
        ok &= bool(np.max(rel) <= 0.20)
        details.append(f"{name} max rel dev {np.max(rel):.1%}")
    verdict(8, "cost decay tracking", ok, "; ".join(details))


def test_c09_density_ordering(tas_sparse, tas_dense, sweep_times):
    sparse, dense = tas_sparse.points, tas_dense.points
    leak_ordered = all(d.leakage_mean > s.leakage_mean
                       for d, s in zip(dense, sparse))
    cost_ordered = all(d.cost_mean > s.cost_mean for d, s in zip(dense, sparse))
    at = [p.m for p in sparse].index(1024)
    leak_gap = dense[at].leakage_mean - sparse[at].leakage_mean
    leak_pool = np.hypot(dense[at].leakage_se, sparse[at].leakage_se)
    cost_gap = dense[at].cost_mean - sparse[at].cost_mean
    cost_pool = np.hypot(dense[at].cost_se, sparse[at].cost_se)
    ok = (leak_ordered and cost_ordered and leak_gap > 2 * leak_pool
          and cost_gap > 2 * cost_pool
          and sweep_times["tas_dense"] < 600.0)
    verdict(9, "density ordering", ok,
            f"leakage gap {leak_gap:.3f} vs 2se {2 * leak_pool:.3f}, "
            f"cost gap {cost_gap:.3f} vs 2se {2 * cost_pool:.3f} at m=1024")


def test_c10_quantization_behavior(hadp_quantized, sweep_times):
    fits = {}
    for bits, sweep in hadp_quantized.items():
        m = [p.m for p in sweep.points]
        y = [p.r_sum_noeve_mean for p in sweep.points]
        fits[bits] = fit_growth(m, y, 16, "LOG_GROWTH")
    slope_ref = fits[16].slope
    slope_ok = all(abs(fits[b].slope - slope_ref) / slope_ref <= 0.10
                   for b in (2, 4))
    intercept_ok = fits[2].intercept <= fits[4].intercept <= fits[16].intercept
    ok = slope_ok and intercept_ok and sweep_times["hadp_quantized"] < 900.0
    verdict(10, "quantization behavior", ok,
            f"slopes B2 {fits[2].slope:.4f} / B4 {fits[4].slope:.4f} / "
            f"B16 {slope_ref:.4f}; intercepts {fits[2].intercept:.2f} <= "
            f"{fits[4].intercept:.2f} <= {fits[16].intercept:.2f}")


def test_c11_determinism_across_workers(tmp_path):
    cfg = tmp_path / "det.cfg"
    cfg.write_text("preset: sparse\nscenario: det\nscheme: TAS_A\n"
                   "m_values: 64, 128\ntrials: 30\nseed: 77\n")
    outputs = []
    for workers in (1, 2, 8):
        out = tmp_path / f"w{workers}"
        assert cli_main(["sweep", str(cfg), "--out", str(out),
                         "--workers", str(workers)]) == 0
        outputs.append((out / "det_TAS_A.csv").read_bytes())
    ok = outputs[0] == outputs[1] == outputs[2]
    verdict(11, "determinism across workers", ok,
            f"{len(outputs[0])} CSV bytes identical for 1/2/8 workers")
