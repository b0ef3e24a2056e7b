import ast
import importlib
import importlib.util
import json
import logging
import os
import re
import subprocess
import sys
from collections import Counter
from concurrent.futures.process import BrokenProcessPool
from dataclasses import fields, replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import mimosec
import mimosec.beamforming as beamforming
import mimosec.harness as harness
from mimosec.config import MAX_SIZE
from mimosec import (ConfigurationError, DegenerateChannelError, MimosecError,
                     SingularChannelError, SweepSpec, SystemConfig,
                     build_beamformers, complex_normal, derive_seed, derived_rng,
                     run_sweep, run_sweeps, run_trial, sample_realization, sweep_trial)


ROOT = Path(__file__).resolve().parent.parent


def small_spec(scheme="TAS_A", quant_bits=None, J=2, trials=20,
               m_values=(8, 16), seed=5, K=4):
    return SweepSpec(scenario="unit", scheme=scheme, K=K, J=J, L=K,
                     total_power=1.0, sigma2=1.0, rho2=1.0,
                     betas=np.ones(K), thetas=np.full(J, 0.1),
                     weights=np.ones(K), m_values=m_values, trials=trials,
                     master_seed=seed, quant_bits=quant_bits)


def preset_cfg(M=32, K=4, J=2):
    return SystemConfig.uniform(M=M, K=K, J=J, L=K, total_power=1.0,
                                sigma2=1.0, rho2=1.0)


class TestSpecValidation:
    def test_m_values_must_increase(self):
        with pytest.raises(ConfigurationError):
            small_spec(m_values=(16, 8))

    def test_m_must_cover_rf_chains(self):
        with pytest.raises(ConfigurationError):
            small_spec(m_values=(2, 16))

    def test_quant_bits_only_for_hadp_b(self):
        with pytest.raises(ConfigurationError):
            small_spec(scheme="HADP_B")
        with pytest.raises(ConfigurationError):
            small_spec(scheme="TAS_A", quant_bits=4)

    def test_unknown_scheme(self):
        with pytest.raises(ConfigurationError):
            small_spec(scheme="TAS_C")

    @pytest.mark.parametrize("field, overrides", [
        ("m_values", dict(m_values=(8, MAX_SIZE + 1))),
        ("trials", dict(trials=MAX_SIZE + 1)),
        ("quant_bits", dict(scheme="HADP_B", quant_bits=53)),
    ])
    def test_sizes_bounded(self, field, overrides):
        with pytest.raises(ConfigurationError) as exc:
            small_spec(**overrides)
        assert exc.value.field == field

    @pytest.mark.parametrize("field, overrides", [
        ("master_seed", dict(seed=1.5)),
        ("m_values", dict(m_values=(8.7, 16))),
        ("trials", dict(trials=2.5)),
        ("quant_bits", dict(scheme="HADP_B", quant_bits=2.5)),
    ])
    def test_non_integers_rejected(self, field, overrides):
        with pytest.raises(ConfigurationError, match="must be an integer") as exc:
            small_spec(**overrides)
        assert exc.value.field == field

    @pytest.mark.parametrize("field, overrides", [
        ("K", dict(K=None)),
        ("scenario", dict(scenario=3)),
        ("m_values", dict(m_values=64)),
        ("total_power", dict(total_power="1")),
        ("trials", dict(trials=True)),
        ("master_seed", dict(master_seed=False)),
        ("m_values", dict(m_values=(True, 16))),
        ("rho2", dict(rho2=True)),
    ])
    def test_values_of_the_wrong_type_name_their_field(self, field, overrides):
        with pytest.raises(ConfigurationError, match=f"^{field} must be") as exc:
            replace(small_spec(), **overrides)
        assert exc.value.field == field

    def test_snrs_are_those_of_each_array_size(self):
        spec = replace(small_spec(), betas=np.array([0.5, 1.0, 2.0, 0.0]), total_power=3.0)
        for m in spec.m_values:
            cfg = spec.config_for(m)
            assert np.array_equal(spec.snr_user_db(), cfg.snr_user_db())
            assert np.array_equal(spec.snr_eve_db(), cfg.snr_eve_db())

    def test_dict_keys_in_manifest_order(self):
        assert list(small_spec().to_dict()) == [
            "scenario", "scheme", "K", "J", "L", "total_power", "sigma2", "rho2", "betas",
            "thetas", "weights", "m_values", "trials", "seed", "quant_bits", "cost_estimator"]


class TestRunTrial:
    def test_no_eavesdroppers_no_leakage(self):
        for scheme in ("TAS_A", "TAS_B", "HADP_A"):
            report = run_trial(preset_cfg(J=0), scheme, None, 3, 0)
            assert report.leakage == 0.0
            assert report.cost == 0.0

    @pytest.mark.parametrize("seed, trial_index", [(1.5, 1), (1, 1.5)])
    def test_non_integer_seed_or_trial_index_rejected(self, seed, trial_index):
        with pytest.raises(MimosecError, match="random stream key must be an integer"):
            run_trial(preset_cfg(), "TAS_A", None, seed, trial_index)

    def test_deterministic(self):
        cfg = preset_cfg()
        a = run_trial(cfg, "HADP_B", 4, 17, 2)
        b = run_trial(cfg, "HADP_B", 4, 17, 2)
        assert a.r_sum == b.r_sum
        assert np.array_equal(a.sinr, b.sinr)

    def test_fine_quantization_matches_unquantized_analog(self):
        cfg = preset_cfg()
        ch = sample_realization(cfg, 9, 0)
        fa = build_beamformers(ch.H, cfg, "HADP_A").F
        fb = build_beamformers(ch.H, cfg, "HADP_B", 16).F
        assert np.max(np.abs(np.angle(fb * np.conj(fa)))) <= 2 * np.pi / 2 ** 16

    @pytest.mark.parametrize("scheme, quant_bits", [("HADP_A", None), ("HADP_B", 3)])
    def test_a_given_phase_match_builds_the_same_bits(self, scheme, quant_bits):
        # The stage hook hands the build a phase match made before.
        cfg = preset_cfg()
        H = sample_realization(cfg, 13, 0).H
        own = build_beamformers(H, cfg, scheme, quant_bits)
        F, asked = beamforming.analog_phase_match(H), []
        given = build_beamformers(H, cfg, scheme, quant_bits,
                                  lambda key, make: asked.append(key) or F)
        assert asked == list(beamforming.shared_stages(cfg, scheme)) == [("phase match", 4)]
        assert own.F.tobytes() == given.F.tobytes() and own.W.tobytes() == given.W.tobytes()
        assert (given.F is F) == (scheme == "HADP_A")

    @pytest.mark.parametrize("scheme, quant_bits, message", [
        ("TAS_C", None, "unknown scheme 'TAS_C'"), ("HADP_B", None, "HADP_B requires quant_bits")])
    def test_a_build_the_scheme_does_not_define_is_rejected(self, scheme, quant_bits, message):
        cfg = preset_cfg()
        with pytest.raises(ConfigurationError, match=f"^{re.escape(message)}$"):
            build_beamformers(sample_realization(cfg, 15, 0).H, cfg, scheme, quant_bits)

    @pytest.mark.parametrize("shape", [(16, 3), (16, 5), (20, 4), (8, 4)])
    @pytest.mark.parametrize("scheme, quant_bits", [
        ("TAS_A", None), ("TAS_B", None), ("HADP_A", None), ("HADP_B", 3)])
    def test_a_channel_that_does_not_fit_the_config_is_rejected(self, scheme, quant_bits,
                                                                shape):
        H = complex_normal(derived_rng(14), shape)
        with pytest.raises(ConfigurationError, match=re.escape(
                f"H has shape {shape}, but cfg has (M, K) = (16, 4)")):
            build_beamformers(H, preset_cfg(M=16), scheme, quant_bits)

    def test_construction_ignores_eavesdropper_channels(self):
        cfg = preset_cfg()
        ch = sample_realization(cfg, 21, 0)
        for scheme, qb in (("TAS_A", None), ("TAS_B", None),
                           ("HADP_A", None), ("HADP_B", 6)):
            bf = build_beamformers(ch.H, cfg, scheme, qb)
            again = build_beamformers(ch.H.copy(), cfg, scheme, qb)
            assert np.array_equal(bf.F, again.F)
            assert np.array_equal(bf.W, again.W)

    def test_beamformer_set_invariants(self):
        cfg = preset_cfg()
        ch = sample_realization(cfg, 33, 0)
        for scheme, qb in (("TAS_A", None), ("TAS_B", None),
                           ("HADP_A", None), ("HADP_B", 3)):
            bf = build_beamformers(ch.H, cfg, scheme, qb)
            assert np.allclose(np.linalg.norm(bf.F, axis=0), 1.0, rtol=1e-12)
            assert np.allclose(np.linalg.norm(bf.W, axis=0), 1.0, rtol=1e-12)
            assert bf.powers.sum() <= cfg.total_power * (1 + 1e-12)


class TestRunSweep:
    def test_single_trial_flags_standard_errors(self):
        result = run_sweep(small_spec(trials=1))
        for point in result.points:
            assert point.r_sum_se == 0.0
            assert point.cost_se == 0.0

    def test_repeatable(self):
        a = run_sweep(small_spec())
        b = run_sweep(small_spec())
        assert a.points == b.points

    def test_worker_count_does_not_change_results(self):
        # 19 trials go out in blocks of 4, 2 and 1 for 1, 2 and 3 workers,
        # the last block of 4 and of 2 short; 0 workers runs serially
        a = run_sweep(small_spec(trials=19), workers=1)
        for workers in (0, 2, 3):
            assert run_sweep(small_spec(trials=19), workers=workers).points == a.points

    def test_empty_sweep(self):
        result = run_sweep(small_spec(m_values=()))
        assert result.points == ()

    def test_degenerate_draws_resampled_and_counted(self, monkeypatch, caplog):
        real_run_trial = harness.run_trial

        def flaky(cfg, scheme, quant_bits, seed, trial_index, trial=None):
            # One worker takes 19 trials in blocks of 4: trials 5 and 6 are
            # inside the second block.  Only their first attempts at the
            # second m fail, one for each cause.
            if cfg.M == 16 and trial_index == 5:
                raise DegenerateChannelError("injected")
            if cfg.M == 16 and trial_index == 6:
                raise SingularChannelError("injected")
            return real_run_trial(cfg, scheme, quant_bits, seed, trial_index, trial=trial)

        monkeypatch.setattr(harness, "run_trial", flaky)
        with caplog.at_level(logging.INFO, logger="mimosec.harness"):
            result = run_sweep(small_spec(trials=19, m_values=(8, 16, 32)))
        assert [p.resamples for p in result.points] == [0, 2, 0]
        assert np.isfinite(result.points[1].r_sum_mean)
        per_m = caplog.messages[1:]
        assert "(19 trials, 0 resampled: 0 zero coefficient, 0 ill-conditioned, " in per_m[0]
        assert "(19 trials, 2 resampled: 1 zero coefficient, 1 ill-conditioned, " in per_m[1]
        assert "(19 trials, 0 resampled: 0 zero coefficient, 0 ill-conditioned, " in per_m[2]

    @pytest.mark.parametrize("cause", [DegenerateChannelError, SingularChannelError])
    def test_resampling_gives_up_after_the_budget(self, monkeypatch, cause):
        calls = []

        def always_degenerate(cfg, scheme, quant_bits, seed, trial_index, trial=None):
            calls.append(trial_index)
            raise cause("injected")

        monkeypatch.setattr(harness, "run_trial", always_degenerate)
        with pytest.raises(cause):
            sweep_trial(small_spec(trials=4), 16, 1)
        # The first draw and _MAX_RESAMPLES redraws, each a sweep length on.
        assert calls == [1 + 4 * a for a in range(harness._MAX_RESAMPLES + 1)]

    def test_cost_estimators_agree_in_scale(self):
        from dataclasses import replace
        ratios = run_sweep(small_spec(trials=50))
        means = run_sweep(replace(small_spec(trials=50),
                                  cost_estimator="ratio_of_means"))
        for a, b in zip(ratios.points, means.points):
            assert b.cost_mean == pytest.approx(a.cost_mean, abs=0.05)
            assert 0.0 <= b.cost_mean <= 1.0

    @pytest.mark.parametrize("trials, field, value",
                             [(3, "betas", 0.0), (1, "betas", 1.0), (3, "thetas", 0.0)],
                             ids=["zero_no_eavesdropper_rate", "one_trial", "no_leakage"])
    def test_ratio_of_means_at_its_edges(self, trials, field, value):
        # A zero mean no-eavesdropper rate and a sweep with nothing overheard
        # cost exactly nothing, and one trial has no SE.
        spec = small_spec(trials=trials)
        spec = replace(spec, **{field: np.full_like(getattr(spec, field), value)},
                       cost_estimator="ratio_of_means")
        for p in run_sweep(spec).points:
            assert p.cost_se == 0.0
            assert p.cost_mean == (1.0 - p.r_sum_mean / p.r_sum_noeve_mean if value else 0.0)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.one_of(st.just((0.0, 0.0)),
                              st.tuples(st.floats(1e-100, 10.0), st.floats(0.0, 1.0))),
                    min_size=1, max_size=60))
    def test_aggregate_is_one_pass_over_the_outcome(self, trials):
        # trials: (r_sum_noeve, r_sum / r_sum_noeve) per trial, some all zero.
        # Nonzero rates above 1e-100 keep the means clear of subnormal
        # doubles, which hold too few bits for the oracle's tolerance.
        n = len(trials)
        outcome = np.zeros((harness._COLUMNS, n))
        outcome[1] = [noeve for noeve, _ in trials]
        outcome[0] = [noeve * share for noeve, share in trials]
        outcome[2] = outcome[1] - outcome[0]
        outcome[3] = [1.0 - x / y if y else 0.0 for x, y in zip(outcome[0], outcome[1])]
        kept = outcome.copy()
        spec = small_spec(trials=n)
        p = harness._aggregate(spec, 8, outcome)
        q = harness._aggregate(replace(spec, cost_estimator="ratio_of_means"), 8, outcome)
        assert np.array_equal(outcome, kept)
        stats = [(p.r_sum_mean, p.r_sum_se), (p.r_sum_noeve_mean, p.r_sum_noeve_se),
                 (p.leakage_mean, p.leakage_se), (p.cost_mean, p.cost_se)]
        for row, (mean, se) in zip(outcome, stats):
            assert mean == np.mean(row)
            assert se == (np.std(row, ddof=1) / np.sqrt(n) if n > 1 else 0.0)
        assert stats[:3] == [(q.r_sum_mean, q.r_sum_se), (q.r_sum_noeve_mean, q.r_sum_noeve_se),
                             (q.leakage_mean, q.leakage_se)]
        noeve = np.mean(outcome[1])
        assert q.cost_mean == (1.0 - np.mean(outcome[0]) / noeve if noeve else 0.0)
        assert q.cost_se == pytest.approx(oracles.ratio_cost_se(outcome[0], outcome[1]),
                                          rel=1e-9, abs=1e-12)
        # Nothing leaks: every trial's r_sum is its r_sum_noeve.
        outcome[0] = outcome[1]
        outcome[2:4] = 0.0
        for estimator in ("mean_of_ratios", "ratio_of_means"):
            p = harness._aggregate(replace(spec, cost_estimator=estimator), 8, outcome)
            assert (p.cost_mean, p.cost_se) == (0.0, 0.0)

    def test_cost_decreases_with_array_size(self):
        # relative secrecy cost shrinks as the array grows (within 1 SE)
        spec = SweepSpec(scenario="trend", scheme="TAS_A", K=4, J=2, L=4,
                         total_power=1.0, sigma2=1.0, rho2=1.0,
                         betas=np.ones(4), thetas=np.full(2, 0.1),
                         weights=np.ones(4), m_values=(16, 64, 256, 1024),
                         trials=100, master_seed=12)
        result = run_sweep(spec)
        costs = [p.cost_mean for p in result.points]
        ses = [p.cost_se for p in result.points]
        for i in range(len(costs) - 1):
            slack = np.hypot(ses[i], ses[i + 1])
            assert costs[i + 1] < costs[i] + slack

    @pytest.mark.parametrize("scheme", ["TAS_A", "TAS_B"])
    def test_selection_sweep_builds_no_dense_one_hot(self, monkeypatch, scheme):
        def dense(*args):
            raise AssertionError("dense one-hot matrix built on the sweep path")

        spec = small_spec(scheme=scheme, trials=3)
        expected = run_sweep(spec).points
        monkeypatch.setattr(beamforming, "analog_selection_matrix", dense)
        assert run_sweep(spec, workers=1).points == expected

    def test_worker_count_above_the_ceiling_starts_no_process(self, pool_sizes):
        with pytest.raises(ConfigurationError, match=f"at most {harness.MAX_WORKERS}"):
            run_sweep(small_spec(), workers=harness.MAX_WORKERS + 1)
        assert pool_sizes == []

    @pytest.mark.parametrize("workers", [2.0, 1.5, "2", None, True])
    def test_non_integer_worker_count_rejected(self, pool_sizes, workers):
        with pytest.raises(ConfigurationError, match="workers must be an integer"):
            run_sweep(small_spec(), workers=workers)
        assert pool_sizes == []

    @pytest.mark.parametrize("trials, m_values, processes", [
        (1, (8,), None), (1, (8, 16), 2), (3, (8, 16), 6)])
    def test_no_more_processes_than_blocks(self, pool_sizes, trials, m_values, processes):
        spec = small_spec(trials=trials, m_values=m_values)
        assert run_sweep(spec, workers=8).points == run_sweep(spec, workers=1).points
        assert pool_sizes == ([] if processes is None else [processes])

    @pytest.mark.parametrize("numpy_first", [False, True])
    def test_verbose_log_reports_dispatch_and_time_per_m(self, caplog, monkeypatch,
                                                         numpy_first):
        monkeypatch.setitem(mimosec.SETTINGS, "numpy_before_pin", numpy_first)
        with caplog.at_level(logging.INFO, logger="mimosec.harness"):
            run_sweep(small_spec(trials=19), workers=2)
        head, *per_m = caplog.messages
        assert "2 workers, 2 trials per block, env " in head
        for var in mimosec.BLAS_THREAD_VARS:
            assert f"{var}={mimosec.SETTINGS['blas_threads'][var]}" in head
        assert ("set after numpy loaded" in head) == numpy_first
        assert [line.split(":")[0] for line in per_m] == ["unit TAS_A m=8", "unit TAS_A m=16"]
        assert all(line.endswith(" s)") for line in per_m)

    @pytest.mark.parametrize("heap_kept, tunables, heap", [
        (True, "", "heap kept between trials"),
        (False, "", "heap left to the C library (no mallopt)"),
        (False, "glibc.malloc.top_pad=0", "heap left to the C library (malloc set by the user)")])
    def test_verbose_log_reports_the_heap_setting(self, caplog, monkeypatch, heap_kept,
                                                  tunables, heap):
        # The record an import would make on a C library whose mallopt works,
        # or not, with these tunables at start-up.
        heap_left = mimosec.keep_heap(TestHeap.FakeLibc(int(heap_kept)),
                                      {"GLIBC_TUNABLES": tunables})
        monkeypatch.setitem(mimosec.SETTINGS, "heap_left", heap_left)
        with caplog.at_level(logging.INFO, logger="mimosec.harness"):
            run_sweep(small_spec(trials=1, m_values=(8,)), workers=1)
        assert caplog.messages[0].endswith(f", {heap}")

    # A sweep of one trial that logs to stdout, in a fresh interpreter after
    # ``import mimosec`` and a change to the environment.
    ONE_TRIAL = """if True:
        import logging, os, sys
        import mimosec
        import numpy as np
        {change}
        logging.basicConfig(level=logging.INFO, format="%(message)s", stream=sys.stdout)
        mimosec.run_sweep(mimosec.SweepSpec(
            scenario="unit", scheme="TAS_A", K=2, J=1, L=2, total_power=1.0, sigma2=1.0,
            rho2=1.0, betas=np.ones(2), thetas=np.full(1, 0.1), weights=np.ones(2),
            m_values=(8,), trials=1, master_seed=5))
    """

    @pytest.mark.parametrize("env, change, reported", [
        ({}, 'os.environ["OPENBLAS_NUM_THREADS"] = "4"', " OPENBLAS_NUM_THREADS=1 "),
        ({"MALLOC_TOP_PAD_": "0"}, 'del os.environ["MALLOC_TOP_PAD_"]',
         ", heap left to the C library (malloc set by the user)")], ids=["blas", "heap"])
    def test_verbose_log_reports_the_settings_as_the_import_left_them(self, fresh_python,
                                                                      env, change, reported):
        """BLAS reads its variables and glibc its malloc settings once, at
        start-up, so a later change to os.environ alters neither; the log
        says what the process runs with."""
        head = fresh_python(self.ONE_TRIAL.format(change=change), **env).splitlines()[0]
        assert reported in head


def shared_specs():
    """Sweeps of one config: the first three share seed, K and J with
    different trial counts, m grids and schemes; the fourth differs in seed
    and the fifth in J."""
    wide, narrow = tuple(2 ** e for e in range(6, 13)), tuple(2 ** e for e in range(6, 11))
    return [small_spec("TAS_A", trials=44, m_values=wide),
            small_spec("TAS_B", trials=22, m_values=narrow),
            small_spec("HADP_B", quant_bits=4, trials=22, m_values=wide),
            small_spec("HADP_A", trials=22, m_values=narrow, seed=6),
            small_spec("HADP_A", J=3, trials=22, m_values=narrow)]


def hybrid_specs():
    """Sweeps of one seed sharing a phase match: HADP_B at 2, 4 and 16 bits,
    then HADP_A at two J, which read the match after every quantizer has.
    At these sizes 2 and 4 bits take quantize_phases' table path and 16
    bits its direct path."""
    return [*(small_spec("HADP_B", quant_bits=bits, trials=4) for bits in (2, 4, 16)),
            small_spec("HADP_A", trials=6), small_spec("HADP_A", J=3, trials=6)]


def tas_specs():
    """Sweeps shaped like the benchmark's ``tas`` workload: two of 44 trials
    over m = 64..4096 and one of 22 over m = 64..1024."""
    wide, narrow = tuple(2 ** e for e in range(6, 13)), tuple(2 ** e for e in range(6, 11))
    return [small_spec("TAS_A", trials=44, m_values=wide),
            small_spec("TAS_A", J=3, trials=44, m_values=wide),
            small_spec("TAS_B", trials=22, m_values=narrow)]


def made(spec):
    """What ``spec`` makes from H, as ``run_sweeps`` plans its blocks."""
    return (beamforming.build_key(spec, spec.scheme, spec.quant_bits),
            *beamforming.shared_stages(spec, spec.scheme))


def trial_streams(specs):
    """Distinct trial streams of a run of ``specs``: one per (seed, m, trial
    index) of any of them."""
    return {(derive_seed(s.master_seed, m), t) for s in specs for m in s.m_values
            for t in range(s.trials)}


class TestRunSweeps:
    @pytest.mark.parametrize("specs, workers", [
        *(pytest.param(shared_specs(), w, id=f"shared-w{w}") for w in (1, 2, 3)),
        pytest.param(tas_specs(), 2, id="tas-w2")])
    def test_every_sweep_of_a_block_runs_all_its_trials(self, specs, workers):
        # Specs of one master seed form a group, whose blocks span at most
        # a quarter per worker of its largest trial count.
        group_trials = Counter()
        for spec in specs:
            group_trials[spec.master_seed] = max(group_trials[spec.master_seed], spec.trials)
        runs = Counter()
        for m, lo, hi, members, _ in harness._tasks(specs, [made(s) for s in specs], workers):
            for i, spec in members:
                block = max(1, group_trials[spec.master_seed] // (4 * workers))
                assert spec is specs[i] and spec.trials >= hi and hi - lo <= block
                runs.update((i, m, t) for t in range(lo, hi))
        assert runs == Counter((i, m, t) for i, spec in enumerate(specs)
                               for m in spec.m_values for t in range(spec.trials))

    def test_equal_to_each_sweep_run_alone(self):
        for specs in (shared_specs(), hybrid_specs()):
            alone = [run_sweep(spec).points for spec in specs]
            for workers in (0, 1, 2, 3):
                results = run_sweeps(specs, workers=workers)
                assert [r.spec for r in results] == specs
                assert [r.points for r in results] == alone

    def test_each_shared_channel_is_drawn_once(self, monkeypatch):
        specs = shared_specs()
        drawn = Counter()
        real = harness.trial_normals

        def counting(seed, trial_index, count):
            drawn[seed, trial_index] += 1
            return real(seed, trial_index, count)

        monkeypatch.setattr(harness, "trial_normals", counting)
        run_sweeps(specs, workers=1)
        assert set(drawn.values()) == {1}
        assert set(drawn) == trial_streams(specs)
        # Fewer draws than one per (seed, K, J, m, trial index), the sweeps
        # with J = 2 and J = 3 sharing theirs.
        assert len(drawn) < len({(s.master_seed, s.K, s.J, m, t) for s in specs
                                 for m in s.m_values for t in range(s.trials)})

    def test_each_draw_is_phase_matched_once_and_built_once_per_setting(self, monkeypatch):
        # Two HADP_A sweeps that differ in J alone share their builds; the
        # HADP_B sweeps quantize the same phase match on both paths.
        specs = hybrid_specs()
        alone = [run_sweep(spec).points for spec in specs]
        matched, built = Counter(), Counter()
        real_match, real_build = beamforming.analog_phase_match, harness.build_beamformers

        def matching(H):
            matched[H.tobytes()] += 1
            return real_match(H)

        def building(H, cfg, scheme, *args):
            built[scheme] += 1
            return real_build(H, cfg, scheme, *args)

        monkeypatch.setattr(beamforming, "analog_phase_match", matching)
        monkeypatch.setattr(harness, "build_beamformers", building)
        assert [r.points for r in run_sweeps(specs, workers=1)] == alone
        assert set(matched.values()) == {1}
        assert len(matched) == 6 * 2
        assert built == {"HADP_A": 6 * 2, "HADP_B": 3 * 4 * 2}

    def test_each_analog_stage_forms_f_t_h_once_per_trial(self, monkeypatch):
        # Sparse and dense HADP_A share F, and HADP_B's zero forcing and
        # report share its F^T H: two (K x K) products of the trial's H.
        specs = [small_spec("HADP_A", m_values=(16,), trials=1),
                 small_spec("HADP_A", J=5, m_values=(16,), trials=1),
                 small_spec("HADP_B", quant_bits=4, m_values=(16,), trials=1)]
        products = []  # kept alive, so that distinct products have distinct ids
        real_effective, real_zf = beamforming.BeamformerSet.effective, beamforming.zf_effective

        def effective(bf, X):
            product = real_effective(bf, X)
            if X.shape[1] == 4:  # H, not G, whose J is 2 or 5
                products.append(product)
            return product

        def zero_forcing(H_eff):
            products.append(H_eff)
            return real_zf(H_eff)

        monkeypatch.setattr(beamforming.BeamformerSet, "effective", effective)
        monkeypatch.setattr(beamforming, "zf_effective", zero_forcing)
        results = run_sweeps(specs, workers=1)
        assert [p.resamples for r in results for p in r.points] == [0, 0, 0]
        assert len({id(product) for product in products}) == 2

    def test_each_sweep_of_a_block_is_billed_an_equal_share_of_the_draw(self, monkeypatch):
        # A fake clock that the draw advances by 3 s and each sweep's own
        # trial by its own amount: each sweep is billed 3 s / 3 plus its own.
        clock = [0.0]
        own = {"TAS_A": 0.5, "HADP_A": 0.25, "HADP_B": 2.0}
        report = SimpleNamespace(r_sum=1.0, r_sum_noeve=1.0, leakage=0.0, cost=0.0)

        def draw(group, t):
            clock[0] += 3.0

        def evaluate(cfg, scheme, *args, trial=None):
            clock[0] += own[scheme]
            return report

        monkeypatch.setattr(harness.time, "perf_counter", lambda: clock[0])
        monkeypatch.setattr(harness._Group, "draw", draw)
        monkeypatch.setattr(harness, "run_trial", evaluate)
        specs = [small_spec("TAS_A"), small_spec("HADP_A"), small_spec("HADP_B", quant_bits=4)]
        block = harness._block_task((16, 2, 5, tuple(enumerate(specs)), frozenset()))
        assert block[:, -1].tolist() == [[1.0 + own[spec.scheme]] * 3 for spec in specs]

    @pytest.mark.parametrize("sent", [0, 1], ids=["while_sending", "while_awaiting"])
    def test_a_lost_worker_names_the_block_awaited(self, monkeypatch, sent):
        # The pool breaks before any block is sent, or after the first result.
        class LostPool:
            def __init__(self, max_workers, **worker_setup):
                pass

            def shutdown(self, **how):
                pass

            def map(self, fn, tasks):
                def results():
                    yield fn(tasks[0])
                    raise BrokenProcessPool("lost")
                if not sent:
                    raise BrokenProcessPool("lost")
                return results()

        monkeypatch.setattr(harness, "ProcessPoolExecutor", LostPool)
        spec = small_spec(trials=16)
        m, lo, hi, *_ = harness._tasks([spec], [made(spec)], 2)[sent]
        with pytest.raises(MimosecError, match=r"^a worker process ended abruptly \(killed, or "
                           rf"out of memory\); no result for m={m}, trials {lo}\.\.{hi - 1}$"):
            run_sweeps([spec], workers=2)

    def test_trials_outside_a_sweep_draw_every_time(self, monkeypatch):
        drawn = []
        real = harness.sample_realization
        monkeypatch.setattr(harness, "sample_realization",
                            lambda *args: drawn.append(args) or real(*args))
        for _ in range(3):
            run_trial(preset_cfg(), "HADP_A", None, 17, 2)
        assert len(drawn) == 3

    def test_a_shared_channel_is_read_only(self, monkeypatch):
        real = harness.build_beamformers

        def overwriting(H, *args):
            H[0, 0] = 0.0
            return real(H, *args)

        monkeypatch.setattr(harness, "build_beamformers", overwriting)
        with pytest.raises(ValueError, match="read-only"):
            run_sweeps(shared_specs()[:2], workers=1)

    def test_resample_in_one_sweep_leaves_the_others_unchanged(self, monkeypatch):
        specs = shared_specs()[:3]
        alone = [run_sweep(spec).points for spec in specs]
        real_run_trial = harness.run_trial

        def flaky(cfg, scheme, quant_bits, seed, trial_index, trial=None):
            # The first attempt of HADP_B's trial 3 fails at every m and is
            # redrawn from trial index 3 + 22; the other sweeps still use
            # the shared draw of trial 3.
            if scheme == "HADP_B" and trial_index == 3:
                raise SingularChannelError("injected")
            return real_run_trial(cfg, scheme, quant_bits, seed, trial_index, trial=trial)

        monkeypatch.setattr(harness, "run_trial", flaky)
        results = run_sweeps(specs, workers=1)
        assert [r.points for r in results[:2]] == alone[:2]
        assert [p.resamples for p in results[2].points] == [1] * 7
        assert results[2].points != alone[2]
        assert results[2].points == run_sweep(specs[2]).points

    def test_verbose_head_names_the_sweeps_sharing_draws(self, caplog):
        specs = [replace(s, scenario=f"s{i}", m_values=(8,), trials=2)
                 for i, s in enumerate(shared_specs() + [small_spec("HADP_A")])]
        with caplog.at_level(logging.INFO, logger="mimosec.harness"):
            run_sweeps(specs, workers=1)
        heads = caplog.messages[:len(specs)]
        # Draws are shared by master seed alone, builds by equal schemes and
        # transmit-side settings: s4 and s5 differ in J only.
        assert heads[0].endswith(
            "; shares channel draws with s1 TAS_B, s2 HADP_B, s4 HADP_A, s5 HADP_A")
        assert heads[1].endswith(
            "; shares channel draws with s0 TAS_A, s2 HADP_B, s4 HADP_A, s5 HADP_A")
        # The hybrids of one K share a phase match, listed unless the build is.
        assert heads[2].endswith(
            "; shares channel draws with s0 TAS_A, s1 TAS_B, s4 HADP_A, s5 HADP_A"
            "; shares a phase match with s4 HADP_A, s5 HADP_A")
        assert "shares" not in heads[3]
        assert heads[4].endswith("; shares channel draws with s0 TAS_A, s1 TAS_B, s2 HADP_B, "
                                 "s5 HADP_A; shares beamformer builds with s5 HADP_A"
                                 "; shares a phase match with s2 HADP_B")
        assert heads[5].endswith("; shares channel draws with s0 TAS_A, s1 TAS_B, s2 HADP_B, "
                                 "s4 HADP_A; shares beamformer builds with s4 HADP_A"
                                 "; shares a phase match with s2 HADP_B")
        per_m = caplog.messages[len(specs):]
        assert sorted(line.split(":")[0] for line in per_m) == [
            f"s{i} {s.scheme} m=8" for i, s in enumerate(specs)]

    def test_sweeps_of_one_seed_and_no_common_size_share_nothing(self, caplog):
        # Equal master seed but disjoint array sizes: no block holds both,
        # so neither a draw nor a build is shared.
        specs = [small_spec(trials=3, m_values=(16,)),
                 replace(small_spec(trials=5, m_values=(32,)), scenario="other")]
        with caplog.at_level(logging.INFO, logger="mimosec.harness"):
            run_sweeps(specs, workers=1)
        heads = caplog.messages[:len(specs)]
        assert [head.split(":")[0] for head in heads] == ["unit TAS_A", "other TAS_A"]
        assert not any("shares" in head for head in heads)

    def test_verbose_head_reports_each_sweeps_largest_block(self, caplog):
        # One worker cuts the group's 40 trials in blocks of 10; the sweep
        # of 3 trials runs in one block of 3, the first block cut at its end.
        specs = [small_spec(trials=40, m_values=(8,)),
                 replace(small_spec(trials=3, m_values=(8,)), scenario="short")]
        with caplog.at_level(logging.INFO, logger="mimosec.harness"):
            run_sweeps(specs, workers=1)
        heads = caplog.messages[:len(specs)]
        assert ": 1 workers, 10 trials per block, " in heads[0]
        assert ": 1 workers, 3 trials per block, " in heads[1]

    def test_a_sweep_leaves_the_module_state_alone(self, monkeypatch):
        # What a trial shares with the other sweeps is handed to it, not
        # left in a module global that changes what run_trial does.
        real, calls = harness.rate_report, []

        def checking(*args):
            calls.append(args)
            now = vars(harness)
            assert now.keys() == before.keys()
            assert [name for name in now if now[name] is not before[name]] == []
            return real(*args)

        monkeypatch.setattr(harness, "rate_report", checking)
        before = dict(vars(harness))
        run_sweeps(shared_specs()[:3], workers=1)
        assert calls


def drawn(specs, t, m=24):
    """Trial t of ``specs``, sweeps of one group with one trial at m, drawn
    as the block of their sweep draws it."""
    (_, _, _, members, reused), = harness._tasks(specs, [made(s) for s in specs], 1)
    return harness._Group(m, [spec for _, spec in members], reused).draw(t)


def outcome(cfg, scheme, quant_bits, seed, t, trial=None):
    """The bytes of every field of ``run_trial``'s report, or the type of
    the degeneracy it raises."""
    try:
        report = run_trial(cfg, scheme, quant_bits, seed, t, trial=trial)
    except tuple(harness.RESAMPLE_CAUSES) as exc:
        return type(exc)
    return [np.asarray(getattr(report, f.name)).tobytes() for f in fields(report)]


class TestTrial:
    @pytest.mark.parametrize("scheme", mimosec.SCHEMES)
    @settings(max_examples=25, deadline=None)
    @given(K=st.integers(1, 5), J=st.integers(0, 4), wider_K=st.integers(0, 3),
           wider_J=st.integers(1, 3), t=st.integers(0, 1000))
    def test_a_shared_trial_reports_as_one_drawn_alone(self, scheme, K, J, wider_K,
                                                       wider_J, t):
        quant_bits = 4 if scheme == "HADP_B" else None
        # The draw is made for a wider (K, J) than the last sweep's, and its
        # build, and a hybrid's phase match, is shared with a sibling that
        # differs in J alone and is evaluated first.
        trial = drawn([small_spec("HADP_A", K=K + wider_K, J=J + wider_J, m_values=(24,),
                                  trials=1),
                       small_spec(scheme, quant_bits, K=K, J=J + wider_J, m_values=(24,),
                                  trials=1),
                       small_spec(scheme, quant_bits, K=K, J=J, m_values=(24,), trials=1)], t)
        sibling, use = trial.uses[1:]
        assert beamforming.build_key(*use) in trial.reused
        outcome(*sibling, trial.seed, t, trial)
        alone = outcome(*use, trial.seed, t)
        assert outcome(*use, trial.seed, t, trial) == alone

    def test_a_build_made_for_one_use_is_dropped_after_its_report(self):
        # Three quantizers of one K share the phase match alone: each build
        # goes with its report, so at large M the trial holds one M x K match.
        trial = drawn([small_spec("HADP_B", bits, m_values=(24,), trials=1)
                       for bits in (2, 4, 16)], 0)
        for use in trial.uses:
            trial.report(*use)
            assert list(trial.built) == [("phase match", 4)]


def benchmark_traced() -> dict:
    """The ``TRACED`` dict of perfbench/inproc.py, read without importing the
    benchmark: the harness globals it patches by name, and their layers."""
    tree = ast.parse((ROOT / "perfbench" / "inproc.py").read_text())
    traced = next(node.value for node in tree.body if isinstance(node, ast.Assign)
                  and [getattr(t, "id", None) for t in node.targets] == ["TRACED"])
    return ast.literal_eval(traced)


def test_every_name_the_benchmark_traces_is_bound_in_the_harness():
    """perfbench/inproc.py traces a sweep by patching, by name, the harness
    globals listed in its ``TRACED`` dict, so a name the harness stops
    binding breaks ``perfbench/run.py --trace 1``.  This test goes when the
    benchmark stops patching the harness (ROADMAP item 1)."""
    names = benchmark_traced()
    assert names
    assert [name for name in names if not callable(getattr(harness, name, None))] == []


def import_problems(path: Path, allowed=()) -> list:
    """What the module at ``path`` imports and never uses, but for the names
    of ``allowed``, and each private name it imports from the package: one
    that starts with ``_`` and is not a dunder.  A name counts as used where
    the module reads it, or lists it in ``__all__``."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used |= {item.value for node in ast.walk(tree) if isinstance(node, ast.Assign)
             and [getattr(t, "id", None) for t in node.targets] == ["__all__"]
             for item in node.value.elts}
    problems = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound = [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            bound = [alias.asname or alias.name for alias in node.names]
            if node.level or (node.module or "").split(".")[0] == "mimosec":
                problems += [f"{path.name}:{node.lineno} imports the private {alias.name}"
                             for alias in node.names if alias.name.startswith("_")
                             and not (alias.name.startswith("__") and alias.name.endswith("__"))]
        else:
            continue
        problems += [f"{path.name}:{node.lineno} imports {name} and never uses it"
                     for name in bound if name not in used and name not in allowed]
    return problems


def test_no_module_imports_a_name_it_never_uses_or_a_private_one():
    """A seam kept only for another program, or a private name used across
    modules, shows as an import here; the harness alone may import, unused,
    a name the benchmark traces.  Read with ``ast``, since no linter ships
    with the package."""
    modules = sorted((ROOT / "src" / "mimosec").glob("*.py"))
    assert len(modules) > 5
    assert [problem for path in modules for problem in import_problems(
        path, benchmark_traced() if path.name == "harness.py" else ())] == []


@pytest.mark.parametrize("source, problem", [
    ("from .harness import _Group\n_Group(8, [])\n",
     "imports the private _Group"),
    ("import os\nfrom . import __version__\nprint(__version__)\n", "imports os and never uses it"),
    ("from numpy import linalg as la\n", "imports la and never uses it"),
], ids=["private", "unused_module", "unused_alias"])
def test_the_import_check_finds_each_kind_of_problem(tmp_path, source, problem):
    (tmp_path / "module.py").write_text(source)
    assert [p.split(" ", 1)[1] for p in import_problems(tmp_path / "module.py")] == [problem]


def test_every_name_the_benchmark_imports_is_bound_in_mimosec():
    """perfbench/inproc.py imports names from ``mimosec`` and its modules
    (``mimosec.cli``, ``mimosec.errors``), so a name they stop binding
    breaks ``perfbench/run.py``.  The imports are read without importing
    the benchmark."""
    tree = ast.parse((ROOT / "perfbench" / "inproc.py").read_text())
    imported = [(node.module, alias.name) for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.module
                and node.module.split(".")[0] == "mimosec" for alias in node.names]
    assert imported
    assert [(module, name) for module, name in imported
            if not hasattr(importlib.import_module(module), name)] == []


def test_the_benchmarks_oracle_check_passes(monkeypatch):
    """perfbench/run.py runs ``oracle_check`` of perfbench/inproc.py, which
    calls ``build_beamformers`` and ``rate_report`` as a library user does,
    so a change to either that breaks the benchmark fails here.  Loading
    the benchmark writes no bytecode next to it."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("inproc", ROOT / "perfbench" / "inproc.py")
    inproc = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inproc)
    specs = [small_spec(scheme, 4 if scheme == "HADP_B" else None, m_values=(16,), trials=3)
             for scheme in mimosec.SCHEMES]
    assert inproc.oracle_check(specs, 7) == []


def test_the_traced_benchmark_emits_every_layer_metric():
    """``perfbench/run.py --trace 1`` times the kernels of every layer, so a
    change to one that breaks the traced run, or the set of metrics it
    prints, fails here (about 6 s on two cores).  It writes no bytecode."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    argv = ["--workload", "tas", "--seed", "1", "--seconds", "1", "--trace", "1"]
    out = subprocess.run([sys.executable, *bench["command"][1:], *argv], cwd=ROOT,
                         capture_output=True, text=True, timeout=180,
                         env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"})
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0
    assert set(result["metrics"]) == {metric["name"] for metric in bench["per_layer"]}


class TestBlasThreads:
    PRINT_VARS = ("import mimosec, os; "
                  "print(*(os.environ[v] for v in mimosec.BLAS_THREAD_VARS))")

    def test_pinned_to_one_on_import(self, fresh_python):
        assert fresh_python(self.PRINT_VARS).split() == ["1", "1", "1"]

    def test_value_set_by_the_user_wins(self, fresh_python):
        out = fresh_python(self.PRINT_VARS, OPENBLAS_NUM_THREADS="3")
        assert out.split() == ["3", "1", "1"]

    @pytest.mark.parametrize("imports, late", [("mimosec", "False"),
                                               ("numpy, mimosec", "True")])
    def test_records_numpy_loaded_first(self, fresh_python, imports, late):
        code = f"import {imports}; print(mimosec.SETTINGS['numpy_before_pin'])"
        assert fresh_python(code).strip() == late


class TestHeap:
    def test_trials_past_the_first_fault_in_no_pages(self, fresh_python):
        pytest.importorskip("resource")
        code = """if True:
            import resource
            import mimosec
            from mimosec import SystemConfig, run_trial
            cfg = SystemConfig.uniform(M=4096, K=16, J=16, L=16, total_power=1.0,
                                       sigma2=1.0, rho2=1.0)
            run_trial(cfg, "HADP_B", 4, 7, 0)
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            for t in range(1, 6):
                run_trial(cfg, "HADP_B", 4, 7, t)
            print(mimosec.SETTINGS["heap_left"] is None,
                  resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
        """
        kept, faults = fresh_python(code).split()
        if kept != "True":
            pytest.skip("no working mallopt in this C library")
        assert int(faults) < 100

    @pytest.mark.parametrize("env", [{"MALLOC_TRIM_THRESHOLD_": "131072"},
                                     {"GLIBC_TUNABLES": "glibc.malloc.trim_threshold=131072"}])
    def test_malloc_set_by_the_user_wins(self, fresh_python, env):
        code = "import mimosec; print(mimosec.SETTINGS['heap_left'] is None)"
        assert fresh_python(code, **env).strip() == "False"

    class FakeLibc:
        """A C library whose ``mallopt`` records its calls and returns ``ok``."""

        def __init__(self, ok):
            self.ok, self.calls = ok, []

        def mallopt(self, param, value):
            self.calls.append((param, value))
            return self.ok

    @pytest.mark.parametrize("libc", [object(), FakeLibc(0)], ids=["no mallopt", "musl"])
    def test_without_a_working_mallopt_nothing_is_set(self, libc):
        assert mimosec.keep_heap(libc, {}) == "no mallopt"

    def test_sets_the_mmap_then_the_trim_threshold(self):
        libc = self.FakeLibc(1)
        other = {"GLIBC_TUNABLES": "glibc.rtld.optional_static_tls=512"}
        assert mimosec.keep_heap(libc, other) is None
        assert libc.calls == [(-3, 32 << 20), (-1, 64 << 20)]

    def test_user_setting_is_left_alone(self):
        libc = self.FakeLibc(1)
        assert mimosec.keep_heap(libc, {"MALLOC_TOP_PAD_": "0"}) == "malloc set by the user"
        assert libc.calls == []
