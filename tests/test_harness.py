import logging
import os
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

import mimosec
import mimosec.beamforming as beamforming
import mimosec.harness as harness
from mimosec.config import MAX_SIZE
from mimosec import (ConfigurationError, DegenerateChannelError,
                     SingularChannelError, SweepSpec, SystemConfig,
                     build_beamformers, run_sweep, run_sweeps, run_trial,
                     sample_realization)


def small_spec(scheme="TAS_A", quant_bits=None, J=2, trials=20,
               m_values=(8, 16), seed=5):
    K = 4
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


class TestRunTrial:
    def test_no_eavesdroppers_no_leakage(self):
        for scheme in ("TAS_A", "TAS_B", "HADP_A"):
            report = run_trial(preset_cfg(J=0), scheme, None, 3, 0)
            assert report.leakage == 0.0
            assert report.cost == 0.0

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

        def flaky(cfg, scheme, quant_bits, seed, trial_index):
            # One worker takes 19 trials in blocks of 4: trials 5 and 6 are
            # inside the second block.  Only their first attempts at the
            # second m fail, one for each cause.
            if cfg.M == 16 and trial_index == 5:
                raise DegenerateChannelError("injected")
            if cfg.M == 16 and trial_index == 6:
                raise SingularChannelError("injected")
            return real_run_trial(cfg, scheme, quant_bits, seed, trial_index)

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

        def always_degenerate(cfg, scheme, quant_bits, seed, trial_index):
            calls.append(trial_index)
            raise cause("injected")

        monkeypatch.setattr(harness, "run_trial", always_degenerate)
        with pytest.raises(cause):
            harness._trial_with_resampling(preset_cfg(), "TAS_A", None, 7, 1, 4)
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

    @pytest.mark.parametrize("trials, m_values, processes", [
        (1, (8,), None), (1, (8, 16), 2), (3, (8, 16), 6)])
    def test_no_more_processes_than_blocks(self, pool_sizes, trials, m_values, processes):
        spec = small_spec(trials=trials, m_values=m_values)
        assert run_sweep(spec, workers=8).points == run_sweep(spec, workers=1).points
        assert pool_sizes == ([] if processes is None else [processes])

    @pytest.mark.parametrize("numpy_first", [False, True])
    def test_verbose_log_reports_dispatch_and_time_per_m(self, caplog, monkeypatch,
                                                         numpy_first):
        monkeypatch.setattr(harness, "NUMPY_BEFORE_PIN", numpy_first)
        with caplog.at_level(logging.INFO, logger="mimosec.harness"):
            run_sweep(small_spec(trials=19), workers=2)
        head, *per_m = caplog.messages
        assert "2 workers, 2 trials per block, env " in head
        for var in mimosec.BLAS_THREAD_VARS:
            assert f"{var}={os.environ.get(var, 'unset')}" in head
        assert ("set after numpy loaded" in head) == numpy_first
        assert [line.split(":")[0] for line in per_m] == ["unit TAS_A m=8", "unit TAS_A m=16"]
        assert all(line.endswith(" s)") for line in per_m)


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


def shared_draws(specs):
    """Distinct channel draws of a run of ``specs``: one per (seed, K, J, m,
    trial index) of any of them."""
    return {(s.master_seed, s.K, s.J, m, t) for s in specs for m in s.m_values
            for t in range(s.trials)}


class TestRunSweeps:
    def test_equal_to_each_sweep_run_alone(self):
        specs = shared_specs()
        alone = [run_sweep(spec).points for spec in specs]
        for workers in (0, 1, 2, 3):
            results = run_sweeps(specs, workers=workers)
            assert [r.spec for r in results] == specs
            assert [r.points for r in results] == alone

    def test_each_shared_channel_is_drawn_once(self, monkeypatch):
        specs = shared_specs()
        drawn = Counter()
        real = harness.sample_realization

        def counting(cfg, seed, trial_index):
            drawn[cfg.M, cfg.K, cfg.J, seed, trial_index] += 1
            return real(cfg, seed, trial_index)

        monkeypatch.setattr(harness, "sample_realization", counting)
        run_sweeps(specs, workers=1)
        assert set(drawn.values()) == {1}
        assert len(drawn) == len(shared_draws(specs))
        assert len(drawn) < sum(s.trials * len(s.m_values) for s in specs)

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

        def flaky(cfg, scheme, quant_bits, seed, trial_index):
            # The first attempt of HADP_B's trial 3 fails at every m and is
            # redrawn from trial index 3 + 22; the other sweeps still use
            # the shared draw of trial 3.
            if scheme == "HADP_B" and trial_index == 3:
                raise SingularChannelError("injected")
            return real_run_trial(cfg, scheme, quant_bits, seed, trial_index)

        monkeypatch.setattr(harness, "run_trial", flaky)
        results = run_sweeps(specs, workers=1)
        assert [r.points for r in results[:2]] == alone[:2]
        assert [p.resamples for p in results[2].points] == [1] * 7
        assert results[2].points != alone[2]
        assert results[2].points == run_sweep(specs[2]).points

    def test_verbose_head_names_the_sweeps_sharing_draws(self, caplog):
        specs = [replace(s, scenario=f"s{i}", m_values=(8,), trials=2)
                 for i, s in enumerate(shared_specs())]
        with caplog.at_level(logging.INFO, logger="mimosec.harness"):
            run_sweeps(specs, workers=1)
        heads = caplog.messages[:len(specs)]
        assert heads[0].endswith("; shares channel draws with s1 TAS_B, s2 HADP_B")
        assert heads[1].endswith("; shares channel draws with s0 TAS_A, s2 HADP_B")
        assert heads[2].endswith("; shares channel draws with s0 TAS_A, s1 TAS_B")
        assert all("shares" not in head for head in heads[3:])
        per_m = caplog.messages[len(specs):]
        assert sorted(line.split(":")[0] for line in per_m) == [
            f"s{i} {s.scheme} m=8" for i, s in enumerate(specs)]


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
        code = f"import {imports}; print(mimosec.NUMPY_BEFORE_PIN)"
        assert fresh_python(code).strip() == late
