import numpy as np
import pytest

import oracles
from mimosec import (FitError, MimosecError, clt_check, derived_rng,
                     fit_cost_anchor, fit_growth, gumbel_check,
                     phase_aligned_sums)

EULER_MASCHERONI = 0.5772156649015329


class TestFitGrowth:
    def test_exact_loglog_recovery(self):
        m = np.array([8, 16, 64, 256, 1024, 4096])
        K = 4
        y = 3.0 + 0.5 * K * np.log2(np.log(m))
        fit = fit_growth(m, y, K, "LOGLOG_GROWTH")
        assert fit.intercept == pytest.approx(3.0, abs=1e-10)
        assert fit.slope == pytest.approx(0.5, abs=1e-10)
        assert fit.residual_rms == pytest.approx(0.0, abs=1e-10)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_exact_log_recovery(self):
        m = np.array([4, 8, 16, 32])
        y = -1.0 + 0.25 * 2 * np.log2(m)
        fit = fit_growth(m, y, 2, "LOG_GROWTH")
        assert fit.intercept == pytest.approx(-1.0, abs=1e-10)
        assert fit.slope == pytest.approx(0.25, abs=1e-10)

    def test_degenerate_regressor_rejected(self):
        with pytest.raises(FitError):
            fit_growth([16, 16, 16], [1.0, 2.0, 3.0], 1, "LOG_GROWTH")

    def test_too_few_points_rejected(self):
        with pytest.raises(FitError):
            fit_growth([8, 16], [1.0, 2.0], 1, "LOG_GROWTH")

    def test_loglog_needs_m_at_least_three(self):
        with pytest.raises(MimosecError):
            fit_growth([2, 8, 32], [1.0, 2.0, 3.0], 1, "LOGLOG_GROWTH")

    def test_unknown_model_rejected(self):
        with pytest.raises(MimosecError):
            fit_growth([8, 16, 32], [1, 2, 3], 1, "CUBIC")

    @pytest.mark.parametrize("K, match", [
        (float("nan"), "K must be an integer"), (2.5, "K must be an integer"),
        (0, "K must be at least 1, got 0"), (-2, "K must be at least 1, got -2"),
    ])
    def test_user_count_not_a_positive_integer_rejected(self, K, match):
        with pytest.raises(MimosecError, match=match):
            fit_growth([4, 8, 16], [1.0, 2.0, 3.0], K, "LOG_GROWTH")

    @pytest.mark.parametrize("m, y", [
        ([4, 8, 16], [1.0, float("nan"), 3.0]),
        ([4, 8, 16], [1.0, 2.0, float("inf")]),
        ([4, float("nan"), 16], [1.0, 2.0, 3.0]),
        ([4, 8, 10 ** 400], [1.0, 2.0, 3.0]),
    ])
    def test_non_finite_data_rejected(self, m, y):
        with pytest.raises(FitError, match="finite"):
            fit_growth(m, y, 1, "LOG_GROWTH")

    def test_constant_data_is_fit_exactly(self):
        fit = fit_growth([8, 16, 32], [2.5, 2.5, 2.5], 1, "LOG_GROWTH")
        assert fit.slope == pytest.approx(0.0, abs=1e-12)
        assert fit.intercept == pytest.approx(2.5, rel=1e-12)
        assert fit.r_squared == 1.0


class TestFitCostAnchor:
    def test_zero_anchor_gives_zero_model(self):
        fit = fit_cost_anchor([64, 256], [0.5, 0.0], "LOG_COST", 256)
        assert fit.intercept == 0.0

    def test_exact_model_has_zero_residual(self):
        m = np.array([16, 64, 256, 1024])
        eps = 0.42
        c = eps / np.log2(np.log(m))
        fit = fit_cost_anchor(m, c, "LOGLOG_COST", 1024)
        assert fit.intercept == pytest.approx(eps, rel=1e-12)
        assert fit.residual_rms == pytest.approx(0.0, abs=1e-12)

    def test_log_cost_needs_m_at_least_two(self):
        # c = A / log2 m divides by zero at m = 1.
        with pytest.raises(MimosecError):
            fit_cost_anchor([1, 64], [0.5, 0.1], "LOG_COST", 64)

    def test_missing_anchor_rejected(self):
        with pytest.raises(MimosecError):
            fit_cost_anchor([16, 64], [0.1, 0.2], "LOG_COST", 128)

    def test_unknown_model_rejected(self):
        with pytest.raises(MimosecError, match="unknown cost model 'LOG_GROWTH'"):
            fit_cost_anchor([16, 64], [0.1, 0.2], "LOG_GROWTH", 64)

    def test_empty_vectors_rejected(self):
        with pytest.raises(FitError, match="non-empty"):
            fit_cost_anchor([], [], "LOG_COST", 64)

    @pytest.mark.parametrize("m, c", [
        ([16, 64], [0.1, float("nan")]),
        ([16, 64], [float("inf"), 0.1]),
        ([16, float("nan"), 64], [0.3, 0.2, 0.1]),
        ([16, 10 ** 400, 64], [0.3, 0.2, 0.1]),
    ])
    def test_non_finite_data_rejected(self, m, c):
        with pytest.raises(FitError, match="finite"):
            fit_cost_anchor(m, c, "LOG_COST", 64)

    def test_anchor_past_a_doubles_range_rejected(self):
        with pytest.raises(FitError, match="finite anchor m0"):
            fit_cost_anchor([4, 8, 16], [0.5, 0.4, 0.3], "LOG_COST", 10 ** 400)


class TestGumbelCheck:
    def test_mean_max_matches_harmonic_number(self):
        check = gumbel_check(4096, 10_000, seed=0)
        assert check.sample_mean_max == pytest.approx(
            oracles.harmonic_number(4096), rel=0.01)

    def test_small_m_is_not_gumbel(self):
        # at m=1 the shifted max is Exp(1), far from the limit law
        check = gumbel_check(1, 2000, seed=0)
        assert check.ks_statistic > 0.1

    def test_ks_statistic_shrinks_with_m(self):
        ks = [gumbel_check(m, 10_000, seed=1).ks_statistic
              for m in (2 ** 4, 2 ** 8, 2 ** 12)]
        assert ks[0] >= ks[1] >= ks[2]

    def test_shifted_mean_approaches_euler_mascheroni(self):
        check = gumbel_check(2 ** 14, 10_000, seed=6)
        assert check.sample_mean_shifted == pytest.approx(EULER_MASCHERONI,
                                                          rel=0.02)
        # cross-check against the exact finite-m mean
        exact = oracles.harmonic_number(2 ** 14) - np.log(2 ** 14)
        assert exact == pytest.approx(EULER_MASCHERONI, rel=1e-4)

    @pytest.mark.parametrize("m, trials, name", [(2.5, 5, "m"), (4, 2.5, "trials")])
    def test_non_integer_sizes_rejected(self, m, trials, name):
        with pytest.raises(MimosecError, match=f"{name} must be an integer"):
            gumbel_check(m, trials, 1)


class TestCltCheck:
    def test_exact_at_m_one(self):
        # a CN(0,1) entry times an independent unit phase is CN(0,1)
        assert clt_check(1, 10_000, seed=2) < 0.02

    def test_converged_at_moderate_m(self):
        assert clt_check(256, 10_000, seed=2) < 0.02

    def test_unit_variance(self):
        s = phase_aligned_sums(256, 10_000, derived_rng(3))
        assert np.var(s) == pytest.approx(1.0, rel=0.03)
        assert abs(np.mean(s)) < 0.03

    @pytest.mark.parametrize("m, trials, name", [(2.5, 5, "m"), (4, 2.5, "trials")])
    def test_non_integer_sizes_rejected(self, m, trials, name):
        with pytest.raises(MimosecError, match=f"{name} must be an integer"):
            clt_check(m, trials, 1)

    @pytest.mark.parametrize("m, trials, name", [(0, 3, "m"), (-1, 3, "m"), (4, 0, "trials")])
    def test_sums_need_a_positive_size(self, m, trials, name):
        with pytest.raises(MimosecError, match=f"{name} must be between 1 and"):
            phase_aligned_sums(m, trials, derived_rng(3))
