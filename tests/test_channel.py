import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mimosec import (ConfigurationError, MimosecError, SystemConfig,
                     complex_normal, derive_seed, derived_rng,
                     sample_realization)
from mimosec.channel import carve, trial_normals
from mimosec.config import MAX_SIZE


def make_cfg(**overrides):
    base = dict(M=8, K=4, J=2, L=4, total_power=1.0, sigma2=1.0, rho2=1.0)
    base.update(overrides)
    return SystemConfig.uniform(**base)


class TestSampleRealization:
    def test_shapes(self):
        ch = sample_realization(make_cfg(), 1, 0)
        assert ch.H.shape == (8, 4)
        assert ch.G.shape == (8, 2)

    def test_deterministic_in_seed_and_trial(self):
        cfg = make_cfg()
        a = sample_realization(cfg, 123, 7)
        b = sample_realization(cfg, 123, 7)
        assert np.array_equal(a.H, b.H)
        assert np.array_equal(a.G, b.G)

    def test_distinct_trials_differ(self):
        cfg = make_cfg()
        a = sample_realization(cfg, 123, 0)
        b = sample_realization(cfg, 123, 1)
        c = sample_realization(cfg, 124, 0)
        assert not np.array_equal(a.H, b.H)
        assert not np.array_equal(a.H, c.H)

    def test_rejects_non_config(self):
        with pytest.raises(ConfigurationError):
            sample_realization("not a config", 1, 0)

    @settings(max_examples=60, deadline=None)
    @given(M=st.integers(1, 40), K=st.integers(1, 8), J=st.integers(0, 8),
           wider=st.integers(0, 8), seed=st.integers(0, 2 ** 64),
           trial=st.integers(0, 2 ** 20))
    def test_any_realization_is_carved_from_a_wider_draw(self, M, K, J, wider, seed, trial):
        # The stream holds the x and then the y of H, then those of G, as
        # four consecutive draws; a draw of any greater width starts with them.
        rng = derived_rng(seed, trial)
        x, y, u, v = (rng.standard_normal((M, n)) for n in (K, K, J, J))
        normals = trial_normals(seed, trial, 2 * M * (K + J + wider))
        got = carve(normals, M, K, J)
        cfg = make_cfg(M=M, K=K, J=J, L=min(K, M))
        for ch in (got, sample_realization(cfg, seed, trial)):
            assert ch.H.tobytes() == ((x + 1j * y) / np.sqrt(2.0)).tobytes()
            assert ch.G.tobytes() == ((u + 1j * v) / np.sqrt(2.0)).tobytes()
        # An H carved before for this K is shared, not carved again.
        assert carve(normals, M, K, J, got.H).H is got.H

    @pytest.mark.parametrize("derive", [derived_rng, derive_seed])
    def test_negative_key_rejected(self, derive):
        with pytest.raises(MimosecError, match=r"key \(5, -2\) must be non-negative"):
            derive(5, -2)

    @pytest.mark.parametrize("derive", [derived_rng, derive_seed])
    @pytest.mark.parametrize("key", [(1.5,), (5, 2.5)])
    def test_non_integer_key_rejected(self, derive, key):
        with pytest.raises(MimosecError, match="must be non-negative integers"):
            derive(*key)


N_STAT = 100_000


@pytest.fixture(scope="module")
def entries():
    return complex_normal(derived_rng(42), N_STAT)


class TestChannelStatistics:
    N = N_STAT

    def test_unit_second_moment(self, entries):
        power = np.abs(entries) ** 2
        assert abs(power.mean() - 1.0) < 5.0 / np.sqrt(self.N)

    def test_gain_is_unit_mean_exponential(self, entries):
        # CDF of |h|^2 at 1 equals 1 - 1/e for Exp(1)
        empirical = np.mean(np.abs(entries) ** 2 <= 1.0)
        assert empirical == pytest.approx(1.0 - np.exp(-1.0), abs=0.01)

    def test_entries_uncorrelated(self):
        draws = complex_normal(derived_rng(43), (self.N, 2))
        a, b = draws[:, 0], draws[:, 1]
        corr = np.mean(a * np.conj(b)) - np.mean(a) * np.conj(np.mean(b))
        assert abs(corr) < 0.02
        # real-part correlation as a second, real-valued proxy
        r = np.corrcoef(a.real, b.real)[0, 1]
        assert abs(r) < 0.02


class TestConfigValidation:
    def test_l_cannot_exceed_m(self):
        with pytest.raises(ConfigurationError):
            make_cfg(M=4, L=8)

    def test_noise_variances_positive(self):
        with pytest.raises(ConfigurationError):
            make_cfg(sigma2=0.0)
        with pytest.raises(ConfigurationError):
            make_cfg(rho2=-1.0)
        for bad in (dict(sigma2=np.nan), dict(rho2=np.inf), dict(total_power=np.inf),
                    dict(beta=np.nan), dict(theta=np.inf), dict(weight=np.nan)):
            with pytest.raises(ConfigurationError):
                make_cfg(**bad)

    @pytest.mark.parametrize("field", ["M", "K", "J", "L"])
    def test_sizes_bounded(self, field):
        sizes = {"M": MAX_SIZE, "K": 4, "J": 2, "L": 4, field: MAX_SIZE + 1}
        with pytest.raises(ConfigurationError) as exc:
            SystemConfig(**sizes, total_power=1.0, sigma2=1.0, rho2=1.0,
                         betas=np.ones(1), thetas=np.ones(1), weights=np.ones(1))
        assert exc.value.field == field

    @pytest.mark.parametrize("field, value", [("M", 8.5), ("K", 2.5), ("J", 1.5), ("L", 2.5)])
    def test_non_integer_sizes_rejected(self, field, value):
        with pytest.raises(ConfigurationError, match="must be an integer") as exc:
            make_cfg(**{field: value})
        assert exc.value.field == field

    @pytest.mark.parametrize("field, value", [
        ("total_power", "1"), ("total_power", None), ("sigma2", "1"), ("sigma2", None),
        ("rho2", "1"), ("rho2", None), ("betas", "x"), ("thetas", "x"), ("weights", "x"),
        ("M", True), ("K", True), ("L", True), ("total_power", True), ("sigma2", True),
        ("betas", [True, False, True, True]), ("thetas", np.array([True, True])),
        ("weights", [1.0, np.True_, 1.0, 1.0]),
    ])
    def test_values_of_the_wrong_type_name_their_field(self, field, value):
        values = dict(M=8, K=4, J=2, L=4, total_power=1.0, sigma2=1.0, rho2=1.0,
                      betas=1.0, thetas=0.1, weights=1.0)
        with pytest.raises(ConfigurationError,
                           match=f"^{field} must be .*, got {re.escape(repr(value))}$") as exc:
            SystemConfig(**{**values, field: value})
        assert exc.value.field == field

    @pytest.mark.parametrize("field", ["betas", "thetas", "weights"])
    def test_a_config_owns_its_vectors(self, field):
        passed = {"betas": np.ones(4), "thetas": np.full(2, 0.1), "weights": np.ones(4)}
        cfg = SystemConfig(M=8, K=4, J=2, L=4, total_power=1.0, sigma2=1.0, rho2=1.0,
                           **passed)
        before = hash(cfg)
        passed[field][:] = -5.0
        assert np.all(getattr(cfg, field) > 0) and hash(cfg) == before
        with pytest.raises(ValueError, match="read-only"):
            getattr(cfg, field)[0] = -5.0

    def test_weights_default_to_one(self):
        cfg = SystemConfig(M=8, K=3, J=1, L=3, total_power=1.0, sigma2=1.0, rho2=1.0,
                           betas=1.0, thetas=0.1)
        assert np.array_equal(cfg.weights, np.ones(3))

    def test_equal_configs_compare_and_hash_by_value(self):
        a, b = make_cfg(M=16, beta=0.5), make_cfg(M=16, beta=0.5)
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1
        assert a != make_cfg(M=16, beta=0.25) and a != make_cfg(M=32, beta=0.5)

    def test_negative_gain_names_its_field(self):
        with pytest.raises(ConfigurationError, match="betas must be non-negative") as exc:
            make_cfg(beta=-1.0)
        assert exc.value.field == "betas"

    def test_weights_not_all_zero(self):
        with pytest.raises(ConfigurationError):
            make_cfg(weight=0.0)

    def test_vector_length_checked(self):
        with pytest.raises(ConfigurationError):
            SystemConfig(M=4, K=2, J=1, L=2, total_power=1.0, sigma2=1.0,
                         rho2=1.0, betas=np.ones(3), thetas=np.ones(1),
                         weights=np.ones(2))

    def test_snr_echo_of_sparse_profile(self):
        cfg = make_cfg(M=64, K=16, J=2, L=16, beta=1.0, theta=0.1)
        assert cfg.snr_user_db() == pytest.approx(np.zeros(16))
        assert cfg.snr_eve_db() == pytest.approx(np.full(2, -10.0))
