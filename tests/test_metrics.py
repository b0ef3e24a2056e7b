from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from mimosec import (SCHEMES, BeamformerSet, ChannelRealization, ConfigurationError,
                     DegenerateChannelError, InfeasibleSelectionError, MimosecError,
                     SingularChannelError, SwitchedBeamformerSet,
                     SystemConfig, analog_selection_matrix, build_beamformers,
                     complex_normal, derived_rng, rate_report,
                     sample_realization, zf_effective)
from mimosec.channel import carve, trial_normals


def single_link_setup(h=1.0 + 0j, g=None, P=2.0, beta=1.0, theta=0.1,
                      sigma2=1.0, rho2=1.0):
    J = 0 if g is None else 1
    cfg = SystemConfig.uniform(M=1, K=1, J=J, L=1, total_power=P,
                               sigma2=sigma2, rho2=rho2, beta=beta,
                               theta=theta)
    G = np.zeros((1, J), dtype=complex)
    if g is not None:
        G[0, 0] = g
    ch = ChannelRealization(H=np.array([[h]]), G=G)
    bf = BeamformerSet(F=np.eye(1, dtype=complex), W=np.eye(1, dtype=complex),
                       powers=np.array([P]))
    return ch, bf, cfg


def random_instance(seed, M=4, K=2, J=2):
    cfg = SystemConfig.uniform(M=M, K=K, J=J, L=K, total_power=1.5,
                               sigma2=0.8, rho2=1.2, beta=0.9, theta=0.2)
    ch = sample_realization(cfg, 4040, seed)
    bf = build_beamformers(ch.H, cfg, "TAS_A")
    return ch, bf, cfg


class TestSinr:
    def test_single_link(self):
        ch, bf, cfg = single_link_setup()
        assert rate_report(ch, bf, cfg).sinr[0] == pytest.approx(2.0)

    def test_zero_forcing_kills_interference(self):
        cfg = SystemConfig.uniform(M=8, K=4, J=0, L=8, total_power=1.0,
                                   sigma2=0.5, rho2=1.0)
        ch = sample_realization(cfg, 11, 0)
        W = zf_effective(ch.H)
        bf = BeamformerSet(F=np.eye(8, dtype=complex), W=W,
                           powers=np.full(4, 0.25))
        sinr = rate_report(ch, bf, cfg).sinr
        for k in range(4):
            expected = (0.25 * abs(ch.H[:, k] @ W[:, k]) ** 2) / 0.5
            assert sinr[k] == pytest.approx(expected, rel=1e-12)

    def test_dimension_mismatch_rejected(self):
        ch, bf, cfg = single_link_setup()
        bad = SystemConfig.uniform(M=2, K=1, J=0, L=1, total_power=1.0,
                                   sigma2=1.0, rho2=1.0)
        with pytest.raises(ConfigurationError):
            rate_report(ch, bf, bad)


class TestEsnr:
    def test_no_eavesdroppers(self):
        ch, bf, cfg = single_link_setup()
        assert rate_report(ch, bf, cfg).esnr[0] == 0.0

    def test_single_eavesdropper(self):
        ch, bf, cfg = single_link_setup(g=1.0 + 0j, P=1.0, theta=0.1)
        assert rate_report(ch, bf, cfg).esnr[0] == pytest.approx(0.1)


class TestRateReport:
    def test_unit_sinr_no_eavesdropper(self):
        # SINR 1, ESNR 0: one secure bit, no leakage, no cost
        ch, bf, cfg = single_link_setup(P=1.0)
        report = rate_report(ch, bf, cfg)
        assert report.r_sum == pytest.approx(1.0)
        assert report.r_sum_noeve == pytest.approx(1.0)
        assert report.leakage == pytest.approx(0.0)
        assert report.cost == 0.0

    def test_dominated_by_eavesdropper(self):
        # ESNR >= SINR for the single user: zero secrecy, full cost
        ch, bf, cfg = single_link_setup(g=10.0 + 0j, P=1.0, theta=1.0)
        report = rate_report(ch, bf, cfg)
        assert report.r_sum == 0.0
        assert report.cost == 1.0

    def test_zero_rate_network_has_zero_cost(self):
        # user channel orthogonal to its beam: R_sum_noeve = 0 -> cost 0
        cfg = SystemConfig.uniform(M=2, K=1, J=1, L=1, total_power=1.0,
                                   sigma2=1.0, rho2=1.0)
        ch = ChannelRealization(H=np.array([[0.0], [1.0]], dtype=complex),
                                G=np.array([[1.0], [0.0]], dtype=complex))
        bf = BeamformerSet(F=np.array([[1.0], [0.0]], dtype=complex),
                           W=np.eye(1, dtype=complex), powers=np.array([1.0]))
        report = rate_report(ch, bf, cfg)
        assert report.r_sum_noeve == 0.0
        assert report.cost == 0.0

    @pytest.mark.parametrize("powers", [[1.0], [1.0, 1.0, 1.0]])
    def test_powers_of_the_wrong_length_rejected(self, powers):
        ch, bf, cfg = random_instance(0)
        bad = BeamformerSet(F=bf.F, W=bf.W, powers=np.array(powers))
        with pytest.raises(ConfigurationError, match="powers must be a length-K vector"):
            rate_report(ch, bad, cfg)

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_scalar_loop_oracle(self, seed):
        ch, bf, cfg = random_instance(seed)
        report = rate_report(ch, bf, cfg)
        expected = oracles.report(ch.H, ch.G, bf.F, bf.W, bf.powers,
                                  cfg.betas, cfg.thetas, cfg.weights,
                                  cfg.sigma2, cfg.rho2)
        assert report.sinr == pytest.approx(expected["sinr"], rel=1e-12)
        assert report.esnr == pytest.approx(expected["esnr"], rel=1e-12)
        assert report.r_sum == pytest.approx(expected["r_sum"], rel=1e-12)
        assert report.leakage == pytest.approx(expected["leakage"], abs=1e-12)
        assert report.cost == pytest.approx(expected["cost"], abs=1e-12)


class TestReportProperties:
    @pytest.mark.parametrize("seed", range(10))
    def test_bound_chain(self, seed):
        ch, bf, cfg = random_instance(seed, M=6, K=3, J=2)
        report = rate_report(ch, bf, cfg)
        assert 0.0 <= report.r_sum <= report.r_sum_noeve + 1e-15
        assert 0.0 <= report.cost <= 1.0
        assert np.all(report.r_secrecy <= report.r_noeve + 1e-15)
        assert np.all(report.r_secrecy >= 0.0)

    @pytest.mark.parametrize("seed", range(10))
    def test_stronger_eavesdroppers_cost_more(self, seed):
        ch, bf, cfg = random_instance(seed, M=6, K=3, J=2)
        boosted_cfg = SystemConfig(M=cfg.M, K=cfg.K, J=cfg.J, L=cfg.L,
                                   total_power=cfg.total_power,
                                   sigma2=cfg.sigma2, rho2=cfg.rho2,
                                   betas=cfg.betas, thetas=cfg.thetas * 3.0,
                                   weights=cfg.weights)
        base = rate_report(ch, bf, cfg)
        boosted = rate_report(ch, bf, boosted_cfg)
        assert boosted.r_sum <= base.r_sum + 1e-15
        assert boosted.cost >= base.cost - 1e-15

    @pytest.mark.parametrize("seed", range(5))
    def test_cost_invariant_to_weight_scale(self, seed):
        ch, bf, cfg = random_instance(seed, M=5, K=2, J=2)
        scaled_cfg = SystemConfig(M=cfg.M, K=cfg.K, J=cfg.J, L=cfg.L,
                                  total_power=cfg.total_power,
                                  sigma2=cfg.sigma2, rho2=cfg.rho2,
                                  betas=cfg.betas, thetas=cfg.thetas,
                                  weights=cfg.weights * 7.5)
        base = rate_report(ch, bf, cfg)
        scaled = rate_report(ch, bf, scaled_cfg)
        assert scaled.cost == pytest.approx(base.cost, abs=1e-12)
        assert scaled.r_sum == pytest.approx(7.5 * base.r_sum, rel=1e-12)


REPORT_KEYS = ("sinr", "esnr", "r_secrecy", "r_noeve", "r_sum", "r_sum_noeve",
               "leakage", "cost")


class TestSwitchedBeamformerSet:
    def instance(self, M=5, K=2, J=2):
        cfg = SystemConfig.uniform(M=M, K=K, J=J, L=K, total_power=1.0,
                                   sigma2=1.0, rho2=1.0, theta=0.2)
        ch = sample_realization(cfg, 77, 0)
        return ch, np.eye(K, dtype=complex), np.full(K, 0.5), cfg

    @pytest.mark.parametrize("idx, error, detail", [
        ([0, -1], MimosecError, "out of range"),
        ([0, 5], MimosecError, "out of range"),
        ([3, 3], InfeasibleSelectionError, "distinct"),
        ([], InfeasibleSelectionError, "non-empty"),
        ([[0, 1]], InfeasibleSelectionError, "non-empty"),
    ], ids=["negative", "M", "duplicate", "empty", "2-D"])
    def test_bad_selection_rejected(self, idx, error, detail):
        # A gather would wrap -1 to the last antenna; the set refuses it.
        ch, W, powers, cfg = self.instance()
        with pytest.raises(error, match=detail):
            rate_report(ch, SwitchedBeamformerSet(np.array(idx, dtype=int), cfg.M, W,
                                                  powers), cfg)

    def test_effective_is_the_row_gather(self):
        ch, W, powers, cfg = self.instance()
        bf = SwitchedBeamformerSet(np.array([4, 1]), cfg.M, W, powers)
        assert np.array_equal(bf.effective(ch.H), ch.H[[4, 1]])
        assert np.array_equal(bf.F, analog_selection_matrix([4, 1], cfg.M))

    def test_dimension_mismatch_rejected(self):
        ch, W, powers, cfg = self.instance()
        with pytest.raises(ConfigurationError):
            rate_report(ch, SwitchedBeamformerSet(np.array([4, 1, 0]), cfg.M, W, powers),
                        cfg)
        with pytest.raises(ConfigurationError):
            rate_report(ch, SwitchedBeamformerSet(np.array([4, 1]), cfg.M + 1, W, powers),
                        cfg)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_report_matches_dense_one_hot_and_oracle(self, data):
        M = data.draw(st.integers(1, 10))
        L = data.draw(st.integers(1, M))
        K = data.draw(st.integers(1, 4))
        J = data.draw(st.integers(0, 3))
        idx = np.array(data.draw(st.permutations(range(M)))[:L])
        self.check_against_dense_and_oracle(M, L, K, J, idx, data.draw(st.integers(0, 2 ** 32)))

    def test_small_secrecy_rate_matches_oracle(self):
        # r_secrecy[3] is about 3e-5, the clipped difference of two rates
        # of about 3e-4; the two computations differ in its 12th digit.
        self.check_against_dense_and_oracle(8, 1, 4, 1, np.array([5]), 1048576)

    @staticmethod
    def check_against_dense_and_oracle(M, L, K, J, idx, seed):
        rng = derived_rng(seed)
        cfg = SystemConfig.uniform(M=M, K=K, J=J, L=L, total_power=1.0,
                                   sigma2=float(rng.uniform(0.5, 2.0)),
                                   rho2=float(rng.uniform(0.5, 2.0)),
                                   beta=float(rng.uniform(0.2, 2.0)),
                                   theta=float(rng.uniform(0.05, 0.5)))
        ch = ChannelRealization(H=complex_normal(rng, (M, K)), G=complex_normal(rng, (M, J)))
        W = complex_normal(rng, (L, K))
        W /= np.linalg.norm(W, axis=0)
        powers = rng.uniform(0.0, 1.0 / K, K)
        bf = SwitchedBeamformerSet(idx, M, W, powers)
        got = rate_report(ch, bf, cfg)
        dense = rate_report(ch, BeamformerSet(F=analog_selection_matrix(idx, M), W=W,
                                              powers=powers), cfg)
        ref = oracles.report(ch.H, ch.G, bf.F, W, powers, cfg.betas, cfg.thetas,
                             cfg.weights, cfg.sigma2, cfg.rho2)
        # Differences of rates are compared absolutely, at the rounding
        # error of the rates they difference: leakage and cost of the sums,
        # r_secrecy of the per-user rates.
        absolute = {"leakage": 1e-12, "cost": 1e-12,
                    "r_secrecy": 1e-12 * max(ref["r_noeve"])}
        for key in REPORT_KEYS:
            tol = dict(rel=1e-12, abs=absolute.get(key, 0.0))
            value = getattr(got, key)
            assert value == pytest.approx(getattr(dense, key), **tol)
            assert value == pytest.approx(ref[key], **tol)

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_every_scheme_gives_a_dense_f(self, scheme):
        # perfbench and the oracle read bf.F as an M x L matrix for every scheme.
        cfg = SystemConfig.uniform(M=12, K=3, J=2, L=4, total_power=1.0,
                                   sigma2=1.0, rho2=1.0)
        ch = sample_realization(cfg, 78, 0)
        bf = build_beamformers(ch.H, cfg, scheme, 4 if scheme == "HADP_B" else None)
        assert isinstance(bf.F, np.ndarray) and bf.F.shape == (cfg.M, bf.L)
        assert np.allclose(bf.F.T @ ch.H, bf.effective(ch.H), rtol=1e-12, atol=1e-14)
        ref = oracles.report(ch.H, ch.G, bf.F, bf.W, bf.powers, cfg.betas, cfg.thetas,
                             cfg.weights, cfg.sigma2, cfg.rho2)
        assert rate_report(ch, bf, cfg).r_sum == pytest.approx(ref["r_sum"], rel=1e-12)


def report_bytes(report):
    return [np.asarray(getattr(report, f.name)).tobytes() for f in fields(report)]


class TestUserHalf:
    """``rate_report`` of a build that sweeps share, made from a trial's
    read-only H and keeping what it formed of it, gives the bytes of the
    report of the same build from a writable copy of H."""

    @pytest.mark.parametrize("scheme", SCHEMES)
    @settings(max_examples=30, deadline=None)
    @given(K=st.integers(1, 5), extra_M=st.integers(0, 24), J=st.integers(0, 4),
           other_J=st.integers(0, 4), seed=st.integers(0, 2 ** 63))
    def test_a_staged_user_half_reports_as_the_whole(self, scheme, K, extra_M, J,
                                                     other_J, seed):
        M = K + extra_M
        quant_bits = 4 if scheme == "HADP_B" else None
        # Two realizations sharing a read-only H, as a trial carves them for
        # sweeps that differ in J alone.
        normals = trial_normals(seed, 0, 2 * M * (K + max(J, other_J)))
        ch = carve(normals, M, K, J)
        ch.H.flags.writeable = False
        other = carve(normals, M, K, other_J, ch.H)
        cfg, other_cfg = (SystemConfig.uniform(M=M, K=K, J=j, L=K, total_power=1.3,
                                               sigma2=0.7, rho2=1.1, theta=0.3)
                          for j in (J, other_J))
        try:
            bf = build_beamformers(ch.H, cfg, scheme, quant_bits)
        except (DegenerateChannelError, SingularChannelError):
            return
        # The same build from a writable copy of H, which keeps no product.
        plain = build_beamformers(ch.H.copy(), cfg, scheme, quant_bits)
        for c, c_cfg in ((ch, cfg), (other, other_cfg)):
            assert (report_bytes(rate_report(c, bf, c_cfg))
                    == report_bytes(rate_report(c, plain, c_cfg)))

    @pytest.mark.parametrize("scheme, quant_bits", [("HADP_A", None), ("HADP_B", 3)])
    def test_hadp_b_keeps_f_t_h_of_its_own_h_alone(self, scheme, quant_bits):
        cfg = SystemConfig.uniform(M=16, K=3, J=2, L=3, total_power=1.0,
                                   sigma2=1.0, rho2=1.0)
        H = sample_realization(cfg, 5, 0).H
        H.flags.writeable = False
        bf = build_beamformers(H, cfg, scheme, quant_bits)
        assert bf.formed[0] is H
        assert np.array_equal(bf.formed[1], bf.F.T @ H)
        assert bf.effective(H) is bf.formed[1]
        equal = H.copy()
        assert bf.effective(equal) is not bf.formed[1]
        assert np.array_equal(bf.effective(equal), bf.formed[1])
        assert build_beamformers(H.copy(), cfg, scheme, quant_bits).formed == (None, None)
