import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import oracles
from mimosec import (DegenerateChannelError, InfeasibleSelectionError,
                     MimosecError, SingularChannelError,
                     SystemConfig, analog_phase_match, analog_selection_matrix,
                     complex_normal, derived_rng, digital_mrt_selected,
                     mrt_effective, power_uniform, quantize_phases,
                     select_antennas_protocol1, stepwise_tas, zf_effective)
from mimosec.beamforming import MAX_QUANT_BITS, ZF_CONDITION_LIMIT


def cfg_for(M, K, **overrides):
    base = dict(M=M, K=K, J=0, L=min(M, K), total_power=1.0, sigma2=1.0,
                rho2=1.0)
    base.update(overrides)
    return SystemConfig.uniform(**base)


# Quarter turns keep |H|^2 exactly equal to the drawn gain, so equal gains
# stay exact ties however the modulus is computed.
QUARTER_TURNS = np.array([1, 1j, -1, -1j])


@st.composite
def tie_heavy_channels(draw):
    """K <= M <= 12 channels whose gains are 0, 1 or 2 with random phases."""
    M = draw(st.integers(1, 12))
    K = draw(st.integers(1, M))
    gains = draw(hnp.arrays(float, (M, K), elements=st.sampled_from([0.0, 1.0, 2.0])))
    turns = draw(hnp.arrays(int, (M, K), elements=st.integers(0, 3)))
    return np.sqrt(gains) * QUARTER_TURNS[turns]


@st.composite
def greedy_cases(draw):
    """(M, K, L, seed) of a small greedy search, K = 1 and L = M included."""
    M = draw(st.integers(1, 6))
    return M, draw(st.integers(1, 3)), draw(st.integers(1, M)), draw(st.integers(0, 2 ** 32 - 1))


class TestProtocol1:
    def test_single_user_takes_argmax(self):
        H = np.array([[0.2], [3.0], [1.1]], dtype=complex)
        idx = select_antennas_protocol1(np.sqrt(H))
        assert list(idx) == [1]

    def test_fallback_to_next_strongest(self):
        # user 0 gains (4, 1); user 1 gains (3, 2): user 1's best is taken
        H = np.sqrt(np.array([[4.0, 3.0], [1.0, 2.0]])).astype(complex)
        idx = select_antennas_protocol1(H)
        assert list(idx) == [0, 1]

    def test_requires_enough_antennas(self):
        with pytest.raises(InfeasibleSelectionError):
            select_antennas_protocol1(np.ones((2, 3), dtype=complex))

    @pytest.mark.parametrize("seed", range(25))
    def test_matches_rank_fallback_oracle(self, seed):
        H = complex_normal(derived_rng(800, seed), (6, 3))
        idx = select_antennas_protocol1(H)
        assert list(idx) == oracles.protocol1_assignment(H)

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_oracle_larger(self, seed):
        H = complex_normal(derived_rng(801, seed), (12, 5))
        idx = select_antennas_protocol1(H)
        assert list(idx) == oracles.protocol1_assignment(H)

    @pytest.mark.parametrize("seed", range(10))
    def test_optimal_fallback_invariant(self, seed):
        # any antenna strictly stronger (for user k) than the assigned one
        # must be held by an earlier user
        H = complex_normal(derived_rng(802, seed), (8, 4))
        idx = select_antennas_protocol1(H)
        gains = np.abs(H) ** 2
        for k, antenna in enumerate(idx):
            better = np.nonzero(gains[:, k] > gains[antenna, k])[0]
            assert set(better) <= set(idx[:k])

    @given(H=tie_heavy_channels())
    @example(H=np.zeros((4, 4), dtype=complex))
    @example(H=np.ones((3, 3), dtype=complex))
    def test_matches_oracle_on_ties(self, H):
        # Ties go to the smaller antenna index, as in the oracle's stable ranking.
        assert list(select_antennas_protocol1(H)) == oracles.protocol1_assignment(H)

    def test_distinct_indices(self):
        H = complex_normal(derived_rng(803), (5, 5))
        idx = select_antennas_protocol1(H)
        assert idx.ndim == 1 and idx.dtype.kind == "i"
        assert len(set(idx)) == 5


class TestSelectionMatrix:
    def test_basis_column(self):
        F = analog_selection_matrix(np.array([1]), 3)
        assert np.array_equal(F[:, 0], np.array([0, 1, 0], dtype=complex))

    def test_two_columns(self):
        F = analog_selection_matrix(np.array([0, 2]), 3)
        assert np.array_equal(F[:, 0], np.array([1, 0, 0], dtype=complex))
        assert np.array_equal(F[:, 1], np.array([0, 0, 1], dtype=complex))

    def test_orthonormal_columns(self):
        F = analog_selection_matrix(np.array([4, 0, 2]), 6)
        assert np.allclose(F.T @ F, np.eye(3))

    def test_out_of_range_rejected(self):
        for idx in ([3], [0, -1]):
            with pytest.raises(MimosecError, match="out of range"):
                analog_selection_matrix(np.array(idx), 3)

    @pytest.mark.parametrize("idx", [np.array([], dtype=int), np.array([[0, 1]]),
                                     np.array([1, 1])], ids=["empty", "2-D", "duplicate"])
    def test_infeasible_selection_rejected(self, idx):
        with pytest.raises(InfeasibleSelectionError):
            analog_selection_matrix(idx, 3)

    @given(st.data())
    def test_product_is_row_gather(self, data):
        # The one-hot product adds only exact zeros, so F^T H equals H[idx] exactly.
        M = data.draw(st.integers(1, 12))
        K = data.draw(st.integers(1, 4))
        idx = np.array(data.draw(st.lists(st.integers(0, M - 1), min_size=1,
                                          max_size=M, unique=True)))
        H = data.draw(hnp.arrays(complex, (M, K), elements=st.complex_numbers(
            max_magnitude=1e150, allow_nan=False, allow_infinity=False)))
        assert np.array_equal(analog_selection_matrix(idx, M).T @ H, H[idx])


class TestDigitalMrtSelected:
    def test_real_positive_coefficient(self):
        H = np.array([[1.0 + 0j]])
        W = digital_mrt_selected(H, np.array([0]))
        assert np.array_equal(W, np.eye(1, dtype=complex))

    def test_phase_conjugation(self):
        H = np.array([[1j]])
        W = digital_mrt_selected(H, np.array([0]))
        assert W[0, 0] == pytest.approx(-1j)
        assert abs(W[0, 0]) == pytest.approx(1.0)

    @pytest.mark.parametrize("seed", range(5))
    def test_matched_filter_property(self, seed):
        H = complex_normal(derived_rng(810, seed), (6, 3))
        idx = select_antennas_protocol1(H)
        W = digital_mrt_selected(H, idx)
        for k in range(3):
            delivered = H[idx[k], k] * W[k, k]
            assert delivered.imag == pytest.approx(0.0, abs=1e-12)
            assert delivered.real == pytest.approx(abs(H[idx[k], k]))

    def test_zero_coefficient_rejected(self):
        H = np.array([[0.0 + 0j], [1.0 + 0j]])
        with pytest.raises(DegenerateChannelError):
            digital_mrt_selected(H, np.array([0]))

    @pytest.mark.parametrize("idx", [[0], [0, 1, 2]])
    def test_selection_of_the_wrong_size_rejected(self, idx):
        H = complex_normal(derived_rng(810, 0), (6, 2))
        with pytest.raises(MimosecError, match=f"selection size {len(idx)} != number of users 2"):
            digital_mrt_selected(H, np.array(idx))

    @pytest.mark.parametrize("idx, error, match", [
        ([0, 9], MimosecError, r"out of range \[0, 8\)"),
        ([0, -1], MimosecError, r"out of range \[0, 8\)"),
        ([3, 3], InfeasibleSelectionError, "distinct"),
    ])
    def test_selection_outside_the_antennas_rejected(self, idx, error, match):
        H = complex_normal(derived_rng(810, 1), (8, 2))
        with pytest.raises(error, match=match):
            digital_mrt_selected(H, idx)


class TestMrtEffective:
    def test_unit_column_passthrough(self):
        H = np.array([[1.0], [0.0]], dtype=complex)
        assert np.allclose(mrt_effective(H), H)

    def test_conjugate_and_normalize(self):
        H = np.array([[1j], [1j]])
        W = mrt_effective(H)
        assert np.allclose(W, np.array([[-1j], [-1j]]) / np.sqrt(2))

    @pytest.mark.parametrize("seed", range(5))
    def test_matched_filter(self, seed):
        H = complex_normal(derived_rng(820, seed), (4, 3))
        W = mrt_effective(H)
        assert np.allclose(np.linalg.norm(W, axis=0), 1.0)
        for k in range(3):
            v = H[:, k] @ W[:, k]
            assert v.imag == pytest.approx(0.0, abs=1e-12)
            assert v.real == pytest.approx(np.linalg.norm(H[:, k]))

    def test_zero_column_rejected(self):
        with pytest.raises(DegenerateChannelError):
            mrt_effective(np.zeros((3, 1), dtype=complex))


class TestAnalogPhaseMatch:
    def test_two_antenna_example(self):
        H = np.array([[1.0], [1j]])
        F = analog_phase_match(H)
        assert np.allclose(F, np.array([[1.0], [-1j]]) / np.sqrt(2))
        assert (H[:, 0] @ F[:, 0]).real == pytest.approx(np.sqrt(2))

    @pytest.mark.parametrize("seed", range(5))
    def test_constant_modulus_and_unit_columns(self, seed):
        H = complex_normal(derived_rng(830, seed), (16, 4))
        F = analog_phase_match(H)
        assert np.allclose(np.abs(F), 1.0 / 4.0)
        assert np.allclose(np.linalg.norm(F, axis=0), 1.0)

    def test_l1_norm_law_of_large_numbers(self):
        # h^T f / sqrt(M) = ||h||_1 / M approaches E|h| = sqrt(pi/4)
        M = 10_000
        H = complex_normal(derived_rng(831), (M, 1))
        F = analog_phase_match(H)
        value = (H[:, 0] @ F[:, 0]).real / np.sqrt(M)
        assert value == pytest.approx(np.sqrt(np.pi / 4.0), rel=0.02)

    def test_zero_entry_rejected(self):
        H = np.array([[0.0 + 0j], [1.0 + 0j]])
        with pytest.raises(DegenerateChannelError):
            analog_phase_match(H)

    @given(seed=st.integers(0, 2 ** 63), M=st.integers(1, 300), K=st.integers(1, 6))
    def test_bitwise_equal_to_the_quotient(self, seed, M, K):
        H = complex_normal(derived_rng(seed), (M, K))
        expected = np.conj(H) / (np.sqrt(M) * np.abs(H))
        assert analog_phase_match(H).tobytes() == expected.tobytes()

    @given(H=hnp.arrays(complex, hnp.array_shapes(min_dims=2, max_dims=2, max_side=40),
                        elements=st.complex_numbers(max_magnitude=1e300) | st.just(0j)))
    @example(H=np.array([[1.0 + 0j, 0.0 - 0j], [0.5j, -2.0]]))
    @example(H=np.array([[0j]]))
    @example(H=np.array([[5e-324 + 0j, -5e-324j], [np.inf, np.nan + 1j]]))
    def test_bitwise_equal_to_the_formula_and_raises_where_it_did(self, H):
        # Tiny, huge and non-finite entries overflow alike in both.
        with np.errstate(all="ignore"):
            expected = oracles.phase_match_formula(H)
            if expected is None:
                with pytest.raises(DegenerateChannelError):
                    analog_phase_match(H)
            else:
                assert analog_phase_match(H).tobytes() == expected.tobytes()


def direct_quantizer(F, bits):
    """The quantizer as one exp per entry."""
    step = 2.0 * np.pi / (1 << bits)
    return np.abs(F) * np.exp(1j * (np.round(np.angle(F) / step) * step))


finite_complex = st.complex_numbers(max_magnitude=1e6, allow_nan=False, allow_infinity=False)


class TestQuantizePhases:
    def test_grid_point_fixed(self):
        F = np.array([[1.0 + 0j]])
        for bits in (1, 3, 8):
            assert np.allclose(quantize_phases(F, bits), F)

    def test_nearest_grid_point(self):
        # pi/3 on the 2-bit grid {0, pi/2, pi, 3pi/2} rounds to pi/2
        F = np.array([[np.exp(1j * np.pi / 3)]])
        q = quantize_phases(F, 2)
        assert np.angle(q[0, 0]) == pytest.approx(np.pi / 2)

    def test_high_resolution_is_near_identity(self):
        F = analog_phase_match(complex_normal(derived_rng(840), (32, 2)))
        q = quantize_phases(F, 16)
        err = np.abs(np.angle(q * np.conj(F)))
        assert np.max(err) <= 2.0 * np.pi / 2 ** 16
        assert np.allclose(np.abs(q), np.abs(F))

    def test_bad_resolution_rejected(self):
        with pytest.raises(MimosecError):
            quantize_phases(np.ones((1, 1), dtype=complex), 0)

    @pytest.mark.parametrize("bits", [MAX_QUANT_BITS + 1, 1100])
    def test_resolution_above_the_cap_rejected(self, bits):
        with pytest.raises(MimosecError, match=f"between 1 and {MAX_QUANT_BITS}"):
            quantize_phases(np.ones((4, 2), dtype=complex), bits)

    @pytest.mark.parametrize("bits", [float("inf"), float("nan"), 2.5])
    def test_non_integer_resolution_rejected(self, bits):
        with pytest.raises(MimosecError, match="bits must be an integer"):
            quantize_phases(np.ones((4, 2), dtype=complex), bits)

    def test_finest_resolution_accepted(self):
        F = analog_phase_match(complex_normal(derived_rng(841), (8, 2)))
        assert quantize_phases(F, MAX_QUANT_BITS).tobytes() == \
            direct_quantizer(F, MAX_QUANT_BITS).tobytes()

    # 64 entries: the 2^bits + 1 grid points are fewer than the entries for
    # bits <= 5 (a table lookup) and not for bits >= 6 (one exp per entry).
    @pytest.mark.parametrize("bits", [1, 2, 4, 5, 6, 8, 16])
    def test_both_paths_match_the_direct_formula(self, bits):
        F = analog_phase_match(complex_normal(derived_rng(842, bits), (32, 2)))
        assert quantize_phases(F, bits).tobytes() == direct_quantizer(F, bits).tobytes()

    def test_grid_edges_on_the_table_path(self):
        # Phases at +-pi and exactly between grid points, 2 bits, 8 entries.
        F = np.exp(1j * np.array([np.pi, -np.pi, np.pi / 4, -np.pi / 4, 3 * np.pi / 4,
                                  0.0, np.pi / 2, -3 * np.pi / 4]))
        F = np.append(F, [-1.0 - 0j, complex(-0.0, -0.0)]).reshape(5, 2)
        assert quantize_phases(F, 2).tobytes() == direct_quantizer(F, 2).tobytes()

    @given(F=hnp.arrays(complex, hnp.array_shapes(min_dims=1, max_dims=2, max_side=80),
                        elements=finite_complex),
           bits=st.integers(1, 12))
    def test_bitwise_equal_to_the_direct_formula(self, F, bits):
        assert quantize_phases(F, bits).tobytes() == direct_quantizer(F, bits).tobytes()

    # Both of the formula's paths: a gathered table when the 2^bits + 1 grid
    # points are fewer than the entries, one exp per entry otherwise.
    @given(F=hnp.arrays(complex, hnp.array_shapes(min_dims=1, max_dims=2, max_side=80),
                        elements=finite_complex | st.just(0j)),
           bits=st.integers(1, 6) | st.integers(1, MAX_QUANT_BITS))
    @example(F=np.zeros((3, 2), dtype=complex), bits=1)
    @example(F=np.array([1.0, -1.0, 1j, -1j, 0j, -0.0 - 0j]), bits=1)
    @example(F=np.array([[1 + 1e-9j, -1 - 1e-9j], [0j, 3.0]]), bits=MAX_QUANT_BITS)
    def test_bitwise_equal_to_the_formula_on_both_paths(self, F, bits):
        assert quantize_phases(F, bits).tobytes() == oracles.quantizer_formula(F, bits).tobytes()


class TestZeroForcing:
    def test_identity_channel(self):
        assert np.allclose(zf_effective(np.eye(3, dtype=complex)), np.eye(3))

    def test_single_user_reduces_to_mrt(self):
        H = complex_normal(derived_rng(850), (4, 1))
        assert np.allclose(zf_effective(H), mrt_effective(H))

    @pytest.mark.parametrize("seed", range(8))
    def test_interference_residual(self, seed):
        H = complex_normal(derived_rng(851, seed), (16, 16))
        W = zf_effective(H)
        A = H.T @ W
        diag = np.abs(np.diag(A))
        off = np.abs(A - np.diag(np.diag(A)))
        assert off.max() < 1e-8 * diag.max()
        assert np.allclose(np.linalg.norm(W, axis=0), 1.0)

    def test_singular_channel_rejected(self):
        col = complex_normal(derived_rng(852), (4, 1))
        H = np.hstack([col, col])  # rank one
        with pytest.raises(SingularChannelError):
            zf_effective(H)

    def test_wide_channel_rejected(self):
        with pytest.raises(MimosecError):
            zf_effective(complex_normal(derived_rng(853), (2, 3)))

    @pytest.mark.parametrize("value", [np.nan + 0j, complex(1.0, np.nan)])
    def test_non_finite_channel_is_not_a_redraw(self, value):
        # numpy's SVD raises LinAlgError on NaN; a SingularChannelError would
        # be redrawn by a sweep, a plain MimosecError is reported at once.
        H = np.full((3, 2), value)
        with pytest.raises(MimosecError, match="effective channel is not finite") as info:
            zf_effective(H)
        assert type(info.value) is MimosecError

    # Columns made dependent to within ``tilt`` straddle the limit on the
    # condition number; ``scale`` moves the singular values, not their ratio.
    @given(seed=st.integers(0, 2 ** 63), K=st.integers(1, 4), extra=st.integers(0, 3),
           tilt=st.sampled_from([0.0, 1e-14, 1e-11, 1e-10, 1.1e-10, 1e-9, 1e-6, 1.0]),
           scale=st.sampled_from([1e-100, 1.0, 1e100]))
    @example(seed=0, K=2, extra=1, tilt=0.0, scale=0.0)
    @example(seed=34, K=3, extra=0, tilt=1e-9, scale=1.0)  # condition 4.3e9, singular Gram
    def test_same_decision_as_the_condition_number(self, seed, K, extra, tilt, scale):
        H = complex_normal(derived_rng(seed), (K + extra, K))
        H[:, -1] = H[:, 0] * (0.3 - 2j) + tilt * H[:, -1]
        H *= scale
        expected = oracles.zf_well_conditioned(H, ZF_CONDITION_LIMIT)
        try:
            zf_effective(H)
        except SingularChannelError as exc:
            # Past a passed check only the Gram solve may raise: near the
            # limit the Gram matrix, whose condition number is the square of
            # H's, can be singular in double precision.
            assert not expected or "Gram solve" in str(exc)
        else:
            assert expected


class TestPowerUniform:
    def test_sixteen_users_unit_budget(self):
        p = power_uniform(16, 1.0)
        assert np.allclose(p, 1.0 / 16.0)
        assert p.sum() == pytest.approx(1.0)

    def test_single_user(self):
        assert np.array_equal(power_uniform(1, 2.5), np.array([2.5]))

    @pytest.mark.parametrize("K", [0, -1])
    def test_no_users_rejected(self, K):
        with pytest.raises(MimosecError, match="K must be at least 1"):
            power_uniform(K, 1.0)

    def test_non_integer_count_rejected(self):
        with pytest.raises(MimosecError, match="K must be an integer"):
            power_uniform(2.5, 1.0)

    @pytest.mark.parametrize("total", [float("nan"), float("inf"), -1.0])
    def test_total_not_finite_and_non_negative_rejected(self, total):
        with pytest.raises(MimosecError, match="total power must be finite and >= 0"):
            power_uniform(2, total)


class TestStepwiseTas:
    def test_single_antenna_single_user_is_argmax(self):
        H = complex_normal(derived_rng(860), (7, 1))
        idx = stepwise_tas(H, 1, cfg_for(7, 1, L=1))
        assert idx[0] == int(np.argmax(np.abs(H[:, 0])))

    def test_full_selection_is_everything(self):
        H = complex_normal(derived_rng(861), (5, 2))
        idx = stepwise_tas(H, 5, cfg_for(5, 2, L=5))
        assert idx.ndim == 1 and idx.dtype.kind == "i"
        assert list(idx) == [0, 1, 2, 3, 4]

    def test_infeasible_rejected(self):
        H = complex_normal(derived_rng(862), (3, 2))
        with pytest.raises(InfeasibleSelectionError):
            stepwise_tas(H, 4, cfg_for(3, 2))

    @pytest.mark.parametrize("users, L, match", [
        (2, 2.5, "L must be an integer"),
        (3, 2, "H has 3 user columns, cfg has K=2"),
    ])
    def test_bad_count_rejected(self, users, L, match):
        H = complex_normal(derived_rng(862, users), (6, users))
        with pytest.raises(MimosecError, match=match):
            stepwise_tas(H, L, cfg_for(6, 2, L=2))

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_per_step_oracle_small(self, seed):
        H = complex_normal(derived_rng(863, seed), (5, 2))
        cfg = cfg_for(5, 2, L=2)
        idx = stepwise_tas(H, 2, cfg)
        expected = oracles.greedy_tas(H, 2, power_uniform(2, 1.0),
                                      cfg.betas, cfg.weights, cfg.sigma2)
        assert list(idx) == expected

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_per_step_oracle_wider(self, seed):
        H = complex_normal(derived_rng(864, seed), (8, 3))
        cfg = cfg_for(8, 3, L=4)
        idx = stepwise_tas(H, 4, cfg)
        expected = oracles.greedy_tas(H, 4, power_uniform(3, 1.0),
                                      cfg.betas, cfg.weights, cfg.sigma2)
        assert list(idx) == expected

    @given(case=greedy_cases())
    @example(case=(5, 1, 5, 0))
    @example(case=(4, 3, 4, 1))
    def test_matches_per_step_oracle_property(self, case):
        M, K, L, seed = case
        H = complex_normal(derived_rng(865, seed), (M, K))
        cfg = cfg_for(M, K, L=L)
        expected = oracles.greedy_tas(H, L, power_uniform(K, 1.0),
                                      cfg.betas, cfg.weights, cfg.sigma2)
        assert list(stepwise_tas(H, L, cfg)) == expected

    @given(case=greedy_cases())
    @example(case=(6, 3, 4, 0))
    def test_matches_per_step_oracle_with_per_user_gains(self, case):
        # Each user has its own gain and weight, at non-unit power and noise,
        # so a kernel that pairs a user with another's gain or weight fails.
        M, K, L, seed = case
        rng = derived_rng(867, seed)
        H = complex_normal(rng, (M, K))
        betas, weights = rng.uniform(0.1, 4.0, K), rng.uniform(0.1, 2.0, K)
        power, sigma2 = rng.uniform(0.5, 8.0), rng.uniform(0.2, 3.0)
        cfg = SystemConfig(M=M, K=K, J=0, L=L, total_power=power, sigma2=sigma2, rho2=1.0,
                           betas=betas, thetas=0.1, weights=weights)
        expected = oracles.greedy_tas(H, L, power_uniform(K, power), betas, weights, sigma2)
        assert list(stepwise_tas(H, L, cfg)) == expected

    def test_holds_no_per_candidate_gram(self):
        # Peak memory stays below one (M, K, K) complex array: the search
        # never materializes a K x K Gram per candidate antenna.
        M, K = 512, 32
        H = complex_normal(derived_rng(866), (M, K))
        cfg = cfg_for(M, K, L=K)
        tracemalloc.start()
        try:
            stepwise_tas(H, K, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < M * K * K * np.dtype(complex).itemsize


class TestComplexNormal:
    @given(seed=st.integers(0, 2 ** 63),
           shape=hnp.array_shapes(min_dims=1, max_dims=3, min_side=0, max_side=40))
    def test_bitwise_equal_to_scaled_complex_sum(self, seed, shape):
        rng = derived_rng(seed)
        re = rng.standard_normal(shape)
        im = rng.standard_normal(shape)
        expected = (re + 1j * im) / np.sqrt(2.0)
        got = complex_normal(derived_rng(seed), shape)
        assert got.dtype == expected.dtype and got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()
