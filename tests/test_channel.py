import math
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from onebit_mimo import (
    SpatialCorrelation,
    TemporalStats,
    aggregate_correlation,
    evolve_channel,
    exponential_correlation,
    init_channel,
    jakes_coefficient,
    psd_sqrt,
    stack_correlation,
)
from onebit_mimo.channel import apply_sqrt_factor, channel_trajectory
from onebit_mimo.rng import complex_normal_sequence


class TestExponentialCorrelation:
    def test_two_antenna_real_case(self):
        corr = exponential_correlation(2, 0.5, 0.0)
        assert_allclose(corr.matrix, [[1.0, 0.5], [0.5, 1.0]], atol=1e-15)

    def test_phase_rotates_off_diagonal(self):
        # two antennas apart: (0.9 e^{j pi/2})^2 = -0.81
        corr = exponential_correlation(3, 0.9, np.pi / 2)
        assert_allclose(corr.matrix[0, 2], -0.81, atol=1e-14)
        assert_allclose(corr.matrix[2, 0], -0.81, atol=1e-14)

    @pytest.mark.parametrize("m,r,theta", [(1, 0.0, 0.0), (4, 0.5, 1.0), (8, 0.95, 2.2), (16, 0.3, 4.0)])
    def test_hermitian_unit_diagonal_psd(self, m, r, theta):
        corr = exponential_correlation(m, r, theta)
        assert_allclose(corr.matrix, corr.matrix.conj().T, atol=1e-14)
        assert_allclose(np.diag(corr.matrix), np.ones(m), atol=1e-14)
        assert np.linalg.eigvalsh(corr.matrix).min() > -1e-10

    @pytest.mark.parametrize("m", [1, 8, 128])
    @pytest.mark.parametrize("r", [0.0, 0.8, 0.99])
    def test_closed_form_cholesky_factor(self, m, r):
        """The AR(1) factor is the Cholesky factor of the documented entry rule."""
        corr = exponential_correlation(m, r, 1.3)
        c = r * np.exp(1.3j)
        lag = np.arange(m)[None, :] - np.arange(m)[:, None]  # n - m at entry (m, n)
        expected = np.where(lag >= 0, c ** np.abs(lag), np.conj(c) ** np.abs(lag))
        assert_allclose(corr.matrix, expected, rtol=0.0, atol=1e-15)
        assert np.all(np.triu(corr.sqrt_factor, 1) == 0.0)
        chol = np.linalg.cholesky(corr.matrix)
        assert np.linalg.norm(corr.sqrt_factor - chol) <= 1e-12 * np.linalg.norm(chol)

    @pytest.mark.parametrize("m", [1, 2, 7])
    @pytest.mark.parametrize("users", [(), (3,), (2, 3)])
    def test_structured_factor_equals_dense_product(self, m, users):
        """Lambda L_0 Lambda^H g equals sqrt_factor @ g for (n,) and (n, p) draws."""
        theta = np.random.default_rng(m).uniform(0.0, 2.0 * np.pi, users)
        corr = exponential_correlation(m, 0.9, theta)
        factor = corr.sqrt_factor
        blocks = factor.reshape(-1, m, m)
        rng = np.random.default_rng(1)
        for columns in ((), (4,)):
            g = rng.standard_normal((len(blocks) * m,) + columns) + 1j * rng.standard_normal(
                (len(blocks) * m,) + columns
            )
            expected = (blocks @ g.reshape(len(blocks), m, -1)).reshape(users + (m,) + columns)
            structured = apply_sqrt_factor(corr, g)
            assert structured.shape == expected.shape
            assert np.abs(structured - expected).max() <= 1e-13

    def test_matrix_is_a_read_only_view(self):
        corr = exponential_correlation(4, 0.5, np.array([0.3, 1.1]))
        assert corr.shape == corr.matrix.shape == (2, 4, 4)
        assert np.shares_memory(corr.matrix, corr.lags)
        with pytest.raises(ValueError, match="read-only"):
            corr.matrix[0, 1, 2] = 0.0

    def test_magnitude_one_rejected(self):
        with pytest.raises(ValueError):
            exponential_correlation(4, 1.0, 0.0)
        with pytest.raises(ValueError):
            exponential_correlation(4, -0.1, 0.0)

    def test_needs_an_antenna(self):
        with pytest.raises(ValueError):
            exponential_correlation(0, 0.5, 0.0)


class TestPsdSqrt:
    def test_identity(self):
        assert_allclose(psd_sqrt(np.eye(3)), np.eye(3), atol=1e-14)

    def test_factor_reproduces_matrix(self):
        mat = np.array([[2.0, 1.0], [1.0, 2.0]])
        s = psd_sqrt(mat)
        assert_allclose(s @ s.conj().T, mat, atol=1e-12)

    def test_rank_deficient_input(self):
        # fully coherent limit, eigenvalues (2, 0)
        mat = np.ones((2, 2))
        s = psd_sqrt(mat)
        assert_allclose(s @ s.conj().T, mat, atol=1e-12)

    @pytest.mark.parametrize("r", [0.0, 0.6, 0.95])
    def test_correlation_battery(self, r):
        corr = exponential_correlation(8, r, 1.3)
        assert_allclose(corr.sqrt_factor @ corr.sqrt_factor.conj().T, corr.matrix, atol=1e-11)


class TestAggregate:
    def test_block_structure(self):
        a = exponential_correlation(2, 0.5, 0.0)
        b = exponential_correlation(2, 0.9, 1.0)
        agg = aggregate_correlation([a, b])
        assert agg.matrix.shape == (4, 4)
        assert_allclose(agg.matrix[:2, :2], a.matrix)
        assert_allclose(agg.matrix[2:, 2:], b.matrix)
        assert_allclose(agg.matrix[:2, 2:], 0.0, atol=1e-15)
        assert_allclose(agg.sqrt_factor @ agg.sqrt_factor.conj().T, agg.matrix, atol=1e-11)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            aggregate_correlation([])


class TestTemporalStats:
    def test_zeta_complements_eta(self):
        stats = TemporalStats(np.array([0.0, 0.6, 1.0]))
        assert_allclose(stats.zeta, [1.0, 0.8, 0.0], atol=1e-15)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            TemporalStats(np.array([1.1]))
        with pytest.raises(ValueError):
            TemporalStats(np.array([-0.2]))
        with pytest.raises(ValueError):
            TemporalStats(np.array([0.5, np.nan]))


class TestJakes:
    def test_static_user(self):
        assert jakes_coefficient(0.0, 2.5e9, 0.005) == 1.0

    def test_reference_speeds(self):
        # frozen from J0(2 pi (v/3.6) f_c / c * t) at f_c=2.5 GHz, t=5 ms
        expected = {
            3: 0.9881362325268646,
            5: 0.9672190204916528,
            7: 0.9362576355950009,
            10: 0.8720939400847691,
            15: 0.7239275254349152,
        }
        for speed, eta in expected.items():
            assert_allclose(jakes_coefficient(speed, 2.5e9, 0.005), eta, rtol=1e-12)

    def test_decreasing_in_speed(self):
        etas = [jakes_coefficient(v, 2.5e9, 0.005) for v in (0, 3, 5, 7, 10, 15)]
        assert np.all(np.diff(etas) < 0)

    # frozen from scipy.special.j0 at f_c = 2.5 GHz, t = 5 ms: past the first
    # zero (negative at 40 km/h, positive again at 96 and 110 km/h), both sides
    # of the switch to the asymptotic series near x = 25 (343, 344 km/h), far
    # out, and where speed * f_c overflows to inf (nan, as scipy gives)
    SCIPY_J0 = {
        40: -0.22763214622600791,
        96: 0.2999392523743325,
        110: 0.1717855263283023,
        343: 0.08904797042178765,
        344: 0.09830708021800949,
        1e6: 0.0028085618434239993,
        1e12: 2.8085666049253882e-06,
        1e300: math.nan,
    }

    @pytest.mark.parametrize("speed", sorted(SCIPY_J0))
    def test_matches_scipy_at_any_speed(self, speed):
        tracemalloc.start()
        try:
            eta = jakes_coefficient(speed, 2.5e9, 0.005)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000
        expected = self.SCIPY_J0[speed]
        if math.isnan(expected):
            assert math.isnan(eta)
        else:
            assert abs(eta - expected) <= 1e-14

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            jakes_coefficient(-1.0, 2.5e9, 0.005)
        with pytest.raises(ValueError):
            jakes_coefficient(3.0, 0.0, 0.005)


class TestChannelEvolution:
    def test_init_slot_and_shape(self):
        corr = exponential_correlation(4, 0.5, 0.2)
        state = init_channel(corr, np.random.default_rng(0))
        assert state.slot == 0
        assert state.h.shape == (4,)

    def test_init_replays_deterministically(self):
        corr = exponential_correlation(4, 0.5, 0.2)
        a = init_channel(corr, np.random.default_rng(7))
        b = init_channel(corr, np.random.default_rng(7))
        assert_allclose(a.h, b.h)

    def test_init_white_variance(self):
        corr = exponential_correlation(2, 0.0, 0.0)
        rng = np.random.default_rng(1)
        draws = np.array([init_channel(corr, rng).h for _ in range(20_000)])
        assert_allclose(np.mean(np.abs(draws) ** 2, axis=0), 1.0, atol=0.02)

    def test_slot_advances(self):
        corr = exponential_correlation(2, 0.5, 0.0)
        stats = TemporalStats(np.array([0.9]))
        rng = np.random.default_rng(2)
        state = init_channel(corr, rng)
        state = evolve_channel(state, stats, corr, rng)
        assert state.slot == 1

    def test_static_user_is_frozen(self):
        corr = exponential_correlation(3, 0.5, 0.4)
        stats = TemporalStats(np.array([1.0]))
        rng = np.random.default_rng(3)
        state = init_channel(corr, rng)
        evolved = evolve_channel(state, stats, corr, rng)
        assert_allclose(evolved.h, state.h, atol=1e-15)

    def test_stationary_covariance(self):
        """Running the recursion keeps the per-slot covariance at R."""
        corr = exponential_correlation(2, 0.6, 0.8)
        stats = TemporalStats(np.array([0.9]))
        rng = np.random.default_rng(4)
        slots = 5
        finals = np.empty((20_000, 2), dtype=complex)
        for n in range(finals.shape[0]):
            state = init_channel(corr, rng)
            for _ in range(slots):
                state = evolve_channel(state, stats, corr, rng)
            finals[n] = state.h
        cov = finals.T @ finals.conj() / finals.shape[0]
        assert np.max(np.abs(cov - corr.matrix)) < 0.02

    def test_block_fading_decorrelates_slots(self):
        """With eta = 0 consecutive slots are independent draws."""
        corr = exponential_correlation(2, 0.6, 0.8)
        stats = TemporalStats(np.array([0.0]))
        rng = np.random.default_rng(5)
        cross = np.zeros((2, 2), dtype=complex)
        n_pairs = 20_000
        for _ in range(n_pairs):
            prev = init_channel(corr, rng)
            nxt = evolve_channel(prev, stats, corr, rng)
            cross += np.outer(nxt.h, prev.h.conj())
        assert np.max(np.abs(cross / n_pairs)) < 0.02

    def test_stack_matches_dense(self):
        """Per-user stack and dense block-diagonal form draw the same channel."""
        users = [exponential_correlation(4, 0.8, th) for th in (0.3, 1.7, 2.9)]
        stats = TemporalStats(np.array([0.99, 0.7, 0.0]))
        runs = []
        for corr in (stack_correlation(users), aggregate_correlation(users)):
            rng = np.random.default_rng(11)
            state = init_channel(corr, rng)
            slots = [state.h]
            for _ in range(10):
                state = evolve_channel(state, stats, corr, rng)
                slots.append(state.h)
            runs.append(np.array(slots))
        stacked, dense = runs
        assert stacked.shape == (11, 3, 4) and dense.shape == (11, 12)
        assert_allclose(stacked.reshape(11, 12), dense, rtol=0.0, atol=1e-13)

    @pytest.mark.parametrize("trials", [False, True])
    def test_structured_trajectory_equals_dense_factor(self, trials):
        """channel_trajectory through the structured factor equals it through the dense factor."""
        users = [exponential_correlation(6, 0.8, th) for th in (0.3, 1.7, 2.9)]
        corr = stack_correlation(users)
        if trials:
            corr = stack_correlation([corr, stack_correlation(users[::-1])])
        dense = SpatialCorrelation(matrix=corr.matrix, sqrt_factor=corr.sqrt_factor)
        stats = TemporalStats(np.array([0.99, 0.7, 0.0]))
        h = init_channel(dense, np.random.default_rng(3)).h
        g = complex_normal_sequence(np.random.default_rng(4), 5, h.size)
        g = np.moveaxis(g.reshape((5,) + h.shape), 0, h.ndim - 2)
        structured = channel_trajectory(h, stats, corr, g)
        assert_allclose(structured, channel_trajectory(h, stats, dense, g), rtol=0, atol=1e-13)

    @pytest.mark.parametrize("layout", ["dense", "users", "trials"])
    def test_trajectory_equals_slot_by_slot_evolution(self, layout):
        """One pass over S slots gives the channels of S evolve_channel calls on the same draws."""
        users = [exponential_correlation(5, 0.8, th) for th in (0.3, 1.7, 2.9)]
        stats = TemporalStats(np.array([0.99, 0.7, 0.0]))
        corr = aggregate_correlation(users) if layout == "dense" else stack_correlation(users)
        if layout == "trials":
            corr = stack_correlation([stack_correlation(users), stack_correlation(users[::-1])])
        slots = 6
        state = init_channel(corr, np.random.default_rng(3))
        rng = np.random.default_rng(4)
        chan, expected = state, []
        for _ in range(slots):
            chan = evolve_channel(chan, stats, corr, rng)
            expected.append(chan)
        assert [s.slot for s in expected] == list(range(1, slots + 1))
        # The same draws, slot-major within each trial.
        g = complex_normal_sequence(np.random.default_rng(4), slots, state.h.size)
        g = np.moveaxis(g.reshape((slots,) + state.h.shape), 0, max(state.h.ndim - 2, 0))
        trajectory = channel_trajectory(state.h, stats, corr, g)
        assert trajectory.shape == g.shape
        expected = np.stack([s.h for s in expected], axis=max(state.h.ndim - 2, 0))
        assert_allclose(trajectory, expected, rtol=0, atol=1e-13)

    def test_shape_mismatch_rejected(self):
        corr = exponential_correlation(2, 0.5, 0.0)
        big = exponential_correlation(4, 0.5, 0.0)
        stats = TemporalStats(np.array([0.9]))
        rng = np.random.default_rng(6)
        state = init_channel(corr, rng)
        with pytest.raises(ValueError):
            evolve_channel(state, stats, big, rng)
        with pytest.raises(ValueError):
            evolve_channel(state, TemporalStats(np.array([0.9, 0.9, 0.9])), corr, rng)
        # a stack whose K M differs from the channel length
        stacked = init_channel(stack_correlation([big] * 2), rng)
        pair = TemporalStats(np.array([0.9, 0.9]))
        with pytest.raises(ValueError):
            evolve_channel(stacked, pair, stack_correlation([corr] * 2), rng)
