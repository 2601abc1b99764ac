from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from onebit_mimo import (
    ExactGain,
    QuantizedObservation,
    TemporalStats,
    TheoryParams,
    TpeGain,
    aggregate_correlation,
    blmmse_estimate,
    blmmse_nmse,
    build_bussgang_model,
    dft_pilots,
    exponential_correlation,
    init_channel,
    kfb_init,
    kfb_step,
    ls_estimate,
    nmse_recursion,
    quantize_pilot_slot,
    sample_correlation,
    tpe_inverse,
)
from onebit_mimo.quantization import BussgangModel


def white_correlation(n_users, n_antennas):
    return aggregate_correlation(
        [exponential_correlation(n_antennas, 0.0, 0.0) for _ in range(n_users)]
    )


class TestLeastSquares:
    def test_scalar_inversion(self):
        pilots = dft_pilots(1, 1).with_rho(2.0)
        obs = QuantizedObservation(slot=0, r=np.array([(1 + 1j) / np.sqrt(2)]))
        assert_allclose(ls_estimate(obs, pilots), [(1 + 1j) / 2], atol=1e-14)

    def test_exact_on_clean_observation(self):
        """Feeding the unquantized noiseless signal back recovers the channel."""
        corr = white_correlation(2, 3)
        pilots = dft_pilots(2, 2).with_rho(1.7)
        rng = np.random.default_rng(0)
        state = init_channel(corr, rng)
        clean = QuantizedObservation(slot=0, r=pilots.phi_bar(3) @ state.h)
        assert_allclose(ls_estimate(clean, pilots), state.h, atol=1e-10)

    def test_block_matches_per_column(self):
        pilots = dft_pilots(6, 4).with_rho(0.8)
        rng = np.random.default_rng(11)
        block = rng.standard_normal((18, 7)) + 1j * rng.standard_normal((18, 7))
        batched = ls_estimate(QuantizedObservation(slot=0, r=block), pilots)
        assert batched.shape == (12, 7)
        for s in range(7):
            single = ls_estimate(QuantizedObservation(slot=0, r=block[:, s]), pilots)
            assert_allclose(batched[:, s], single, atol=1e-15)

    def test_rank_deficient_pilots_rejected(self):
        pilots = dft_pilots(2, 2).with_rho(1.0)
        broken = type(pilots)(phi=np.ones((2, 2)), rho=1.0)
        obs = QuantizedObservation(slot=0, r=np.ones(2, dtype=complex))
        with pytest.raises(ValueError):
            ls_estimate(obs, broken)


class TestSampleCorrelation:
    def test_single_sample_outer_product(self):
        sample = np.array([[1.0 + 0j, 0.0, 0.0]])
        est = sample_correlation(sample, normalize_diagonal=False)
        assert_allclose(est.matrix, np.outer(sample[0], sample[0].conj()), atol=1e-14)

    def test_consistency_with_known_correlation(self):
        corr = exponential_correlation(4, 0.6, 0.9)
        rng = np.random.default_rng(1)
        g = (rng.standard_normal((20_000, 4)) + 1j * rng.standard_normal((20_000, 4))) / np.sqrt(2)
        samples = g @ corr.sqrt_factor.T
        est = sample_correlation(samples)
        assert np.max(np.abs(est.matrix - corr.matrix)) < 0.05

    def test_diagonal_rescaling(self):
        rng = np.random.default_rng(2)
        g = (rng.standard_normal((5000, 3)) + 1j * rng.standard_normal((5000, 3))) / np.sqrt(2)
        scaled = sample_correlation(0.2 * g)
        assert_allclose(np.real(np.diag(scaled.matrix)), 1.0, atol=1e-12)
        raw = sample_correlation(0.2 * g, normalize_diagonal=False)
        assert np.all(np.real(np.diag(raw.matrix)) < 0.1)

    def test_result_is_psd(self):
        rng = np.random.default_rng(3)
        samples = rng.standard_normal((3, 6)) + 1j * rng.standard_normal((3, 6))
        est = sample_correlation(samples)
        assert np.linalg.eigvalsh(est.matrix).min() > -1e-12

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            sample_correlation(np.empty((0, 4)))


class TestBlmmse:
    def test_missing_covariance_rejected(self):
        model = BussgangModel(a_diag=np.ones(2), C_y=np.eye(2))
        obs = QuantizedObservation(slot=0, r=np.ones(2, dtype=complex), model=model,
                                   phi_tilde=np.eye(2))
        corr = white_correlation(1, 2)
        with pytest.raises(ValueError):
            blmmse_estimate(obs, corr)

    def test_matches_hand_rolled_formula(self):
        corr = aggregate_correlation([exponential_correlation(3, 0.5, 0.7) for _ in range(2)])
        pilots = dft_pilots(2, 2).with_rho(1.0)
        model = build_bussgang_model(pilots, corr)
        rng = np.random.default_rng(4)
        state = init_channel(corr, rng)
        obs = quantize_pilot_slot(state, pilots, model, rng)
        phi_tilde = model.a_diag[:, None] * pilots.phi_bar(3)
        direct = corr.matrix @ phi_tilde.conj().T @ np.linalg.inv(model.C_r) @ obs.r
        assert_allclose(blmmse_estimate(obs, corr), direct, atol=1e-11)


class TestKalmanFilter:
    def setup_scene(self, n_antennas=4, n_users=2, r_spatial=0.0, eta=0.9, rho=1.0, seed=5):
        corr = aggregate_correlation(
            [exponential_correlation(n_antennas, r_spatial, 0.4 * k) for k in range(n_users)]
        )
        pilots = dft_pilots(n_users, n_users).with_rho(rho)
        model = build_bussgang_model(pilots, corr)
        stats = TemporalStats(np.full(n_users, eta))
        rng = np.random.default_rng(seed)
        return corr, pilots, model, stats, rng

    def test_init_state(self):
        corr, _, _, stats, _ = self.setup_scene()
        state = kfb_init(corr, stats)
        assert state.slot == 0
        assert_allclose(state.h_hat, 0.0)
        assert_allclose(state.M_filt, corr.matrix)

    def test_slot_sequencing_enforced(self):
        corr, pilots, model, stats, rng = self.setup_scene()
        state = kfb_init(corr, stats)
        chan = init_channel(corr, rng)
        chan = replace(chan, slot=3)
        obs = quantize_pilot_slot(chan, pilots, model, rng)
        with pytest.raises(ValueError):
            kfb_step(state, obs)

    def test_first_slot_error_trace_closed_form(self):
        """White channel, square pilots: trace(M_1) = (1 - beta) M K."""
        corr, pilots, model, stats, rng = self.setup_scene(n_antennas=8, n_users=2)
        chan = init_channel(corr, rng)
        chan = replace(chan, slot=1)
        obs = quantize_pilot_slot(chan, pilots, model, rng)
        state = kfb_step(kfb_init(corr, stats), obs)
        beta = (2.0 / np.pi) * 2.0 / 3.0
        assert_allclose(np.real(np.trace(state.M_filt)), (1.0 - beta) * 16, atol=1e-10)

    def test_covariance_stays_hermitian(self):
        corr, pilots, model, stats, rng = self.setup_scene(r_spatial=0.6)
        state = kfb_init(corr, stats)
        chan = init_channel(corr, rng)
        for i in range(1, 5):
            chan = replace(chan, slot=i)
            obs = quantize_pilot_slot(chan, pilots, model, rng)
            state = kfb_step(state, obs)
            assert_allclose(state.M_filt, state.M_filt.conj().T, atol=1e-13)

    def test_block_fading_reduces_to_single_shot(self):
        """With eta = 0 the tracker forgets the past and equals the one-shot estimate."""
        corr, pilots, model, stats, rng = self.setup_scene(r_spatial=0.6, eta=0.0, seed=6)
        state = kfb_init(corr, stats)
        chan = init_channel(corr, rng)
        for i in range(1, 4):
            chan = replace(chan, slot=i)
            obs = quantize_pilot_slot(chan, pilots, model, rng)
            state = kfb_step(state, obs)
            assert_allclose(state.h_hat, blmmse_estimate(obs, corr), atol=1e-10)

    def test_factored_operator_matches_dense_and_explicit_inverse(self):
        """Longer pilots than users: factored, dense and textbook updates agree."""
        n_antennas, n_users, tau = 3, 4, 6
        corr = aggregate_correlation(
            [exponential_correlation(n_antennas, 0.6, 0.7 * k) for k in range(n_users)]
        )
        pilots = dft_pilots(tau, n_users).with_rho(1.3)
        model = build_bussgang_model(pilots, corr)
        stats = TemporalStats(np.array([0.95, 0.9, 0.5, 0.0]))
        phi_dense = model.a_diag[:, None] * pilots.phi_bar(n_antennas)
        eta = np.repeat(stats.eta, n_antennas)
        zeta = np.repeat(stats.zeta, n_antennas)
        rng = np.random.default_rng(12)
        factored = dense = kfb_init(corr, stats)
        h_ref, m_ref = dense.h_hat, dense.M_filt
        chan = init_channel(corr, rng)
        for i in range(1, 6):
            chan = replace(chan, slot=i)
            obs = quantize_pilot_slot(chan, pilots, model, rng)
            factored = kfb_step(factored, obs)
            dense = kfb_step(dense, replace(obs, phi_tilde=phi_dense))
            h_pred = eta * h_ref
            m_pred = np.outer(eta, eta) * m_ref + np.outer(zeta, zeta) * corr.matrix
            innov_cov = phi_dense @ m_pred @ phi_dense.conj().T + model.C_n_eff
            gain_mat = m_pred @ phi_dense.conj().T @ np.linalg.inv(innov_cov)
            h_ref = h_pred + gain_mat @ (obs.r - phi_dense @ h_pred)
            m_ref = m_pred - gain_mat @ phi_dense @ m_pred
            for state in (factored, dense):
                assert_allclose(state.h_hat, h_ref, atol=1e-12)
                assert_allclose(state.M_filt, m_ref, atol=1e-12)

    def test_tpe_error_trace_matches_scalar_recursion(self):
        """White channel: the matrix recursion collapses to the scalar one."""
        n_antennas, n_users, rho, eta, alpha = 4, 2, 1.0, 0.9, 0.8
        corr, pilots, model, stats, rng = self.setup_scene(
            n_antennas=n_antennas, n_users=n_users, eta=eta, rho=rho, seed=7
        )
        params = TheoryParams(K=n_users, rho=rho, eta=eta, alpha=alpha)
        _, m_filt = nmse_recursion(params, 8)
        state = kfb_init(corr, stats)
        chan = init_channel(corr, rng)
        for i in range(1, 9):
            chan = replace(chan, slot=i)
            obs = quantize_pilot_slot(chan, pilots, model, rng)
            state = kfb_step(state, obs, TpeGain(order=1, alpha=alpha))
            trace = np.real(np.trace(state.M_filt)) / (n_antennas * n_users)
            assert_allclose(trace, m_filt[i - 1], rtol=1e-12)

    def test_singular_innovation_reported_with_slot(self):
        corr = white_correlation(1, 2)
        stats = TemporalStats(np.array([0.9]))
        degenerate = BussgangModel(
            a_diag=np.zeros(2), C_y=np.eye(2), C_r=np.eye(2),
            C_q=np.zeros((2, 2)), C_n_eff=np.zeros((2, 2)),
        )
        obs = QuantizedObservation(slot=1, r=np.zeros(2, dtype=complex), model=degenerate,
                                   phi_tilde=np.zeros((2, 2), dtype=complex))
        with pytest.raises(np.linalg.LinAlgError, match="slot 1"):
            kfb_step(kfb_init(corr, stats), obs)


class TestTpeInverse:
    def test_diagonal_first_order(self):
        x = np.diag([1.0, 2.0])
        # alpha (I + (I - alpha X)) entrywise on the diagonal
        assert_allclose(tpe_inverse(x, 0.5, 1), np.diag([0.75, 0.5]), atol=1e-14)

    def test_order_zero_is_scaled_identity(self):
        x = np.eye(3) * 1.5
        assert_allclose(tpe_inverse(x, 0.5, 0), 0.5 * np.eye(3), atol=1e-15)

    def test_converges_to_inverse(self):
        rng = np.random.default_rng(8)
        q, _ = np.linalg.qr(rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16)))
        x = (q * rng.uniform(0.3, 1.0, 16)) @ q.conj().T
        x = 0.5 * (x + x.conj().T)
        approx = tpe_inverse(x, 1.0, 40)
        exact = np.linalg.inv(x)
        assert np.linalg.norm(approx - exact) / np.linalg.norm(exact) < 1e-3

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            tpe_inverse(np.eye(2), 0.5, -1)

    def test_out_of_range_scale_warns_but_runs(self):
        with pytest.warns(RuntimeWarning):
            out = tpe_inverse(np.eye(2), 2.5, 1)
        assert np.all(np.isfinite(out))
        with pytest.warns(RuntimeWarning):
            tpe_inverse(np.eye(2), -0.1, 1)


def test_blmmse_single_shot_error_floor():
    """Empirical one-shot error approaches 1 - beta for the white channel."""
    n_antennas, n_users, rho = 16, 2, 1.0
    corr = white_correlation(n_users, n_antennas)
    pilots = dft_pilots(n_users, n_users).with_rho(rho)
    model = build_bussgang_model(pilots, corr)
    rng = np.random.default_rng(9)
    err = 0.0
    power = 0.0
    trials = 400
    for _ in range(trials):
        state = init_channel(corr, rng)
        obs = quantize_pilot_slot(state, pilots, model, rng)
        h_hat = blmmse_estimate(obs, corr)
        err += np.sum(np.abs(h_hat - state.h) ** 2)
        power += np.sum(np.abs(state.h) ** 2)
    nmse = err / power
    assert abs(nmse - blmmse_nmse(n_users, rho)) < 0.03
