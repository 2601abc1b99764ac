import numpy as np
import pytest
from numpy.testing import assert_allclose

from onebit_mimo import (
    SpatialCorrelation,
    aggregate_correlation,
    arcsin_covariance,
    build_bussgang_model,
    build_per_user_model,
    dft_pilots,
    exponential_correlation,
    init_channel,
    complex_normal,
    ls_estimates,
    one_bit_quantize,
    quantize_pilot_slot,
    received_pilot_signal,
    stack_correlation,
)
from onebit_mimo.quantization import pilot_signal
from onebit_mimo.reference import QuantizedObservation, ScaledPilotOperator, ls_estimate


def white_correlation(n_users, n_antennas):
    return aggregate_correlation(
        [exponential_correlation(n_antennas, 0.0, 0.0) for _ in range(n_users)]
    )


class TestDftPilots:
    def test_two_point_matrix(self):
        pilots = dft_pilots(2, 2)
        assert_allclose(pilots.phi, [[1.0, 1.0], [1.0, -1.0]], atol=1e-15)

    @pytest.mark.parametrize("tau,k", [(2, 2), (3, 3), (4, 4), (8, 8), (8, 3)])
    def test_column_orthogonality(self, tau, k):
        phi = dft_pilots(tau, k).phi
        assert_allclose(phi.T @ phi.conj(), tau * np.eye(k), atol=1e-10)

    def test_unit_modulus(self):
        phi = dft_pilots(8, 5).phi
        assert_allclose(np.abs(phi), 1.0, atol=1e-12)

    def test_shape_properties(self):
        pilots = dft_pilots(8, 3)
        assert pilots.tau == 8
        assert pilots.K == 3

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            dft_pilots(2, 3)
        with pytest.raises(ValueError):
            dft_pilots(4, 0)


class TestPilotOperator:
    def test_scalar_case(self):
        op = dft_pilots(1, 1).with_rho(4.0).phi_bar(1)
        assert_allclose(op, [[2.0]], atol=1e-15)

    def test_shape(self):
        op = dft_pilots(4, 2).with_rho(1.0).phi_bar(3)
        assert op.shape == (12, 6)

    def test_power_must_be_set(self):
        with pytest.raises(ValueError):
            dft_pilots(2, 2).phi_bar(2)
        with pytest.raises(ValueError):
            pilot_signal(np.ones(2), dft_pilots(2, 2), np.zeros(2))
        with pytest.raises(ValueError):
            dft_pilots(2, 2).with_rho(0.0)
        # The bin gain, and LS through it, raise scaled_phi's ValueError.
        with pytest.raises(ValueError, match="pilot power not set"):
            dft_pilots(4, 4).gain
        with pytest.raises(ValueError, match="pilot power not set"):
            ls_estimates(dft_pilots(4, 4), np.ones((4, 2), dtype=complex))
        # So does the dense reference LS.
        obs = QuantizedObservation(slot=0, r=np.ones(8, dtype=complex))
        with pytest.raises(ValueError, match="pilot power not set"):
            ls_estimate(obs, dft_pilots(4, 4))

    @pytest.mark.parametrize("tau,k,n_antennas", [(6, 4, 1), (6, 4, 3), (4, 4, 5)])
    def test_apply_and_adjoint_match_dense_kron(self, tau, k, n_antennas):
        """The factored operator with unit gain, and pilot_signal in all its layouts."""
        pilots = dft_pilots(tau, k).with_rho(1.7)
        dense = pilots.phi_bar(n_antennas)
        op = ScaledPilotOperator(a_diag=np.ones(tau * n_antennas), pilots=pilots)
        rng = np.random.default_rng(10)
        x = rng.standard_normal((k * n_antennas, 3)) + 1j * rng.standard_normal((k * n_antennas, 3))
        y = rng.standard_normal((tau * n_antennas, 3)) + 1j * rng.standard_normal((tau * n_antennas, 3))
        assert_allclose(op @ x, dense @ x, atol=1e-13)
        assert_allclose(op @ x[:, 0], dense @ x[:, 0], atol=1e-13)
        assert_allclose(op.adjoint(y), dense.conj().T @ y, atol=1e-13)
        assert_allclose(op.adjoint(y[:, 0]), dense.conj().T @ y[:, 0], atol=1e-13)
        # One (K, M) channel, a stack of them, and columns with their noise flattened.
        channels = x.T.reshape(3, k, n_antennas)
        expected = dense @ x + y
        assert_allclose(pilot_signal(channels[0], pilots, y[:, 0]), expected[:, 0], atol=1e-13)
        assert_allclose(pilot_signal(channels, pilots, y.T), expected.T, atol=1e-13)
        flat = pilot_signal(x, pilots, y.reshape(-1)).reshape(y.shape)
        assert_allclose(flat, expected, atol=1e-13)

    def test_pilot_signal_adds_the_noise_last(self):
        """The product plus the noise, bit for bit, and the noise left as it was."""
        pilots = dft_pilots(4, 3).with_rho(2.5)
        rng = np.random.default_rng(11)
        h = rng.standard_normal((5, 3, 6)) + 1j * rng.standard_normal((5, 3, 6))
        noise = rng.standard_normal((5, 24)) + 1j * rng.standard_normal((5, 24))
        kept = noise.copy()
        product = (pilots.scaled_phi() @ h).reshape(noise.shape)
        np.testing.assert_array_equal(pilot_signal(h, pilots, noise), product + noise)
        np.testing.assert_array_equal(noise, kept)


def where_quantize(y):
    """The quantizer as the test y >= 0 of each part writes it."""
    y = np.asarray(y)
    level = 1.0 / np.sqrt(2.0)
    out = np.empty(y.shape, dtype=complex)
    out.real = np.where(y.real >= 0, level, -level)
    out.imag = np.where(y.imag >= 0, level, -level)
    return out


def assert_same_bits(actual, expected):
    assert actual.dtype == expected.dtype and actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


class TestOneBitQuantize:
    SIGNED = [0.0, -0.0, np.inf, -np.inf, 1e-300, -1e-300, 2.5, -2.5]

    def test_same_bits_as_the_sign_test(self):
        rng = np.random.default_rng(12)
        y = rng.standard_normal((3, 7, 64)) + 1j * rng.standard_normal((3, 7, 64))
        assert_same_bits(one_bit_quantize(y), where_quantize(y))

    def test_signed_zeros_and_infinities_in_each_part(self):
        parts = np.array(self.SIGNED)
        y = np.empty((parts.size, parts.size), dtype=complex)
        y.real, y.imag = parts[:, None], parts[None, :]
        assert_same_bits(one_bit_quantize(y), where_quantize(y))

    def test_real_input(self):
        y = np.array(self.SIGNED)
        assert_same_bits(one_bit_quantize(y), where_quantize(y))

    def test_strided_input_and_scalars(self):
        rng = np.random.default_rng(13)
        y = rng.standard_normal((8, 10)) + 1j * rng.standard_normal((8, 10))
        for view in (y[::2, 1::3], y.T, y.real[:, ::-1]):
            assert_same_bits(one_bit_quantize(view), where_quantize(view))
        assert_same_bits(one_bit_quantize(-0.0 - 1j), where_quantize(-0.0 - 1j))

    def test_input_left_as_it_was(self):
        y = np.array([-1.0 + 2.0j, -0.0 - 0.0j])
        kept = y.copy()
        one_bit_quantize(y)
        assert y.tobytes() == kept.tobytes()

    def test_octant_mapping(self):
        y = np.array([1.5 + 0.3j, -2.0 + 1.0j, 0.1 - 9.0j, -0.2 - 0.2j])
        expected = np.array([1 + 1j, -1 + 1j, 1 - 1j, -1 - 1j]) / np.sqrt(2.0)
        assert_allclose(one_bit_quantize(y), expected, atol=1e-15)

    def test_zero_maps_positive(self):
        assert_allclose(one_bit_quantize(np.array([0.0 + 0.0j])), [(1 + 1j) / np.sqrt(2)])

    def test_unit_power_per_entry(self):
        rng = np.random.default_rng(0)
        y = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        r = one_bit_quantize(y)
        assert_allclose(np.abs(r), 1.0, atol=1e-12)

    def test_idempotent(self):
        rng = np.random.default_rng(1)
        y = rng.standard_normal(32) + 1j * rng.standard_normal(32)
        r = one_bit_quantize(y)
        assert_allclose(one_bit_quantize(r), r, atol=1e-15)


class TestReceivedSignal:
    def test_noise_accounting(self):
        corr = white_correlation(2, 3)
        pilots = dft_pilots(2, 2).with_rho(2.0)
        rng = np.random.default_rng(2)
        state = init_channel(corr, rng)
        y = received_pilot_signal(state, pilots, rng)
        assert y.shape == (6,)
        # Replay the same stream up to the pilot noise draw.
        replay = np.random.default_rng(2)
        init_channel(corr, replay)
        noise = complex_normal(replay, 6)
        assert_allclose(y - noise, pilots.phi_bar(3) @ state.h, atol=1e-12)


class TestBussgangOperator:
    def test_scalar_gain(self):
        # C_y = rho + 1 = 4, so a = sqrt(2/pi)/2
        corr = white_correlation(1, 1)
        model = build_bussgang_model(dft_pilots(1, 1).with_rho(3.0), corr)
        assert_allclose(model.C_y, [[4.0]], atol=1e-14)
        assert_allclose(model.a_diag, [0.3989422804014327], rtol=1e-14)

    def test_unit_diagonal_correlation_gives_flat_gain(self):
        """Unit-modulus pilots see diag(C_y) = K rho + 1 whatever the spatial shape."""
        users = [exponential_correlation(4, 0.7, 0.5), exponential_correlation(4, 0.7, 2.0)]
        corr = aggregate_correlation(users)
        model = build_bussgang_model(dft_pilots(2, 2).with_rho(1.5), corr)
        assert_allclose(np.real(np.diag(model.C_y)), 2 * 1.5 + 1.0, atol=1e-10)
        assert np.all(model.a_diag > 0)

    def test_analog_covariance_matches_dense_product(self):
        corr = aggregate_correlation([exponential_correlation(3, 0.6, th) for th in (0.2, 1.1, 2.9)])
        pilots = dft_pilots(5, 3).with_rho(2.0)
        phi_bar = pilots.phi_bar(3)
        dense = phi_bar @ corr.matrix @ phi_bar.conj().T + np.eye(15)
        assert_allclose(build_bussgang_model(pilots, corr).C_y, dense, atol=1e-13)


class TestArcsinCovariance:
    def test_real_two_by_two(self):
        c_y = np.array([[2.0, 1.0], [1.0, 2.0]])
        # normalized off-diagonal 1/2, arcsin(1/2)*2/pi = 1/3
        assert_allclose(arcsin_covariance(c_y), [[1.0, 1 / 3], [1 / 3, 1.0]], atol=1e-15)

    def test_unit_diagonal_and_hermitian(self):
        rng = np.random.default_rng(3)
        g = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        c_y = g @ g.conj().T + np.eye(6)
        c_r = arcsin_covariance(c_y)
        assert_allclose(np.diag(c_r), np.ones(6), atol=1e-12)
        assert_allclose(c_r, c_r.conj().T, atol=1e-12)
        assert np.linalg.eigvalsh(c_r).min() > -1e-8

    def test_fully_coherent_input_clamps(self):
        c_y = np.ones((2, 2))
        c_r = arcsin_covariance(c_y)
        assert np.all(np.isfinite(c_r))
        assert_allclose(c_r, np.ones((2, 2)), atol=1e-14)


class TestNoiseCovariance:
    def test_white_channel_closed_form(self):
        """For R = I and tau = K the distortion is (1 - 2/pi) I exactly."""
        corr = white_correlation(2, 2)
        model = build_bussgang_model(dft_pilots(2, 2).with_rho(1.0), corr)
        assert_allclose(model.C_q, (1.0 - 2.0 / np.pi) * np.eye(4), atol=1e-12)
        # effective noise 1 - beta with beta = (2/pi) K rho / (K rho + 1)
        assert_allclose(model.C_n_eff, 0.5755868184216124 * np.eye(4), atol=1e-12)

    def test_distortion_psd(self):
        users = [exponential_correlation(3, 0.5, 0.3) for _ in range(2)]
        corr = aggregate_correlation(users)
        model = build_bussgang_model(dft_pilots(2, 2).with_rho(2.0), corr)
        assert np.linalg.eigvalsh(model.C_q).min() > -1e-8


class TestQuantizeSlot:
    def test_observation_contents(self):
        corr = white_correlation(2, 3)
        pilots = dft_pilots(2, 2).with_rho(1.0)
        model = build_bussgang_model(pilots, corr)
        rng = np.random.default_rng(4)
        state = init_channel(corr, rng)
        obs = quantize_pilot_slot(state, pilots, model, rng)
        assert obs.slot == 0
        assert obs.model is model
        assert_allclose(np.abs(obs.r), 1.0, atol=1e-12)
        phi_tilde = model.a_diag[:, None] * pilots.phi_bar(3)
        assert_allclose(obs.phi_tilde @ np.eye(6), phi_tilde, atol=1e-14)
        assert_allclose(obs.phi_tilde.adjoint(np.eye(6)), phi_tilde.conj().T, atol=1e-14)


class TestPerUserModelOnLags:
    """The lag-vector model of exponential priors against the block model of their dense copies."""

    @staticmethod
    def priors(n_antennas, n_users, trials):
        """An exponential stack, (K,) or (T, K) users, and a dense C-ordered copy of it."""
        theta = np.random.default_rng(n_antennas).uniform(0.0, 2.0 * np.pi, (trials or 1, n_users))
        users = [exponential_correlation(n_antennas, 0.8, row) for row in theta]
        prior = stack_correlation(users) if trials else users[0]
        dense = SpatialCorrelation(
            matrix=np.ascontiguousarray(prior.matrix), sqrt_factor=prior.sqrt_factor
        )
        return prior, dense

    @pytest.mark.parametrize("trials", [None, 3])
    @pytest.mark.parametrize("extra", [0, 1])
    @pytest.mark.parametrize("n_antennas", [1, 2, 5, 16])
    def test_same_model_as_the_dense_blocks(self, n_antennas, extra, trials):
        """tau = K (even: its middle lag is its own adjoint) and tau = K + 1 (odd)."""
        n_users = 2
        pilots = dft_pilots(n_users + extra, n_users).with_rho(10.0 ** 0.5)
        prior, dense = self.priors(n_antennas, n_users, trials)
        lagged, blocks = build_per_user_model(pilots, prior), build_per_user_model(pilots, dense)
        lead = (trials,) if trials else ()
        assert lagged.C_n_eff.shape == blocks.C_n_eff.shape == lead + (n_users,) + (n_antennas,) * 2
        assert lagged.gain == blocks.gain
        for k in np.ndindex(blocks.C_n_eff.shape[:-2]):
            expected = blocks.C_n_eff[k]
            error = np.abs(lagged.C_n_eff[k] - expected).max()
            assert error <= 1e-14 * np.abs(expected).max()

    def test_views_cannot_be_written(self):
        """A write through a Toeplitz view would alias a whole diagonal, so it raises."""
        prior, _ = self.priors(4, 2, None)
        model = build_per_user_model(dft_pilots(2, 2).with_rho(1.0), prior)
        for view in (prior.matrix, model.C_n_eff):
            with pytest.raises(ValueError, match="read-only"):
                view[..., 0, 1] = 0.0
