import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from onebit_mimo import (
    RateBreakdown,
    achievable_rates,
    bussgang_gain,
    default_config,
    parse_config,
    run_rate_experiment,
    zf_combiner,
)
from onebit_mimo import harness


def random_channel(rng, n_antennas, n_users, stack=()):
    shape = (*stack, n_antennas, n_users)
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


def svd_combiner(h):
    """The SVD combiner V diag(1/s) U^H with the 1e-12 cutoff, one SVD per member."""
    u, s, vh = np.linalg.svd(h, full_matrices=False)
    inv_s = np.divide(1.0, s, out=np.zeros_like(s), where=s > 1e-12 * s[..., :1])
    v_scaled = np.swapaxes(vh, -1, -2).conj() * inv_s[..., None, :]
    return v_scaled @ np.swapaxes(u, -1, -2).conj()


def spy_on_svd(monkeypatch):
    """Records the stack shape of every np.linalg.svd call."""
    svd, shapes = np.linalg.svd, []

    def spy(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", spy)
    return shapes


class TestDataGain:
    def test_reference_value(self):
        # sqrt((2/pi) / (K rho_d + 1)) at K = 4, rho_d = 1
        assert_allclose(bussgang_gain(4, 1.0), 0.3568248232305542, rtol=1e-14)

    def test_no_data_power_limit(self):
        assert_allclose(bussgang_gain(4, 0.0), np.sqrt(2.0 / np.pi), rtol=1e-14)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            bussgang_gain(0, 1.0)
        with pytest.raises(ValueError):
            bussgang_gain(4, -0.5)


class TestZfCombiner:
    def test_inverts_the_estimate(self):
        rng = np.random.default_rng(0)
        h = random_channel(rng, 8, 3)
        w = zf_combiner(h)
        assert_allclose(w @ h, np.eye(3), atol=1e-10)

    def test_rank_deficient_gets_pseudo_inverse(self):
        """Equal columns, or one exactly j times the other as one-bit bins give."""
        rng = np.random.default_rng(7)
        column = random_channel(rng, 4, 1)
        for h in (np.ones((4, 2), dtype=complex), np.hstack([column, 1j * column])):
            assert_allclose(zf_combiner(h), np.linalg.pinv(h, rcond=1e-12), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("shape", [(4, 4, 10, 16, 4), (2, 10, 32, 8), (2, 10, 128, 8)])
    def test_full_rank_stack_takes_no_svd(self, monkeypatch, shape):
        """Well-conditioned stacks are solved through the Gram's Cholesky factor alone."""
        rng = np.random.default_rng(sum(shape))
        h = random_channel(rng, *shape[-2:], stack=shape[:-2])
        expected = np.linalg.pinv(h, rcond=1e-12)
        shapes = spy_on_svd(monkeypatch)
        w = zf_combiner(h)
        assert shapes == []
        error = np.linalg.norm(w - expected, axis=(-2, -1))
        assert np.max(error / np.linalg.norm(expected, axis=(-2, -1))) < 1e-12

    def test_each_member_is_routed_on_its_own(self, monkeypatch):
        """Only ill-conditioned and deficient members take the SVD, each as if alone.

        Member 0 is well conditioned, member 1 has two columns 1e-7 apart,
        member 2 an exactly zero column and member 3 a column j times
        another. The zero column makes the stack's Cholesky factorization
        fail, which must move no other member.
        """
        rng = np.random.default_rng(11)
        h = random_channel(rng, 8, 3, stack=(4,))
        h[1, :, 1] = h[1, :, 0] + 1e-7 * random_channel(rng, 8, 1)[:, 0]
        h[2, :, 2] = 0.0
        h[3, :, 1] = 1j * h[3, :, 0]
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(np.swapaxes(h, -1, -2).conj() @ h)
        shapes = spy_on_svd(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            w = zf_combiner(h)
        assert sum(shape[0] for shape in shapes) == 3
        for index in range(4):
            assert np.array_equal(w[index], zf_combiner(h[index]))
        for index in (1, 2, 3):
            assert np.array_equal(w[index], svd_combiner(h[index]))
        assert_allclose(w[0] @ h[0], np.eye(3), atol=1e-12)
        assert np.all(w[2, 2] == 0.0)

    @pytest.mark.parametrize("scale", [1e-155, 1e-170, 1e160])
    def test_extreme_scales_take_the_svd_without_warnings(self, scale):
        """A Gram that over- or underflows routes its member to the SVD, as the SVD alone did.

        Member 1 has one column at the scale (its Gram's pivot is subnormal
        or its inverse overflows), member 2 is wholly at it.
        """
        rng = np.random.default_rng(5)
        h = random_channel(rng, 8, 3, stack=(3,))
        h[1, :, 2] *= scale
        h[2] *= scale
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            w = zf_combiner(h)
        for index in (1, 2):
            assert np.array_equal(w[index], svd_combiner(h[index]))
        assert_allclose(w[0] @ h[0], np.eye(3), atol=1e-12)

    def test_wide_matrix_rejected(self):
        with pytest.raises(ValueError):
            zf_combiner(np.ones((2, 4), dtype=complex))


class TestAchievableRates:
    def test_single_user_hand_computation(self):
        h = np.array([[1.0], [1.0j]])
        rho_d = 2.0
        out = achievable_rates(h, h, rho_d)
        a2 = (2.0 / np.pi) / (rho_d + 1.0)
        w_power = 0.5
        noise = a2 * w_power + (1.0 - 2.0 / np.pi) * w_power
        expected = np.log2(1.0 + rho_d * a2 / noise)
        assert_allclose(out.signal, [rho_d * a2], rtol=1e-12)
        assert_allclose(out.interference, [0.0], atol=1e-14)
        assert_allclose(out.noise, [noise], rtol=1e-12)
        assert_allclose(out.sum_rate, expected, rtol=1e-12)

    def test_zero_forcing_kills_interference(self):
        rng = np.random.default_rng(1)
        h_est = random_channel(rng, 16, 4)
        h_true = h_est + 0.1 * random_channel(rng, 16, 4)
        out = achievable_rates(h_true, h_est, 1.0)
        assert np.all(out.interference < 1e-10 * out.signal)

    def test_sum_matches_per_user(self):
        rng = np.random.default_rng(2)
        h_est = random_channel(rng, 16, 4)
        h_true = h_est + 0.3 * random_channel(rng, 16, 4)
        out = achievable_rates(h_true, h_est, 2.0)
        assert isinstance(out, RateBreakdown)
        assert np.all(np.isfinite(out.per_user)) and np.all(out.per_user > 0)
        assert_allclose(out.sum_rate, np.sum(out.per_user), rtol=1e-12)

    def test_estimation_error_costs_rate(self):
        rng = np.random.default_rng(3)
        h_true = random_channel(rng, 32, 4)
        noisy = h_true + random_channel(rng, 32, 4)
        perfect = achievable_rates(h_true, h_true, 1.0)
        degraded = achievable_rates(h_true, noisy, 1.0)
        assert perfect.sum_rate > degraded.sum_rate

    def test_zero_data_power_gives_zero_rate(self):
        rng = np.random.default_rng(4)
        h = random_channel(rng, 8, 2)
        out = achievable_rates(h, h, 0.0)
        assert_allclose(out.per_user, 0.0, atol=1e-15)
        assert out.sum_rate == 0.0

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            achievable_rates(np.ones((4, 2)), np.ones((4, 3)), 1.0)

    def test_negative_power_rejected(self):
        h = np.ones((4, 1), dtype=complex) + 1j
        with pytest.raises(ValueError):
            achievable_rates(h, h, -1.0)

    def test_stack_matches_per_matrix_calls(self):
        """An (E, S, M, K) stack gives each member's per-matrix breakdown."""
        rng = np.random.default_rng(5)
        h_true = random_channel(rng, 16, 4, stack=(3, 5))
        h_est = h_true + 0.3 * random_channel(rng, 16, 4, stack=(3, 5))
        out = achievable_rates(h_true, h_est, 2.0)
        assert out.sum_rate.shape == (3, 5) and out.per_user.shape == (3, 5, 4)
        for index in np.ndindex(3, 5):
            single = achievable_rates(h_true[index], h_est[index], 2.0)
            for field in ("signal", "interference", "noise", "per_user", "sum_rate"):
                assert_allclose(
                    getattr(out, field)[index], getattr(single, field), rtol=1e-14, atol=1e-14
                )

    def test_stack_with_one_rank_deficient_member(self):
        """The deficient member is its own per-matrix combiner; the others do not move."""
        rng = np.random.default_rng(6)
        h = random_channel(rng, 8, 2, stack=(2, 3))
        full_rank = zf_combiner(h)
        h[1, 2] = 1.0
        w = zf_combiner(h)
        assert np.all(np.isfinite(w[1, 2]))
        assert np.array_equal(w[1, 2], zf_combiner(h[1, 2]))
        w[1, 2] = full_rank[1, 2]
        assert np.array_equal(w, full_rank)
        assert np.all(np.isfinite(achievable_rates(h, h, 1.0).sum_rate))

    def test_zero_estimate_column_gets_rate_zero(self):
        """A user whose estimate is exactly zero has rate 0, without a 0/0."""
        rng = np.random.default_rng(8)
        h_true = random_channel(rng, 8, 3)
        h_est = h_true + 0.1 * random_channel(rng, 8, 3)
        h_est[:, 1] = 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            out = achievable_rates(h_true, h_est, 2.0)
            none = achievable_rates(h_true, np.zeros_like(h_est), 2.0)
        assert out.per_user[1] == 0.0 and np.all(out.per_user[[0, 2]] > 0)
        assert np.isfinite(out.sum_rate)
        assert none.sum_rate == 0.0

    def test_rate_run_calls_once_per_chunk_and_snr_point(self, monkeypatch):
        """A chunk's (trials, estimators, slots) stack goes through one call per SNR point."""
        shapes = []

        def counting(h_true, h_est, rho_d):
            shapes.append(h_est.shape)
            return achievable_rates(h_true, h_est, rho_d)

        monkeypatch.setattr(harness, "achievable_rates", counting)
        cfg = parse_config(
            "M = 8\nK = 2\ntau = 2\nslots = 3\ntrials = 5\nmode = rate\n"
            "snr_db = [0, 10]\nestimators = [blmmse, kfb]\n",
            base=default_config(),
        )
        # Chunks of 2, 2 and 1 trials, each rated at both points in turn.
        monkeypatch.setattr(harness, "_CHUNK_BYTES", 2 * 16 * cfg.K * cfg.M**2)
        run_rate_experiment(cfg)
        assert shapes == [(2, 2, 3, 8, 2)] * 4 + [(1, 2, 3, 8, 2)] * 2
