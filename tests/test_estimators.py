import warnings
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from onebit_mimo import (
    ExactGain,
    QuantizedObservation,
    SpatialCorrelation,
    TemporalStats,
    TheoryParams,
    TpeGain,
    aggregate_correlation,
    blmmse_estimate,
    blmmse_estimates,
    blmmse_nmse,
    build_bussgang_model,
    build_eigenbasis,
    build_per_user_model,
    default_config,
    dft_pilots,
    evolve_channel,
    exponential_correlation,
    init_channel,
    jakes_coefficient,
    kalman_estimates,
    kfb_init,
    kfb_step,
    ls_estimate,
    ls_estimates,
    nmse_recursion,
    one_bit_quantize,
    parse_config,
    psd_sqrt,
    quantize_pilot_slot,
    received_pilot_signal,
    run_nmse_experiment,
    sample_correlation,
    stack_correlation,
    tpe_estimates,
    tpe_inverse,
    user_frame,
)
from onebit_mimo import estimators
from onebit_mimo.reference import BussgangModel


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
        """Antennas 2 and 3 saw no power: they get the channel model's unit variance."""
        sample = np.array([[1.0 + 0j, 0.0, 0.0]])
        est = sample_correlation(sample)
        expected = np.outer(sample[0], sample[0].conj())
        np.fill_diagonal(expected, 1.0)
        assert_allclose(est.matrix, expected, atol=1e-14)

    def test_consistency_with_known_correlation(self):
        corr = exponential_correlation(4, 0.6, 0.9)
        rng = np.random.default_rng(1)
        g = (rng.standard_normal((20_000, 4)) + 1j * rng.standard_normal((20_000, 4))) / np.sqrt(2)
        samples = g @ corr.sqrt_factor.T
        est = sample_correlation(samples)
        assert np.max(np.abs(est.matrix - corr.matrix)) < 0.05

    def test_diagonal_rescaling(self):
        """The diagonal is exactly 1, also at an antenna whose every sample is zero."""
        rng = np.random.default_rng(2)
        g = (rng.standard_normal((5000, 3)) + 1j * rng.standard_normal((5000, 3))) / np.sqrt(2)
        silent = g.copy()
        silent[:, 1] = 0.0
        for samples in (g, silent):
            scaled = sample_correlation(0.2 * samples)
            assert np.all(np.diag(scaled.matrix) == 1.0)

    @pytest.mark.parametrize("count", [3, 20])
    def test_factor_of_each_matrix_in_a_stack(self, count):
        """Each (trial, user) matrix is its own call's, Hermitian and PSD to rounding.

        Also rank deficient (count < M), where rounding leaves some of the
        raw averages' eigenvalues negative.
        """
        # At count = 3, 5 of this seed's 6 raw averages have a negative eigenvalue.
        rng = np.random.default_rng(2)
        shape = (2, 3, count, 6)
        samples = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        est = sample_correlation(samples)
        assert est.matrix.shape == (2, 3, 6, 6) and est.sqrt_factor is None
        # The unit diagonal cancels a scale of the Gram, such as LS's 1 / sqrt(tau rho).
        scaled = estimators.gram_correlation(estimators.sample_gram(samples) / np.sqrt(4 * 10.0**0.5))
        assert_allclose(scaled.matrix, est.matrix, rtol=0, atol=1e-15)
        for t, k in np.ndindex(2, 3):
            matrix = est.matrix[t, k]
            assert_allclose(matrix, sample_correlation(samples[t, k]).matrix, rtol=0, atol=1e-12)
            assert_allclose(matrix, matrix.conj().T, rtol=0, atol=1e-15)
            assert np.linalg.eigvalsh(matrix)[0] >= -1e-12 * np.linalg.norm(matrix)
        if count < 6:
            raw = np.swapaxes(samples, -1, -2) @ samples.conj() / count
            clamped = np.linalg.eigvalsh(0.5 * (raw + np.swapaxes(raw, -1, -2).conj()))[..., 0] < 0
            assert clamped.any() and not clamped.all()

    def test_result_is_psd(self):
        rng = np.random.default_rng(3)
        samples = rng.standard_normal((3, 6)) + 1j * rng.standard_normal((3, 6))
        est = sample_correlation(samples)
        assert np.linalg.eigvalsh(est.matrix).min() > -1e-12

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            sample_correlation(np.empty((0, 4)))


class TestBlmmse:
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
            assert np.array_equal(state.M_filt, state.M_filt.conj().T)

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


def learned_rank_deficient_users(n_antennas, n_users, samples, rng):
    """Per-user sample correlations from fewer samples than antennas, with no factor."""
    users = []
    for k in range(n_users):
        shape = (samples, n_antennas)
        g = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        factor = exponential_correlation(n_antennas, 0.7, k).sqrt_factor
        users.append(sample_correlation(g @ factor.T))
    return users


# (tau, K, M) scenes for the per-user estimators, with distinct per-user eta
# except in the block-fading (eta = 0) and static (eta = 1) cases.
PER_USER_CASES = {
    "tau_above_users": dict(n_antennas=3, n_users=4, tau=6, eta=[0.95, 0.9, 0.5, 0.0]),
    "dense_operator": dict(n_antennas=5, n_users=4, tau=4, eta=[0.99, 0.9, 0.7, 0.3], dense=True),
    "rank_deficient_factor": dict(n_antennas=6, n_users=2, tau=5, eta=[0.9, 0.6], samples=3),
    "block_fading": dict(n_antennas=4, n_users=2, tau=3, eta=[0.0, 0.0]),
    "static_channel": dict(n_antennas=4, n_users=2, tau=2, eta=[1.0, 1.0]),
    # Lags 5, 6 and 7 are the adjoints of lags 3, 2 and 1 in build_per_user_model.
    "three_mirrored_lags": dict(n_antennas=3, n_users=3, tau=8, eta=[0.9, 0.6, 0.2]),
    "single_pilot_slot": dict(n_antennas=4, n_users=1, tau=1, eta=[0.8]),
    # Learned from a single probe sample: rank one, M - 1 directions with lam = 0.
    "rank_one_learned": dict(n_antennas=5, n_users=2, tau=3, eta=[0.9, 0.3], samples=1),
    # Centro-Hermitian but of rank 2: its real form has no Cholesky factor.
    "singular_centro_hermitian": dict(
        n_antennas=5, n_users=2, tau=2, eta=[0.9, 0.5], samples=1, forward_backward=True
    ),
    # Learned, full rank and exactly centro-Hermitian.
    "centro_hermitian_learned": dict(
        n_antennas=5, n_users=2, tau=3, eta=[0.8, 0.4], samples=3, forward_backward=True
    ),
}


def forward_backward(corr):
    """(R + J conj(R) J) / 2, exactly centro-Hermitian, with a factor of its own."""
    matrix = 0.5 * (corr.matrix + corr.matrix[::-1, ::-1].conj())
    return SpatialCorrelation(matrix=matrix, sqrt_factor=psd_sqrt(matrix))


def per_user_scene(case):
    """True and receiver-side correlations, pilots and both models for a case.

    The pilot power keeps every innovation covariance's lambda_max below
    2 / 0.5, so TpeGain(1, 0.5) converges in all cases.
    """
    params = PER_USER_CASES[case]
    n_antennas, n_users = params["n_antennas"], params["n_users"]
    rng = np.random.default_rng(21)
    users = [exponential_correlation(n_antennas, 0.6, 0.7 * k) for k in range(n_users)]
    users_est = users
    if "samples" in params:
        users_est = learned_rank_deficient_users(n_antennas, n_users, params["samples"], rng)
        rank = params["samples"]
        if params.get("forward_backward"):
            users_est, rank = [forward_backward(u) for u in users_est], 2 * rank
        rank = min(rank, n_antennas)
        ranks = [np.linalg.matrix_rank(u.matrix, hermitian=True) for u in users_est]
        assert ranks == [rank] * n_users
    corr_est = aggregate_correlation(users_est)
    pilots = dft_pilots(params["tau"], n_users).with_rho(0.5)
    prior = stack_correlation(users_est)
    per_user = build_per_user_model(pilots, prior)
    return dict(
        rng=rng,
        corr=aggregate_correlation(users),
        corr_est=corr_est,
        prior=prior,
        pilots=pilots,
        model=build_bussgang_model(pilots, corr_est),
        per_user=per_user,
        stats=TemporalStats(np.array(params["eta"])),
        dense=params.get("dense", False),
        **frame_inputs(prior, per_user),
    )


def frame_inputs(prior, model):
    """The trial's frame (user_frame): its into map, and R, D and C_n_eff in it."""
    form, into = user_frame(prior)
    return dict(into=into, matrices=(form(prior.matrix), model.gain, form(model.C_n_eff)))


def into_frame(scene, h):
    """A dense reference estimate h (n,) as the scene's (K, M) stack, in its frame."""
    return scene["into"](np.reshape(h, (-1, scene["prior"].shape[-1])))


def per_user_slots(scene, slots=10):
    """The dense observations of quantized slots, and their user bins (S, K, M) in the frame."""
    rng, corr, stats = scene["rng"], scene["corr"], scene["stats"]
    chan = init_channel(corr, rng)
    observations = []
    for _ in range(slots):
        chan = evolve_channel(chan, stats, corr, rng)
        observations.append(quantize_pilot_slot(chan, scene["pilots"], scene["model"], rng))
    bins = np.stack([scene["pilots"].bins(obs.r) for obs in observations])
    return observations, scene["into"](bins)


def kalman_reference_obs(scene, obs):
    """The observation for the kfb_step reference, with a dense phi_tilde if the case asks."""
    if not scene["dense"]:
        return obs
    phi_bar = scene["pilots"].phi_bar(scene["prior"].shape[-1])
    return replace(obs, phi_tilde=scene["model"].a_diag[:, None] * phi_bar)


def run_kalman(basis, eta, bins):
    """kalman_estimates on the bins (..., S, K, M) and the basis's measurement: (h_hat, trace)."""
    h_hat = np.empty_like(bins)
    return h_hat, kalman_estimates(basis, eta, basis.measure(bins), h_hat)


def run_tpe(matrices, eta, expansion, bins):
    """tpe_estimates on R, D and C_n_eff in the bins' frame: (h_hat, the last M_filt)."""
    h_hat = np.empty_like(bins)
    return h_hat, tpe_estimates(*matrices, eta, expansion, bins, h_hat)


def assert_close_norm(estimate, reference):
    """Within 1e-12 of the reference, norm-relative."""
    gap = np.linalg.norm(np.ravel(estimate) - np.ravel(reference))
    assert gap <= 1e-12 * np.linalg.norm(reference)


class TestEigenbasisKalman:
    """kalman_estimates on its eigenbasis reproduces a kfb_step loop slot by slot.

    Both trackers take the trial's frame (user_frame), and tpe_estimates's
    arithmetic follows it.
    """

    @pytest.mark.parametrize("case", sorted(PER_USER_CASES))
    def test_matches_kalman_steps(self, case):
        """One call over all the slots against kfb_step at each of them."""
        scene = per_user_scene(case)
        corr_est = scene["corr_est"]
        basis = build_eigenbasis(*scene["matrices"])
        state = kfb_init(corr_est, scene["stats"])
        # At p = 1, before any slot, the error trace is trace(R).
        prior_trace = np.real(np.trace(corr_est.matrix))
        assert np.sum(basis.weights) == pytest.approx(prior_trace, rel=1e-12)
        observations, bins = per_user_slots(scene)
        h_hat, trace = run_kalman(basis, scene["stats"].eta, bins)
        assert h_hat.shape == bins.shape and trace.shape == (len(bins),)
        for i, obs in enumerate(observations):
            state = kfb_step(state, kalman_reference_obs(scene, obs), ExactGain())
            assert_close_norm(h_hat[i], into_frame(scene, state.h_hat))
            assert_close_norm(trace[i], np.real(np.trace(state.M_filt)))
            if np.all(scene["stats"].eta == 0.0):
                assert_close_norm(h_hat[i], into_frame(scene, blmmse_estimate(obs, corr_est)))

    def test_static_track_error_trace_is_the_information_form(self):
        """A static channel over 1000 slots at 30 dB: the trace within 1e-13 of the exact one.

        With eta = 1 the filtered covariance after s slots is
        (R_k^{-1} + s D^2 C_n_eff,k^{-1})^{-1} per user. Its trace is a
        small fraction of tr R there, which a difference tr R - ... would
        carry at tr R's rounding.
        """
        prior = exponential_correlation(8, 0.7, np.array([0.4, 2.1]))
        model = build_per_user_model(dft_pilots(2, 2).with_rho(1000.0), prior)
        slots = 1000
        matrices = frame_inputs(prior, model)["matrices"]
        rng = np.random.default_rng(4)
        shape = (slots, 2, 8)
        bins = one_bit_quantize(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        _, trace = run_kalman(build_eigenbasis(*matrices), np.ones(2), bins)
        corr, d, noise = prior.matrix, model.gain, np.asarray(model.C_n_eff)
        for s in (1, 10, slots):
            info = np.linalg.inv(corr) + s * d * d * np.linalg.inv(noise)
            exact = np.sum(np.real(np.trace(np.linalg.inv(info), axis1=-2, axis2=-1)))
            assert abs(trace[s - 1] - exact) <= 1e-13 * exact

    @pytest.mark.parametrize(
        "case,dtype",
        [("tau_above_users", np.float64), ("rank_deficient_factor", np.complex128),
         ("singular_centro_hermitian", np.complex128),
         ("centro_hermitian_learned", np.complex128)],
    )
    def test_real_arithmetic_for_centro_hermitian_priors(self, monkeypatch, case, dtype):
        """Exponential priors take the real path and keep G and H real.

        Learned ones take the complex path, also when they are exactly
        centro-Hermitian: the type of the prior chooses the frame.
        """
        scene = per_user_scene(case)
        eigh, seen = np.linalg.eigh, []

        def spy(matrix):
            seen.append(matrix.dtype)
            return eigh(matrix)

        monkeypatch.setattr(np.linalg, "eigh", spy)
        basis = build_eigenbasis(*scene["matrices"])
        assert seen == [dtype]
        assert (basis.G.dtype, basis.H.dtype) == (dtype, dtype)

    @pytest.mark.parametrize(
        "case,dtype",
        [("tau_above_users", np.float64), ("three_mirrored_lags", np.float64),
         ("rank_deficient_factor", np.complex128), ("centro_hermitian_learned", np.complex128)],
    )
    def test_tpe_arithmetic_follows_the_frame(self, monkeypatch, case, dtype):
        """tpe_estimates runs its bound and its covariance products in the frame's dtype.

        On an exponential prior the eigvalsh of its bound, the innovation
        covariance and polynomial of every slot, the gain of its mat-vec
        and M_filt are float64; on a learned prior, complex128. The state
        and the estimates stay complex.
        """
        scene = per_user_scene(case)
        _, bins = per_user_slots(scene, slots=3)
        eigvalsh, expand, apply = np.linalg.eigvalsh, estimators.tpe_inverse, estimators._apply
        seen = {"eigvalsh": [], "tpe_inverse": [], "_apply": []}

        def spying(name, fn):
            """fn, recording the dtypes of its first argument and of its result."""

            def call(*args):
                result = fn(*args)
                seen[name].append((args[0].dtype, result.dtype))
                return result

            return call

        monkeypatch.setattr(np.linalg, "eigvalsh", spying("eigvalsh", eigvalsh))
        monkeypatch.setattr(estimators, "tpe_inverse", spying("tpe_inverse", expand))
        monkeypatch.setattr(estimators, "_apply", spying("_apply", apply))
        h_hat, m_filt = run_tpe(scene["matrices"], scene["stats"].eta, TpeGain(1, 0.5), bins)
        assert seen["eigvalsh"] == [(dtype, np.float64)]
        assert seen["tpe_inverse"] == [(dtype, dtype)] * 3
        assert seen["_apply"] == [(dtype, np.complex128)] * 3
        assert m_filt.dtype == dtype and h_hat.dtype == np.complex128

    @pytest.mark.parametrize("kind", ["exponential", "learned"])
    def test_stacked_trials_equal_each_trial(self, kind):
        """Each trial of a stack equals its own basis and tracker, bit for bit.

        The basis and the tracker's measurements, estimates and error traces,
        in the real frame of exponential priors and the complex one of
        learned priors.
        """
        rng = np.random.default_rng(3)
        if kind == "exponential":
            users = [[exponential_correlation(5, 0.6, 0.7 * k + t) for k in range(2)]
                     for t in range(4)]
        else:
            users = [learned_rank_deficient_users(5, 2, 3, rng),
                     [forward_backward(u) for u in learned_rank_deficient_users(5, 2, 1, rng)],
                     [forward_backward(u) for u in learned_rank_deficient_users(5, 2, 4, rng)],
                     learned_rank_deficient_users(5, 2, 6, rng)]
        trials = [stack_correlation(u) for u in users]
        pilots = dft_pilots(2, 2).with_rho(0.5)
        stacked = stack_correlation(trials)
        eta = np.array([0.9, 0.5])
        shape = (len(trials), 3, 2, 5)
        frame = frame_inputs(stacked, build_per_user_model(pilots, stacked))
        bins = one_bit_quantize(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        bins = frame["into"](bins)
        whole = build_eigenbasis(*frame["matrices"])
        assert np.iscomplexobj(whole.G) == (kind == "learned")
        (h_hat, trace), measured = run_kalman(whole, eta, bins), whole.measure(bins)
        for t, prior in enumerate(trials):
            alone = build_eigenbasis(
                *frame_inputs(prior, build_per_user_model(pilots, prior))["matrices"]
            )
            assert np.array_equal(whole.lam[t], alone.lam)
            assert np.array_equal(whole.weights[t], alone.weights)
            single, single_trace = run_kalman(alone, eta, bins[t])
            assert np.array_equal(h_hat[t], single)
            assert np.array_equal(trace[t], single_trace)
            assert np.array_equal(measured[t], alone.measure(bins[t]))

    def test_non_positive_definite_noise_rejected(self):
        with pytest.raises(np.linalg.LinAlgError, match="C_n_eff"):
            build_eigenbasis(np.eye(2)[None], 1.0, np.zeros((1, 2, 2)))


class TestPerUserEstimators:
    """The per-user model and estimators against the dense references."""

    @pytest.mark.parametrize("case", sorted(PER_USER_CASES))
    def test_model_is_the_user_bin_blocks_of_the_dense_model(self, case):
        scene = per_user_scene(case)
        pilots, model, per_user = scene["pilots"], scene["model"], scene["per_user"]
        tau, n_users = pilots.phi.shape
        n_antennas = scene["prior"].shape[-1]
        # Unitary DFT across the pilot slots; its first K rows are the user bins.
        dft = np.kron(dft_pilots(tau, tau).phi.conj().T / np.sqrt(tau), np.eye(n_antennas))
        assert isinstance(per_user.gain, float)
        assert_allclose(pilots.gain * model.a_diag, per_user.gain, rtol=1e-14)
        # C_n_eff is built from the C_r lag blocks, so an arcsine error shows here too.
        blocks = (dft @ model.C_n_eff @ dft.conj().T).reshape(tau, n_antennas, tau, n_antennas)
        for k in range(tau):
            for j in range(tau):
                if j != k:
                    assert np.abs(blocks[k, :, j]).max() <= 1e-12
                elif k < n_users:
                    assert_allclose(blocks[k, :, k], per_user.C_n_eff[k], atol=1e-12)

    @pytest.mark.parametrize("case", sorted(PER_USER_CASES))
    def test_single_shot_matches_dense(self, case):
        scene = per_user_scene(case)
        observations, bins = per_user_slots(scene)
        ls_hat = ls_estimates(scene["pilots"], bins)
        basis = build_eigenbasis(*scene["matrices"])
        blmmse_hat = blmmse_estimates(basis, basis.measure(bins), np.empty_like(bins))
        for i, obs in enumerate(observations):
            assert_close_norm(ls_hat[i], into_frame(scene, ls_estimate(obs, scene["pilots"])))
            dense = blmmse_estimate(obs, scene["corr_est"])
            assert_close_norm(blmmse_hat[i], into_frame(scene, dense))

    @pytest.mark.parametrize("case", sorted(PER_USER_CASES))
    def test_blmmse_is_the_tracker_at_zero_eta_bit_for_bit(self, case):
        """BLMMSE is the exact-gain tracker of a memoryless channel, to the last bit."""
        scene = per_user_scene(case)
        _, bins = per_user_slots(scene)
        basis = build_eigenbasis(*scene["matrices"])
        tracked, _ = run_kalman(basis, np.zeros_like(scene["stats"].eta), bins)
        single = np.empty_like(bins)
        assert blmmse_estimates(basis, basis.measure(bins), single) is single
        assert single.tobytes() == tracked.tobytes()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("case", sorted(PER_USER_CASES))
    def test_tpe_matches_kalman_steps(self, case):
        scene = per_user_scene(case)
        gain = TpeGain(1, 0.5)
        state = kfb_init(scene["corr_est"], scene["stats"])
        observations, bins = per_user_slots(scene)
        h_hat, _ = run_tpe(scene["matrices"], scene["stats"].eta, gain, bins)
        for i, obs in enumerate(observations):
            state = kfb_step(state, kalman_reference_obs(scene, obs), gain)
            assert_close_norm(h_hat[i], into_frame(scene, state.h_hat))

    def test_non_dft_pilots_rejected(self):
        pilots = dft_pilots(2, 2).with_rho(1.0)
        swapped = type(pilots)(phi=pilots.phi[:, ::-1], rho=1.0)
        prior = stack_correlation([exponential_correlation(3, 0.5, 0.0) for _ in range(2)])
        with pytest.raises(ValueError, match="DFT pilots"):
            build_per_user_model(swapped, prior)

    def test_non_unit_diagonal_rejected(self):
        """A diagonal off 1 by one rounding step is rejected: the gain would not be a scalar."""
        pilots = dft_pilots(2, 2).with_rho(1.0)
        matrix = np.stack([exponential_correlation(3, 0.5, 0.0).matrix for _ in range(2)])
        build_per_user_model(pilots, SpatialCorrelation(matrix=matrix, sqrt_factor=None))
        matrix[1, 2, 2] = np.nextafter(1.0, 2.0)
        with pytest.raises(ValueError, match="unit diagonal"):
            build_per_user_model(pilots, SpatialCorrelation(matrix=matrix, sqrt_factor=None))


def exchange_basis(n_antennas):
    """The dense Q = V diag(1, .., 1, i, .., i) of the real forms."""
    half, ones = n_antennas // 2, n_antennas - n_antennas // 2
    v = np.zeros((n_antennas, n_antennas))
    j = np.arange(half)
    v[j, j] = v[n_antennas - 1 - j, j] = v[j, ones + j] = np.sqrt(0.5)
    v[n_antennas - 1 - j, ones + j] = -np.sqrt(0.5)
    if n_antennas % 2:
        v[half, half] = 1.0
    return v * np.where(np.arange(n_antennas) < ones, 1.0, 1j)


class TestRealForm:
    """The centro-Hermitian real forms against a dense Q."""

    @pytest.mark.parametrize("n_antennas", [1, 2, 3, 4, 5, 32])
    def test_real_form_is_q_adjoint_x_q(self, n_antennas):
        rng = np.random.default_rng(n_antennas)
        q = exchange_basis(n_antennas)
        assert_allclose(q.conj().T @ q, np.eye(n_antennas), atol=1e-15)
        shape = (3, n_antennas, n_antennas)
        g = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        # Hermitian Toeplitz, and a general centro-Hermitian stack.
        for x in (exponential_correlation(n_antennas, 0.8, [0.3, 1.9]).matrix,
                  0.5 * (g + g[..., ::-1, ::-1].conj())):
            dense = q.conj().T @ x @ q
            assert np.abs(dense.imag).max() <= 1e-14 * np.abs(x).max()
            assert_allclose(estimators._real_form(x), dense.real, rtol=0.0, atol=1e-14)

    @pytest.mark.parametrize("n_antennas", [1, 2, 3, 4, 5, 6, 32])
    def test_frame_maps_are_q_adjoint_and_q(self, n_antennas):
        """Vectors (T, S, K, M), such as bins or channels, into the frame as Q^H x.

        No program map takes them back; the dense Q does, Q being unitary.
        """
        q = exchange_basis(n_antennas)
        rng = np.random.default_rng(n_antennas)
        shape = (2, 3, 4, n_antennas)
        x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        framed = estimators._to_frame(x)
        assert framed.shape == shape
        dense = np.einsum("mn,tskn->tskm", q.conj().T, x)
        assert_allclose(framed, dense, rtol=0, atol=1e-15)
        assert_allclose(np.einsum("mn,tskn->tskm", q, framed), x, rtol=0, atol=1e-15)


class TestClosedFormRealFactor:
    """The real frame of an exponential prior against the complex path.

    The name predates the basis that needs no factor of R.
    """

    # Two trials of three users, at phases that span the circle.
    PHASES = np.array([[0.0, 0.3, 2.9], [4.1, 5.5, 6.2]])

    @pytest.mark.parametrize("magnitude", [0.0, 0.8, 1 - 1e-15])
    @pytest.mark.parametrize("n_antennas", [1, 2, 5, 16, 128])
    def test_basis_matches_the_complex_path(self, n_antennas, magnitude):
        """The real-frame basis against the same matrices held as a dense SpatialCorrelation.

        lam, the error-trace weights, H G r (measure, then estimates) and
        the tracker's estimates and error traces, within 1e-12
        norm-relative. At r = 1 - 1e-15 the
        real form of R has no Cholesky factor.
        """
        prior = exponential_correlation(n_antennas, magnitude, self.PHASES)
        dense = SpatialCorrelation(matrix=np.array(prior.matrix), sqrt_factor=None)
        model = build_per_user_model(dft_pilots(3, 3).with_rho(1.0), prior)
        real_frame, other_frame = frame_inputs(prior, model), frame_inputs(dense, model)
        real = build_eigenbasis(*real_frame["matrices"])
        other = build_eigenbasis(*other_frame["matrices"])
        assert real.G.dtype == real.H.dtype == np.float64
        assert other.G.dtype == other.H.dtype == np.complex128
        assert_close_norm(real.lam, other.lam)
        assert_close_norm(real.weights, other.weights)
        if magnitude > 0.9 and n_antennas >= 16:
            with pytest.raises(np.linalg.LinAlgError):
                np.linalg.cholesky(estimators._real_form(prior.matrix))
        rng = np.random.default_rng(n_antennas)
        shape = (2, 4, 3, n_antennas)
        bins = one_bit_quantize(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        # The real basis takes Q^H r and gives Q^H h_hat; the complex one takes r as it is.
        into = real_frame["into"]
        # H G r = R D C_n_eff^{-1} r does not depend on the eigenvectors.
        mapped = [b.estimates(b.measure(x), np.empty_like(x)) for b, x in
                  ((real, into(bins)), (other, bins))]
        assert_close_norm(mapped[0], into(mapped[1]))
        eta = np.array([0.9, 0.5, 0.0])
        (real_hat, real_trace), (other_hat, other_trace) = [
            run_kalman(b, eta, x) for b, x in ((real, into(bins)), (other, bins))
        ]
        assert_close_norm(real_hat, into(other_hat))
        assert_close_norm(real_trace, other_trace)


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

    def test_stack_matches_each_matrix(self):
        rng = np.random.default_rng(13)
        g = rng.standard_normal((3, 4, 4)) + 1j * rng.standard_normal((3, 4, 4))
        stack = g @ np.swapaxes(g, -1, -2).conj() / 16.0 + np.eye(4)
        for order in (0, 1, 3):
            batched = tpe_inverse(stack, 0.4, order)
            assert batched.shape == stack.shape
            for k in range(3):
                assert_allclose(batched[k], tpe_inverse(stack[k], 0.4, order), atol=1e-14)


def c_r_lambda_max(scene):
    """Largest eigenvalue over the users of C_r,k = D R_k D + C_n_eff,k."""
    per_user = scene["per_user"]
    d = per_user.gain
    blocks = zip(scene["prior"].matrix, per_user.C_n_eff)
    return max(np.linalg.eigvalsh(d * d * r + c).max() for r, c in blocks)


class TestTpeScaleBound:
    """tpe_estimates holds alpha within TpeGain's limit, once per trial."""

    @pytest.mark.parametrize("excess", [0.99, 1.01])
    @pytest.mark.parametrize("order,limit", [(1, 2.0), (2, 1.0)])
    def test_alpha_clamped_only_above_limit(self, order, limit, excess):
        """Above the limit the tracker runs kfb_step's recursion with 0.75 limit / lambda_max."""
        scene = per_user_scene("tau_above_users")
        lam_max = c_r_lambda_max(scene)
        alpha = excess * limit / lam_max
        clamped = excess > 1.0
        observations, bins = per_user_slots(scene)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            h_hat, _ = run_tpe(scene["matrices"], scene["stats"].eta, TpeGain(order, alpha), bins)
        assert [w.category for w in caught] == [RuntimeWarning] * clamped
        assert all(f"tpe.alpha = {alpha} " in str(w.message) for w in caught)
        reference = TpeGain(order, 0.75 * limit / lam_max if clamped else alpha)
        state = kfb_init(scene["corr_est"], scene["stats"])
        for i, obs in enumerate(observations):
            state = kfb_step(state, obs, reference)
            assert_close_norm(h_hat[i], into_frame(scene, state.h_hat))

    def test_clamp_warns_once_per_run(self):
        """Every trial clamps, with one warning text, so the default filter shows it once."""
        cfg = parse_config(
            "M = 4\nK = 2\ntau = 2\nslots = 2\ntrials = 6\nsnr_db = [10]\n"
            "estimators = [tpe]\ntpe.alpha = 1.9\n",
            base=default_config(),
        )
        for action, count in (("always", cfg.trials), ("default", 1)):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter(action)
                run_nmse_experiment(cfg)
            assert [w.category for w in caught] == [RuntimeWarning] * count

    @pytest.mark.parametrize("order", [0, 1, 2, 3])
    def test_filtered_covariance_stays_between_zero_and_prior(self, order):
        """Fast-profile scene (M = 32, K = 8, r = 0.8, -5 dB, alpha = 0.5): 0 <= M <= R.

        Slots 1..i in one call give M_filt after slot i, for every i.
        """
        cfg = default_config()
        rng = np.random.default_rng(order)
        theta = rng.uniform(0.0, 2.0 * np.pi, cfg.K)
        prior = stack_correlation([exponential_correlation(cfg.M, cfg.r_spatial, t) for t in theta])
        pilots = dft_pilots(cfg.tau, cfg.K).with_rho(10.0 ** (cfg.snr_db[0] / 10.0))
        frame = frame_inputs(prior, build_per_user_model(pilots, prior))
        eta = jakes_coefficient(cfg.user_speeds_kmh[0], cfg.f_c, cfg.t_slot)
        stats = TemporalStats(np.full(cfg.K, eta))
        corr = frame["matrices"][0]
        chan = init_channel(prior, rng)
        bins = []
        for _ in range(cfg.slots):
            chan = evolve_channel(chan, stats, prior, rng)
            r = one_bit_quantize(received_pilot_signal(chan, pilots, rng))
            bins.append(frame["into"](pilots.bins(r)))
        for i in range(1, cfg.slots + 1):
            with pytest.warns(RuntimeWarning, match="tpe.alpha"):
                _, m_filt = run_tpe(
                    frame["matrices"], stats.eta, TpeGain(order, cfg.tpe_alpha), np.stack(bins[:i])
                )
            # M_filt and R in the real frame: Q is unitary, so their eigenvalues are R's.
            assert np.linalg.eigvalsh(m_filt).min() >= -1e-10
            assert np.linalg.eigvalsh(corr - m_filt).min() >= -1e-10


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
