"""The dense reference layer: the paper's formulas on the stacked channel and observation.

A block-diagonal n x n correlation, the channel's one-slot step
(evolve_channel), one Bussgang model over all tau M observed entries, and
LS, Bussgang LMMSE and the Kalman step on it, for any pilots. No run calls
them: a run draws all its slots in one channel_trajectory, and with DFT
pilots the model decouples, so the program runs its exact per-user form.
They are the references the tests compare against:
tests/test_acceptance.py checks the paper's claims on them, and
test_estimators, test_quantization, test_channel and test_harness check the
per-user path against them. The package re-exports every name.
"""

from dataclasses import dataclass

import numpy as np

from .channel import ChannelState, SpatialCorrelation, channel_trajectory
from .estimators import ExactGain, TpeGain, gram_correlation, sample_gram, tpe_inverse
from .quantization import _arcsine_law, one_bit_quantize, pilot_signal
from .rng import complex_normal

# Below this smallest eigenvalue the Cholesky route is considered unsafe.
_CHOLESKY_FLOOR = 1e-10

# Block size of solve_lower, for the few columns of the Kalman step at n <= 1024.
_SOLVE_BLOCK = 64


@dataclass(frozen=True)
class QuantizedObservation:
    """One slot of quantized pilots for the dense forms: r stacked (tau M,).

    With the model and phi_tilde it was received under. The per-user
    estimators take the user bins of a run's slots as one array instead
    (PilotMatrix.bins).
    """

    slot: int
    r: np.ndarray
    model: object | None = None
    phi_tilde: object | None = None


def psd_sqrt(matrix):
    """Factor S with S @ S^H = matrix for a Hermitian PSD matrix or a stack (..., M, M).

    Uses Cholesky where a matrix is comfortably positive definite and falls
    back to an eigendecomposition with negative eigenvalues clamped to zero,
    which tolerates the rank-deficient limit. Each matrix of a stack takes
    its own route, so its factor does not depend on the others. No run
    takes it: the draw applies exponential_correlation's closed-form
    factor, and the eigenbasis needs no factor of R.
    """
    matrix = np.asarray(matrix)
    definite = np.linalg.eigvalsh(matrix)[..., 0] > _CHOLESKY_FLOOR
    if definite.all():
        return np.linalg.cholesky(matrix)
    w, u = np.linalg.eigh(matrix)
    factor = u * np.sqrt(np.clip(w, 0.0, None))[..., None, :]
    if definite.any():
        factor[definite] = np.linalg.cholesky(matrix[definite])
    return factor


def _block_diag(blocks):
    """Dense block-diagonal matrix of square blocks, in order."""
    size = sum(b.shape[0] for b in blocks)
    out = np.zeros((size, size), dtype=np.result_type(*blocks))
    start = 0
    for b in blocks:
        stop = start + b.shape[0]
        out[start:stop, start:stop] = b
        start = stop
    return out


def aggregate_correlation(users):
    """Block-diagonal n x n correlation over all users, user k in entries [k M, (k+1) M).

    The dense form of channel.stack_correlation. The channel generator
    takes it as a stack of one block and gives an (n,) channel from the
    same draws. The square-root factor is assembled block-wise, which is
    itself a valid factor of the block-diagonal matrix; there is none if a
    user's correlation has none.
    """
    users = list(users)
    if not users:
        raise ValueError("need at least one user")
    factors = [u.sqrt_factor for u in users]
    return SpatialCorrelation(
        matrix=_block_diag([u.matrix for u in users]),
        sqrt_factor=None if any(f is None for f in factors) else _block_diag(factors),
    )


def evolve_channel(state, stats, corr, rng):
    """Advance the channel by one slot, drawing its unit normals from rng.

    The one-slot case of channel_trajectory; the result has the shape
    init_channel gives for corr.
    """
    g = complex_normal(rng, state.h.size)
    h = channel_trajectory(state.h, stats, corr, g)
    return ChannelState(slot=state.slot + 1, h=h.reshape(state.h.shape))


def kron_apply(mat, x):
    """(mat kron I_M) x for x stacked as mat.shape[1] blocks of M rows.

    x is a stacked vector (mat.shape[1] * M,) or a block of p such columns
    (mat.shape[1] * M, p). Viewing x as the (mat.shape[1], M * p) matrix of
    its blocks turns the Kronecker product into one small matmul, at
    rows * n * p multiply-adds instead of n^2 * p for the dense operator.
    """
    blocks = np.reshape(x, (mat.shape[1], -1))
    return (mat @ blocks).reshape((-1,) + np.shape(x)[1:])


def solve_lower(chol, b):
    """chol^{-1} b for a lower-triangular chol, or each of a stack (..., n, n).

    b is a vector (n,) or column blocks (..., n, p) that broadcast against
    the stack, as for np.linalg.solve. Blocked forward substitution: each
    diagonal block is inverted directly and all other work is matrix
    products, on numpy's BLAS alone (see linalg).
    """
    b = np.asarray(b)
    if b.ndim == 1:
        return solve_lower(chol, b[:, None])[:, 0]
    shape = np.broadcast_shapes(chol.shape[:-2], b.shape[:-2]) + b.shape[-2:]
    x = np.empty(shape, dtype=np.result_type(chol, b))
    for i in range(0, chol.shape[-1], _SOLVE_BLOCK):
        rows = slice(i, i + _SOLVE_BLOCK)
        rhs = b[..., rows, :] - chol[..., rows, :i] @ x[..., :i, :]
        x[..., rows, :] = np.linalg.inv(chol[..., rows, rows]) @ rhs
    return x


@dataclass(frozen=True)
class ScaledPilotOperator:
    """The linearized pilot operator phi_tilde = diag(a) Phi_bar, kept factored.

    Supports phi_tilde @ x and adjoint(y) = phi_tilde^H y, for vectors and
    column blocks, at O(tau n) per column.
    """

    a_diag: np.ndarray
    pilots: object

    def __matmul__(self, x):
        y = kron_apply(self.pilots.scaled_phi(), x)
        y *= _row_factor(self.a_diag, y.ndim)
        return y

    def adjoint(self, y):
        scaled = _row_factor(self.a_diag, np.ndim(y)) * y
        return kron_apply(self.pilots.scaled_phi().conj().T, scaled)


def _row_factor(a, ndim):
    return a[:, None] if ndim == 2 else a


@dataclass(frozen=True)
class BussgangModel:
    """Second-order description of the quantized pilot observation.

    a_diag holds the diagonal of the Bussgang gain A, C_y the analog
    covariance, C_r the arcsine-law covariance of the quantized output, C_q
    the distortion covariance and C_n_eff the effective noise covariance.
    """

    a_diag: np.ndarray
    C_y: np.ndarray
    C_r: np.ndarray
    C_q: np.ndarray
    C_n_eff: np.ndarray


def received_pilot_signal(state, pilots, rng):
    """Analog pilot observation y = Phi_bar h + n, for an (n,) or a (K, M) channel."""
    n_antennas = state.h.size // pilots.K
    return pilot_signal(state.h, pilots, complex_normal(rng, n_antennas * pilots.tau))


def arcsin_covariance(c_y):
    """Covariance of the one-bit output via the arcsine law.

    With X and Y the diagonally normalized real and imaginary parts of C_y,
    C_r = (2/pi)(arcsin X + j arcsin Y). Arguments are clamped to [-1, 1]
    against floating-point spill. The diagonal is written as exactly 1, its
    analytic value: near 1 the arcsine slope is unbounded, so leaving the
    normalization roundoff in would cost sqrt(eps) there.
    """
    d = np.sqrt(np.real(np.diag(c_y)))
    out = _arcsine_law(c_y, np.outer(d, d))
    np.fill_diagonal(out, 1.0)
    return out


def build_bussgang_model(pilots, corr):
    """Bussgang gain, analog, arcsine, distortion and effective noise covariances.

    C_y = Phi_bar R Phi_bar^H + I and A = sqrt(2/pi) diag(C_y)^(-1/2); the
    unit noise floor keeps the diagonal strictly positive. C_r follows from
    the arcsine law. C_q = C_r - A C_y A^H is the part of the quantizer
    output the linear model cannot explain, and the effective noise A n + q
    has covariance A A^H + C_q.
    """
    phi = pilots.scaled_phi()
    # Phi_bar (Phi_bar R)^H = Phi_bar R Phi_bar^H since R is Hermitian.
    c_y = kron_apply(phi, kron_apply(phi, corr.matrix).conj().T)
    c_y[np.diag_indices_from(c_y)] += 1.0
    a_diag = np.sqrt(2.0 / np.pi) / np.sqrt(np.real(np.diag(c_y)))
    c_r = arcsin_covariance(c_y)
    c_q = c_r - a_diag[:, None] * c_y * a_diag[None, :]
    c_n_eff = c_q.copy()
    c_n_eff[np.diag_indices_from(c_n_eff)] += a_diag**2
    return BussgangModel(a_diag=a_diag, C_y=c_y, C_r=c_r, C_q=c_q, C_n_eff=c_n_eff)


def quantize_pilot_slot(state, pilots, model, rng):
    """Receive one slot, quantize it, and package it for the estimators.

    The model is passed in prebuilt since pilots and correlation are static
    across slots. phi_tilde = A Phi_bar, the operator of the linearized
    observation equation r = phi_tilde h + effective noise, is attached in
    factored form (a ScaledPilotOperator); A Phi_bar is never formed.
    """
    r = one_bit_quantize(received_pilot_signal(state, pilots, rng))
    phi_tilde = ScaledPilotOperator(a_diag=model.a_diag, pilots=pilots)
    return QuantizedObservation(slot=state.slot, r=r, model=model, phi_tilde=phi_tilde)


@dataclass(frozen=True)
class KalmanState:
    """Filtered estimate and error covariance after a given slot."""

    slot: int
    h_hat: np.ndarray
    M_filt: np.ndarray
    stats: object
    corr: SpatialCorrelation


def ls_estimate(obs, pilots):
    """Least-squares estimate pinv(Phi_bar) r of the stacked channel.

    obs.r is one stacked observation (tau M,) or a block of them, one per
    column (tau M, count); the estimates come back in the same layout. Works
    on the quantized observation directly, so the scale is biased by the
    quantizer. estimators.ls_estimates takes the same LS on the user bins.
    """
    sv = np.linalg.svd(pilots.phi, compute_uv=False)
    if sv[-1] <= 1e-10 * sv[0]:
        raise ValueError("pilot matrix is rank deficient")
    pinv_phi = np.linalg.pinv(pilots.phi, rcond=1e-10)
    # pinv(Phi (x) sqrt(rho) I) = pinv(Phi) (x) I / sqrt(rho).
    return kron_apply(pinv_phi, obs.r) / np.sqrt(pilots.rho)


def sample_correlation(samples):
    """Spatial correlation of channel samples (..., count, M): gram_correlation of sample_gram."""
    return gram_correlation(sample_gram(samples))


def blmmse_estimate(obs, corr):
    """Bussgang LMMSE estimate R phi_tilde^H C_r^{-1} r for one slot.

    phi_tilde is applied through its adjoint.
    """
    return corr.matrix @ obs.phi_tilde.adjoint(np.linalg.solve(obs.model.C_r, obs.r))


def kfb_init(corr, stats):
    """Filter state before any observation: zero mean, covariance R."""
    n = corr.matrix.shape[0]
    return KalmanState(
        slot=0,
        h_hat=np.zeros(n, dtype=complex),
        M_filt=corr.matrix.copy(),
        stats=stats,
        corr=corr,
    )


def kfb_step(state, obs, gain=ExactGain()):
    """One predict/correct cycle of the Kalman tracker.

    Predict through the Gauss-Markov model, then correct with the linearized
    observation r = phi_tilde h + n_eff, where n_eff carries the effective
    noise covariance from the Bussgang model. phi_tilde is only applied from
    the left, so it may be a dense matrix or the factored ScaledPilotOperator.

    With the exact gain, S = C_n_eff + phi_tilde M_pred phi_tilde^H is
    factored as L L^H and W = L^{-1} phi_tilde M_pred, so that
    h = h_pred + W^H L^{-1} e and M = M_pred - W^H W; the gain matrix is
    never formed. A TpeGain replaces S^{-1} by its expansion in both the gain
    and the covariance update, keeping the recursion self-consistent. Either
    way the new covariance is symmetrized, 0.5 (M + M^H), which makes it
    exactly Hermitian.
    """
    if obs.slot != state.slot + 1:
        raise ValueError(f"observation slot {obs.slot} does not follow state slot {state.slot}")
    stats = state.stats
    n = state.h_hat.size
    n_antennas = n // stats.eta.size
    eta = np.repeat(stats.eta, n_antennas)
    zeta = np.repeat(stats.zeta, n_antennas)

    h_pred = eta * state.h_hat
    m_pred = eta[:, None] * state.M_filt * eta[None, :]
    m_pred += zeta[:, None] * state.corr.matrix * zeta[None, :]

    phi_tilde = obs.phi_tilde
    # M_pred is Hermitian, so cross_h^H = M_pred phi_tilde^H.
    cross_h = phi_tilde @ m_pred
    innov_cov = obs.model.C_n_eff + phi_tilde @ cross_h.conj().T
    innovation = obs.r - phi_tilde @ h_pred

    if isinstance(gain, TpeGain):
        innov_cov = 0.5 * (innov_cov + innov_cov.conj().T)
        gain_mat = cross_h.conj().T @ tpe_inverse(innov_cov, gain.alpha, gain.order)
        h_new = h_pred + gain_mat @ innovation
        m_new = m_pred - gain_mat @ cross_h
    else:
        try:
            chol = np.linalg.cholesky(innov_cov)
        except np.linalg.LinAlgError as exc:
            raise np.linalg.LinAlgError(
                f"innovation covariance not positive definite at slot {obs.slot}"
            ) from exc
        # Each n x n temporary is 16 MiB at paper scale (n = 1024): drop
        # them once used, to keep the peak memory down.
        del innov_cov
        # One solve for W and z = L^{-1} e, so the diagonal blocks of L are
        # inverted once.
        w_z = solve_lower(chol, np.column_stack((cross_h, innovation)))
        del cross_h, chol
        w = w_z[:, :-1]
        # W^H z, computed as (z^* W)^* without a conjugated copy of W.
        h_new = h_pred + (w_z[:, -1].conj() @ w).conj()
        m_new = m_pred - w.conj().T @ w
    m_new = 0.5 * (m_new + m_new.conj().T)
    return KalmanState(slot=obs.slot, h_hat=h_new, M_filt=m_new, stats=stats, corr=state.corr)
