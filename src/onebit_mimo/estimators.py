"""Channel estimators for the quantized pilot observations.

Single-shot estimators (least squares and Bussgang LMMSE) treat every slot
independently. The Kalman variants track the Gauss-Markov evolution across
slots, with either the exact innovation-covariance inverse or a truncated
polynomial expansion of it in the gain.

ls_estimate, blmmse_estimate and kfb_step work on the dense model over all
n = tau M observed entries, for any pilots. With DFT pilots and a
block-diagonal correlation the model decouples per user in the pilot-DFT
domain (see quantization.PerUserModel), and the PerUser estimators run the
same estimators on the K user bins, as batched M x M problems, with any
per-user temporal coefficients. They share one protocol: step(obs) returns
the (K, M) estimate for the slot's user bins. PerUserKalman's error_trace is
the trace of its filtered error covariance.

The exact-gain tracker for a memoryless channel (eta = 0) is the Bussgang
LMMSE estimator, so both run as PerUserKalman on one PerUserEigenbasis, the
per-trial factorization of the whitened measurement information, which does
not depend on eta.

Every PerUser estimator also runs T independent trials at once: given a
model of T trials (quantization.build_per_user_model on (T, K, M, M)
correlations), its step takes and returns (T, K, M) stacks, and each
trial's numbers are those of its own estimator.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .channel import SpatialCorrelation
from .linalg import inv_lower, kron_apply, solve_lower


@dataclass(frozen=True)
class ExactGain:
    """Kalman gain with the innovation covariance inverted exactly."""


@dataclass(frozen=True)
class TpeGain:
    """Kalman gain using a truncated polynomial expansion of the inverse.

    order is the highest retained power L and alpha scales the expansion.
    At an eigenvalue s of the innovation covariance the expansion is
    (1 - (1 - alpha s)^(L + 1)) / s. It lies in [0, 1/s], so that the update
    neither raises the error covariance nor takes it below the exact
    posterior, exactly when alpha s <= 2 for odd L and alpha s <= 1 for
    even L. PerUserTpe holds alpha to that limit once per trial; kfb_step
    takes it as given.
    """

    order: int = 1
    alpha: float = 0.5


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
    quantizer. A dense reference: the harness's learned-correlation probe
    takes the same LS on the user bins.
    """
    sv = np.linalg.svd(pilots.phi, compute_uv=False)
    if sv[-1] <= 1e-10 * sv[0]:
        raise ValueError("pilot matrix is rank deficient")
    pinv_phi = np.linalg.pinv(pilots.phi, rcond=1e-10)
    # pinv(Phi (x) sqrt(rho) I) = pinv(Phi) (x) I / sqrt(rho).
    return kron_apply(pinv_phi, obs.r) / np.sqrt(pilots.rho)


def sample_correlation(samples):
    """Spatial correlation estimated from per-user channel samples.

    Averages h h^H over the rows of samples, symmetrizes, and rescales the
    diagonal back to one (one-bit front ends shrink the apparent power, so
    the raw scale is off). Diagonal entries at numerical zero are left
    untouched. The average is PSD; its factor is
    S = diag(scale) U diag(sqrt(max(w, 0))) from its eigh, U diag(w) U^H,
    where max(w, 0) drops the rounding-level negative eigenvalues of a
    rank-deficient average (fewer samples than antennas). samples is
    (count, M), or a stack (..., count, M) that gives a stack of
    correlations, each from its own samples alone.
    """
    samples = np.asarray(samples, dtype=complex)
    if samples.ndim < 2 or samples.shape[-2] == 0:
        raise ValueError("need a non-empty array of samples, (..., count, M)")
    est = np.swapaxes(samples, -1, -2) @ samples.conj() / samples.shape[-2]
    est = 0.5 * (est + _adjoint(est))
    w, u = np.linalg.eigh(est)
    root = u * np.sqrt(np.clip(w, 0.0, None))[..., None, :]
    d = np.real(np.diagonal(est, axis1=-2, axis2=-1))
    scale = np.where(d > 1e-12, 1.0 / np.sqrt(np.where(d > 1e-12, d, 1.0)), 1.0)[..., :, None]
    matrix = scale * est * np.swapaxes(scale, -1, -2)
    return SpatialCorrelation(matrix=matrix, sqrt_factor=scale * root)


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


def _adjoint(stack):
    return np.swapaxes(stack, -1, -2).conj()


def _matvec(stack, vectors):
    """Per-user products stack[k] @ vectors[k] for a (K, M, M) and a (K, M) stack."""
    return (stack @ vectors[..., None])[..., 0]


def _gain_row(model):
    """The diagonal of D = gain diag(a), shaped (..., 1, M) to broadcast over (..., K, M)."""
    return (model.gain * model.a)[..., None, :]


def _check_slot(obs, slot):
    if obs.slot != slot + 1:
        raise ValueError(f"observation slot {obs.slot} does not follow tracker slot {slot}")


class PerUserLs:
    """Least squares on the user bins: r_k / sqrt(tau rho).

    Equal to ls_estimate, since pinv(phi) = phi^H / tau for DFT pilots.
    """

    def __init__(self, model):
        self._scale = 1.0 / model.gain

    def step(self, obs):
        return self._scale * obs.r


@dataclass(frozen=True)
class PerUserEigenbasis:
    """Per-trial eigenbasis of each user's whitened measurement information.

    Per user, with R = S S^H (S = prior.sqrt_factor), B = D S for
    D = gain diag(a), C_n_eff = L L^H and the whitened information
    J = (L^{-1} B)^H L^{-1} B = U diag(lam) U^H: lam (K, M), the measurement
    map G = U^H B^H C_n_eff^{-1} (K, M, M), the basis S U (K, M, M) and its
    squared column norms (K, M). None of it depends on eta, so one basis
    serves every exact-gain tracker of a trial. A basis of T trials at once
    has a leading trial axis on each.
    """

    lam: np.ndarray
    G: np.ndarray
    SU: np.ndarray
    col_norms: np.ndarray


def build_eigenbasis(prior, model):
    """The PerUserEigenbasis of per-user correlations and a PerUserModel.

    One batched Cholesky factor of C_n_eff, its inverse and one batched
    eigh. numpy has no triangular inverse, and its general LU one is several
    times slower at M = 128 than the block rows of linalg.inv_lower, which
    skip the zero upper triangle. Raises LinAlgError if C_n_eff is not
    positive definite.
    """
    try:
        chol = np.linalg.cholesky(model.C_n_eff)
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError(
            "effective noise covariance C_n_eff is not positive definite"
        ) from exc
    inv_chol = inv_lower(chol)
    del chol
    # A stack of this size is fresh memory to a short run, paid for in page
    # faults, so the conjugates and W U reuse the buffers of B and J.
    scaled = _gain_row(model)[..., None] * prior.sqrt_factor
    whitened = inv_chol @ scaled
    info = np.swapaxes(np.conjugate(whitened, out=scaled), -1, -2) @ whitened
    lam, u = np.linalg.eigh(info)
    rotated = np.conjugate(np.matmul(whitened, u, out=info), out=info)
    del scaled, whitened
    su = prior.sqrt_factor @ u
    power = np.abs(su)
    power **= 2
    return PerUserEigenbasis(
        lam=lam,
        G=np.swapaxes(rotated, -1, -2) @ inv_chol,
        SU=su,
        col_norms=np.sum(power, axis=-2),
    )


class PerUserKalman:
    """Exact-gain Kalman tracker on the user bins, on a PerUserEigenbasis.

    Gives the estimates and error traces of kfb_init/kfb_step with ExactGain,
    for per-user coefficients eta (K,), at two batched matrix-vector
    products per slot. With eta = 0 it is the Bussgang LMMSE estimator
    R_k D C_r,k^{-1} r_k of blmmse_estimate.

    In the basis's terms every predicted and filtered covariance equals
    (S U) diag(p) (S U)^H. The recursion therefore runs on the vector p, from
    p = 1 (M = R): predict p <- eta^2 p + 1 - eta^2, correct
    p <- p / (1 + lam p). The estimate is h_hat = (S U) y, with
    y <- eta y + p (G r - lam eta y). S^{-1} is never needed, so a singular
    (learned) correlation works too.
    """

    def __init__(self, basis, eta):
        self._basis = basis
        self._eta = np.asarray(eta, dtype=float)[:, None]
        self._y = np.zeros(basis.lam.shape, dtype=complex)
        self._p = np.ones(basis.lam.shape)
        self.slot = 0

    @property
    def error_trace(self):
        """trace of the filtered error covariance, sum_k,j p_kj ||(S_k U_k) e_j||^2, per trial."""
        return np.sum(self._p * self._basis.col_norms, axis=(-2, -1))

    def step(self, obs):
        """Predict and correct with the slot's user bins; returns h_hat (K, M)."""
        _check_slot(obs, self.slot)
        lam = self._basis.lam
        eta2 = self._eta**2
        p = eta2 * self._p + (1.0 - eta2)
        p /= 1.0 + lam * p
        y = self._eta * self._y
        y += p * (_matvec(self._basis.G, obs.r) - lam * y)
        self._p, self._y, self.slot = p, y, obs.slot
        return _matvec(self._basis.SU, y)


class PerUserTpe:
    """Kalman tracker with a TpeGain on the user bins.

    The kfb_step recursion with a truncated polynomial expansion of each
    user's innovation covariance inverse, for per-user coefficients eta (K,).
    Gives the estimates of kfb_step with the same gain: the polynomial of
    the block-diagonal innovation covariance in the DFT domain is the
    polynomial of each block.

    The scale is bounded once per trial. While 0 <= M <= R, user k's
    innovation covariance C_n_eff,k + D M_pred D is at most
    C_r,k = C_n_eff,k + D R_k D, so lambda_max, the largest eigenvalue of
    the C_r,k over the users, bounds every slot. If alpha lambda_max is
    within TpeGain's limit for the order (2 for odd, 1 for even), the
    expansion stays in [0, S^{-1}] and the filtered covariance between 0 and
    R at every slot. Above it the trial runs with
    alpha = 0.75 limit / lambda_max and raises a RuntimeWarning whose text
    does not depend on the trial, so that the default filter shows it once.
    Over T trials at once each trial has its own lambda_max and alpha, and
    each clamped trial raises the warning. M_filt (..., K, M, M) is the
    filtered error covariance.
    """

    def __init__(self, prior, model, eta, gain):
        self._corr = prior.matrix
        self._noise = model.C_n_eff
        self._d = _gain_row(model)
        d_col, d_row = self._d[..., None], self._d[..., None, :]
        lam_max = np.linalg.eigvalsh(self._noise + d_col * prior.matrix * d_row).max(axis=(-2, -1))
        limit = 2.0 if gain.order % 2 else 1.0
        clamped = gain.alpha * lam_max > limit
        alpha = np.where(clamped, 0.75 * limit / lam_max, gain.alpha)
        self._alpha, self._order = alpha[..., None, None, None], gain.order
        for _ in range(np.count_nonzero(clamped)):
            warnings.warn(
                f"tpe.alpha = {gain.alpha} is above {limit:g} / lambda_max(C_r) for order"
                f" {gain.order}; such trials use alpha = {0.75 * limit:g} / lambda_max(C_r)",
                RuntimeWarning,
                stacklevel=2,
            )
        eta = np.asarray(eta, dtype=float)[:, None]
        self._eta = eta
        self._eta2 = eta[..., None] ** 2
        self._h = np.zeros(prior.matrix.shape[:-1], dtype=complex)
        self.M_filt = prior.matrix.copy()
        self.slot = 0

    def step(self, obs):
        """Predict and correct with the slot's user bins; returns h_hat (K, M)."""
        _check_slot(obs, self.slot)
        d = self._d
        d_col, d_row = d[..., None], d[..., None, :]
        h_pred = self._eta * self._h
        m_pred = self._eta2 * self.M_filt + (1.0 - self._eta2) * self._corr
        cross = d_col * m_pred
        innov_cov = self._noise + cross * d_row
        innov_cov = 0.5 * (innov_cov + _adjoint(innov_cov))
        # M_pred is Hermitian, so cross^H = M_pred D.
        gain_mat = (m_pred * d_row) @ tpe_inverse(innov_cov, self._alpha, self._order)
        h_new = h_pred + _matvec(gain_mat, obs.r - d * h_pred)
        m_new = m_pred - gain_mat @ cross
        self._h, self.M_filt, self.slot = h_new, 0.5 * (m_new + _adjoint(m_new)), obs.slot
        return h_new


def tpe_inverse(matrix, alpha, order):
    """Truncated polynomial approximation alpha * sum_l (I - alpha X)^l.

    X is one matrix or a stack of them (..., n, n), each expanded on its
    own; alpha is a scalar or broadcasts against the stack. Evaluated in
    Horner form with order+1 terms. At an eigenvalue s of
    X the result is (1 - (1 - alpha s)^(order+1)) / s, which tends to 1/s
    for 0 < alpha s < 2; TpeGain gives the limits that keep it in [0, 1/s].
    alpha is taken as given: PerUserTpe bounds it once per trial.
    """
    if order < 0:
        raise ValueError("expansion order must be non-negative")
    matrix = np.asarray(matrix)
    eye = np.eye(matrix.shape[-1])
    residual = eye - alpha * matrix
    # Horner starts at I + residual, which saves the product with I.
    total = eye + residual if order else np.broadcast_to(eye, matrix.shape)
    for _ in range(order - 1):
        total = eye + residual @ total
    return alpha * total
