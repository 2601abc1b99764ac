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
the (K, M) estimate for the slot's user bins, and error_trace is the trace of
the filtered error covariance, or None for least squares.

The exact-gain tracker for a memoryless channel (eta = 0) is the Bussgang
LMMSE estimator, so both run as PerUserKalman on one PerUserEigenbasis, the
per-trial factorization of the whitened measurement information, which does
not depend on eta.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .channel import SpatialCorrelation, spatial_correlation
from .linalg import kron_apply, solve_lower


@dataclass(frozen=True)
class ExactGain:
    """Kalman gain with the innovation covariance inverted exactly."""


@dataclass(frozen=True)
class TpeGain:
    """Kalman gain using a truncated polynomial expansion of the inverse.

    order is the highest retained power; alpha scales the expansion and must
    stay below 2 / lambda_max of the innovation covariance for the series to
    converge.
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
    quantizer; useful as a cheap statistics probe rather than a final
    estimate.
    """
    sv = np.linalg.svd(pilots.phi, compute_uv=False)
    if sv[-1] <= 1e-10 * sv[0]:
        raise ValueError("pilot matrix is rank deficient")
    pinv_phi = np.linalg.pinv(pilots.phi, rcond=1e-10)
    # pinv(Phi (x) sqrt(rho) I) = pinv(Phi) (x) I / sqrt(rho).
    return kron_apply(pinv_phi, obs.r) / np.sqrt(pilots.rho)


def sample_correlation(samples, normalize_diagonal=True):
    """Spatial correlation estimated from per-user channel samples.

    Averages h h^H over the rows of samples, symmetrizes, clamps negative
    eigenvalues to zero, and by default rescales the diagonal back to one
    (one-bit front ends shrink the apparent power, so the raw scale is off).
    Diagonal entries at numerical zero are left untouched.
    """
    samples = np.asarray(samples, dtype=complex)
    if samples.ndim != 2 or samples.shape[0] == 0:
        raise ValueError("need a non-empty 2-D array of samples")
    n = samples.shape[0]
    est = samples.T @ samples.conj() / n
    est = 0.5 * (est + est.conj().T)
    w, u = np.linalg.eigh(est)
    if w[0] < 0.0:
        est = (u * np.clip(w, 0.0, None)) @ u.conj().T
        est = 0.5 * (est + est.conj().T)
    if normalize_diagonal:
        d = np.real(np.diag(est))
        scale = np.where(d > 1e-12, 1.0 / np.sqrt(np.where(d > 1e-12, d, 1.0)), 1.0)
        est = scale[:, None] * est * scale[None, :]
    return spatial_correlation(est)


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


def _check_slot(obs, slot):
    if obs.slot != slot + 1:
        raise ValueError(f"observation slot {obs.slot} does not follow tracker slot {slot}")


class PerUserLs:
    """Least squares on the user bins: r_k / sqrt(tau rho).

    Equal to ls_estimate, since pinv(phi) = phi^H / tau for DFT pilots.
    """

    error_trace = None

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
    serves every exact-gain tracker of a trial.
    """

    lam: np.ndarray
    G: np.ndarray
    SU: np.ndarray
    col_norms: np.ndarray


def build_eigenbasis(prior, model):
    """The PerUserEigenbasis of per-user correlations and a PerUserModel.

    One batched Cholesky factor of C_n_eff and one batched eigh. numpy has no
    triangular inverse; at M x M the general one costs little. Raises
    LinAlgError if C_n_eff is not positive definite.
    """
    try:
        chol = np.linalg.cholesky(model.C_n_eff)
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError(
            "effective noise covariance C_n_eff is not positive definite"
        ) from exc
    inv_chol = np.linalg.inv(chol)
    whitened = inv_chol @ ((model.gain * model.a)[:, None] * prior.sqrt_factor)
    lam, u = np.linalg.eigh(_adjoint(whitened) @ whitened)
    su = prior.sqrt_factor @ u
    return PerUserEigenbasis(
        lam=lam,
        G=_adjoint(whitened @ u) @ inv_chol,
        SU=su,
        col_norms=np.sum(np.abs(su) ** 2, axis=-2),
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
        """trace of the filtered error covariance, sum_k,j p_kj ||(S_k U_k) e_j||^2."""
        return float(np.sum(self._p * self._basis.col_norms))

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
    Gives the estimates and error traces of kfb_step with the same gain:
    the polynomial of the block-diagonal innovation covariance in the DFT
    domain is the polynomial of each block.
    """

    def __init__(self, prior, model, eta, gain):
        self._corr = prior.matrix
        self._noise = model.C_n_eff
        self._d = model.gain * model.a
        eta = np.asarray(eta, dtype=float)[:, None]
        self._eta = eta
        self._eta2 = eta[..., None] ** 2
        self._gain = gain
        self._h = np.zeros(prior.matrix.shape[:-1], dtype=complex)
        self._m = prior.matrix.copy()
        self.slot = 0

    @property
    def error_trace(self):
        """trace of the filtered error covariance, summed over the users."""
        return float(np.real(np.trace(self._m, axis1=-2, axis2=-1)).sum())

    def step(self, obs):
        """Predict and correct with the slot's user bins; returns h_hat (K, M)."""
        _check_slot(obs, self.slot)
        d = self._d
        h_pred = self._eta * self._h
        m_pred = self._eta2 * self._m + (1.0 - self._eta2) * self._corr
        cross = d[:, None] * m_pred
        innov_cov = self._noise + cross * d
        innov_cov = 0.5 * (innov_cov + _adjoint(innov_cov))
        # M_pred is Hermitian, so cross^H = M_pred D.
        gain_mat = (m_pred * d) @ tpe_inverse(innov_cov, self._gain.alpha, self._gain.order)
        h_new = h_pred + _matvec(gain_mat, obs.r - d * h_pred)
        m_new = m_pred - gain_mat @ cross
        self._h, self._m, self.slot = h_new, 0.5 * (m_new + _adjoint(m_new)), obs.slot
        return h_new


def tpe_inverse(matrix, alpha, order):
    """Truncated polynomial approximation alpha * sum_l (I - alpha X)^l.

    X is one matrix or a stack of them (..., n, n), each expanded on its
    own. Evaluated in Horner form with order+1 terms. Convergence to the
    true inverse needs 0 < alpha < 2 / lambda_max(X), over every matrix of a
    stack; a violation, or a non-finite entry, only warns, since the filter
    remains runnable with a suboptimal scale.
    """
    if order < 0:
        raise ValueError("expansion order must be non-negative")
    matrix = np.asarray(matrix)
    lam = _largest_eigenvalue_estimate(matrix)
    if lam > 0 and not 0.0 < alpha < 2.0 / lam:
        warnings.warn(
            f"expansion scale {alpha} outside the convergence range (0, {2.0 / lam:.4g})",
            RuntimeWarning,
            stacklevel=2,
        )
    eye = np.eye(matrix.shape[-1])
    residual = eye - alpha * matrix
    # Horner starts at I + residual, which saves the product with I.
    total = eye + residual if order else np.broadcast_to(eye, matrix.shape)
    for _ in range(order - 1):
        total = eye + residual @ total
    return alpha * total


def _largest_eigenvalue_estimate(matrix, iterations=12):
    """Power-iteration estimate of lambda_max of a matrix or of a stack of them.

    A (..., n, n) stack is iterated as the block-diagonal matrix it stands
    for, with one norm over all blocks, so the estimate is the largest over
    the stack. O(n^2) per block and iteration, in line with the expansion's
    own complexity budget. A non-finite entry, or an iteration that
    overflows, gives inf, so that the caller's range check fails.
    """
    v = np.full(matrix.shape[:-1] + (1,), 1.0 / np.sqrt(np.prod(matrix.shape[:-1])), dtype=complex)
    estimate = 0.0
    # The start vector has no zero entry, so a non-finite entry of the
    # matrix makes the first product, and so the estimate, non-finite.
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(iterations):
            w = matrix @ v
            estimate = np.sqrt(np.vdot(w, w).real)
            if not 0.0 < estimate < np.inf:
                break
            v = w / estimate
    return float(estimate) if np.isfinite(estimate) else np.inf
