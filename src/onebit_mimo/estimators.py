"""Channel estimators for the quantized pilot observations.

Single-shot estimators (least squares and Bussgang LMMSE) treat every slot
independently. The Kalman variants track the Gauss-Markov evolution across
slots, with either the exact innovation-covariance inverse or a truncated
polynomial expansion of it in the gain. When all users share one temporal
coefficient, the exact-gain tracker also runs as EigenbasisKalman, which does
its O(n^3) work once per trial instead of once per slot.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .channel import SpatialCorrelation, spatial_correlation
from .linalg import kron_apply, solve_lower, solve_lower_adjoint, subtract_gram


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

    C_r^{-1} r = L^{-H} (L^{-1} r) takes two triangular matrix-vector
    products with the model's inverse Cholesky factor L^{-1}, and phi_tilde
    is applied through its adjoint.
    """
    inv_chol = obs.model.C_r_inv_chol
    if inv_chol is None:
        raise ValueError("observation model is missing the quantized covariance factor")
    # (z^* L^{-1})^* = L^{-H} z without a conjugated copy of L^{-1}.
    sol = ((inv_chol @ obs.r).conj() @ inv_chol).conj()
    return corr.matrix @ obs.phi_tilde.adjoint(sol)


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
    and the covariance update, keeping the recursion self-consistent.
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
        m_new = 0.5 * (m_new + m_new.conj().T)
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
        m_new = subtract_gram(m_pred, w)
    return KalmanState(slot=obs.slot, h_hat=h_new, M_filt=m_new, stats=stats, corr=state.corr)


class EigenbasisKalman:
    """Exact-gain Kalman tracker for users that share one temporal coefficient.

    Gives the estimates and error traces of kfb_init/kfb_step with ExactGain
    when every user has the same eta, with the O(n^3) work done once, here,
    and two matrix-vector products per slot.

    With R = S S^H (S = corr.sqrt_factor), B = phi_tilde S, C_n_eff = L L^H
    and the whitened measurement information J = B^H C_n_eff^{-1} B =
    U diag(lam) U^H, every predicted and filtered covariance equals
    (S U) diag(p) (S U)^H. The recursion therefore runs on the vector p,
    from p = 1 (M = R): predict p <- eta^2 p + 1 - eta^2, correct
    p <- p / (1 + lam p). The estimate is h_hat = (S U) y, with
    y <- eta y + p (G r - lam eta y) and G = U^H B^H C_n_eff^{-1}. S^{-1} is
    never needed, so a singular (learned) correlation works too. phi_tilde
    is applied from the left only, as in kfb_step.
    """

    def __init__(self, corr, model, phi_tilde, eta):
        sqrt_factor = corr.sqrt_factor
        try:
            chol = np.linalg.cholesky(model.C_n_eff)
        except np.linalg.LinAlgError as exc:
            raise np.linalg.LinAlgError(
                "effective noise covariance C_n_eff is not positive definite"
            ) from exc
        # Each n x n temporary is 16 MiB at paper scale (n = 1024): drop them
        # once used. L^{-H} F is taken before the eigendecomposition, so that
        # L and F are gone when its workspace is allocated.
        whitened = solve_lower(chol, phi_tilde @ sqrt_factor)
        back = solve_lower_adjoint(chol, whitened)
        del chol
        info = whitened.conj().T @ whitened
        del whitened
        self._lam, basis = np.linalg.eigh(info)
        del info
        # G^H = L^{-H} F U. The product is a fresh contiguous array, which the
        # per-slot matrix-vector product needs to run at BLAS speed.
        self._gain_h = back @ basis
        del back
        self._basis = sqrt_factor @ basis
        del basis
        # Squared column norms of S U, without a temporary copy.
        b = self._basis
        self._col_norms = np.einsum("ij,ij->j", b.real, b.real) + np.einsum(
            "ij,ij->j", b.imag, b.imag
        )
        self._eta = float(eta)
        n = sqrt_factor.shape[1]
        self._y = np.zeros(n, dtype=complex)
        self._p = np.ones(n)
        self.slot = 0

    @property
    def error_trace(self):
        """trace of the filtered error covariance, sum_j p_j ||(S U) e_j||^2."""
        return float(self._p @ self._col_norms)

    def step(self, obs):
        """Predict and correct with the slot's observation; returns h_hat."""
        if obs.slot != self.slot + 1:
            raise ValueError(
                f"observation slot {obs.slot} does not follow tracker slot {self.slot}"
            )
        eta2 = self._eta**2
        p = eta2 * self._p + (1.0 - eta2)
        p /= 1.0 + self._lam * p
        y = self._eta * self._y
        # G r computed as (r^* G^H)^*, without a conjugated copy of G^H.
        y += p * ((obs.r.conj() @ self._gain_h).conj() - self._lam * y)
        self._p, self._y, self.slot = p, y, obs.slot
        return self._basis @ y


def tpe_inverse(matrix, alpha, order):
    """Truncated polynomial approximation alpha * sum_l (I - alpha X)^l.

    Evaluated in Horner form with order+1 terms. Convergence to the true
    inverse needs 0 < alpha < 2 / lambda_max(X); a violation only warns,
    since the filter remains runnable with a suboptimal scale.
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
    eye = np.eye(matrix.shape[0])
    residual = eye - alpha * matrix
    # Horner starts at I + residual, which saves the product with I.
    total = eye + residual if order else eye
    for _ in range(order - 1):
        total = eye + residual @ total
    return alpha * total


def _largest_eigenvalue_estimate(matrix, iterations=12):
    # Power iteration keeps the precondition check at O(n^2), in line with
    # the expansion's own complexity budget.
    n = matrix.shape[0]
    v = np.full(n, 1.0 / np.sqrt(n), dtype=complex)
    estimate = 0.0
    for _ in range(iterations):
        w = matrix @ v
        norm = np.linalg.norm(w)
        if norm == 0.0:
            return 0.0
        estimate = norm
        v = w / norm
    return float(estimate)
