"""Channel estimators on the per-user one-bit model.

With DFT pilots and a block-diagonal correlation the linearized pilot
observation decouples per user in the pilot-DFT domain (see
quantization.PerUserModel), so every estimator runs on the K user bins, as
batched M x M problems, with any per-user temporal coefficients. Least
squares and Bussgang LMMSE treat every slot independently; the Kalman
trackers follow the Gauss-Markov evolution across slots, with either the
exact innovation-covariance inverse or a truncated polynomial expansion of
it in the gain. Each is a function of one trial's slots: ls_estimates,
kalman_estimates and tpe_estimates map the user bins of its S slots,
(S, K, M), to their (S, K, M) estimates, the trackers starting from the
prior at the first slot, and keep nothing between calls. kalman_estimates
returns the trace of its filtered error covariance at each slot, and
tpe_estimates the filtered covariance after the last.

The exact-gain tracker for a memoryless channel (eta = 0) is the Bussgang
LMMSE estimator, so both run as kalman_estimates on one PerUserEigenbasis,
the per-trial eigendecomposition of the whitened prior W R W^H, which does
not depend on eta, and on its one measurement of the slots.

A trial picks its frame once, by its prior's type (user_frame), and every
estimator takes its matrices and bins in that frame. The exponential
model's R_k (channel.ExponentialCorrelation) are Hermitian Toeplitz, so
centro-Hermitian (J conj(R_k) J = R_k), and a fixed unitary Q makes R_k,
C_n_eff,k and every matrix of the trackers real: such a trial runs on the
real forms Q^H R_k Q and Q^H C_n_eff,k Q, with its bins taken in as Q^H r.
A learned correlation (channel.SpatialCorrelation) runs on the complex
matrices as they are. Q is one unitary map on the antenna axis, so the
estimates stay in the frame: the NMSE and the zero-forcing rates read them
there, against the true channels taken in by the same map.

Every estimator also runs T independent trials at once: given the
matrices of T trials, (T, K, M, M), it takes and gives (T, S, K, M)
stacks, and each trial's numbers are those of its own estimator.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .channel import ExponentialCorrelation, SpatialCorrelation
from .linalg import inv_lower

_HALF = np.sqrt(0.5)
_SQRT2 = np.sqrt(2.0)


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
    even L. tpe_estimates holds alpha to that limit once per trial.
    """

    order: int = 1
    alpha: float = 0.5


def sample_gram(samples):
    """The average of h h^H over the rows h of samples (..., count, M), (..., M, M)."""
    samples = np.asarray(samples, dtype=complex)
    if samples.ndim < 2 or samples.shape[-2] == 0:
        raise ValueError("need a non-empty array of samples, (..., count, M)")
    return np.swapaxes(samples, -1, -2) @ samples.conj() / samples.shape[-2]


def gram_correlation(gram):
    """The spatial correlation of a sample average gram of h h^H, or a stack of them.

    Symmetrizes the average and rescales it to a diagonal of exactly one
    (one-bit front ends shrink the apparent power, so the raw scale is off),
    which build_per_user_model requires. An antenna whose average power is
    at numerical zero keeps its row and column unscaled and gets the unit
    variance of the channel model; that adds (1 - R_mm) e_m e_m^T >= 0, so
    the matrix stays PSD. Each matrix of a stack (..., M, M) is scaled on
    its own. No program path factors a learned correlation, so its
    sqrt_factor is None.
    """
    est = 0.5 * (gram + _adjoint(gram))
    d = np.real(np.diagonal(est, axis1=-2, axis2=-1))
    scale = np.where(d > 1e-12, 1.0 / np.sqrt(np.where(d > 1e-12, d, 1.0)), 1.0)[..., :, None]
    matrix = scale * est * np.swapaxes(scale, -1, -2)
    np.einsum("...ii->...i", matrix)[...] = 1.0
    return SpatialCorrelation(matrix=matrix, sqrt_factor=None)


def _adjoint(stack):
    return np.swapaxes(stack, -1, -2).conj()


def ls_estimates(pilots, bins, out=None):
    """Least squares on the user bins (..., S, K, M), into out if given.

    r_k / sqrt(tau rho), which is pinv(Phi_bar) r for DFT pilots. It is
    elementwise, so it takes bins of any shape, in either frame (user_frame).
    """
    return np.multiply(bins, 1.0 / pilots.gain, out=out)


def user_frame(prior):
    """The frame of a trial's estimators, (form, into), chosen once by the prior's type.

    form maps the per-user matrices (..., M, M) of the trial, R and
    C_n_eff, into the frame, and into maps vectors (..., M) there, such as
    the trial's bins and its true channels. An ExponentialCorrelation takes
    the real frame: its R_k are Hermitian Toeplitz, so centro-Hermitian,
    J conj(R_k) J = R_k for the exchange matrix J. With DFT pilots the
    arcsine law keeps the symmetry, so every C_n_eff,k is centro-Hermitian
    too, to rounding (its real form is read from its first rows). The fixed
    unitary Q of _real_form then makes Q^H R_k Q and Q^H C_n_eff,k Q real
    symmetric, the scalar D commutes with it, and the estimators run on
    them at about half the cost in LAPACK and BLAS. Any other correlation,
    such as a learned one, keeps the antenna frame and complex arithmetic.

    Q is one unitary map on the antenna axis, the same for every user, so
    ||h_hat - h||^2 and the zero-forcing rates of a pair in the frame equal
    those in the antenna frame: nothing maps back.
    """
    if isinstance(prior, ExponentialCorrelation):
        return _real_form, _to_frame
    return np.asarray, np.asarray


@dataclass(frozen=True)
class PerUserEigenbasis:
    """Per-trial eigenbasis of each user's whitened prior, in the trial's frame.

    Per user, with the scalar D = gain, C_n_eff = L L^H, W = D L^{-1} and the
    whitened prior W R W^H = V diag(lam) V^H: lam (K, M), the
    measurement map G = V^H L^{-1}, the estimate map H = (W R)^H V, and the
    error-trace weights ||H e_j||^2 / lam_j (K, M), by which the trace of a
    tracker's error covariance is a sum of positive terms
    (kalman_estimates). None of it depends on eta, so one basis serves every
    exact-gain tracker of a trial: measure takes G r for all the slots of a
    trial in one product, which the trackers share, and estimates forms a
    tracker's H z for all of them in one more. A basis of T trials at once
    has a leading trial axis on all of them.

    Built from real forms (user_frame), G and H are real and take the
    complex bins and eigen-coordinates as the real columns of their parts
    (_apply); lam and the weights are those of the antenna frame, Q being
    unitary.
    """

    lam: np.ndarray
    weights: np.ndarray
    G: np.ndarray
    H: np.ndarray

    def measure(self, bins):
        """G r for the bins r (..., S, K, M) of S slots, as (..., K, M, S): one slot a column."""
        # A copy, not a strided view: BLAS on the transposed view raised a run's peak RSS.
        return _apply(self.G, np.moveaxis(bins, -3, -1).copy())

    def estimates(self, z, out):
        """H z for eigen-coordinates z (..., K, M, S), written into out (..., S, K, M)."""
        out[...] = np.moveaxis(_apply(self.H, z), -1, -3)
        return out


def _apply(maps, columns):
    """maps (..., M, M), real or complex, times the complex columns (..., M, S).

    A real map takes the real and imaginary parts of the columns as adjacent
    real columns, so the product stays real.
    """
    if np.iscomplexobj(maps):
        return maps @ columns
    return (maps @ columns.view(float)).view(complex)


def _real_form(matrix):
    """Q^H X Q for centro-Hermitian X (..., M, M): a real matrix, symmetric for Hermitian X.

    Q = V diag(1, .., 1, i, .., i) with ceil(M/2) ones and the orthogonal
    V = [[I, 0, I], [0, sqrt 2, 0], [J, 0, -J]] / sqrt 2 (the middle row and
    column only for odd M), after Lee, "Centrohermitian and
    skew-centrohermitian matrices", Linear Algebra Appl. 29 (1980). With
    X's first p = M // 2 rows [B, x, C J] (B and C p x p) and, for odd M,
    its middle row [y^T, z, ...], the form is [[Re(B + C), sqrt 2 Re x,
    -Im(B - C)], [sqrt 2 Re y^T, Re z, -sqrt 2 Im y^T], [Im(B + C),
    sqrt 2 Im x, Re(B - C)]]. It reads those ceil(M/2) rows alone, which
    determine a centro-Hermitian X, at O(M^2) and with no products.
    """
    m = matrix.shape[-1]
    p, e = m // 2, m - m // 2
    top = matrix[..., :p, :]
    near, far = top[..., :p], top[..., m - 1 : m - 1 - p : -1]
    out = np.empty(matrix.shape)
    # The parts of B + C and B - C go straight into their blocks, with no complex temporaries.
    np.add(near.real, far.real, out=out[..., :p, :p])
    np.add(near.imag, far.imag, out=out[..., e:, :p])
    np.subtract(near.real, far.real, out=out[..., e:, e:])
    np.subtract(far.imag, near.imag, out=out[..., :p, e:])
    if m % 2:
        column, row = _SQRT2 * top[..., p:e], _SQRT2 * matrix[..., p:e, :p]
        out[..., :p, p:e] = column.real
        out[..., e:, p:e] = column.imag
        out[..., p:e, :p] = row.real
        np.negative(row.imag, out=out[..., p:e, e:])
        out[..., p:e, p:e] = matrix[..., p:e, p:e].real
    return out


def _to_frame(x):
    """Q^H x for vectors x (..., M), such as a trial's bins or channels (T, S, K, M).

    Row j < M // 2 of Q^H x is (x_j + x_{M-1-j}) / sqrt 2 and row e + j is
    -i (x_j - x_{M-1-j}) / sqrt 2, for e = ceil(M/2); the middle row of an
    odd M is x's. Each vector costs O(M).
    """
    m = x.shape[-1]
    p, e = m // 2, m - m // 2
    out = np.empty(x.shape, dtype=complex)
    near, far = _HALF * x[..., :p], _HALF * x[..., m - 1 : m - 1 - p : -1]
    np.add(near, far, out=out[..., :p])
    out[..., p:e] = x[..., p:e]
    np.multiply(near - far, -1j, out=out[..., e:])
    return out


def build_eigenbasis(corr, gain, noise):
    """The PerUserEigenbasis of correlations R, the scalar gain D and C_n_eff.

    corr and noise are per-user matrices (..., K, M, M) in the trial's
    frame (user_frame), real forms or complex, with any leading axes. One
    batched Cholesky factor of C_n_eff, its inverse scaled by D and one
    batched eigh. numpy has no triangular inverse, and its general LU one
    is several times slower at M = 128 than the block rows of
    linalg.inv_lower, which skip the zero upper triangle. Nothing divides
    by lam: a direction with lam = 0 has H e_j = R W^H v_j = 0. Raises
    LinAlgError if C_n_eff is not positive definite.
    """
    try:
        chol = np.linalg.cholesky(noise)
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError(
            "effective noise covariance C_n_eff is not positive definite"
        ) from exc
    del noise
    inv_chol = inv_lower(chol)
    # A stack of this size is fresh memory to a short run, paid for in page
    # faults, so W takes the factor's buffer, and H and G those of W and W R W^H.
    whiten = np.multiply(inv_chol, gain, out=chol)
    # conj(W R), whose transpose is (W R)^H = R W^H.
    adjoint = _conjugate(whiten @ corr)
    del corr
    info = whiten @ np.swapaxes(adjoint, -1, -2)
    lam, v = np.linalg.eigh(info)
    H = np.matmul(np.swapaxes(adjoint, -1, -2), v, out=whiten)
    del adjoint
    G = np.matmul(np.swapaxes(_conjugate(v), -1, -2), inv_chol, out=info)
    # |H|^2 down each column: the squares of the real view, where a complex
    # entry's parts sit side by side, summed down the rows and then in pairs.
    power = np.square(H.view(float), out=inv_chol.view(float)).sum(axis=-2)
    norms = power.reshape(H.shape[:-1] + (-1,)).sum(axis=-1)
    # ||H e_j||^2 / lam_j = lam_j ||W^{-1} v_j||^2, as H e_j = lam_j W^{-1} v_j, so a
    # direction whose lam is rounding residue weighs 0 rather than 0 / 0.
    kept = lam > 1e-12 * lam.max(axis=-1, keepdims=True)
    weights = np.divide(norms, lam, out=np.zeros_like(norms), where=kept)
    return PerUserEigenbasis(lam=lam, weights=weights, G=G, H=H)


def _conjugate(stack):
    """stack conjugated in place if complex; a real stack as it is."""
    return np.conjugate(stack, out=stack) if np.iscomplexobj(stack) else stack


def kalman_estimates(basis, eta, measured, out):
    """The exact-gain tracker's h_hat of one trial's slots, into out (..., S, K, M).

    For per-user coefficients eta (K,) on a PerUserEigenbasis in the bins'
    frame, with measured = basis.measure(bins). With eta = 0 it is the
    Bussgang LMMSE estimator R_k D C_r,k^{-1} r_k. Returns the trace of the
    filtered error covariance at each slot, (..., S).

    In the basis's terms every predicted and filtered covariance equals
    R - H diag((1 - p) / lam) H^H for the p of the whitened prior's
    directions, so the recursion runs on the vector p, from p = 1 (M = R):
    predict p <- eta^2 p + 1 - eta^2, correct by 1 / (1 + lam p). Its trace
    is sum_j p_j ||H e_j||^2 / lam_j, the basis's weights (tr R at p = 1),
    a sum of positive terms. The estimate is h_hat = H z, with
    z <- eta z + p (G r - lam eta z). Neither R^{-1} nor 1 / lam is needed,
    so a singular (learned) correlation works too. The recursions run
    elementwise, slot by slot, between the basis's one measurement of all
    the slots and its one product for all their estimates
    (PerUserEigenbasis.estimates).
    """
    lam = basis.lam
    eta = np.asarray(eta, dtype=float)[:, None]
    eta2 = eta**2
    rest = 1.0 - eta2
    # The p of every slot, (..., S, K, M), and its z in the columns estimates takes.
    p_all = np.empty(lam.shape[:-2] + measured.shape[-1:] + lam.shape[-2:])
    z_all = np.empty(measured.shape, dtype=complex)
    p, z = np.ones(lam.shape), np.zeros(lam.shape, dtype=complex)
    for i in range(measured.shape[-1]):
        p = np.multiply(eta2, p, out=p_all[..., i, :, :])
        p += rest
        p /= 1.0 + lam * p
        z = np.multiply(eta, z, out=z_all[..., i])
        z += p * (measured[..., i] - lam * z)
    basis.estimates(z_all, out)
    p_all *= basis.weights[..., None, :, :]
    return np.sum(p_all, axis=(-2, -1))


def tpe_estimates(corr, gain, noise, eta, expansion, bins, out):
    """The TPE tracker's h_hat of one trial's slots, into out (..., S, K, M).

    The Kalman recursion with a TpeGain expansion of each user's innovation
    covariance inverse, for correlations R (..., K, M, M), the scalar gain
    D, C_n_eff (..., K, M, M) and per-user coefficients eta (K,), from the
    prior (M = R) at the first of the bins (..., S, K, M). The polynomial of
    the block-diagonal innovation covariance in the DFT domain is the
    polynomial of each block. The matrices and the bins are in the trial's
    frame (user_frame), so on real forms every matrix of the recursion
    stays real: sums and products of centro-Hermitian matrices stay
    centro-Hermitian. Returns M_filt (..., K, M, M), the filtered error
    covariance after the last slot, in that frame.

    The scale is bounded once per call. While 0 <= M <= R, user k's
    innovation covariance C_n_eff,k + D M_pred D is at most
    C_r,k = C_n_eff,k + D R_k D, so lambda_max, the largest eigenvalue of
    the C_r,k over the users, bounds every slot. If alpha lambda_max is
    within TpeGain's limit for the order (2 for odd, 1 for even), the
    expansion stays in [0, S^{-1}] and the filtered covariance between 0 and
    R at every slot. Above it the trial runs with
    alpha = 0.75 limit / lambda_max and raises a RuntimeWarning whose text
    does not depend on the trial, at the caller's line, so that the default
    filter shows it once. Over T trials at once each trial has its own
    lambda_max and alpha, and each clamped trial raises the warning.
    """
    lam_max = np.linalg.eigvalsh(noise + gain**2 * corr).max(axis=(-2, -1))
    limit = 2.0 if expansion.order % 2 else 1.0
    clamped = expansion.alpha * lam_max > limit
    alpha = np.where(clamped, 0.75 * limit / lam_max, expansion.alpha)[..., None, None, None]
    for _ in range(np.count_nonzero(clamped)):
        warnings.warn(
            f"tpe.alpha = {expansion.alpha} is above {limit:g} / lambda_max(C_r) for order"
            f" {expansion.order}; such trials use alpha = {0.75 * limit:g} / lambda_max(C_r)",
            RuntimeWarning,
            stacklevel=2,
        )
    eta = np.asarray(eta, dtype=float)[:, None]
    eta2 = eta[..., None] ** 2
    h, m_filt = np.zeros(corr.shape[:-1], dtype=complex), corr
    # (1 - eta^2) R, the process noise covariance that every slot's M_pred adds.
    process = (1.0 - eta2) * corr
    for i in range(bins.shape[-3]):
        h_pred = eta * h
        m_pred = eta2 * m_filt + process
        # D M_pred and M_pred D for the scalar D.
        cross = gain * m_pred
        innov_cov = noise + gain * cross
        innov_cov = 0.5 * (innov_cov + _adjoint(innov_cov))
        gain_mat = cross @ tpe_inverse(innov_cov, alpha, expansion.order)
        h = h_pred + _apply(gain_mat, (bins[..., i, :, :] - gain * h_pred)[..., None])[..., 0]
        out[..., i, :, :] = h
        m_filt = m_pred - gain_mat @ cross
        m_filt = 0.5 * (m_filt + _adjoint(m_filt))
        # Only h and m_filt go on to the next slot, so its products do not stack
        # on this slot's: TPE's steps set a small_sweep_rate run's traced peak.
        del h_pred, m_pred, cross, innov_cov, gain_mat
    return m_filt


def tpe_inverse(matrix, alpha, order):
    """Truncated polynomial approximation alpha * sum_l (I - alpha X)^l.

    X is one matrix or a stack of them (..., n, n), each expanded on its
    own; alpha is a scalar or broadcasts against the stack. Evaluated in
    Horner form with order+1 terms. At an eigenvalue s of
    X the result is (1 - (1 - alpha s)^(order+1)) / s, which tends to 1/s
    for 0 < alpha s < 2; TpeGain gives the limits that keep it in [0, 1/s].
    alpha is taken as given: tpe_estimates bounds it once per trial.
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
