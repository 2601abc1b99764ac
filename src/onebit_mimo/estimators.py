"""Channel estimators on the per-user one-bit model.

With DFT pilots and a block-diagonal correlation the linearized pilot
observation decouples per user in the pilot-DFT domain (see
quantization.PerUserModel), so every estimator runs on the K user bins, as
batched M x M problems, with any per-user temporal coefficients. Least
squares and Bussgang LMMSE treat every slot independently; the Kalman
trackers follow the Gauss-Markov evolution across slots, with either the
exact innovation-covariance inverse or a truncated polynomial expansion of
it in the gain. They share one protocol: step(obs) returns the (K, M)
estimate for the slot's user bins. PerUserKalman's error_trace is the trace
of its filtered error covariance.

The exact-gain tracker for a memoryless channel (eta = 0) is the Bussgang
LMMSE estimator, so both run as PerUserKalman on one PerUserEigenbasis, the
per-trial factorization of the whitened measurement information, which does
not depend on eta. A trial whose correlations are all centro-Hermitian
(J conj(R_k) J = R_k, as for the exponential model's Hermitian Toeplitz
R_k) has a real problem: a fixed unitary Q makes R_k, C_n_eff,k and the
gains real, so build_eigenbasis factors it with real LAPACK and maps only
its outputs back. Other trials, and centro-Hermitian ones whose real prior
form has no Cholesky factor, take complex arithmetic.

Every estimator also runs T independent trials at once: given a model of T
trials (quantization.build_per_user_model on (T, K, M, M) correlations),
its step takes and returns (T, K, M) stacks, and each trial's numbers are
those of its own estimator.
"""

import warnings
from dataclasses import dataclass, fields, replace

import numpy as np

from .channel import SpatialCorrelation
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
    even L. PerUserTpe holds alpha to that limit once per trial.
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

    Symmetrizes the average and rescales the diagonal back to one (one-bit
    front ends shrink the apparent power, so the raw scale is off).
    Diagonal entries at numerical zero are left untouched. The average is
    PSD; its factor is S = diag(scale) U diag(sqrt(max(w, 0))) from its
    eigh, U diag(w) U^H, where max(w, 0) drops the rounding-level negative
    eigenvalues of a rank-deficient average (fewer samples than antennas).
    Each matrix of a stack (..., M, M) is factored on its own.
    """
    est = 0.5 * (gram + _adjoint(gram))
    w, u = np.linalg.eigh(est)
    root = u * np.sqrt(np.clip(w, 0.0, None))[..., None, :]
    d = np.real(np.diagonal(est, axis1=-2, axis2=-1))
    scale = np.where(d > 1e-12, 1.0 / np.sqrt(np.where(d > 1e-12, d, 1.0)), 1.0)[..., :, None]
    matrix = scale * est * np.swapaxes(scale, -1, -2)
    return SpatialCorrelation(matrix=matrix, sqrt_factor=scale * root)


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
    """Least squares on the user bins: r_k / sqrt(tau rho), pinv(Phi_bar) r for DFT pilots.

    It depends on the pilots alone (pinv(phi) = phi^H / tau), so the
    learned-correlation probes take it too.
    """

    def __init__(self, pilots):
        self._scale = 1.0 / pilots.gain

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
    serves every exact-gain tracker of a trial, and one measurement G r per
    slot (measure) serves them all. A basis of T trials at once has a
    leading trial axis on each.

    Any factor S of R gives the same G, S U, lam and norms. A trial whose
    correlations are all exactly centro-Hermitian gets them in real
    arithmetic, with S = Q S' for the Cholesky factor S' of the real form
    Q^H R Q; any other trial, or one whose real form has no Cholesky factor,
    with S = prior.sqrt_factor (build_eigenbasis). G and S U are complex
    either way.
    """

    lam: np.ndarray
    G: np.ndarray
    SU: np.ndarray
    col_norms: np.ndarray

    def measure(self, r):
        """G r for the user bins r (K, M), or (T, K, M) for a basis of T trials."""
        return _matvec(self.G, r)


def build_eigenbasis(prior, model):
    """The PerUserEigenbasis of per-user correlations and a PerUserModel.

    One batched Cholesky factor of C_n_eff, its inverse and one batched
    eigh. numpy has no triangular inverse, and its general LU one is several
    times slower at M = 128 than the block rows of linalg.inv_lower, which
    skip the zero upper triangle. Raises LinAlgError if C_n_eff is not
    positive definite.

    A trial whose K correlations are all exactly centro-Hermitian,
    J conj(R_k) J = R_k for the exchange matrix J, runs in real arithmetic.
    Hermitian Toeplitz matrices, such as the exponential model's, are
    centro-Hermitian. With DFT pilots the arcsine law keeps the symmetry, so
    every C_n_eff,k of such a trial is centro-Hermitian too, to rounding
    (its real form is read from its first rows), and its gains a are
    persymmetric. The fixed unitary Q of _real_form then makes
    R' = Q^H R_k Q and Q^H C_n_eff,k Q real symmetric and Q^H D Q real
    diagonal, and the same pipeline runs on them, with the Cholesky factor
    S' of R' for S, at about half the cost in LAPACK and BLAS. Only the
    outputs return: S U = Q (S'U') and G = G' Q^H; lam and the norms carry
    over, Q being unitary. Every other trial takes complex arithmetic with
    S = prior.sqrt_factor, and so does a centro-Hermitian one whose R' has
    no Cholesky factor (a singular learned correlation, such as [[0]] at
    M = 1). The choice is per trial, from its own correlations, so a
    trial's numbers do not depend on the other trials of a stack.
    """
    lead = prior.matrix.shape[:-3]
    # One trial axis, (T, K, M, M), also for a single trial's (K, M, M).
    matrix, factor, noise = (
        np.reshape(x, (-1,) + x.shape[-3:])
        for x in (prior.matrix, prior.sqrt_factor, model.C_n_eff)
    )
    gain = np.reshape(model.gain * model.a, (len(matrix), 1, -1))
    real, real_factor = _real_prior(matrix)
    bases = []
    if real.any():
        noise_form = _real_form(_take(noise, real))
        bases.append(_real_eigenbasis(real_factor, _take(gain, real), noise_form))
    if not real.all():
        other = ~real
        bases.append(_eigenbasis(_take(factor, other), _take(gain, other), _take(noise, other)))
    out = {}
    for field in fields(PerUserEigenbasis):
        arrays = [getattr(basis, field.name) for basis in bases]
        array = arrays[0] if len(arrays) == 1 else _merge(real, *arrays)
        out[field.name] = array.reshape(lead + array.shape[1:])
    return PerUserEigenbasis(**out)


def _take(stack, mask):
    """The trials of stack (T, ...) where mask (T,) holds, without a copy when it holds for all."""
    return stack if mask.all() else stack[mask]


def _merge(mask, where, elsewhere):
    """One (T, ...) stack of where on the trials of mask (T,) and elsewhere on the rest."""
    out = np.empty(mask.shape + where.shape[1:], dtype=where.dtype)
    out[mask], out[~mask] = where, elsewhere
    return out


def _real_prior(matrix):
    """The trials (T,) of a (T, K, M, M) stack that take the real path, and their factors S'.

    A trial does when each of its blocks equals J conj(block) J exactly and
    the real forms have a Cholesky factor; those factors are returned,
    stacked over the selected trials (None if there are none).
    """
    # The first ceil(M/2) rows of J conj(X) J against X's: the rest are the same pairs.
    rows = matrix.shape[-1] - matrix.shape[-1] // 2
    mirror = matrix[..., ::-1, ::-1][..., :rows, :].conj()
    real = (matrix[..., :rows, :] == mirror).reshape(len(matrix), -1).all(axis=1)
    if not real.any():
        return real, None
    forms = _real_form(_take(matrix, real))
    try:
        return real, np.linalg.cholesky(forms)
    except np.linalg.LinAlgError:
        pass
    # Rare: a singular R', say a learned [[0]] at M = 1. Find its trials.
    definite = np.ones(len(forms), dtype=bool)
    for t, form in enumerate(forms):
        try:
            np.linalg.cholesky(form)
        except np.linalg.LinAlgError:
            definite[t] = False
    real[real] = definite
    return real, np.linalg.cholesky(forms[definite]) if definite.any() else None


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
    plus, minus = near + far, near - far
    out[..., :p, :p] = plus.real
    out[..., e:, :p] = plus.imag
    out[..., e:, e:] = minus.real
    np.negative(minus.imag, out=out[..., :p, e:])
    if m % 2:
        column, row = _SQRT2 * top[..., p:e], _SQRT2 * matrix[..., p:e, :p]
        out[..., :p, p:e] = column.real
        out[..., e:, p:e] = column.imag
        out[..., p:e, :p] = row.real
        np.negative(row.imag, out=out[..., p:e, e:])
        out[..., p:e, p:e] = matrix[..., p:e, p:e].real
    return out


def _complex_rows(x, out, sign=1.0):
    """out = Q x for a real x (..., M, N), or conj(Q) x for sign = -1: undoes _real_form's Q^H.

    Row j < M // 2 of Q x is (x_j + i x_{e+j}) / sqrt 2 and row M - 1 - j
    its conjugate, for e = ceil(M/2); the middle row of an odd M is x's.
    out may be any view of a complex (..., M, N).
    """
    m = x.shape[-2]
    p, e = m // 2, m - m // 2
    near, tail = _HALF * x[..., :p, :], (sign * _HALF) * x[..., e:, :]
    out.real[..., :p, :] = near
    out.real[..., p:e, :] = x[..., p:e, :]
    out.real[..., e:, :] = near[..., ::-1, :]
    out.imag[..., :p, :] = tail
    out.imag[..., p:e, :] = 0.0
    np.negative(tail[..., ::-1, :], out=out.imag[..., e:, :])
    return out


def _real_eigenbasis(factor, gain, noise_form):
    """The PerUserEigenbasis from real forms: S' (T, K, M, M), gains (T, 1, M) and C_n_eff's.

    Q^H diag(a) Q is diag(a_0 .. a_{e-1}, a_0 .. a_{p-1}) for persymmetric a.
    """
    m = gain.shape[-1]
    gain = np.concatenate((gain[..., : m - m // 2], gain[..., : m // 2]), axis=-1)
    basis = _eigenbasis(factor, gain, noise_form)
    su = _complex_rows(basis.SU, np.empty(basis.SU.shape, dtype=complex))
    measure = np.empty(basis.G.shape, dtype=complex)
    # G = G' Q^H, so G^T = conj(Q) G'^T.
    _complex_rows(np.swapaxes(basis.G, -1, -2), np.swapaxes(measure, -1, -2), sign=-1.0)
    return replace(basis, G=measure, SU=su)


def _eigenbasis(factor, gain, noise):
    """build_eigenbasis's pipeline on factors S, gain rows (..., 1, M) and C_n_eff.

    The same calls serve the real forms and the complex matrices.
    """
    try:
        chol = np.linalg.cholesky(noise)
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError(
            "effective noise covariance C_n_eff is not positive definite"
        ) from exc
    inv_chol = inv_lower(chol)
    del chol
    # A stack of this size is fresh memory to a short run, paid for in page
    # faults, so the conjugates and W U reuse the buffers of B and J, and
    # each stack is dropped once used.
    scaled = gain[..., None] * factor
    whitened = inv_chol @ scaled
    info = np.swapaxes(np.conjugate(whitened, out=scaled), -1, -2) @ whitened
    lam, u = np.linalg.eigh(info)
    rotated = np.conjugate(np.matmul(whitened, u, out=info), out=info)
    del scaled, whitened
    su = factor @ u
    del u
    power = np.abs(su)
    power **= 2
    col_norms = np.sum(power, axis=-2)
    del power
    return PerUserEigenbasis(
        lam=lam, G=np.swapaxes(rotated, -1, -2) @ inv_chol, SU=su, col_norms=col_norms
    )


class PerUserKalman:
    """Exact-gain Kalman tracker on the user bins, on a PerUserEigenbasis.

    For per-user coefficients eta (K,), at two batched matrix-vector
    products per slot. With eta = 0 it is the Bussgang LMMSE estimator
    R_k D C_r,k^{-1} r_k.

    In the basis's terms every predicted and filtered covariance equals
    (S U) diag(p) (S U)^H. The recursion therefore runs on the vector p, from
    p = 1 (M = R): predict p <- eta^2 p + 1 - eta^2, correct
    p <- p / (1 + lam p). The estimate is h_hat = (S U) y, with
    y <- eta y + p (G r - lam eta y). S^{-1} is never needed, so a singular
    (learned) correlation works too. An observation that carries measured,
    the PerUserEigenbasis.measure of its bins on this tracker's basis, is
    taken at that: the trackers sharing a basis then share one product.
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
        measured = self._basis.measure(obs.r) if obs.measured is None else obs.measured
        y += p * (measured - lam * y)
        self._p, self._y, self.slot = p, y, obs.slot
        return _matvec(self._basis.SU, y)


class PerUserTpe:
    """Kalman tracker with a TpeGain on the user bins.

    The Kalman recursion with a truncated polynomial expansion of each
    user's innovation covariance inverse, for per-user coefficients eta (K,).
    The polynomial of the block-diagonal innovation covariance in the DFT
    domain is the polynomial of each block.

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
