"""Pilot design, one-bit quantization, and the Bussgang-linearized model.

The quantized pilot observation r = Q(y) is rewritten as r = A y + q with A
the Bussgang gain and q distortion uncorrelated with y. The second-order
statistics of r follow the arcsine law, which is everything the linear
estimators downstream need.

build_bussgang_model forms that model densely, as one record over all
n = tau M observed entries, for the dense estimators that the tests use as
references. With DFT pilots and a block-diagonal channel correlation (one
block per user) the model decouples: block (t, t') of C_y depends only on
t - t' mod tau, the arcsine law keeps that block-circulant structure because
diag(C_y) depends only on the antenna, and A = I_tau kron diag(a). One
unitary DFT across the pilot slots therefore block-diagonalizes C_y, C_r,
C_q and C_n_eff at once, and user k sees only DFT bin k. build_per_user_model
forms this exact per-user model from M x M blocks alone: the gains and the
user-bin blocks of C_n_eff, which is all the per-user estimators read (the
bin of C_r is D R_k D + C_n_eff,k for D = sqrt(tau rho) diag(a)).
"""

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .linalg import kron_apply
from .rng import complex_normal


@dataclass(frozen=True)
class PilotMatrix:
    """Unit-modulus pilot block, one column per user."""

    phi: np.ndarray
    rho: float | None = None

    @property
    def tau(self):
        return self.phi.shape[0]

    @property
    def K(self):
        return self.phi.shape[1]

    def with_rho(self, rho):
        """Attach the pilot-phase transmit power."""
        if rho <= 0:
            raise ValueError("pilot power must be positive")
        return replace(self, rho=float(rho))

    def _scaled_phi(self):
        if self.rho is None:
            raise ValueError("pilot power not set, call with_rho first")
        return np.sqrt(self.rho) * self.phi

    @cached_property
    def pinv(self):
        """pinv(phi), computed once per pilot block; ValueError if phi is rank deficient."""
        sv = np.linalg.svd(self.phi, compute_uv=False)
        if sv[-1] <= 1e-10 * sv[0]:
            raise ValueError("pilot matrix is rank deficient")
        return np.linalg.pinv(self.phi, rcond=1e-10)

    def phi_bar(self, n_antennas):
        """Dense Phi_bar = phi kron sqrt(rho) I_M, mapping the stacked channel to vec(Y).

        Reference form for tests; apply and adjoint give its products
        without building it.
        """
        return np.kron(self._scaled_phi(), np.eye(n_antennas))

    def apply(self, x):
        """Phi_bar x for a stacked channel vector or a block of them (columns)."""
        return kron_apply(self._scaled_phi(), x)

    def adjoint(self, y):
        """Phi_bar^H y for a stacked observation vector or a block of them."""
        return kron_apply(self._scaled_phi().conj().T, y)


@dataclass(frozen=True)
class ScaledPilotOperator:
    """The linearized pilot operator phi_tilde = diag(a) Phi_bar, kept factored.

    Supports phi_tilde @ x and adjoint(y) = phi_tilde^H y, for vectors and
    column blocks, at O(tau n) per column.
    """

    a_diag: np.ndarray
    pilots: PilotMatrix

    def __matmul__(self, x):
        y = self.pilots.apply(x)
        y *= _row_factor(self.a_diag, y.ndim)
        return y

    def adjoint(self, y):
        return self.pilots.adjoint(_row_factor(self.a_diag, np.ndim(y)) * y)


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


@dataclass(frozen=True)
class QuantizedObservation:
    """One slot of quantized pilots.

    The dense form carries the stacked observation r (tau M,) with the
    BussgangModel and phi_tilde it was received under. The per-user form
    (PerUserModel.observe) carries only the slot and the (K, M) user bins r.
    """

    slot: int
    r: np.ndarray
    model: BussgangModel | None = None
    phi_tilde: ScaledPilotOperator | np.ndarray | None = None


def dft_pilots(tau, n_users):
    """First n_users columns of the tau-point DFT matrix.

    Columns are orthogonal under the unconjugated product, phi^T phi* =
    tau I, and every entry has unit modulus.
    """
    if n_users < 1:
        raise ValueError("need at least one user")
    if tau < n_users:
        raise ValueError("pilot length must be at least the user count")
    m = np.arange(tau)
    phi = np.exp(-2j * np.pi * np.outer(m, m[:n_users]) / tau)
    return PilotMatrix(phi=phi)


def one_bit_quantize(y):
    """Signs of real and imaginary parts, scaled to unit power per entry.

    Zero is mapped to +1 in each part so the output alphabet is exactly
    {±1 ± j}/sqrt(2).
    """
    y = np.asarray(y)
    re = np.where(y.real >= 0, 1.0, -1.0)
    im = np.where(y.imag >= 0, 1.0, -1.0)
    return (re + 1j * im) / np.sqrt(2.0)


def received_pilot_signal(state, pilots, rng):
    """Analog pilot observation y = Phi_bar h + n, for an (n,) or a (K, M) channel."""
    n_antennas = state.h.size // pilots.K
    return pilot_signal(state.h, pilots, complex_normal(rng, n_antennas * pilots.tau))


def pilot_signal(h, pilots, noise):
    """Phi_bar h + noise for an (n,) or (K, M) channel and noise (tau M,).

    T trials at once take a (T, K, M) channel and (T, tau M) noise.
    """
    h = np.reshape(h, noise.shape[:-1] + (pilots.K, -1))
    return (pilots._scaled_phi() @ h).reshape(noise.shape) + noise


def arcsin_covariance(c_y):
    """Covariance of the one-bit output via the arcsine law.

    With X and Y the diagonally normalized real and imaginary parts of C_y,
    C_r = (2/pi)(arcsin X + j arcsin Y). Arguments are clamped to [-1, 1]
    against floating-point spill. The diagonal is written as exactly 1, its
    analytic value: near 1 the arcsine slope is unbounded, so leaving the
    normalization roundoff in would cost sqrt(eps) there.
    """
    out = _arcsine_law(c_y, np.sqrt(np.real(np.diag(c_y))))
    np.fill_diagonal(out, 1.0)
    return out


def _outer(d):
    """outer(d, d) for a vector d, or for each row of a stack of them."""
    return d[..., :, None] * d[..., None, :]


def _arcsine_law(c_y, d):
    """(2/pi)(arcsin X + j arcsin Y) for c_y or a stack of blocks normalized by outer(d, d)."""
    scale = _outer(d)
    x = np.clip(np.real(c_y) / scale, -1.0, 1.0)
    y = np.clip(np.imag(c_y) / scale, -1.0, 1.0)
    return (2.0 / np.pi) * (np.arcsin(x) + 1j * np.arcsin(y))


def build_bussgang_model(pilots, corr):
    """Bussgang gain, analog, arcsine, distortion and effective noise covariances.

    C_y = Phi_bar R Phi_bar^H + I and A = sqrt(2/pi) diag(C_y)^(-1/2); the
    unit noise floor keeps the diagonal strictly positive. C_r follows from
    the arcsine law. C_q = C_r - A C_y A^H is the part of the quantizer
    output the linear model cannot explain, and the effective noise A n + q
    has covariance A A^H + C_q.
    """
    # Phi_bar (Phi_bar R)^H = Phi_bar R Phi_bar^H since R is Hermitian.
    c_y = pilots.apply(pilots.apply(corr.matrix).conj().T)
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
class PerUserModel:
    """The linearized pilot observation of each user in its own DFT bin.

    bin_map holds the K rows of the unitary tau-point DFT, phi^H / sqrt(tau),
    that take a stacked observation to its user bins. In bin k the model is
    r_k = gain diag(a) h_k + n_k, with gain = sqrt(tau rho) and a the
    per-antenna Bussgang gain; C_n_eff stacks the K per-user covariances of
    n_k, (K, M, M). The bins beyond K carry noise alone, uncorrelated with
    the user bins, and are dropped. A model of T trials at once has a
    (T, M) and C_n_eff (T, K, M, M), and observes (T, K, M) bins.
    """

    bin_map: np.ndarray
    a: np.ndarray
    gain: float
    C_n_eff: np.ndarray

    def observe(self, slot, r):
        """A stacked one-bit observation (..., tau M), as a (..., K, M) observation of the user bins."""
        bins = self.bin_map @ r.reshape(r.shape[:-1] + (self.bin_map.shape[1], -1))
        return QuantizedObservation(slot=slot, r=bins)


def build_per_user_model(pilots, prior):
    """Per-user model for DFT pilots and per-user correlations stacked (K, M, M).

    prior is a SpatialCorrelation whose matrix stacks R_1 .. R_K, or the
    stacks of T trials, (T, K, M, M), for a model of each. Only the tau lag
    blocks of the analog covariance are formed, B_l = block (l, 0) of
    C_y = rho sum_k phi[l, k] R_k + delta_l0 I, then their arcsine and
    effective-noise blocks, and from the effective-noise lag blocks X_l the
    user bins sum_l conj(phi[l, k]) X_l. No n x n matrix is built. Raises
    ValueError for pilots other than dft_pilots, where the model does not
    decouple.
    """
    tau, n_users = pilots.phi.shape
    if not np.allclose(pilots.phi, dft_pilots(tau, n_users).phi, rtol=0.0, atol=1e-12):
        raise ValueError("the per-user model needs DFT pilots")
    scaled = pilots._scaled_phi()
    lead = prior.matrix.shape[:-3]
    n_antennas = prior.matrix.shape[-1]
    blocks = (tau, n_antennas, n_antennas)
    diagonal = (..., 0, *np.diag_indices(n_antennas))
    first_column = scaled[0].conj()[:, None, None] * prior.matrix
    c_y = (scaled @ first_column.reshape(lead + (n_users, -1))).reshape(lead + blocks)
    c_y[diagonal] += 1.0
    d = np.sqrt(np.real(c_y[diagonal]))
    a = np.sqrt(2.0 / np.pi) / d
    c_r = _arcsine_law(c_y, d[..., None, :])
    c_r[diagonal] = 1.0
    c_n_eff = c_r - _outer(a)[..., None, :, :] * c_y
    c_n_eff[diagonal] += a**2
    bins = pilots.phi.conj().T @ c_n_eff.reshape(lead + (tau, -1))
    return PerUserModel(
        bin_map=pilots.phi.conj().T / np.sqrt(tau),
        a=a,
        gain=float(np.sqrt(tau * pilots.rho)),
        C_n_eff=bins.reshape(lead + (n_users, n_antennas, n_antennas)),
    )
