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

    @property
    def bin_map(self):
        """phi^H / sqrt(tau), for DFT pilots the map to the user bins (see PerUserModel)."""
        return self.phi.conj().T / np.sqrt(self.tau)

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
    (PerUserModel.observe) carries the slot and the (K, M) user bins r, and
    may carry measured, the PerUserEigenbasis.measure of r, computed once
    for all the exact-gain trackers on that basis.
    """

    slot: int
    r: np.ndarray
    model: BussgangModel | None = None
    phi_tilde: ScaledPilotOperator | np.ndarray | None = None
    measured: np.ndarray | None = None


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
    level = 1.0 / np.sqrt(2.0)
    out = np.empty(y.shape, dtype=complex)
    out.real = np.where(y.real >= 0, level, -level)
    out.imag = np.where(y.imag >= 0, level, -level)
    return out


def received_pilot_signal(state, pilots, rng):
    """Analog pilot observation y = Phi_bar h + n, for an (n,) or a (K, M) channel."""
    n_antennas = state.h.size // pilots.K
    return pilot_signal(state.h, pilots, complex_normal(rng, n_antennas * pilots.tau))


def pilot_signal(h, pilots, noise):
    """Phi_bar h + noise for an (n,) or (K, M) channel and noise (tau M,).

    Channels stacked (..., K, M), over trials and slots, take noise
    (..., tau M), one pilot product per channel.
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


def _arcsine_law(c_y, d, out=None):
    """(2/pi)(arcsin X + j arcsin Y) for c_y or a stack of blocks normalized by outer(d, d).

    Each part is normalized, clamped and mapped in place in out (a new array
    by default), so a stack of blocks takes no temporaries of its size.
    """
    scale = _outer(d)
    out = np.empty(np.shape(c_y), dtype=complex) if out is None else out
    for part, source in ((out.real, np.real(c_y)), (out.imag, np.imag(c_y))):
        np.divide(source, scale, out=part)
        np.clip(part, -1.0, 1.0, out=part)
        np.arcsin(part, out=part)
    out *= 2.0 / np.pi
    return out


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

    bin_map (PilotMatrix.bin_map) holds the K rows of the unitary tau-point
    DFT that take a stacked observation to its user bins. In bin k the model is
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

    def bins(self, r):
        """The user bins (..., K, M) of stacked one-bit observations (..., tau M)."""
        return self.bin_map @ r.reshape(r.shape[:-1] + (self.bin_map.shape[1], -1))

    def observe(self, slot, r):
        """A stacked one-bit observation (..., tau M), as a (..., K, M) observation of the user bins."""
        return QuantizedObservation(slot=slot, r=self.bins(r))


def build_per_user_model(pilots, prior):
    """Per-user model for DFT pilots and per-user correlations stacked (K, M, M).

    prior is a SpatialCorrelation whose matrix stacks R_1 .. R_K, or the
    stacks of T trials, (T, K, M, M), for a model of each. Only lag blocks
    of the analog covariance are formed, B_l = block (l, 0) of
    C_y = rho sum_k phi[l, k] R_k + delta_l0 I, then their arcsine and
    effective-noise blocks X_l, and from those the user bins
    sum_l conj(phi[l, k]) X_l. For DFT pilots phi[tau - l, k] = conj(phi[l, k]),
    so with Hermitian R_k, B_{tau-l} = B_l^H. The arcsine law is odd and
    its normalization symmetric, so X_{tau-l} = X_l^H too: the blocks are
    formed for lags 0 .. tau // 2 and the rest are their adjoints. No
    n x n matrix is built. Raises ValueError for pilots other than
    dft_pilots, where the model does not decouple.
    """
    tau, n_users = pilots.phi.shape
    if not np.allclose(pilots.phi, dft_pilots(tau, n_users).phi, rtol=0.0, atol=1e-12):
        raise ValueError("the per-user model needs DFT pilots")
    scaled = pilots._scaled_phi()
    lead = prior.matrix.shape[:-3]
    n_antennas = prior.matrix.shape[-1]
    half = tau // 2 + 1
    diagonal = (..., 0, *np.diag_indices(n_antennas))
    # B_l = rho sum_k phi[l, k] conj(phi[0, k]) R_k (+ I at lag 0): one (half, K) weight matrix.
    weights = scaled[:half] * scaled[0].conj()
    c_y = weights @ prior.matrix.reshape(lead + (n_users, -1))
    c_y = c_y.reshape(lead + (half, n_antennas, n_antennas))
    c_y[diagonal] += 1.0
    d = np.sqrt(np.real(c_y[diagonal]))
    a = np.sqrt(2.0 / np.pi) / d
    lags = np.empty(lead + (tau, n_antennas, n_antennas), dtype=complex)
    # The C_r lag blocks, then C_n_eff's in their place: C_r - A C_y A + A^2 at lag 0.
    c_n_eff = _arcsine_law(c_y, d[..., None, :], out=lags[..., :half, :, :])
    c_n_eff[diagonal] = 1.0
    c_y *= _outer(a)[..., None, :, :]
    c_n_eff -= c_y
    c_n_eff[diagonal] += a**2
    # Lags tau // 2 + 1 .. tau - 1 are the adjoints of lags (tau - 1) // 2 .. 1.
    mirrored = np.swapaxes(c_n_eff[..., (tau - 1) // 2 : 0 : -1, :, :], -1, -2)
    np.conjugate(mirrored, out=lags[..., half:, :, :])
    bins = pilots.phi.conj().T @ lags.reshape(lead + (tau, -1))
    return PerUserModel(
        bin_map=pilots.bin_map,
        a=a,
        gain=float(np.sqrt(tau * pilots.rho)),
        C_n_eff=bins.reshape(lead + (n_users, n_antennas, n_antennas)),
    )
