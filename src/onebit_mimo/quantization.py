"""Pilot design, the one-bit front end, and the per-user Bussgang model.

The quantized pilot observation r = Q(y) is rewritten as r = A y + q with A
the Bussgang gain and q distortion uncorrelated with y. The second-order
statistics of r follow the arcsine law, which is everything the linear
estimators downstream need.

With DFT pilots and a block-diagonal channel correlation (one block per
user) of unit diagonal the model decouples: block (t, t') of C_y depends
only on t - t' mod tau, every antenna's diag(C_y) is 1 + K rho, so the
arcsine law keeps that block-circulant structure and A = a I for the one
scalar a = bussgang_gain(K, rho). One unitary DFT across the pilot slots
therefore block-diagonalizes C_y, C_r, C_q and C_n_eff at once, and user k
sees only DFT bin k. build_per_user_model forms this exact per-user model
from per-user lags alone: the gain D = sqrt(tau rho) a and the user-bin
blocks of C_n_eff, which is all the per-user estimators read (the bin of
C_r is D^2 R_k + C_n_eff,k). A learned prior's lags are M x M blocks; an
exponential prior's are Hermitian Toeplitz, so each is held as its vector
of 2M - 1 lags.

Every slot and every learned-correlation probe takes the same front end:
pilot_signal, one_bit_quantize and PilotMatrix.bins.
"""

from dataclasses import dataclass, replace

import numpy as np

from .channel import ExponentialCorrelation, toeplitz_view


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

    def _power(self):
        if self.rho is None:
            raise ValueError("pilot power not set, call with_rho first")
        return self.rho

    def scaled_phi(self):
        """sqrt(rho) phi; raises ValueError while the pilot power is unset."""
        return np.sqrt(self._power()) * self.phi

    @property
    def gain(self):
        """sqrt(tau rho), the gain of each user's own bin (bins) for DFT pilots.

        Raises ValueError while the pilot power is unset.
        """
        return float(np.sqrt(self.tau * self._power()))

    def bins(self, r):
        """The user bins (..., K, L) of observations (..., tau L): phi^H / sqrt(tau) on (tau, L)."""
        bin_map = self.phi.conj().T / np.sqrt(self.tau)
        return bin_map @ r.reshape(r.shape[:-1] + (self.tau, -1))

    def phi_bar(self, n_antennas):
        """Dense Phi_bar = phi kron sqrt(rho) I_M, mapping the stacked channel to vec(Y).

        The reference form of pilot_signal's product, for the tests.
        """
        return np.kron(self.scaled_phi(), np.eye(n_antennas))


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


def bussgang_gain(n_users, rho):
    """Scalar Bussgang gain sqrt((2/pi) / (K rho + 1)) of one-bit inputs of power K rho + 1.

    That is every antenna's input power in the pilot phase, with DFT pilots
    of power rho and unit-diagonal correlations, and in the data phase
    under channel hardening.
    """
    if n_users < 1:
        raise ValueError("need at least one user")
    if rho < 0:
        raise ValueError("transmit power must be non-negative")
    return float(np.sqrt((2.0 / np.pi) / (n_users * rho + 1.0)))


def pilot_signal(h, pilots, noise):
    """Phi_bar h + noise, one pilot product per row of noise (..., tau L) and K L entries of h.

    A (K, M) channel takes noise (tau M,), and channels stacked (..., K, M)
    take (..., tau M). p channels in columns, (K M, p), with their noise
    (tau M, p) flattened to (tau M p,), take a single product.
    """
    h = np.reshape(h, noise.shape[:-1] + (pilots.K, -1))
    return (pilots.scaled_phi() @ h).reshape(noise.shape) + noise


def _arcsine_law(c_y, scale):
    """(2/pi)(arcsin X + j arcsin Y) for c_y, or a stack of blocks, normalized by scale.

    scale is the common diagonal entry of C_y. Each part is normalized,
    clamped and mapped in place in the result, so a stack of blocks takes
    no temporaries of its size.
    """
    out = np.empty(np.shape(c_y), dtype=complex)
    for part, source in ((out.real, np.real(c_y)), (out.imag, np.imag(c_y))):
        np.divide(source, scale, out=part)
        np.clip(part, -1.0, 1.0, out=part)
        np.arcsin(part, out=part)
    out *= 2.0 / np.pi
    return out


@dataclass(frozen=True)
class PerUserModel:
    """The linearized pilot observation of each user in its own DFT bin.

    In bin k (PilotMatrix.bins) the model is r_k = gain h_k + n_k, with
    the scalar gain D = sqrt(tau rho) a for the Bussgang gain a
    (bussgang_gain); C_n_eff stacks the K per-user covariances of n_k,
    (K, M, M). The bins beyond K carry noise alone, uncorrelated with the
    user bins, and are dropped. A model of T trials at once has C_n_eff
    (T, K, M, M) and the same gain. For an ExponentialCorrelation prior
    C_n_eff is a read-only Toeplitz view of its lag vectors
    (channel.toeplitz_view).
    """

    gain: float
    C_n_eff: np.ndarray


def build_per_user_model(pilots, prior):
    """Per-user model for DFT pilots and per-user correlations stacked (K, M, M).

    prior is a SpatialCorrelation whose matrix stacks R_1 .. R_K, or the
    stacks of T trials, (T, K, M, M), for a model of each. Only lag blocks
    of the analog covariance are formed, B_l = rho sum_k phi[l, k] R_k, the
    block (l, 0) of C_y = B_l + delta_l0 I, for all tau lags in one (tau, K)
    weight product, then their arcsine and effective-noise blocks X_l, and
    from those the user bins sum_l conj(phi[l, k]) X_l. No n x n matrix is
    built. Raises ValueError for pilots other than dft_pilots, where the
    model does not decouple, and for an R_k whose diagonal is not exactly
    1, where A is not a I.

    Every block is Hermitian Toeplitz when the R_k are: an
    ExponentialCorrelation runs the same elementwise arithmetic on its
    tau (2M - 1) lag entries instead of tau M^2 block entries, and returns
    C_n_eff as the read-only Toeplitz view of its bins' lag vectors.
    """
    tau, n_users = pilots.phi.shape
    if not np.allclose(pilots.phi, dft_pilots(tau, n_users).phi, rtol=0.0, atol=1e-12):
        raise ValueError("the per-user model needs DFT pilots")
    scaled = pilots.scaled_phi()
    toeplitz = isinstance(prior, ExponentialCorrelation)
    n_antennas = prior.shape[-1]
    # Each user's entries in one flat axis: its lags, or its block's M^2 entries.
    if toeplitz:
        entries, diagonal = prior.lags, [n_antennas - 1]
    else:
        entries = prior.matrix.reshape(prior.matrix.shape[:-2] + (-1,))
        diagonal = np.arange(n_antennas) * (n_antennas + 1)
    if np.any(entries[..., diagonal] != 1.0):
        raise ValueError("the per-user model needs correlations of unit diagonal")
    # B_l = rho sum_k phi[l, k] conj(phi[0, k]) R_k: one (tau, K) weight matrix.
    b = (scaled * scaled[0].conj()) @ entries
    a = bussgang_gain(n_users, pilots.rho)
    # The C_r lag blocks, then C_n_eff's in their place: C_r - a^2 B_l, since
    # the I of C_y and the a^2 I of C_n_eff at lag 0 cancel. diag(C_r) is 1.
    lags = _arcsine_law(b, n_users * pilots.rho + 1.0)
    lags[..., 0, diagonal] = 1.0
    b *= a * a
    lags -= b
    bins = pilots.phi.conj().T @ lags
    shape = entries.shape[:-2] + (n_users, n_antennas, n_antennas)
    c_n_eff = toeplitz_view(bins) if toeplitz else bins.reshape(shape)
    return PerUserModel(gain=pilots.gain * a, C_n_eff=c_n_eff)
