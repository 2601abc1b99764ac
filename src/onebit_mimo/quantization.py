"""Pilot design, the one-bit front end, and the per-user Bussgang model.

The quantized pilot observation r = Q(y) is rewritten as r = A y + q with A
the Bussgang gain and q distortion uncorrelated with y. The second-order
statistics of r follow the arcsine law, which is everything the linear
estimators downstream need.

With DFT pilots and a block-diagonal channel correlation (one block per
user) the model decouples: block (t, t') of C_y depends only on t - t' mod
tau, the arcsine law keeps that block-circulant structure because diag(C_y)
depends only on the antenna, and A = I_tau kron diag(a). One unitary DFT
across the pilot slots therefore block-diagonalizes C_y, C_r, C_q and
C_n_eff at once, and user k sees only DFT bin k. build_per_user_model forms
this exact per-user model from M x M blocks alone: the gains and the
user-bin blocks of C_n_eff, which is all the per-user estimators read (the
bin of C_r is D R_k D + C_n_eff,k for D = sqrt(tau rho) diag(a)).

Every slot and every learned-correlation probe takes the same front end:
pilot_signal, one_bit_quantize and PilotMatrix.bins.
"""

from dataclasses import dataclass, replace

import numpy as np


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

    def scaled_phi(self):
        """sqrt(rho) phi; raises ValueError while the pilot power is unset."""
        if self.rho is None:
            raise ValueError("pilot power not set, call with_rho first")
        return np.sqrt(self.rho) * self.phi

    @property
    def gain(self):
        """sqrt(tau rho), the gain of each user's own bin (bins) for DFT pilots."""
        return float(np.sqrt(self.tau * self.rho))

    def bins(self, r):
        """The user bins (..., K, L) of observations (..., tau L): phi^H / sqrt(tau) on (tau, L)."""
        bin_map = self.phi.conj().T / np.sqrt(self.tau)
        return bin_map @ r.reshape(r.shape[:-1] + (self.tau, -1))

    def phi_bar(self, n_antennas):
        """Dense Phi_bar = phi kron sqrt(rho) I_M, mapping the stacked channel to vec(Y).

        The reference form of pilot_signal's product, for the tests.
        """
        return np.kron(self.scaled_phi(), np.eye(n_antennas))


@dataclass(frozen=True)
class QuantizedObservation:
    """One slot of quantized pilots: its (K, M) user bins r, or (T, K, M) over T trials.

    measured may carry PerUserEigenbasis.measure of r, computed once for all
    the exact-gain trackers on that basis. The dense references take r
    stacked (tau M,), with the model and phi_tilde it was received under.
    """

    slot: int
    r: np.ndarray
    model: object | None = None
    phi_tilde: object | None = None
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


def pilot_signal(h, pilots, noise):
    """Phi_bar h + noise, one pilot product per row of noise (..., tau L) and K L entries of h.

    A (K, M) channel takes noise (tau M,), and channels stacked (..., K, M)
    take (..., tau M). p channels in columns, (K M, p), with their noise
    (tau M, p) flattened to (tau M p,), take a single product.
    """
    h = np.reshape(h, noise.shape[:-1] + (pilots.K, -1))
    return (pilots.scaled_phi() @ h).reshape(noise.shape) + noise


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


@dataclass(frozen=True)
class PerUserModel:
    """The linearized pilot observation of each user in its own DFT bin.

    In bin k (PilotMatrix.bins) the model is r_k = gain diag(a) h_k + n_k,
    with gain = sqrt(tau rho) and a the per-antenna Bussgang gain; C_n_eff
    stacks the K per-user covariances of n_k, (K, M, M). The bins beyond K
    carry noise alone, uncorrelated with the user bins, and are dropped. A
    model of T trials at once has a (T, M) and C_n_eff (T, K, M, M).
    """

    a: np.ndarray
    gain: float
    C_n_eff: np.ndarray


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
    scaled = pilots.scaled_phi()
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
        a=a, gain=pilots.gain, C_n_eff=bins.reshape(lead + (n_users, n_antennas, n_antennas))
    )
