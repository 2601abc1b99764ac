"""Spatially and temporally correlated uplink channel generation.

Each user sees exponential spatial correlation across the base-station array
and evolves across pilot slots as a first-order Gauss-Markov process whose
stationary covariance equals the spatial correlation. Users are stacked into
one aggregate vector with user k occupying entries [k*M, (k+1)*M).
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import block_diag, toeplitz
from scipy.special import j0

from .rng import complex_normal

# Propagation speed used for Doppler, m/s.
SPEED_OF_LIGHT = 3.0e8

# Below this smallest eigenvalue the Cholesky route is considered unsafe.
_CHOLESKY_FLOOR = 1e-10


@dataclass(frozen=True)
class SpatialCorrelation:
    """Correlation matrix with a factor S satisfying S @ S^H = matrix."""

    matrix: np.ndarray
    sqrt_factor: np.ndarray


@dataclass(frozen=True)
class TemporalStats:
    """Per-user Gauss-Markov coefficients eta_k.

    The innovation weights zeta_k = sqrt(1 - eta_k^2) keep the per-slot
    channel distribution stationary.
    """

    eta: np.ndarray

    def __post_init__(self):
        eta = np.atleast_1d(np.asarray(self.eta, dtype=float))
        if eta.ndim != 1 or eta.size == 0:
            raise ValueError("eta must be a non-empty vector")
        if np.any(eta < 0.0) or np.any(eta > 1.0):
            raise ValueError("temporal coefficients must lie in [0, 1]")
        object.__setattr__(self, "eta", eta)

    @property
    def zeta(self):
        return np.sqrt(1.0 - self.eta**2)


@dataclass(frozen=True)
class ChannelState:
    """Aggregate channel vector at one pilot slot."""

    slot: int
    h: np.ndarray


def psd_sqrt(matrix):
    """Factor S with S @ S^H = matrix for a Hermitian PSD matrix.

    Uses Cholesky when the matrix is comfortably positive definite and falls
    back to an eigendecomposition with negative eigenvalues clamped to zero,
    which tolerates the rank-deficient limit.
    """
    matrix = np.asarray(matrix)
    w = np.linalg.eigvalsh(matrix)
    if w[0] > _CHOLESKY_FLOOR:
        return np.linalg.cholesky(matrix)
    w, u = np.linalg.eigh(matrix)
    return u * np.sqrt(np.clip(w, 0.0, None))


def spatial_correlation(matrix):
    """Wrap a correlation matrix together with its square-root factor."""
    matrix = np.asarray(matrix, dtype=complex)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError("correlation matrix must be square")
    return SpatialCorrelation(matrix=matrix, sqrt_factor=psd_sqrt(matrix))


def exponential_correlation(n_antennas, magnitude, phase):
    """Exponential correlation matrix for one user.

    Entry (m, n) above the diagonal is (magnitude * e^{j*phase})^(n-m), the
    conjugate below, ones on the diagonal. The result is Hermitian Toeplitz
    and positive semidefinite for magnitude in [0, 1).
    """
    if n_antennas < 1:
        raise ValueError("need at least one antenna")
    if not 0.0 <= magnitude < 1.0:
        raise ValueError("correlation magnitude must lie in [0, 1)")
    coeff = magnitude * np.exp(1j * phase)
    first_row = coeff ** np.arange(n_antennas)
    return spatial_correlation(toeplitz(np.conj(first_row), first_row))


def aggregate_correlation(users):
    """Block-diagonal correlation over all users, in user order.

    The square-root factor is assembled block-wise, which is itself a valid
    factor of the block-diagonal matrix.
    """
    users = list(users)
    if not users:
        raise ValueError("need at least one user")
    matrix = block_diag(*(u.matrix for u in users))
    factor = block_diag(*(u.sqrt_factor for u in users))
    return SpatialCorrelation(matrix=matrix, sqrt_factor=factor)


def stack_correlation(users):
    """Per-user correlations stacked along a leading user axis, (K, M, M) each.

    The per-user form of aggregate_correlation, for estimators that work on
    each user's block separately.
    """
    users = list(users)
    if not users:
        raise ValueError("need at least one user")
    return SpatialCorrelation(
        matrix=np.stack([u.matrix for u in users]),
        sqrt_factor=np.stack([u.sqrt_factor for u in users]),
    )


def jakes_coefficient(speed_kmh, carrier_hz, slot_seconds):
    """Temporal correlation of a Jakes Doppler spectrum between two slots.

    Equal to J0(2*pi*f_D*t) with Doppler f_D = v*f_c/c. A static user gives
    exactly 1.
    """
    if speed_kmh < 0:
        raise ValueError("speed must be non-negative")
    if carrier_hz <= 0 or slot_seconds <= 0:
        raise ValueError("carrier frequency and slot duration must be positive")
    doppler_hz = (speed_kmh / 3.6) * carrier_hz / SPEED_OF_LIGHT
    return float(j0(2.0 * np.pi * doppler_hz * slot_seconds))


def init_channel(corr, rng):
    """Draw the slot-0 channel from the stationary distribution."""
    g = complex_normal(rng, corr.matrix.shape[0])
    return ChannelState(slot=0, h=corr.sqrt_factor @ g)


def evolve_channel(state, stats, corr, rng):
    """Advance the channel by one slot under the Gauss-Markov model.

    h_i = eta h_{i-1} + zeta S g_i with per-user eta_k applied to user k's
    antenna block. The marginal distribution of every slot stays CN(0, R).
    """
    n = state.h.size
    n_users = stats.eta.size
    if n % n_users != 0:
        raise ValueError("channel length is not a multiple of the user count")
    if corr.matrix.shape[0] != n:
        raise ValueError("correlation size does not match the channel vector")
    n_antennas = n // n_users
    eta = np.repeat(stats.eta, n_antennas)
    zeta = np.repeat(stats.zeta, n_antennas)
    g = complex_normal(rng, n)
    h = eta * state.h + zeta * (corr.sqrt_factor @ g)
    return ChannelState(slot=state.slot + 1, h=h)
