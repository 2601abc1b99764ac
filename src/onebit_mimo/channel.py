"""Spatially and temporally correlated uplink channel generation.

Each user sees exponential spatial correlation across the base-station array
and evolves across pilot slots as a first-order Gauss-Markov process whose
stationary covariance equals the spatial correlation. The users are
independent, so the generator works on K M x M problems: a correlation is a
stack of per-user blocks (stack_correlation) and the channel a (K, M) stack,
user k in row k. An n x n correlation counts as a stack of one block and
gives an (n,) channel from the same draws.

An exponential correlation is Hermitian Toeplitz, so it is held by its
2M - 1 lags alone (ExponentialCorrelation): its matrix is a read-only view
of them, and its AR(1) factor Lambda_k L_0 Lambda_k^H is applied as one
real product with the L_0 that every user of a run shares.

Only numpy is needed: the exponential model has a closed-form Cholesky
factor, and the Jakes coefficient J0 is summed directly.
"""

import math
from dataclasses import dataclass

import numpy as np

from .rng import complex_normal

# Propagation speed used for Doppler, m/s.
SPEED_OF_LIGHT = 3.0e8

# J0 switches from the trapezoid rule to Hankel's asymptotic series above this
# argument; the series' first 20 terms are accurate to roundoff there.
_HANKEL_FROM = 25.0
_HANKEL_TERMS = 20


@dataclass(frozen=True)
class SpatialCorrelation:
    """Correlation matrix with a factor S satisfying S @ S^H = matrix.

    A learned correlation (estimators.gram_correlation) has sqrt_factor
    None: no program path factors it.
    """

    matrix: np.ndarray
    sqrt_factor: np.ndarray

    @property
    def shape(self):
        return self.matrix.shape


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
        if not np.all((eta >= 0.0) & (eta <= 1.0)):
            raise ValueError("temporal coefficients must lie in [0, 1]")
        object.__setattr__(self, "eta", eta)

    @property
    def zeta(self):
        return np.sqrt(1.0 - self.eta**2)


@dataclass(frozen=True)
class ChannelState:
    """Channel at one pilot slot: (K, M) for a stacked correlation, (n,) for one block."""

    slot: int
    h: np.ndarray


def toeplitz_view(by_lag):
    """The read-only Toeplitz matrices (..., M, M) of lag vectors (..., 2M - 1).

    Entry (m, n) is by_lag[..., n - m + M - 1]: row m is the window of M
    lags from index M - 1 - m, a window sliding back one lag per row. No
    entry is copied, and the view cannot be written, since one write would
    change a whole diagonal. (as_strided: sliding_window_view's first call
    alone costs about 0.3 MB of resident memory.)
    """
    n = by_lag.shape[-1] // 2 + 1
    lag = by_lag.strides[-1]
    return np.lib.stride_tricks.as_strided(
        by_lag[..., n - 1 :],
        shape=by_lag.shape[:-1] + (n, n),
        strides=by_lag.strides[:-1] + (-lag, lag),
        writeable=False,
    )


@dataclass(frozen=True)
class ExponentialCorrelation:
    """Exponential correlations held by their lags (exponential_correlation).

    lags (..., 2M - 1) holds each matrix's entry of lag n - m at index
    n - m + M - 1; phase (...) holds the phases theta and magnitude the
    common r of c = r e^{j theta}. matrix is the read-only Toeplitz view of
    lags. The factor is S = Lambda L_0 Lambda^H, for Lambda =
    diag(e^{-j theta m}) and the real Cholesky factor L_0 of [r^|n - m|]
    (base_factor): apply_sqrt_factor applies it without forming it, and
    sqrt_factor forms it densely, for the dense reference layer and the
    tests.
    """

    lags: np.ndarray
    magnitude: float
    phase: np.ndarray

    @property
    def shape(self):
        """The shape of matrix, (..., M, M), without building the view."""
        n = self.lags.shape[-1] // 2 + 1
        return self.lags.shape[:-1] + (n, n)

    @property
    def matrix(self):
        return toeplitz_view(self.lags)

    @property
    def sqrt_factor(self):
        return self.matrix * _factor_weights(self.shape[-1], self.magnitude)

    @property
    def base_factor(self):
        """L_0 (M, M), the real factor that every block shares: sqrt_factor at phase 0."""
        zero = exponential_correlation(self.shape[-1], self.magnitude, 0.0)
        return toeplitz_view(zero.lags.real) * _factor_weights(self.shape[-1], self.magnitude)


def _factor_weights(n_antennas, magnitude):
    """Column weights of the AR(1) factor: 1 in column 0, sqrt(1 - r^2) right of it, lower triangle."""
    weights = np.tril(np.full((n_antennas, n_antennas), np.sqrt(1.0 - magnitude**2)))
    weights[:, 0] = 1.0
    return weights


def exponential_correlation(n_antennas, magnitude, phase):
    """Exponential correlation matrix for one user, as an ExponentialCorrelation.

    An array of phases, one per user, gives the users' correlations stacked
    along its axes: lags (*phase.shape, 2M - 1), matrix (*phase.shape, M, M).

    Entry (m, n) above the diagonal is c^(n-m) for c = magnitude * e^{j*phase},
    the conjugate below, ones on the diagonal: Hermitian Toeplitz and positive
    definite for magnitude in [0, 1). It is the covariance of the AR(1)
    sequence x_0 = w_0, x_m = conj(c) x_{m-1} + sqrt(1 - |c|^2) w_m, so its
    Cholesky factor is L[m, 0] = conj(c)^m and L[m, j] = conj(c)^(m-j)
    sqrt(1 - |c|^2) for 1 <= j <= m. Both are indexed from the M powers of c;
    with conj(c)^(m-j) = e^{-j theta m} |c|^(m-j) e^{j theta j}, L is
    Lambda L_0 Lambda^H for one real L_0 that depends on magnitude alone.
    """
    if n_antennas < 1:
        raise ValueError("need at least one antenna")
    if not 0.0 <= magnitude < 1.0:
        raise ValueError("correlation magnitude must lie in [0, 1)")
    phase = np.asarray(phase, dtype=float)
    c = magnitude * np.exp(1j * phase)
    powers = c[..., None] ** np.arange(n_antennas)
    # Lags -(M-1) .. M-1 at index lag + M - 1.
    by_lag = np.concatenate((powers[..., :0:-1].conj(), powers), axis=-1)
    return ExponentialCorrelation(lags=by_lag, magnitude=float(magnitude), phase=phase)


def _stack(arrays):
    """np.stack, without a copy for a single array (a one-trial chunk's draws)."""
    return arrays[0][None] if len(arrays) == 1 else np.stack(arrays)


def stack_correlation(users):
    """Correlations stacked on a new leading axis: K users' (K, M, M), T trials' (T, K, M, M).

    Exponential correlations of one magnitude stack their lags and phases
    and stay an ExponentialCorrelation; any other mix stacks dense
    matrices and factors, and has no factor if one of them has none.
    """
    users = list(users)
    if not users:
        raise ValueError("need at least one user")
    magnitude = getattr(users[0], "magnitude", None)
    if all(isinstance(u, ExponentialCorrelation) and u.magnitude == magnitude for u in users):
        return ExponentialCorrelation(
            lags=_stack([u.lags for u in users]),
            magnitude=magnitude,
            phase=_stack([u.phase for u in users]),
        )
    factors = [u.sqrt_factor for u in users]
    return SpatialCorrelation(
        matrix=_stack([u.matrix for u in users]),
        sqrt_factor=None if any(f is None for f in factors) else _stack(factors),
    )


def _bessel_j0(x):
    """Bessel function J0 at x >= 0, to double precision.

    Up to _HANKEL_FROM: the trapezoid rule on J0(x) = (1/2 pi) int cos(x sin t)
    dt over one period, exponentially accurate for a periodic integrand
    (Trefethen and Weideman, SIAM Review 2014), with 64 + 2 ceil(x) nodes.
    Above: Hankel's asymptotic expansion (DLMF 10.17.3), with the phase
    x - pi/4 rounded to double before the cosine as in scipy.special.j0, so
    the two agree even where that rounding shows. Constant work and memory
    at any x; nan at x = inf, like scipy.special.j0.
    """
    if x <= _HANKEL_FROM:
        nodes = 64 + 2 * math.ceil(x)
        t = np.arange(nodes) * (2.0 * np.pi / nodes)
        return float(np.mean(np.cos(x * np.sin(t))))
    if math.isinf(x):
        return math.nan
    # terms[j] = a_j(0) / x^j; P sums the even terms, Q the odd, alternating in pairs.
    terms = [1.0]
    for j in range(_HANKEL_TERMS):
        terms.append(terms[-1] * -((2 * j + 1) ** 2) / (8.0 * (j + 1) * x))
    p = sum(terms[0::4]) - sum(terms[2::4])
    q = sum(terms[1::4]) - sum(terms[3::4])
    chi = x - math.pi / 4
    return math.sqrt(2.0 / (math.pi * x)) * (p * math.cos(chi) - q * math.sin(chi))


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
    return _bessel_j0(2.0 * np.pi * doppler_hz * slot_seconds)


def apply_sqrt_factor(corr, g):
    """S g for draws g of the n channel entries, (n,) or (n, p), block by block.

    corr is a stack of per-user blocks, (K, M, M) (stack_correlation) or
    (T, K, M, M) over T trials with n = T K M; an n x n correlation counts
    as a stack of one block. The result is corr.shape[:-1] +
    g.shape[1:]: (K, M) + g.shape[1:] for a stack of users and g.shape for
    one block. Raises ValueError when the blocks' rows differ from n.

    An ExponentialCorrelation's factor is applied as Lambda_k (L_0
    (Lambda_k^H g)): one batched real product with the L_0 that all its
    blocks share. Each block's numbers come from a product of the same
    shape at any trial count.
    """
    if isinstance(corr, ExponentialCorrelation):
        return _apply_exponential(corr, g)
    factor = corr.sqrt_factor
    blocks = factor.reshape((-1,) + factor.shape[-2:])
    n_blocks, n_rows = blocks.shape[:2]
    if n_blocks * n_rows != g.shape[0]:
        raise ValueError("correlation size does not match the channel vector")
    out = blocks @ g.reshape(n_blocks, n_rows, -1)
    return out.reshape(factor.shape[:-1] + g.shape[1:])


def _apply_exponential(corr, g):
    """apply_sqrt_factor for an ExponentialCorrelation, with no M x M complex array."""
    phase, n_rows = corr.phase, corr.shape[-1]
    if phase.size * n_rows != g.shape[0]:
        raise ValueError("correlation size does not match the channel vector")
    # The diagonal of Lambda^H, e^{j theta m}, per block and antenna, as a column.
    turn = np.exp(1j * np.multiply.outer(phase.reshape(-1), np.arange(n_rows)))[..., None]
    rotated = np.multiply(g.reshape(turn.shape[:-1] + (-1,)), turn, order="C")
    # L_0 on the real and imaginary parts of each block's columns, side by side.
    out = (corr.base_factor @ rotated.view(float)).view(complex)
    out *= turn.conj()
    return out.reshape(phase.shape + (n_rows,) + g.shape[1:])


def init_channel(corr, rng):
    """Draw the slot-0 channel from the stationary distribution."""
    n = math.prod(corr.shape[:-1])
    return ChannelState(slot=0, h=apply_sqrt_factor(corr, complex_normal(rng, n)))


def evolve_channel(state, stats, corr, rng):
    """Advance the channel by one slot, drawing its unit normals from rng.

    The one-slot case of channel_trajectory; the result has the shape
    init_channel gives for corr.
    """
    g = complex_normal(rng, state.h.size)
    h = channel_trajectory(state.h, stats, corr, g)
    return ChannelState(slot=state.slot + 1, h=h.reshape(state.h.shape))


def channel_trajectory(h, stats, corr, g):
    """The channels of the S slots after channel h under the Gauss-Markov model.

    h_i = eta h_{i-1} + zeta S g_i with user k's eta_k and zeta_k applied to
    its antenna block, for g_i of h.size unit normals. The marginal
    distribution of every slot stays CN(0, R). A channel (..., K, M), with
    leading trial axes and the correlation stacked (..., K, M, M), takes g
    as (..., S, K, M), slot-major within each trial, and gives its slots in
    the same layout; a dense (n,) channel takes and gives (S, n). The
    innovations S g of all slots are one product per block over S columns;
    the recursion then runs elementwise, slot by slot.
    """
    n_users = stats.eta.size
    if h.size % n_users != 0:
        raise ValueError("channel length is not a multiple of the user count")
    trial_axes, per_trial = h.shape[:-2], h.shape[-2:]
    g = np.reshape(g, trial_axes + (-1, math.prod(per_trial)))
    n_slots = g.shape[-2]
    # Slots in columns, (n, S): each block's rows are contiguous at any trial count.
    columns = np.swapaxes(g, -1, -2).reshape(-1, n_slots)
    innovation = apply_sqrt_factor(corr, columns).reshape(trial_axes + (n_users, -1, n_slots))
    eta, zeta = stats.eta[:, None], stats.zeta[:, None]
    out = np.empty(trial_axes + (n_slots,) + innovation.shape[-3:-1], dtype=complex)
    prev = h.reshape(innovation.shape[:-1])
    for i in range(n_slots):
        prev = out[..., i, :, :] = eta * prev + zeta * innovation[..., i]
    return out.reshape(trial_axes + (n_slots,) + per_trial)
