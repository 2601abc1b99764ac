"""Closed-form NMSE predictions for the quantized estimation chain.

Valid for spatially white channels (R = I) with orthogonal constant-modulus
pilots of length tau = K and a common temporal coefficient eta. Everything
reduces to scalar recursions in the per-coefficient NMSE.
"""

from dataclasses import dataclass

import numpy as np

# Absolute bisection tolerance for the fixed point.
_GAMMA_TOL = 1e-12


def estimation_gain(n_users, rho):
    """Fraction beta of channel power a single quantized slot can capture.

    beta = (2/pi) * K rho / (K rho + 1): the 2/pi is the quantizer's
    coherent-power loss, the rest is pilot SNR accumulation.
    """
    if n_users < 1:
        raise ValueError("need at least one user")
    if rho <= 0:
        raise ValueError("pilot power must be positive")
    kr = n_users * rho
    return (2.0 / np.pi) * kr / (kr + 1.0)


def blmmse_nmse(n_users, rho):
    """Per-coefficient NMSE of the single-shot linearized MMSE estimate."""
    return 1.0 - estimation_gain(n_users, rho)


@dataclass(frozen=True)
class TheoryParams:
    """Scenario for the scalar NMSE recursion."""

    K: int
    rho: float
    eta: float
    alpha: float

    def __post_init__(self):
        if not 0.0 <= self.eta <= 1.0:
            raise ValueError("temporal coefficient must lie in [0, 1]")
        if not 0.0 < self.alpha < 2.0:
            raise ValueError("expansion scale must lie in (0, 2)")

    @property
    def beta(self):
        return estimation_gain(self.K, self.rho)


def _filter_once(m_pred, beta, alpha):
    # One measurement update of the scalar NMSE under the order-1 expansion.
    shrink = (2.0 * alpha - alpha**2 * (1.0 - beta) - alpha**2 * beta * m_pred) * beta * m_pred
    return (1.0 - shrink) * m_pred


def nmse_recursion(params, slots):
    """Predicted and filtered per-coefficient NMSE for slots 1..slots.

    Index i-1 of each returned array belongs to slot i; the recursion starts
    from the uninformed prior m_{1|0} = 1.
    """
    if slots < 1:
        raise ValueError("need at least one slot")
    beta = params.beta
    eta2 = params.eta**2
    m_pred = np.empty(slots)
    m_filt = np.empty(slots)
    mp = 1.0
    for i in range(slots):
        m_pred[i] = mp
        mf = _filter_once(mp, beta, params.alpha)
        m_filt[i] = mf
        mp = eta2 * mf + (1.0 - eta2)
    return m_pred, m_filt


def nmse_fixed_point_map(x, params):
    """Full slot-to-slot map f on the predicted NMSE."""
    return params.eta**2 * _filter_once(x, params.beta, params.alpha) + (1.0 - params.eta**2)


def fixed_point_gamma(params):
    """Steady-state predicted NMSE, the unique fixed point of f on (0, 1).

    The endpoints are analytic: a block-fading channel (eta = 0) resets to
    the prior every slot, a static channel (eta = 1) accumulates pilots
    indefinitely and the error floor vanishes. In between, f(0) > 0 and
    f(1) < 1 bracket the root and bisection converges unconditionally.
    """
    if params.eta == 0.0:
        return 1.0
    if params.eta == 1.0:
        return 0.0
    lo, hi = 0.0, 1.0
    g_lo = nmse_fixed_point_map(lo, params) - lo
    g_hi = nmse_fixed_point_map(hi, params) - hi
    if not (g_lo > 0.0 and g_hi < 0.0):
        raise ValueError("fixed-point bracket failed, parameters outside the valid region")
    while hi - lo > _GAMMA_TOL:
        mid = 0.5 * (lo + hi)
        if nmse_fixed_point_map(mid, params) - mid > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def alpha_upper_bound(beta, m_pred):
    """Largest expansion scale with guaranteed per-slot NMSE decrease.

    Equals 2 / (1 - beta (1 - m_pred)) and is never below 2, so any alpha in
    (0, 2) is safe regardless of the current NMSE.
    """
    if not 0.0 < beta < 1.0:
        raise ValueError("estimation gain must lie in (0, 1)")
    if not 0.0 <= m_pred <= 1.0:
        raise ValueError("predicted NMSE must lie in [0, 1]")
    return 2.0 / (1.0 - beta * (1.0 - m_pred))
