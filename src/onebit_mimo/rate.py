"""Uplink achievable rates with a zero-forcing combiner.

The data phase passes through the same one-bit front end as the pilots, so
the combiner sees a Bussgang-scaled signal plus quantizer distortion. Under
channel hardening the data-phase Bussgang gain collapses to the pilots'
scalar (quantization.bussgang_gain) and the distortion covariance to
(1 - 2/pi) I, which keeps the per-user rate in closed form given the
channel and its estimate.

The combiner is the Moore-Penrose inverse of the estimate, which is the
zero-forcing combiner on every full-rank estimate. One-bit estimates at
small M can be rank deficient (a user bin vanishes to rounding, or is
exactly +-j times another user's); they get the minimum-norm combiner and
a finite rate, and a user whose combiner row is zero gets rate 0.
"""

from dataclasses import dataclass

import numpy as np

from .quantization import bussgang_gain


@dataclass(frozen=True)
class RateBreakdown:
    """Per-user rate terms, each (..., K), plus the sum rate (...).

    The sum rate of a single M x K matrix is a float. noise bundles
    estimation-error leakage, thermal noise through the combiner, and
    quantizer distortion.
    """

    signal: np.ndarray
    interference: np.ndarray
    noise: np.ndarray
    per_user: np.ndarray
    sum_rate: float | np.ndarray


def zf_combiner(h_est):
    """Zero-forcing rows W^T = V diag(1/s) U^H for an M x K estimate or a stack.

    One SVD H = U diag(s) V^H per member. Singular values s <= 1e-12 s_max
    are dropped, so a rank-deficient member gets its pseudo-inverse, the
    minimum-norm combiner, and an all-zero one gets W^T = 0. On a full-rank
    member this is (H^H H)^{-1} H^H without squaring the condition number.
    """
    h_est = np.asarray(h_est)
    if h_est.ndim < 2 or h_est.shape[-2] < h_est.shape[-1]:
        raise ValueError("need a tall M x K channel matrix")
    u, s, vh = np.linalg.svd(h_est, full_matrices=False)
    inv_s = np.divide(1.0, s, out=np.zeros_like(s), where=s > 1e-12 * s[..., :1])
    v_scaled = np.swapaxes(vh, -1, -2).conj() * inv_s[..., None, :]
    return v_scaled @ np.swapaxes(u, -1, -2).conj()


def achievable_rates(h_true, h_est, rho_d):
    """Per-user and sum rates for given true and estimated channels.

    h_true and h_est share one shape, M x K or a stack (..., M, K). The
    combiner is zero-forcing on the estimate. Signal power counts the
    estimated direction; the mismatch h_est - h_true leaks into the noise
    term together with thermal noise and the (1 - 2/pi) I distortion floor.
    A user whose combiner row is zero, as for an all-zero estimate column,
    has rate 0.
    """
    h_true = np.asarray(h_true)
    h_est = np.asarray(h_est)
    if h_true.shape != h_est.shape:
        raise ValueError("true and estimated channels must share a shape")
    n_users = h_est.shape[-1]
    a_d = bussgang_gain(n_users, rho_d)
    w = zf_combiner(h_est)

    coupling = w @ h_est
    diag = np.abs(np.diagonal(coupling, axis1=-2, axis2=-1)) ** 2
    signal = rho_d * a_d**2 * diag
    interference = rho_d * a_d**2 * (np.sum(np.abs(coupling) ** 2, axis=-1) - diag)

    err_coupling = w @ (h_est - h_true)
    w_power = np.sum(np.abs(w) ** 2, axis=-1)
    noise = (
        rho_d * a_d**2 * np.sum(np.abs(err_coupling) ** 2, axis=-1)
        + a_d**2 * w_power
        + (1.0 - 2.0 / np.pi) * w_power
    )

    sinr = np.divide(signal, interference + noise, out=np.zeros_like(signal), where=w_power > 0)
    per_user = np.log2(1.0 + sinr)
    sum_rate = np.sum(per_user, axis=-1)
    return RateBreakdown(
        signal=signal,
        interference=interference,
        noise=noise,
        per_user=per_user,
        sum_rate=float(sum_rate) if sum_rate.ndim == 0 else sum_rate,
    )
