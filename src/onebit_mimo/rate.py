"""Uplink achievable rates with a zero-forcing combiner.

The data phase passes through the same one-bit front end as the pilots, so
the combiner sees a Bussgang-scaled signal plus quantizer distortion. Under
channel hardening the data-phase Bussgang gain collapses to the pilots'
scalar (quantization.bussgang_gain) and the distortion covariance to
(1 - 2/pi) I, which keeps the per-user rate in closed form given the
channel and its estimate.

The combiner is the Moore-Penrose inverse of the estimate, which is the
zero-forcing combiner (H^H H)^{-1} H^H on every full-rank estimate. It is
solved through the K x K Gram H^H H, one batched Cholesky factorization
for a whole stack. The normal equations square the condition number, so
their error grows as kappa^2 eps; a member whose condition bound reaches
_CHOLESKY_BOUND takes an SVD instead. One-bit estimates at small M can be
rank deficient (a user bin vanishes to rounding, or is exactly +-j times
another user's); they take the SVD too, get the minimum-norm combiner and
a finite rate, and a user whose combiner row is zero gets rate 0.
"""

from dataclasses import dataclass

import numpy as np

from .linalg import inv_lower
from .quantization import bussgang_gain

# A member whose bound ||L||_F ||L^{-1}||_F on kappa_2(H) reaches this takes
# the SVD; below it the normal equations' kappa^2 eps error stays near 1e-12.
_CHOLESKY_BOUND = 1e2
# A Gram with lambda_min <= _GRAM_FLOOR lambda_max is past the bound anyway;
# above it the Cholesky factorization cannot fail at any modest K.
_GRAM_FLOOR = 1e-8


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


def _pinv_svd(h_est):
    """W^T = V diag(1/s) U^H, one SVD per member; s <= 1e-12 s_max is dropped."""
    u, s, vh = np.linalg.svd(h_est, full_matrices=False)
    inv_s = np.divide(1.0, s, out=np.zeros_like(s), where=s > 1e-12 * s[..., :1])
    v_scaled = np.swapaxes(vh, -1, -2).conj() * inv_s[..., None, :]
    return v_scaled @ np.swapaxes(u, -1, -2).conj()


def zf_combiner(h_est):
    """Zero-forcing rows W^T = (H^H H)^{-1} H^H for an M x K estimate or a stack.

    The Grams H^H H = L L^H of the stack are factored together, and
    W^T = L^{-H} (L^{-1} H^H). Since ||L||_F = ||H||_F, the product
    ||L||_F ||L^{-1}||_F bounds kappa_2(H) from above; a member whose bound
    reaches _CHOLESKY_BOUND, or whose Gram is not positive definite or not
    finite, gets the pseudo-inverse from its SVD instead. There singular values
    s <= 1e-12 s_max are dropped, so a rank-deficient member gets the
    minimum-norm combiner, and an all-zero one gets W^T = 0. A member's
    combiner does not depend on the rest of its stack.
    """
    h_est = np.asarray(h_est)
    if h_est.ndim < 2 or h_est.shape[-2] < h_est.shape[-1]:
        raise ValueError("need a tall M x K channel matrix")
    h_adj = np.swapaxes(h_est, -1, -2).conj()
    # Over- and underflow at extreme scales show up as a non-finite bound,
    # which routes the member to the SVD, so they need no warning here.
    with np.errstate(over="ignore", invalid="ignore"):
        gram = h_adj @ h_est
        try:
            chol = np.linalg.cholesky(gram)
        except np.linalg.LinAlgError:
            # The members far past the bound, which include every one that
            # failed, stand in as identities here and take the SVD below.
            eig = np.linalg.eigvalsh(gram)
            factorable = eig[..., 0] > _GRAM_FLOOR * eig[..., -1]
            gram[~factorable] = np.eye(gram.shape[-1])
            chol = np.linalg.cholesky(gram)
        else:
            factorable = True
        chol_inv = inv_lower(chol)
        w = np.swapaxes(chol_inv, -1, -2).conj() @ (chol_inv @ h_adj)
        # ||L||_F^2 = trace(H^H H) and ||L^{-1}||_F^2, member by member.
        norm_sq = np.trace(gram, axis1=-2, axis2=-1).real
        bound_sq = norm_sq * np.sum(np.abs(chol_inv) ** 2, axis=(-2, -1))
    to_svd = ~(factorable & (bound_sq < _CHOLESKY_BOUND**2))
    if to_svd.any():
        w[to_svd] = _pinv_svd(h_est[to_svd])
    return w


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
