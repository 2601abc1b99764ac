"""Structured linear algebra for the estimators, on numpy's BLAS alone.

scipy bundles a second BLAS with its own thread pool. Alternating calls
between it and numpy's make the two pools compete for the cores: with the
default thread count, a Kalman step at n = 128 ran 7x slower on two cores.
So the triangular inverse that numpy lacks is blocked here onto numpy
matrix products.
"""

import numpy as np

# Block size: large enough for efficient matrix products, small enough that
# the diagonal-block work stays minor. The inverse takes n columns at n = M,
# where smaller diagonal blocks were twice as fast at M = 128.
_INVERSE_BLOCK = 16


def inv_lower(chol):
    """chol^{-1} for a lower-triangular chol, or each of a stack (..., n, n).

    Forward substitution on the identity, by block rows: row block i of
    the inverse X is -L_ii^{-1} L[i, :i] X[:i, :i] left of the diagonal
    block L_ii^{-1}, and the zero blocks right of it are never computed.
    """
    out = np.zeros_like(chol)
    for i in range(0, chol.shape[-1], _INVERSE_BLOCK):
        rows = slice(i, i + _INVERSE_BLOCK)
        diagonal = np.linalg.inv(chol[..., rows, rows])
        out[..., rows, :i] = -diagonal @ (chol[..., rows, :i] @ out[..., :i, :i])
        out[..., rows, rows] = diagonal
    return out
