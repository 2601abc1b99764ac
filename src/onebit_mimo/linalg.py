"""Structured linear algebra for the estimators, on numpy's BLAS alone.

scipy bundles a second BLAS with its own thread pool. Alternating calls
between it and numpy's make the two pools compete for the cores: with the
default thread count, a Kalman step at n = 128 ran 7x slower on two cores.
So the triangular solve and inverse that numpy lacks are blocked here onto
numpy matrix products.
"""

import numpy as np

# Block sizes: large enough for efficient matrix products, small enough that
# the dense diagonal-block work stays minor. The solve takes a few columns at
# n up to 1024 (the dense Kalman step); the inverse takes n columns at
# n = M, where smaller diagonal blocks were twice as fast at M = 128.
_SOLVE_BLOCK = 64
_INVERSE_BLOCK = 16


def kron_apply(mat, x):
    """(mat kron I_M) x for x stacked as mat.shape[1] blocks of M rows.

    x is a stacked vector (mat.shape[1] * M,) or a block of p such columns
    (mat.shape[1] * M, p). Viewing x as the (mat.shape[1], M * p) matrix of
    its blocks turns the Kronecker product into one small matmul, at
    rows * n * p multiply-adds instead of n^2 * p for the dense operator.
    """
    blocks = np.reshape(x, (mat.shape[1], -1))
    return (mat @ blocks).reshape((-1,) + np.shape(x)[1:])


def solve_lower(chol, b):
    """chol^{-1} b for a lower-triangular chol, or each of a stack (..., n, n).

    b is a vector (n,) or column blocks (..., n, p) that broadcast against
    the stack, as for np.linalg.solve. Blocked forward substitution: each
    diagonal block is inverted directly and all other work is matrix
    products.
    """
    b = np.asarray(b)
    if b.ndim == 1:
        return solve_lower(chol, b[:, None])[:, 0]
    shape = np.broadcast_shapes(chol.shape[:-2], b.shape[:-2]) + b.shape[-2:]
    x = np.empty(shape, dtype=np.result_type(chol, b))
    for i in range(0, chol.shape[-1], _SOLVE_BLOCK):
        rows = slice(i, i + _SOLVE_BLOCK)
        rhs = b[..., rows, :] - chol[..., rows, :i] @ x[..., :i, :]
        x[..., rows, :] = np.linalg.inv(chol[..., rows, rows]) @ rhs
    return x


def inv_lower(chol):
    """chol^{-1} for a lower-triangular chol, or each of a stack (..., n, n).

    The forward substitution of solve_lower on the identity, by block rows:
    row block i of the inverse X is -L_ii^{-1} L[i, :i] X[:i, :i] left of
    the diagonal block L_ii^{-1}, and the zero blocks right of it are never
    computed.
    """
    out = np.zeros_like(chol)
    for i in range(0, chol.shape[-1], _INVERSE_BLOCK):
        rows = slice(i, i + _INVERSE_BLOCK)
        diagonal = np.linalg.inv(chol[..., rows, rows])
        out[..., rows, :i] = -diagonal @ (chol[..., rows, :i] @ out[..., :i, :i])
        out[..., rows, rows] = diagonal
    return out
