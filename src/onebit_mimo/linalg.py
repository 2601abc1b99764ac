"""Structured linear algebra for the estimators, on numpy's BLAS alone.

scipy bundles a second BLAS with its own thread pool. Alternating calls
between it and numpy's make the two pools compete for the cores: with the
default thread count, a Kalman step at n = 128 ran 7x slower on two cores.
So the triangular solve and the Hermitian downdate the Cholesky-form Kalman
update needs, which numpy lacks, are blocked here onto numpy matrix products.
"""

import numpy as np

# Block sizes: large enough for efficient matrix products, small enough that
# the dense diagonal-block work of the solve stays minor.
_SOLVE_BLOCK = 64
_GRAM_BLOCK = 128


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
    """chol^{-1} b for a lower-triangular chol and a vector or column block b.

    Blocked forward substitution: each diagonal block is inverted directly
    and all other work is matrix products.
    """
    x = np.empty(np.shape(b), dtype=np.result_type(chol, b))
    for i in range(0, chol.shape[0], _SOLVE_BLOCK):
        rows = slice(i, i + _SOLVE_BLOCK)
        x[rows] = np.linalg.inv(chol[rows, rows]) @ (b[rows] - chol[rows, :i] @ x[:i])
    return x


def solve_lower_adjoint(chol, b):
    """chol^{-H} b for a lower-triangular chol and a vector or column block b.

    Reversing the order of rows and columns turns the upper-triangular
    chol^H into a lower-triangular matrix, so this is solve_lower on the
    flipped system, flipped back. The result is a view with negative row
    strides.
    """
    flipped = chol[::-1, ::-1].conj().T
    return solve_lower(flipped, b[::-1])[::-1]


def subtract_gram(m, w):
    """m - w^H w for Hermitian m, overwriting m; the result is exactly Hermitian.

    Only the lower block triangle of w^H w is formed, for about half the work
    of the full product, and then mirrored.
    """
    n = m.shape[0]
    w_h = w.conj().T
    for i in range(0, n, _GRAM_BLOCK):
        cols = slice(i, i + _GRAM_BLOCK)
        m[i:, cols] -= w_h[i:] @ w[:, cols]
    out = np.where(np.tri(n, dtype=bool), m, m.conj().T)
    np.fill_diagonal(out, out.diagonal().real)
    return out
