import numpy as np
import pytest
from numpy.testing import assert_allclose

from onebit_mimo.linalg import inv_lower, kron_apply, solve_lower


def random_complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def test_kron_apply_matches_dense_kron():
    rng = np.random.default_rng(0)
    mat = random_complex(rng, (5, 3))
    x = random_complex(rng, (3 * 4, 2))
    dense = np.kron(mat, np.eye(4))
    assert_allclose(kron_apply(mat, x), dense @ x, atol=1e-13)
    assert_allclose(kron_apply(mat, x[:, 1]), dense @ x[:, 1], atol=1e-13)


@pytest.mark.parametrize("n", [1, 64, 200])
def test_solve_lower_matches_dense_solve(n):
    """Sizes below, at and across several solve blocks, with a ragged last block."""
    rng = np.random.default_rng(1)
    g = random_complex(rng, (n, n))
    chol = np.linalg.cholesky(g @ g.conj().T / n + np.eye(n))
    b = random_complex(rng, (n, 7))
    assert_allclose(solve_lower(chol, b), np.linalg.solve(chol, b), atol=1e-12)
    assert_allclose(solve_lower(chol, b[:, 0]), np.linalg.solve(chol, b[:, 0]), atol=1e-12)


@pytest.mark.parametrize("n", [1, 5, 16, 17, 33, 128])
def test_stacked_triangular_helpers_match_dense(n):
    """Each matrix of a (2, 3, n, n) stack, below, at and across the inverse's blocks."""
    rng = np.random.default_rng(n)
    g = random_complex(rng, (2, 3, n, n))
    chol = np.linalg.cholesky(g @ np.swapaxes(g, -1, -2).conj() / n + np.eye(n))
    inverse = inv_lower(chol)
    assert_allclose(inverse, np.linalg.inv(chol), rtol=0, atol=1e-12)
    assert np.all(np.triu(inverse, 1) == 0.0)
    b = random_complex(rng, (2, 3, n, 4))
    assert_allclose(solve_lower(chol, b), np.linalg.solve(chol, b), rtol=0, atol=1e-12)
    # One right-hand side broadcast against the stack.
    assert_allclose(solve_lower(chol, b[0, 0]), np.linalg.solve(chol, b[0, 0]), rtol=0, atol=1e-12)
