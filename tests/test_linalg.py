import numpy as np
import pytest
from numpy.testing import assert_allclose

from onebit_mimo.linalg import kron_apply, solve_lower, solve_lower_adjoint, subtract_gram


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
    adjoint = chol.conj().T
    assert_allclose(solve_lower_adjoint(chol, b), np.linalg.solve(adjoint, b), atol=1e-12)
    assert_allclose(
        solve_lower_adjoint(chol, b[:, 0]), np.linalg.solve(adjoint, b[:, 0]), atol=1e-12
    )


@pytest.mark.parametrize("n_obs,n", [(3, 5), (300, 200)])
def test_subtract_gram_is_exactly_hermitian(n_obs, n):
    rng = np.random.default_rng(2)
    g = random_complex(rng, (n, n))
    m = g @ g.conj().T
    m = 0.5 * (m + m.conj().T)
    w = 0.1 * random_complex(rng, (n_obs, n))
    expected = m - w.conj().T @ w
    out = subtract_gram(m.copy(), w)
    assert_allclose(out, expected, atol=1e-11)
    assert np.array_equal(out, out.conj().T)
