"""Dense/sparse linear algebra kernels against hand-computed examples.

The generalized eigensolver oracle is a 2x2 pencil solved by hand via
its characteristic polynomial; rank oracles are integer matrices whose
rank is known by construction (products of full-rank factors).
"""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from whitney.linalg import (
    NotPositiveDefiniteError,
    NotSymmetricError,
    SingularSystemError,
    generalized_symmetric_eig,
    integer_rank,
    numerical_rank,
    symmetric_indefinite_solve,
)


def test_generalized_eig_hand_example():
    # A = [[2, 0], [0, 6]], B = [[1, 0], [0, 2]]: eigenvalues 2 and 3
    A = np.diag([2.0, 6.0])
    B = np.diag([1.0, 2.0])
    spec = generalized_symmetric_eig(A, B)
    assert np.allclose(spec.eigenvalues, [2.0, 3.0])
    # eigenvectors normalized in the B inner product
    assert np.allclose(spec.eigenvectors.T @ B @ spec.eigenvectors, np.eye(2), atol=1e-14)


def test_generalized_eig_nondiagonal_hand_example():
    # det(A - t B) = 0 for A = [[4, 2], [2, 3]], B = I:
    # t = (7 +- sqrt(17)) / 2
    A = np.array([[4.0, 2.0], [2.0, 3.0]])
    spec = generalized_symmetric_eig(A, np.eye(2))
    expected = np.array([(7 - np.sqrt(17)) / 2, (7 + np.sqrt(17)) / 2])
    assert np.allclose(spec.eigenvalues, expected)


def test_eig_rejects_indefinite_B():
    with pytest.raises(NotPositiveDefiniteError):
        generalized_symmetric_eig(np.eye(2), np.diag([1.0, -1.0]))


def test_eig_rejects_asymmetric():
    with pytest.raises(NotSymmetricError):
        generalized_symmetric_eig(np.array([[0.0, 1.0], [0.0, 0.0]]), np.eye(2))


def test_spd_solve_hand_example():
    # A^-1 = [[3, -2], [-2, 4]] / 8, so x = (10, 12) / 8
    A = np.array([[4.0, 2.0], [2.0, 3.0]])
    x = symmetric_indefinite_solve(A, np.array([8.0, 7.0]))
    assert np.allclose(x, [1.25, 1.5], rtol=0, atol=1e-14)
    assert np.allclose(A @ x, [8.0, 7.0], atol=1e-14)


def test_saddle_point_solve_3x3():
    # [[I, b], [b^T, 0]] with b = (1, 1): x = (1, -1, ...) for rhs below
    K = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0], [1.0, 1.0, 0.0]])
    rhs = np.array([1.0, 0.0, 2.0])
    x = symmetric_indefinite_solve(K, rhs)
    assert np.allclose(K @ x, rhs, atol=1e-12)
    # indefinite: has both signs in the spectrum
    assert np.linalg.eigvalsh(K)[0] < 0 < np.linalg.eigvalsh(K)[-1]


def test_sparse_indefinite_matches_dense():
    rng = np.random.default_rng(3)
    B = rng.standard_normal((4, 7))
    A = np.block([[np.eye(7), B.T], [B, np.zeros((4, 4))]])
    rhs = rng.standard_normal(11)
    dense = symmetric_indefinite_solve(A, rhs)
    sparse = symmetric_indefinite_solve(sp.csr_matrix(A), rhs)
    assert np.allclose(dense, sparse, atol=1e-10)


def test_singular_system_raises():
    with pytest.raises(SingularSystemError):
        symmetric_indefinite_solve(np.zeros((2, 2)), np.ones(2))
    with pytest.raises(SingularSystemError):
        symmetric_indefinite_solve(sp.csr_matrix((2, 2)), np.ones(2))


def test_matrix_right_hand_side_and_dense_input():
    # columns are solved at once; dense and sparse input agree bit for bit
    rng = np.random.default_rng(5)
    B = rng.standard_normal((3, 6))
    A = np.block([[np.diag(rng.uniform(1.0, 2.0, 6)), B.T], [B, np.zeros((3, 3))]])
    rhs = rng.standard_normal((9, 4))
    x = symmetric_indefinite_solve(A, rhs)
    assert x.shape == (9, 4)
    assert np.array_equal(x, symmetric_indefinite_solve(sp.csc_matrix(A), rhs))
    for j in range(4):
        assert np.allclose(x[:, j], symmetric_indefinite_solve(A, rhs[:, j]), rtol=0, atol=1e-12)
    assert np.abs(A @ x - rhs).max() <= 1e-12 * np.abs(rhs).max()
    with pytest.raises(NotSymmetricError):
        symmetric_indefinite_solve(np.triu(A), rhs)


def test_numerical_rank_of_incidence_like_matrix():
    # vertex-edge incidence of a path on 5 vertices: rank = V - 1 = 4
    D = np.zeros((4, 5))
    for i in range(4):
        D[i, i], D[i, i + 1] = -1.0, 1.0
    assert numerical_rank(D) == 4
    assert integer_rank(D.astype(np.int64)) == 4


def test_integer_vs_float_rank_on_products():
    rng = np.random.default_rng(11)
    for r in (1, 2, 3):
        M = (rng.integers(-2, 3, (6, r)) @ rng.integers(-2, 3, (r, 5))).astype(np.int64)
        assert integer_rank(M) == numerical_rank(M.astype(float)) == np.linalg.matrix_rank(M)


def test_integer_rank_exactness_where_floats_would_dither():
    # Hilbert-like integer scaling keeps entries exact
    M = np.array([[1, 1, 1], [1, 2, 3], [2, 3, 4]], dtype=np.int64)
    assert integer_rank(M) == 2


@settings(deadline=None, max_examples=25)
@given(st.integers(1, 6), st.integers(0, 2 ** 31 - 1))
def test_spd_solve_residual_property(n, seed):
    rng = np.random.default_rng(seed)
    R = rng.standard_normal((n, n))
    A = R @ R.T + n * np.eye(n)
    b = rng.standard_normal(n)
    x = symmetric_indefinite_solve(A, b)
    assert np.abs(A @ x - b).max() <= 1e-8 * max(1.0, np.abs(b).max())


@settings(deadline=None, max_examples=25)
@given(st.integers(2, 6), st.integers(0, 2 ** 31 - 1))
def test_eigenvalues_ascending_and_consistent(n, seed):
    rng = np.random.default_rng(seed)
    R = rng.standard_normal((n, n))
    A = R + R.T
    B = np.eye(n)
    spec = generalized_symmetric_eig(A, B)
    assert np.all(np.diff(spec.eigenvalues) >= -1e-12)
    for lam, v in zip(spec.eigenvalues, spec.eigenvectors.T):
        assert np.allclose(A @ v, lam * v, atol=1e-8 * max(1.0, abs(lam)))
