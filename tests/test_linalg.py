"""Dense/sparse linear algebra kernels against hand-computed examples.

The generalized eigensolver oracle is a 2x2 pencil solved by hand via
its characteristic polynomial, and eigenvectors from scipy.linalg.eigh
pair with the returned eigenvalues; rank oracles are integer matrices
whose rank is known by construction (products of full-rank factors).
"""

import tracemalloc

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings, strategies as st

from whitney import linalg
from whitney.experiments import (
    ZERO_EIGENVALUE_RTOL,
    edge_cavity_system,
    nodal_cavity_system,
    solve_mixed_poisson,
)
from whitney.mesh import generate_square_mesh
from whitney.spaces import assemble_derivative, assemble_mass, build_space
from whitney.linalg import (
    CheckFailedError,
    NotPositiveDefiniteError,
    NotSymmetricError,
    RANK_RTOL,
    SingularSystemError,
    check_symmetric,
    cholesky_reduce,
    collapse,
    complex_ranks,
    exact_rank,
    generalized_symmetric_eig,
    inertia,
    symmetric_indefinite_solve,
)


def test_generalized_eig_hand_example():
    # A = [[2, 0], [0, 6]], B = [[1, 0], [0, 2]]: eigenvalues 2 and 3
    A = np.diag([2.0, 6.0])
    B = np.diag([1.0, 2.0])
    lam = generalized_symmetric_eig(A, B)
    assert np.allclose(lam, [2.0, 3.0])
    # eigenvectors normalized in the B inner product pair with lam
    _, vecs = sla.eigh(A, B)
    assert np.allclose(vecs.T @ B @ vecs, np.eye(2), atol=1e-14)
    assert np.allclose(A @ vecs, B @ vecs * lam, atol=1e-14)


def test_generalized_eig_nondiagonal_hand_example():
    # det(A - t B) = 0 for A = [[4, 2], [2, 3]], B = I:
    # t = (7 +- sqrt(17)) / 2
    A = np.array([[4.0, 2.0], [2.0, 3.0]])
    lam = generalized_symmetric_eig(A, np.eye(2))
    expected = np.array([(7 - np.sqrt(17)) / 2, (7 + np.sqrt(17)) / 2])
    assert np.allclose(lam, expected)


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


def test_singular_saddle_raises():
    # B has a repeated row, so K is singular, but the shifted matrix that
    # is factored is not: only the residual check can see the singularity
    B = np.array([[1.0, 2.0, 0.0], [1.0, 2.0, 0.0]])
    K = sp.csr_matrix(np.block([[np.eye(3), B.T], [B, np.zeros((2, 2))]]))
    with pytest.raises(SingularSystemError):
        symmetric_indefinite_solve(K, np.array([0.0, 0.0, 0.0, 1.0, 2.0]))
    # a consistent right-hand side still has a solution
    rhs = np.array([1.0, 2.0, 3.0, 4.0, 4.0])
    assert np.abs(K @ symmetric_indefinite_solve(K, rhs) - rhs).max() <= 1e-14


def test_kernel_split_keeps_computed_ritz_values():
    # e_0 is in ker A up to 1e-13 relative: the split returns the Ritz
    # value 1e-13 / 2 it computes, not a zero it assumes, and the cotree
    # pencil (A_cc, S) = (4, 2 - 1 * 1/2 * 1) gives 8/3
    A = np.diag([1e-13, 4.0])
    B = np.array([[2.0, 1.0], [1.0, 2.0]])
    lam = generalized_symmetric_eig(A, B, kernel=np.array([[1.0], [0.0]]))
    assert np.allclose(lam, [5e-14, 8.0 / 3.0], rtol=1e-12, atol=0.0)
    with pytest.raises(CheckFailedError, match="kernel is not in ker A"):
        generalized_symmetric_eig(np.diag([1e-11, 4.0]), B, kernel=np.array([[1.0], [0.0]]))
    # no kernel columns (a mesh without interior vertices): the dense path
    assert np.array_equal(generalized_symmetric_eig(A, B, kernel=np.zeros((2, 0))),
                          generalized_symmetric_eig(A, B))


def test_collapse_pairs_hand_example():
    # column 1 meets only row 2, so the two pair first; row 0 then holds
    # the only live entry of column 0, and row 1 is left with none
    G = np.array([[1.0, 0.0], [1.0, 0.0], [-1.0, 1.0], [0.0, 0.0]])
    (pairs,), (vertices, edges) = collapse([G])
    assert pairs.tolist() == [[1, 2], [0, 0]]
    assert not vertices.any() and edges.tolist() == [False, True, False, True]


def test_kernel_split_needs_every_column_paired():
    # one row joining two columns: the first column takes the row, the
    # second is left unpaired, so no tree exists
    with pytest.raises(CheckFailedError, match="left unpaired"):
        generalized_symmetric_eig(np.zeros((1, 1)), np.eye(1), kernel=np.array([[-1.0, 1.0]]))


def test_kernel_split_accepts_rows_with_three_nonzeros():
    # rows 1 and 2 hold one entry each and pair first; that leaves row 0,
    # which has three nonzeros, with one live entry, and it becomes a tree row
    G = np.array([[1.0, 1.0, 1.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, -1.0]])
    (pairs,), _ = collapse([G])
    assert pairs.tolist() == [[1, 1], [2, 2], [0, 0]]
    P = np.eye(4) - G @ np.linalg.solve(G.T @ G, G.T)      # A with ker A = range G
    B = np.diag([2.0, 3.0, 4.0, 5.0]) + 0.5
    lam = generalized_symmetric_eig(P, B, kernel=G)
    assert np.allclose(lam, generalized_symmetric_eig(P, B), rtol=0.0, atol=1e-13)
    assert np.abs(lam[:3]).max() <= 1e-14 < lam[3]


def traced_peak(fn, *args):
    """fn(*args) and the peak of the memory it traced."""
    tracemalloc.start()
    try:
        return fn(*args), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_kernel_split_holds_at_most_three_cotree_blocks():
    # the tree Gram block is factored once, and no refined solve with the
    # dense right-hand side B_Gc runs: at n=16 the split needs at most
    # three arrays the size of the 1,023 x 1,023 cotree pencil
    system = edge_cavity_system(16, "crossed")
    cotree = system.mass.shape[0] - system.interior_vertices
    _, peak = traced_peak(generalized_symmetric_eig, system.curlcurl, system.mass,
                          system.gradient)
    assert peak <= 3 * 8 * cotree ** 2


@pytest.mark.parametrize("n", [4, 8, 16])
def test_kernel_split_ritz_values_are_dense_gv_values(n):
    # the one Cholesky factor of G^T B G runs the steps of eigh's gv driver,
    # so the kernel's Ritz values are the dense oracle's bit for bit
    system = edge_cavity_system(n, "crossed")
    A, B = (check_symmetric(sp.csr_matrix(M)) for M in (system.curlcurl, system.mass))
    G = sp.csc_matrix(system.gradient)
    GAG = (G.T @ (A @ G)).toarray()
    want = sla.eigh(0.5 * (GAG + GAG.T), check_symmetric(G.T @ (B @ G)).toarray(),
                    eigvals_only=True, driver="gv")
    got = generalized_symmetric_eig(A, B, kernel=G)
    assert np.array_equal(got[:system.interior_vertices], want)


def test_kernel_split_rejects_indefinite_tree_gram():
    # G^T B G = -1 has no Cholesky factor
    with pytest.raises(NotPositiveDefiniteError):
        generalized_symmetric_eig(np.diag([0.0, 4.0]), np.diag([-1.0, 3.0]),
                                  kernel=np.array([[1.0], [0.0]]))


def test_sparse_right_hand_side_needs_no_refinement(monkeypatch):
    # the edge-mass solves with the columns of (M2 D)^T: each column leaves
    # most rows of b empty (366 of them in column 0), where |A||x| + |b|
    # is roundoff and the row is judged by omega_2, so one solve suffices
    system = edge_cavity_system(8)
    b = (system.cell_mass @ system.curl).T.toarray()
    assert np.count_nonzero(b[:, 0] == 0.0) == 366
    solves, lu = [], linalg.sparse_lu

    class CountingFactor:
        def __init__(self, A):
            self.factor = lu(A)

        def solve(self, rhs):
            solves.append(rhs.shape)
            return self.factor.solve(rhs)

    monkeypatch.setattr(linalg, "sparse_lu", CountingFactor)
    for j in range(b.shape[1]):
        solves.clear()
        x = symmetric_indefinite_solve(system.mass, b[:, j])
        assert len(solves) == 1
        assert np.abs(system.mass @ x - b[:, j]).max() <= 1e-14 * np.abs(b[:, j]).max()


def test_cholesky_reduce_gives_the_schur_matrix_as_a_gram_matrix():
    # W^T W = X^T K^-1 X for the mixed cavity at n=8: K the edge mass, X = (M2 D)^T
    system = edge_cavity_system(8)
    X = (system.cell_mass @ system.curl).T.tocsc()
    L, W = cholesky_reduce(system.mass, X)
    L = np.tril(L)
    assert np.allclose(L @ L.T, system.mass.toarray(), rtol=0.0, atol=1e-15)
    want = X.T @ spla.splu(sp.csc_matrix(system.mass)).solve(X.toarray())
    assert np.abs(W.T @ W - want).max() <= 1e-14 * np.abs(want).max()
    with pytest.raises(NotPositiveDefiniteError):
        cholesky_reduce(sp.diags([1.0, -1.0]), sp.eye(2))


def test_unrefined_solve_is_judged_componentwise(monkeypatch):
    # a badly shifted saddle system with no refinement: max|r| is 8e-15
    # of max|A| max|x|, but the backward error of the pressure rows,
    # max |r_i| / (|A||x| + |b|)_i, is 2e-2, and the final check rejects it
    monkeypatch.setattr(linalg, "MAX_REFINEMENT_STEPS", 0)
    monkeypatch.setattr(linalg, "SADDLE_SHIFT", 1e-3)
    with pytest.raises(SingularSystemError):
        solve_mixed_poisson(generate_square_mesh(8), coefficient=1e-6)


def test_matrix_right_hand_side_and_dense_input():
    # dense and sparse input agree bit for bit; b is one vector, and a
    # matrix of right-hand sides is refused
    rng = np.random.default_rng(5)
    B = rng.standard_normal((3, 6))
    A = np.block([[np.diag(rng.uniform(1.0, 2.0, 6)), B.T], [B, np.zeros((3, 3))]])
    rhs = rng.standard_normal(9)
    x = symmetric_indefinite_solve(A, rhs)
    assert np.array_equal(x, symmetric_indefinite_solve(sp.csc_matrix(A), rhs))
    assert np.abs(A @ x - rhs).max() <= 1e-12 * np.abs(rhs).max()
    with pytest.raises(NotSymmetricError):
        symmetric_indefinite_solve(np.triu(A), rhs)
    with pytest.raises(ValueError, match="vector"):
        symmetric_indefinite_solve(A, rhs[:, None])


def test_solve_rejects_non_square_sparse_matrix():
    A = sp.csr_matrix(np.arange(1.0, 7.0).reshape(2, 3))
    for M in (A, A.T, A.tocsc()):
        with pytest.raises(NotSymmetricError, match="not square"):
            symmetric_indefinite_solve(M, np.ones(M.shape[0]))


def test_row_absmax_matches_dense_rows():
    A = np.zeros((6, 5))
    A[0, [1, 4]] = [-3.0, 2.0]
    A[2, 0] = -0.5
    A[3] = [1.0, -7.0, 0.0, 4.0, -2.0]
    A[5, 4] = 1e-300
    for M in (A, np.zeros((3, 4))):
        assert np.array_equal(linalg._row_absmax(sp.csr_matrix(M)), np.abs(M).max(axis=1))


def test_exact_ranks_of_incidence_like_matrix():
    # vertex-edge incidence of a path on 5 vertices: rank = V - 1 = 4
    D = np.zeros((4, 5))
    for i in range(4):
        D[i, i], D[i, i + 1] = -1.0, 1.0
    assert exact_rank(D.astype(np.int64)) == 4
    # with the vertex-path complex's second derivative empty
    assert complex_ranks([sp.csr_matrix(D), sp.csr_matrix((0, 4))]) == [4, 0]


def test_exact_vs_float_rank_on_products():
    rng = np.random.default_rng(11)
    for r in (1, 2, 3):
        M = (rng.integers(-2, 3, (6, r)) @ rng.integers(-2, 3, (r, 5))).astype(np.int64)
        assert (exact_rank(M) == np.linalg.matrix_rank(M.astype(float), rtol=RANK_RTOL)
                == np.linalg.matrix_rank(M))
        assert exact_rank(M * 0.5) == exact_rank(sp.csr_matrix(M)) == exact_rank(M)


def test_exact_rank_where_floats_would_dither():
    # Hilbert-like integer scaling keeps entries exact
    M = np.array([[1, 1, 1], [1, 2, 3], [2, 3, 4]], dtype=np.int64)
    assert exact_rank(M) == 2
    # a perturbation below the float rank tolerance still counts exactly:
    # 4 + 2^-40 is stored without rounding
    P = M + np.diag([0.0, 0.0, 2.0 ** -40])
    assert exact_rank(P) == 3 and np.linalg.matrix_rank(P, rtol=RANK_RTOL) == 2


def test_inertia_needs_diagonal_pivots():
    # the swap's diagonal is zero, so its factor pivots off the diagonal
    with pytest.raises(CheckFailedError, match="pivot"):
        inertia(sp.csc_matrix([[0.0, 1.0], [1.0, 0.0]]))
    assert inertia(sp.csc_matrix((0, 0))) == (0, 0)
    assert inertia(sp.diags([2.0, -1.0, 3.0])) == (1, 2)


def _dense_pencil(A, M):
    return sla.eigh(A.toarray(), M.toarray(), eigvals_only=True)


@pytest.mark.parametrize("n", [8, 16])
def test_inertia_counts_edge_cavity_eigenvalues(n):
    # Sylvester: the negative pivots of A - sigma M count the eigenvalues
    # below sigma, here the kernel (1e-3) and the kernel plus a band (10)
    system = edge_cavity_system(n)
    A, M = system.curlcurl, system.mass
    lam = _dense_pencil(A, M)
    for sigma in (1e-3, 10.0):
        assert inertia(A - sigma * M)[0] == np.count_nonzero(lam < sigma)


@pytest.mark.parametrize("pattern", ["uniform", "crossed"])
@pytest.mark.parametrize("n", [4, 8, 16])
def test_inertia_counts_nodal_cavity_kernel(pattern, n):
    # at the zero threshold of experiments._spectrum: the crossed operator
    # is singular, and its unshifted factor would pivot off the diagonal
    system = nodal_cavity_system(n, pattern)
    A, M = system.curlcurl, system.mass
    lam = _dense_pencil(A, M)
    theta = ZERO_EIGENVALUE_RTOL * np.abs(lam).max()
    assert inertia(A - theta * M)[0] == np.count_nonzero(lam < theta)


@pytest.mark.parametrize("bc", ["none", "essential"])
@pytest.mark.parametrize("n", [4, 8])
def test_inertia_counts_infsup_schur_eigenvalues(n, bc):
    # [[a, B^T], [B, t M]] is congruent to diag(a, t M - S), S = B a^-1 B^T,
    # so its positive pivots past the order of a count the eigenvalues of
    # (S, M) below t; essential BC leave one null direction of B^T
    mesh = generate_square_mesh(n)
    Q, V = build_space(mesh, "face1", bc=bc), build_space(mesh, "dg0")
    D = assemble_derivative(Q, V).tocsr()[:, Q.free]
    M = assemble_mass(V)
    B = M @ D
    a = Q.restrict(assemble_mass(Q)) + D.T @ M @ D
    lam = sla.eigh(B @ np.linalg.solve(a.toarray(), B.T.toarray()), M.toarray(),
                   eigvals_only=True)
    kept = lam[lam > 1e-10 * lam[-1]]
    assert lam.size - kept.size == (bc == "essential")
    for t in (1e-10 * lam[-1], 0.5 * kept[0], 1.5 * kept[0], 1.01 * kept[2]):
        K = sp.bmat([[a, B.T], [B, t * M]], format="csc")
        assert inertia(K)[1] - a.shape[0] == np.count_nonzero(lam < t)


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
    vals = generalized_symmetric_eig(A, B)
    assert np.all(np.diff(vals) >= -1e-12)
    _, vecs = sla.eigh(A, B)
    for lam, v in zip(vals, vecs.T):
        assert np.allclose(A @ v, lam * v, atol=1e-8 * max(1.0, abs(lam)))
