"""Complex-level checks: cohomology, commuting projections, stability.

Betti numbers are topological facts (disk 1,0,0; annulus 1,1,0; cube
1,0,0,0; essential bc switches to relative cohomology, disk 0,0,1).
The incidence sign oracle is worked by hand on a single triangle.
Inf-sup oracles are identity systems whose Schur complement is known
in closed form.
"""

import math
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from whitney import complexes
from whitney.complexes import (
    DiscreteComplex,
    NotAComplexError,
    check_commuting,
    check_exactness,
    compute_infsup,
    derham_complex,
    incidence_matrix,
)
from whitney.linalg import (CheckFailedError, NotPositiveDefiniteError, cholesky_reduce,
                            complex_ranks, generalized_symmetric_eig)
from whitney.mesh import (Mesh, generate_annulus_mesh, generate_cube_mesh, generate_disk_mesh,
                          generate_square_mesh)
from whitney.spaces import assemble_derivative, assemble_mass, build_space


def _dense(A):
    return np.asarray(A.todense()) if sp.issparse(A) else np.asarray(A)


def test_exactness_matches_surface_topology(square4, disk2, annulus8):
    for mesh in (square4, disk2):
        report = check_exactness(derham_complex(mesh), (1, 0, 0))
        assert report.passed
        assert report.levels[0].kernel == 1  # constants
    report = check_exactness(derham_complex(annulus8), (1, 1, 0))
    assert report.passed
    assert report.levels[1].cohomology == 1  # the hole


def test_exactness_order2_and_cube(square4, cube2):
    assert check_exactness(derham_complex(square4, order=2), (1, 0, 0)).passed
    assert check_exactness(derham_complex(cube2), (1, 0, 0, 0)).passed


def test_relative_cohomology_with_essential_bc(disk2):
    report = check_exactness(derham_complex(disk2, bc="essential"), (0, 0, 1))
    assert report.passed
    assert report.levels[0].kernel == 0  # no constants once the boundary is clamped


def test_alternating_sum_is_euler_characteristic(square4, annulus8):
    for mesh, euler in ((square4, 1), (annulus8, 0)):
        report = check_exactness(derham_complex(mesh), (1, 1 - euler, 0))
        assert report.alternating_sum == euler


def test_wrong_betti_fails_without_raising(square4):
    report = check_exactness(derham_complex(square4), (1, 1, 0))
    assert not report.passed
    assert report.to_dict()["pass"] is False


def test_tampered_derivative_is_not_a_complex(crossed2):
    cx = derham_complex(crossed2)
    D1 = cx.derivatives[1].tolil()
    i, j = D1.nonzero()[0][0], D1.nonzero()[1][0]
    D1[i, j] = 2.0 * D1[i, j]
    broken = DiscreteComplex(cx.spaces, (cx.derivatives[0], D1.tocsr()))
    with pytest.raises(NotAComplexError, match="not a complex"):
        check_exactness(broken, (1, 0, 0))


@pytest.mark.parametrize("domain,n,order", [("annulus", 16, 1), ("disk", 4, 2), ("cube", 4, 1)])
@pytest.mark.parametrize("bc", ["none", "essential"])
def test_readme_complexes_compose_to_exact_zero(domain, n, order, bc):
    # the identity complex_ranks relies on holds exactly, not to roundoff
    mesh = {"annulus": generate_annulus_mesh, "disk": generate_disk_mesh,
            "cube": generate_cube_mesh}[domain](n)
    cx = derham_complex(mesh, order=order, bc=bc)
    for k in range(len(cx) - 2):
        assert (cx.derivatives[k + 1] @ cx.derivatives[k]).count_nonzero() == 0
        assert (cx.restricted_derivative(k + 1) @ cx.restricted_derivative(k)).count_nonzero() == 0


def test_zeroed_cell_row_fails_rank_cross_check(square4):
    # d o d still vanishes, but the assembled ranks no longer match incidence
    cx = derham_complex(square4)
    D1 = cx.derivatives[1].tolil()
    D1[3, :] = 0.0
    broken = DiscreteComplex(cx.spaces, (cx.derivatives[0], D1.tocsr()))
    with pytest.raises(CheckFailedError, match="rank cross-check failed at level 1"):
        check_exactness(broken, (1, 0, 0))


def test_doubled_cell_entry_fails_rank_cross_check(square4):
    # an edge with no free vertex drops out of D0, so doubling its entry in
    # a cell row keeps d o d = 0, the pattern and (here) the rank
    cx = derham_complex(square4, bc="essential")
    D0, D1 = (cx.restricted_derivative(k) for k in range(2))
    loose = np.flatnonzero(np.diff(D0.indptr) == 0)
    cell, edge = next((c, e) for c in range(D1.shape[0])
                      for e in D1.indices[D1.indptr[c]:D1.indptr[c + 1]]
                      if e in loose and D1.indptr[c + 1] - D1.indptr[c] > 1)
    D1 = cx.derivatives[1].tolil()
    D1[cell, cx.spaces[1].free[edge]] *= 2.0
    broken = DiscreteComplex(cx.spaces, (cx.derivatives[0], D1.tocsr()))
    restricted = [broken.restricted_derivative(k) for k in range(2)]
    assert (restricted[1] != 0).nnz == (cx.restricted_derivative(1) != 0).nnz
    assert (restricted[1] @ restricted[0]).count_nonzero() == 0
    assert complex_ranks(restricted) == complex_ranks([D0, cx.restricted_derivative(1)])
    with pytest.raises(CheckFailedError, match="rank cross-check failed at level 1"):
        check_exactness(broken, (0, 0, 1))


def test_explicit_zero_row_fails_rank_cross_check(square4):
    cx = derham_complex(square4)
    D1 = cx.derivatives[1].tocsr(copy=True)
    D1.data[D1.indptr[3]:D1.indptr[4]] = 0.0
    assert D1.nnz == cx.derivatives[1].nnz        # the zeros stay stored
    broken = DiscreteComplex(cx.spaces, (cx.derivatives[0], D1))
    with pytest.raises(CheckFailedError, match="rank cross-check failed at level 1"):
        check_exactness(broken, (1, 0, 0))


@pytest.mark.parametrize("order", [1, 2])
def test_check_exactness_ranks_once(square4, cube2, monkeypatch, order):
    calls = []

    def counted(mats):
        calls.append(len(mats))
        return complex_ranks(mats)

    monkeypatch.setattr(complexes, "complex_ranks", counted)
    meshes = (square4, cube2) if order == 1 else (square4,)
    for mesh in meshes:
        for bc in ("none", "essential"):
            check_exactness(derham_complex(mesh, order=order, bc=bc), (0,) * (mesh.dim + 1))
    assert calls == [mesh.dim for mesh in meshes for _ in range(2)]


def test_complex_shape_validation(square4, crossed2):
    cx = derham_complex(square4)
    with pytest.raises(ValueError, match="one derivative"):
        DiscreteComplex(cx.spaces, cx.derivatives[:1])
    with pytest.raises(ValueError, match="share one mesh"):
        other = build_space(crossed2, "dg0")
        DiscreteComplex((cx.spaces[0], cx.spaces[1], other), cx.derivatives)
    with pytest.raises(ValueError, match="no order"):
        derham_complex(square4, order=3)


def test_incidence_signs_on_single_triangle():
    tri = Mesh(2, np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]), [(0, 1, 2)])
    d0 = incidence_matrix(tri, 0).toarray()
    d1 = incidence_matrix(tri, 1).toarray()
    assert np.array_equal(d0, [[-1, 1, 0], [-1, 0, 1], [0, -1, 1]])
    assert np.array_equal(d1, [[1, -1, 1]])  # facet dropping v_i gets (-1)^i
    assert np.array_equal(d1 @ d0, [[0, 0, 0]])
    with pytest.raises(ValueError, match="no coboundary"):
        incidence_matrix(tri, 2)


def test_gradient_assembly_equals_incidence(square4):
    cx = derham_complex(square4)
    assert np.array_equal(_dense(cx.derivatives[0]), incidence_matrix(square4, 0).toarray())


@pytest.mark.parametrize("k", [0, 1])
def test_grad_and_curl_assembly_equal_incidence_3d(cube2, k):
    # the step into dg0_3d is incidence / det B (density), so it is not checked here
    cx = derham_complex(cube2)
    assert np.array_equal(_dense(cx.derivatives[k]), incidence_matrix(cube2, k).toarray())


@pytest.mark.parametrize("order", [1, 2])
def test_commuting_projections_2d(square4, order):
    residuals = check_commuting(derham_complex(square4, order=order))
    assert residuals.shape == (2,)
    assert np.max(residuals) <= 1e-10


def test_commuting_projections_3d_and_curved(cube2, annulus8):
    assert np.max(check_commuting(derham_complex(cube2))) <= 1e-10
    assert np.max(check_commuting(derham_complex(annulus8))) <= 1e-10


def test_commuting_projections_ignore_bc(disk2):
    res = check_commuting(derham_complex(disk2, bc="essential"))
    assert np.max(res) <= 1e-10


def test_infsup_identity_oracles():
    eye = np.eye(5)
    assert compute_infsup(eye, eye, eye) == pytest.approx(1.0, abs=1e-12)
    assert compute_infsup(2.0 * eye, eye, eye) == pytest.approx(2.0, abs=1e-12)
    assert compute_infsup(np.zeros((3, 5)), np.eye(5), np.eye(3)) == 0.0
    # rectangular: B a^-1 B^T = 1 on the single multiplier
    assert compute_infsup(np.array([[1.0, 0.0]]), np.eye(2), np.eye(1)) == pytest.approx(1.0)


def test_infsup_rejects_indefinite_a_form():
    # the pivots of a reject it whether the pencil is explicit (3 multipliers) or Lanczos (12)
    for m in (3, 12):
        with pytest.raises(NotPositiveDefiniteError):
            compute_infsup(np.eye(m), -np.eye(m), np.eye(m))


def test_infsup_rejects_an_a_form_with_one_negative_pivot():
    # B a^-1 B^T has the eigenvalue -20.6, below the Lanczos shift, which
    # never looks there; the pivots of the factor of a reject it up front
    a = np.eye(20)
    a[-1, -1] = -1.0
    B = np.random.default_rng(0).standard_normal((12, 20))
    assert np.linalg.eigvalsh(B @ np.linalg.solve(a, B.T)).min() < -20.0
    with pytest.raises(NotPositiveDefiniteError):
        compute_infsup(B, a, np.eye(12))


def test_explicit_infsup_pencil_stays_in_bounded_memory():
    # a rank-one B leaves d + 1 = m, so 12 multipliers take the explicit
    # pencil, which must not densify the n x n a-form
    n, m = 3000, 12
    rng = np.random.default_rng(3)
    a = sp.diags(rng.uniform(1.0, 2.0, n))
    u, w = rng.standard_normal(m), rng.standard_normal(n)
    B = sp.csr_matrix(np.outer(u, w))
    Mv = np.diag(rng.uniform(1.0, 2.0, m))
    _, W = cholesky_reduce(a, B.T)
    expected = math.sqrt(generalized_symmetric_eig(W.T @ W, Mv)[-1])
    tracemalloc.start()
    try:
        gamma = compute_infsup(B, a, Mv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5e6
    assert gamma == pytest.approx(expected, rel=1e-14)
    # the one nonzero eigenvalue of the rank-one pencil in closed form
    assert gamma**2 == pytest.approx((w @ (w / a.diagonal())) * (u @ (u / np.diag(Mv))), rel=1e-13)


def _flux_pressure_system(n):
    mesh = generate_square_mesh(n, pattern="crossed")
    S = build_space(mesh, "face1")
    V = build_space(mesh, "dg0")
    D = assemble_derivative(S, V)
    Mv = assemble_mass(V)
    graph = assemble_mass(S) + D.T @ Mv @ D
    return _dense(Mv @ D), _dense(graph), _dense(Mv)


def test_infsup_stable_under_refinement():
    gammas = []
    for n in (2, 4):
        coupling, graph, Mv = _flux_pressure_system(n)
        gammas.append(compute_infsup(coupling, graph, Mv))
    assert all(0.5 < g < 1.0 for g in gammas)
    assert abs(gammas[1] - gammas[0]) / gammas[0] < 0.10


def test_restricted_derivative_shapes(square4):
    cx = derham_complex(square4, bc="essential")
    D0 = cx.restricted_derivative(0)
    assert D0.shape == (cx.spaces[1].num_free, cx.spaces[0].num_free)
    assert cx.family_names == ("lagrange1", "edge1", "dg0")
    assert len(cx) == 3 and cx.mesh is square4
