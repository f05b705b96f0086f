"""Complex-level checks: cohomology, commuting projections, stability.

Betti numbers are topological facts (disk 1,0,0; annulus 1,1,0; cube
1,0,0,0; essential bc switches to relative cohomology, disk 0,0,1).
The incidence sign oracle is worked by hand on a single triangle.
Inf-sup oracles are identity systems whose Schur complement is known
in closed form.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from whitney.complexes import (
    DiscreteComplex,
    NotAComplexError,
    check_commuting,
    check_exactness,
    compute_infsup,
    derham_complex,
    incidence_matrix,
)
from whitney.linalg import NotPositiveDefiniteError
from whitney.mesh import Mesh, generate_square_mesh
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
    d0 = incidence_matrix(tri, 0)
    d1 = incidence_matrix(tri, 1)
    assert np.array_equal(d0, [[-1, 1, 0], [-1, 0, 1], [0, -1, 1]])
    assert np.array_equal(d1, [[1, -1, 1]])  # facet dropping v_i gets (-1)^i
    assert np.array_equal(d1 @ d0, [[0, 0, 0]])
    with pytest.raises(ValueError, match="no coboundary"):
        incidence_matrix(tri, 2)


def test_gradient_assembly_equals_incidence(square4):
    cx = derham_complex(square4)
    assert np.array_equal(_dense(cx.derivatives[0]), incidence_matrix(square4, 0))


@pytest.mark.parametrize("k", [0, 1])
def test_grad_and_curl_assembly_equal_incidence_3d(cube2, k):
    # the step into dg0_3d is incidence / det B (density), so it is not checked here
    cx = derham_complex(cube2)
    assert np.array_equal(_dense(cx.derivatives[k]), incidence_matrix(cube2, k))


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
    # explicit pencil (3 multipliers) and Lanczos (12 multipliers)
    for m in (3, 12):
        with pytest.raises(NotPositiveDefiniteError):
            compute_infsup(np.eye(m), -np.eye(m), np.eye(m))


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
