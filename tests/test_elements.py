"""Reference elements: dimensions, duality, derivative matrices.

Dimension oracles are the classical counts (P_p, Nedelec/RT order p in
2D has p(p+2) dofs, one-per-edge / one-per-face Whitney spaces in 3D).
The gradient matrix lagrange1 -> edge1 is checked against the signed
vertex-edge incidence pattern, which follows from the fundamental
theorem of calculus along each edge.  Dual bases and derivative
matrices are built in exact rationals, so these integer oracles are
checked with exact equality.
"""

import numpy as np
import pytest

from whitney.elements import (
    DofSpec,
    ElementFamily,
    FAMILY_NAMES,
    IncompatibleFamiliesError,
    UnevenDofLayoutError,
    UnknownFamilyError,
    apply_dofs,
    get_family,
    local_derivative_matrix,
)
from whitney.poly import Poly, VecPoly
from whitney.quadrature import simplex_rule

SHAPE_DIMS = {
    "lagrange1": 3,
    "lagrange2": 6,
    "lagrange3": 10,
    "dg0": 1,
    "dg1": 3,
    "dg2": 6,
    "edge1": 3,
    "edge2": 8,
    "face1": 3,
    "face2": 8,
    "lagrange1_3d": 4,
    "dg0_3d": 1,
    "edge1_3d": 6,
    "face1_3d": 4,
}


def test_catalog_matches_dimension_table():
    assert set(FAMILY_NAMES) == set(SHAPE_DIMS)
    for name, dim in SHAPE_DIMS.items():
        assert get_family(name).shape_dim == dim, name


def test_unknown_family_raises():
    with pytest.raises(UnknownFamilyError, match="not in catalog"):
        get_family("lagrange9")


@pytest.mark.parametrize("name", FAMILY_NAMES)
def test_nodal_basis_is_dual_to_dofs(name):
    fam = get_family(name)
    n = fam.shape_dim
    V = np.empty((n, n))
    for j, phi in enumerate(fam.nodal_basis):
        V[:, j] = apply_dofs(fam, phi)
    assert np.max(np.abs(V - np.eye(n))) <= 1e-12, name


@pytest.mark.parametrize("name", FAMILY_NAMES)
def test_interpolation_reproduces_shape_space(name, rng):
    # a random member of the span must be rebuilt exactly from its dofs
    fam = get_family(name)
    coeffs = rng.standard_normal(fam.shape_dim)
    u = None
    for c, p in zip(coeffs, fam.span):
        u = p * float(c) if u is None else u + p * float(c)
    weights = apply_dofs(fam, u)
    pts = simplex_rule(fam.mesh_dim).points
    recon = np.einsum("i,i...->...", weights, fam.tabulate(pts))
    assert np.allclose(recon, u.eval(pts), atol=1e-10)


def test_entity_dof_layout():
    assert get_family("lagrange2").dofs_per_entity(0) == 1
    assert get_family("lagrange2").dofs_per_entity(1) == 1
    assert get_family("lagrange2").dofs_per_entity(2) == 0
    assert get_family("lagrange3").dofs_per_entity(1) == 2
    assert get_family("lagrange3").dofs_per_entity(2) == 1
    assert get_family("edge1").dofs_per_entity(0) == 0
    assert get_family("edge1").dofs_per_entity(1) == 1
    assert get_family("edge2").dofs_per_entity(1) == 2
    assert get_family("edge2").dofs_per_entity(2) == 2
    assert get_family("face1").dofs_per_entity(1) == 1
    assert get_family("edge1_3d").dofs_per_entity(1) == 1
    assert get_family("face1_3d").dofs_per_entity(2) == 1


def test_lagrange1_dofs_are_vertex_values():
    # barycentric coordinate of vertex 0 takes value delta_v0 at vertices
    lam0 = Poly(2, {(0, 0): 1.0, (1, 0): -1.0, (0, 1): -1.0})
    assert np.allclose(apply_dofs(get_family("lagrange1"), lam0), [1.0, 0.0, 0.0])


def test_edge_dofs_of_constant_fields():
    # edges in ascending order: (0,1), (0,2), (1,2)
    # tangential moment of (1,0): edge vector x-components 1, 0, -1
    ex = VecPoly([Poly.constant(2, 1.0), Poly.constant(2, 0.0)])
    assert np.allclose(apply_dofs(get_family("edge1"), ex), [1.0, 0.0, -1.0])
    # normal (t2, -t1) moments of (1,0): normals (0,-1), (1,0), (1,1)
    assert np.allclose(apply_dofs(get_family("face1"), ex), [0.0, 1.0, 1.0])


def test_gradient_matrix_is_signed_incidence():
    # integral of grad(phi_v) . t over edge (a, b) = phi_v(b) - phi_v(a)
    D = local_derivative_matrix(get_family("lagrange1"), get_family("edge1"))
    assert np.array_equal(D, [[-1, 1, 0], [-1, 0, 1], [0, -1, 1]])


def test_curl_matrix_of_whitney_forms():
    # curl(lam_a grad lam_b - lam_b grad lam_a) = 2 grad lam_a x grad lam_b,
    # a constant: 2, -2, 2 on the edges (0,1), (0,2), (1,2)
    D = local_derivative_matrix(get_family("edge1"), get_family("dg0"))
    assert np.array_equal(D, [[2.0, -2.0, 2.0]])


def test_composition_of_derivative_matrices_vanishes():
    chains = [
        ("lagrange1", "edge1", "dg0"),
        ("lagrange2", "edge2", "dg1"),
        ("lagrange1_3d", "edge1_3d", "face1_3d"),
        ("edge1_3d", "face1_3d", "dg0_3d"),
    ]
    for a, b, c in chains:
        D0 = local_derivative_matrix(get_family(a), get_family(b))
        D1 = local_derivative_matrix(get_family(b), get_family(c))
        assert not np.any(D1 @ D0), (a, b, c)


COMPLEX_STEPS = [
    ("lagrange1", "edge1"), ("edge1", "dg0"), ("face1", "dg0"),
    ("lagrange2", "edge2"), ("edge2", "dg1"), ("face2", "dg1"),
    ("lagrange1_3d", "edge1_3d"), ("edge1_3d", "face1_3d"), ("face1_3d", "dg0_3d"),
]


@pytest.mark.parametrize("step", COMPLEX_STEPS, ids="->".join)
def test_derivative_matrices_have_integer_entries(step):
    # moments of derivatives of the dual basis are integers (Stokes on the
    # reference simplex), and the exact construction keeps them so
    M = local_derivative_matrix(get_family(step[0]), get_family(step[1]))
    assert np.any(M)
    assert np.array_equal(M, np.round(M)), step


@pytest.mark.parametrize("name", FAMILY_NAMES)
def test_quadrature_dofs_match_exact_dofs(name):
    # callables go through quadrature, polynomials through exact moments
    fam = get_family(name)
    for phi in fam.nodal_basis:
        assert np.allclose(apply_dofs(fam, phi.eval), apply_dofs(fam, phi), rtol=0, atol=1e-13), name


def test_face_basis_is_rotated_edge_basis():
    # rotating values by (v1, v2) -> (v2, -v1) swaps tangential and normal
    # moments, so the two lowest-order nodal bases are rotations of each other
    pts = simplex_rule(2).points
    e = get_family("edge1").tabulate(pts)
    f = get_family("face1").tabulate(pts)
    rotated = np.stack([e[..., 1], -e[..., 0]], axis=-1)
    assert np.allclose(f, rotated, atol=1e-12)


def test_incompatible_family_pairs_raise():
    with pytest.raises(IncompatibleFamiliesError, match="consecutive"):
        local_derivative_matrix(get_family("lagrange1"), get_family("dg0"))
    with pytest.raises(IncompatibleFamiliesError, match="scalar"):
        local_derivative_matrix(get_family("edge1"), get_family("face1"))
    with pytest.raises(IncompatibleFamiliesError, match="reference"):
        local_derivative_matrix(get_family("lagrange1"), get_family("edge1_3d"))
    with pytest.raises(IncompatibleFamiliesError, match="vector"):
        local_derivative_matrix(get_family("edge1_3d"), get_family("dg0_3d"))


def test_non_unisolvent_dofs_rejected():
    repeated = DofSpec(0, 0, "value")
    fam = ElementFamily(
        "broken", 2, 0, 1, "h1",
        [Poly.constant(2, 1.0), Poly.variable(2, 0)],
        [repeated, repeated],
    )
    with pytest.raises(ValueError, match="unisolvent"):
        fam.nodal_basis


def test_uneven_dof_layout_raises():
    # two moments on the first edge, one on the second: no per-edge count
    fam = ElementFamily(
        "uneven", 2, 0, 1, "h1",
        [Poly.constant(2, 1.0), Poly.variable(2, 0), Poly.variable(2, 1)],
        [DofSpec(1, 0, "scalar", (0,)), DofSpec(1, 0, "scalar", (1,)),
         DofSpec(1, 1, "scalar", (0,))],
    )
    assert fam.dofs_per_entity(0) == 0
    with pytest.raises(UnevenDofLayoutError, match="uneven dof count on dim-1"):
        fam.dofs_per_entity(1)


def test_tabulate_shapes_and_missing_derivative():
    pts = simplex_rule(2).points
    assert get_family("lagrange1").tabulate(pts).shape == (3, len(pts))
    assert get_family("edge1").tabulate(pts).shape == (3, len(pts), 2)
    assert np.allclose(get_family("lagrange1").tabulate(pts).sum(axis=0), 1.0)
    with pytest.raises(ValueError, match="derivative"):
        get_family("dg0").tabulate_derivative(pts)
