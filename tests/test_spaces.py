"""Global spaces and assembly.

Counting oracles come from mesh entity counts (one dof per owned
entity slot).  Matrix oracles are hand integrals: the lowest-order
discontinuous mass matrix is the diagonal of cell areas, and the
stiffness diagonal of a crossed-pattern center vertex is 4 by direct
plane-gradient computation on the four incident triangles.
"""

import dataclasses
import re

import numpy as np
import pytest
import scipy.sparse as sp

from whitney.complexes import incidence_matrix
from whitney.elements import local_derivative_matrix
from whitney.mesh import Mesh, generate_cube_mesh, generate_square_mesh
from whitney.poly import Poly, VecPoly
from whitney.spaces import (
    DerivativeNotSingleValuedError,
    assemble_component_products,
    assemble_derivative,
    assemble_load,
    assemble_mass,
    assemble_stiffness_like,
    build_space,
    canonical_projection,
    evaluate_derivative_on_cells,
    evaluate_on_cells,
)


def _dense(A):
    return np.asarray(A.todense())


def test_dof_counts_follow_entity_counts(square4, cube2):
    nv, ne, nc = (square4.num_entities(k) for k in range(3))
    assert build_space(square4, "lagrange1").ndofs == nv == 25
    assert build_space(square4, "lagrange2").ndofs == nv + ne == 81
    assert build_space(square4, "lagrange3").ndofs == nv + 2 * ne + nc
    assert build_space(square4, "edge1").ndofs == ne == 56
    assert build_space(square4, "edge2").ndofs == 2 * ne + 2 * nc
    assert build_space(square4, "face1").ndofs == ne
    assert build_space(square4, "dg0").ndofs == nc == 32
    assert build_space(square4, "dg1").ndofs == 3 * nc
    assert build_space(cube2, "lagrange1_3d").ndofs == cube2.num_entities(0)
    assert build_space(cube2, "edge1_3d").ndofs == cube2.num_entities(1)
    assert build_space(cube2, "face1_3d").ndofs == cube2.num_entities(2)
    assert build_space(cube2, "dg0_3d").ndofs == cube2.num_cells


def test_essential_bc_drops_boundary_entities(square4):
    W = build_space(square4, "lagrange1", bc="essential")
    assert W.num_free == 25 - 16
    assert np.all(~W.dof_boundary[W.free])
    Q = build_space(square4, "edge1", bc="essential")
    assert Q.num_free == 56 - 16
    V = build_space(square4, "dg0", bc="essential")
    assert V.num_free == V.ndofs  # cells are never boundary entities


def test_build_space_validation(square4, cube2):
    with pytest.raises(ValueError, match="boundary condition"):
        build_space(square4, "lagrange1", bc="dirichlet")
    with pytest.raises(ValueError, match="3D mesh"):
        build_space(square4, "lagrange1_3d")


def test_dg0_mass_is_cell_areas(square4):
    # mean-value dof makes the constant 1 the nodal basis on every cell
    M = assemble_mass(build_space(square4, "dg0"))
    areas = square4.entity_measures(2)
    assert np.allclose(_dense(M), np.diag(areas), atol=1e-14)
    assert np.isclose(areas.sum(), 1.0)


def test_stiffness_diag_at_crossed_center_vertex():
    # four right triangles around the center, each contributing
    # |grad hat|^2 * area = 4 * 1/4 = 1 regardless of mesh size
    for n in (1, 2):
        mesh = generate_square_mesh(n, pattern="crossed")
        W = build_space(mesh, "lagrange1")
        K = assemble_stiffness_like(W, W, "grad")
        center = np.argmin(np.abs(mesh.vertices - 0.5 / n).sum(axis=1))
        assert np.isclose(K[center, center], 4.0, atol=1e-12)


def test_mass_scales_quadratically_stiffness_not_at_all():
    a = generate_square_mesh(2, pattern="uniform", side=1.0)
    b = generate_square_mesh(2, pattern="uniform", side=2.0)
    Wa, Wb = build_space(a, "lagrange1"), build_space(b, "lagrange1")
    assert np.allclose(_dense(assemble_mass(Wb)), 4.0 * _dense(assemble_mass(Wa)), atol=1e-13)
    Ka = assemble_stiffness_like(Wa, Wa, "grad")
    Kb = assemble_stiffness_like(Wb, Wb, "grad")
    assert np.allclose(_dense(Ka), _dense(Kb), atol=1e-13)


def test_coefficient_scaling_and_matrix_coefficient(square4):
    Q = build_space(square4, "edge1")
    M = assemble_mass(Q)
    assert np.allclose(_dense(assemble_mass(Q, 2.0)), 2.0 * _dense(M), atol=1e-13)
    assert np.allclose(_dense(assemble_mass(Q, np.diag([2.0, 2.0]))), 2.0 * _dense(M), atol=1e-13)
    C = np.array([[2.0, 1.0], [1.0, 3.0]])
    MC = _dense(assemble_mass(Q, C))
    assert np.allclose(MC, MC.T, atol=1e-13)


def test_canonical_projection_reproduces_fields(square4):
    cases = [
        ("lagrange1", Poly(2, {(0, 0): 0.25, (1, 0): -0.5, (0, 1): 1.0})),
        ("lagrange2", Poly(2, {(2, 0): 1.0, (1, 1): -1.0})),
        ("edge1", VecPoly([Poly(2, {(0, 0): 1.0, (0, 1): -2.0}),
                           Poly(2, {(0, 0): 0.5, (1, 0): 2.0})])),
        ("face1", VecPoly([Poly(2, {(0, 0): 1.0, (1, 0): 1.0}),
                           Poly(2, {(0, 0): -2.0, (0, 1): 1.0})])),
        ("dg1", Poly(2, {(1, 0): 3.0, (0, 1): -1.0})),
    ]
    for name, field in cases:
        W = build_space(square4, name)
        u = canonical_projection(W, field)
        pts, _, vals = evaluate_on_cells(W, u)
        exact = field.eval(pts.reshape(-1, 2)).reshape(vals.shape)
        assert np.max(np.abs(vals - exact)) <= 1e-12, name


def test_projection_of_rigid_field_on_cube(cube2):
    # a + b x x with a = (1, 0, 1/2), b = (0, 2, 0)
    field = VecPoly([Poly(3, {(0, 0, 0): 1.0, (0, 0, 1): 2.0}),
                     Poly.constant(3, 0.0),
                     Poly(3, {(0, 0, 0): 0.5, (1, 0, 0): -2.0})])
    Q = build_space(cube2, "edge1_3d")
    u = canonical_projection(Q, field)
    pts, _, vals = evaluate_on_cells(Q, u)
    exact = field.eval(pts.reshape(-1, 3)).reshape(vals.shape)
    assert np.max(np.abs(vals - exact)) <= 1e-12


def test_global_derivative_matches_weak_operator(crossed2):
    # curl-curl assembled two ways: D^T M2 D vs direct quadrature
    W = build_space(crossed2, "lagrange1")
    Q = build_space(crossed2, "edge1")
    V = build_space(crossed2, "dg0")
    D0 = assemble_derivative(W, Q)
    D1 = assemble_derivative(Q, V)
    K_direct = assemble_stiffness_like(W, W, "grad")
    K_via = D0.T @ assemble_mass(Q) @ D0
    assert np.max(np.abs(_dense(K_via - K_direct))) <= 1e-12
    A_direct = assemble_stiffness_like(Q, Q, "curl")
    A_via = D1.T @ assemble_mass(V) @ D1
    assert np.max(np.abs(_dense(A_via - A_direct))) <= 1e-12


def test_load_vector_against_mass_identity(square4):
    W = build_space(square4, "lagrange1")
    load = assemble_load(W, lambda x: np.ones(len(x)))
    assert np.isclose(load.sum(), 1.0, atol=1e-13)  # partition of unity
    assert np.allclose(load, assemble_mass(W) @ np.ones(W.ndofs), atol=1e-13)
    Q = build_space(square4, "edge1")
    field = VecPoly([Poly.constant(2, 1.0), Poly.constant(2, 0.0)])
    lv = assemble_load(Q, field.eval)
    assert np.allclose(lv, assemble_mass(Q) @ canonical_projection(Q, field), atol=1e-12)


def test_derivative_evaluation_oracle(square4):
    W = build_space(square4, "lagrange2")
    u = canonical_projection(W, Poly(2, {(2, 0): 1.0}))  # x^2
    pts, _, vals = evaluate_derivative_on_cells(W, u)
    exact = np.stack([2.0 * pts[..., 0], np.zeros(pts.shape[:2])], axis=-1)
    assert np.max(np.abs(vals - exact)) <= 1e-11
    Q = build_space(square4, "edge1")
    w = canonical_projection(Q, VecPoly([Poly(2, {(0, 1): -1.0}), Poly(2, {(1, 0): 1.0})]))
    _, _, curls = evaluate_derivative_on_cells(Q, w)
    assert np.max(np.abs(curls - 2.0)) <= 1e-11
    with pytest.raises(ValueError, match="derivative"):
        evaluate_derivative_on_cells(build_space(square4, "dg0"), np.zeros(32))


def test_component_products_sum_to_stiffness(square4):
    W = build_space(square4, "lagrange1")
    K = [[assemble_component_products(W, a, b) for b in (0, 1)] for a in (0, 1)]
    total = K[0][0] + K[1][1]
    assert np.max(np.abs(_dense(total - assemble_stiffness_like(W, W, "grad")))) <= 1e-12
    assert np.max(np.abs(_dense(K[0][1] - K[1][0].T))) <= 1e-12


def test_assembly_error_paths(square4, crossed2):
    W = build_space(square4, "lagrange1")
    V = build_space(square4, "dg0")
    with pytest.raises(ValueError, match="unknown operator"):
        assemble_stiffness_like(W, W, "hessian")
    with pytest.raises(ValueError, match="neither"):
        assemble_stiffness_like(V, V, "grad")
    other = build_space(crossed2, "lagrange1")
    with pytest.raises(ValueError, match="different meshes"):
        assemble_stiffness_like(W, other, "grad")


def test_restrict_and_extend_roundtrip(square4):
    W = build_space(square4, "lagrange1", bc="essential")
    M = assemble_mass(W)
    Mf = W.restrict(M)
    assert Mf.shape == (W.num_free, W.num_free)
    v = np.arange(W.num_free, dtype=float)
    full = W.extend_vector(v)
    assert np.allclose(W.restrict_vector(full), v)
    assert np.all(full[W.dof_boundary] == 0.0)
    dense = W.restrict(np.asarray(M.todense()))
    assert np.allclose(dense, np.asarray(Mf.todense()))


def test_geometry_does_not_leak_between_meshes():
    # meshes built and dropped in a loop reuse ids; each must see its own cells
    unit = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    for i in range(200):
        scale = 1.0 + i % 3
        mesh = Mesh(2, scale * unit, [(0, 1, 2)])
        total = assemble_mass(build_space(mesh, "dg0")).sum()
        assert total == pytest.approx(0.5 * scale ** 2, rel=1e-14)
        del mesh


def test_double_valued_derivative_raises(square4):
    W = build_space(square4, "lagrange1")
    Q = build_space(square4, "edge1")
    interior = ~square4.boundary[1][square4.cell_subentities(1)]
    cell = int(np.flatnonzero(interior[:, 0] & interior[:, 1])[0])
    dofs = Q.cell_dofs.copy()
    dofs[cell, [0, 1]] = dofs[cell, [1, 0]]
    with pytest.raises(DerivativeNotSingleValuedError, match="double-valued") as err:
        assemble_derivative(W, dataclasses.replace(Q, cell_dofs=dofs))
    # the named (row, col) gets two values from the cells holding the row
    # (0 from a cell without the column)
    row, col = map(int, re.search(r"\((\d+), (\d+)\)", str(err.value)).groups())
    L = local_derivative_matrix(W.family, Q.family)
    holders, local = np.nonzero(dofs == row)
    values = {float(L[i, list(W.cell_dofs[c]).index(col)]) if col in W.cell_dofs[c] else 0.0
              for c, i in zip(holders, local)}
    assert len(values) > 1


@pytest.mark.parametrize("domain", ["square4", "cube2"])
def test_lowest_order_derivatives_store_no_zeros(request, domain):
    mesh = request.getfixturevalue(domain)
    chain = (("lagrange1", "edge1", "dg0") if mesh.dim == 2
             else ("lagrange1_3d", "edge1_3d", "face1_3d", "dg0_3d"))
    spaces = [build_space(mesh, name) for name in chain]
    for k, (src, dst) in enumerate(zip(spaces, spaces[1:])):
        D = assemble_derivative(src, dst)
        assert D.nnz == incidence_matrix(mesh, k).count_nonzero()
