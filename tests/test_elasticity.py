"""Symmetric-stress element and the mixed elasticity solver.

Dimension oracles: 30 cubic coefficients minus a rank-6 divergence
constraint leaves 24; every quadratic symmetric field satisfies the
constraint outright.  Conformity oracles: tractions of an assembled
field agree from both sides of interior edges, vertex stresses are
single-valued.  The manufactured load is cross-checked against finite
differences of the manufactured stress.
"""

import numpy as np
import pytest

from whitney import elasticity as el
from whitney.cli import _random_triangle
from whitney.elasticity import (
    NDOF,
    P3,
    aw_unisolvence_check,
    aw_unisolvence_survey,
    assemble_coupling,
    assemble_divergence,
    build_displacement_space,
    build_stress_space,
    commutativity_residual,
    constraint_matrix,
    dimension_bookkeeping,
    displacement_mass,
    displacement_projection,
    evaluate_displacement,
    evaluate_stress,
    interpolate_stress,
    manufactured_solution,
    solve_mixed_elasticity,
)
from whitney.linalg import numerical_rank
from whitney.mesh import Mesh, generate_annulus_mesh, generate_square_mesh
from whitney.poly import Poly, SymPoly, monomial_exponents
from whitney.quadrature import interval_rule, tetrahedron_rule, triangle_rule

REF = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])


def _sympoly(coeffs):
    """The symmetric field with P3(T, S) coefficients (s11, s12, s22 blocks)."""
    blocks = np.reshape(coeffs, (3, len(P3)))
    return SymPoly(*[Poly(2, dict(zip(P3, block))) for block in blocks])


def _nodal_fields(space, c):
    """The 24 nodal fields of cell c as SymPolys in its local frame."""
    return [_sympoly(row) for row in space.coeffs[c]]


def _tabulate(space, c, points):
    """(24, npoints, 3) nodal stresses of cell c at physical points."""
    local = (points - space.origin[c]) / space.scale[c]
    mono = np.stack([local[:, 0] ** a * local[:, 1] ** b for a, b in P3])
    return np.transpose(space.coeffs[c].reshape(NDOF, 3, len(P3)) @ mono, (0, 2, 1))


def test_shape_space_has_24_dimensions():
    null = el._shape_null_space()
    assert null.shape == (NDOF, 3 * len(P3)) and NDOF == 24
    assert np.linalg.matrix_rank(constraint_matrix()) == 6
    assert np.max(np.abs(null @ null.T - np.eye(NDOF))) <= 1e-13
    assert np.max(np.abs(constraint_matrix() @ null.T)) <= 1e-13


def test_shared_cached_arrays_are_read_only():
    """Arrays handed out by cached builders are shared by every later
    caller, so an in-place write must fail instead of leaking."""
    rules = (interval_rule(), triangle_rule(), tetrahedron_rule())
    shared = [a for r in rules for a in (r.points, r.weights)]
    shared += [el._divergence_operator(), el._shape_null_space()]
    for arr in shared:
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0.0


def test_all_quadratics_satisfy_the_constraint():
    # a quadratic symmetric field has affine divergence, so its strictly
    # quadratic divergence part vanishes identically
    C = constraint_matrix()
    index = {e: i for i, e in enumerate(P3)}
    for block in range(3):
        for e in monomial_exponents(2, 2):
            vec = np.zeros(3 * len(P3))
            vec[block * len(P3) + index[e]] = 1.0
            assert np.max(np.abs(C @ vec)) == 0.0


def test_unisolvence_reference_and_random_triangles(rng):
    report = aw_unisolvence_check(REF)
    assert report.passed and report.rank == NDOF
    assert report.to_dict()["pass"] is True
    found = 0
    while found < 25:
        verts = rng.uniform(-1.0, 1.0, (3, 2))
        e1, e2 = verts[1] - verts[0], verts[2] - verts[0]
        area = abs(e1[0] * e2[1] - e1[1] * e2[0]) / 2.0
        diam = max(np.linalg.norm(verts[i] - verts[j])
                   for i, j in ((0, 1), (0, 2), (1, 2)))
        # shape floor: slivers are legal but numerically ill-conditioned
        if area < 0.02 * diam ** 2:
            continue
        found += 1
        for scale in (1.0, 10.0):
            rep = aw_unisolvence_check(scale * verts + 3.0)
            assert rep.rank == NDOF, verts


def test_stacked_survey_matches_one_triangle_checks():
    rng = np.random.default_rng(3)
    # a legal sliver whose DOF matrix drops below the rank tolerance
    sliver = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 1e-3]])
    triangles = np.stack([REF, sliver] + [_random_triangle(rng, 0.02) for _ in range(40)])
    rank, cond = aw_unisolvence_survey(triangles)
    assert rank[1] < NDOF and np.all(np.delete(rank, 1) == NDOF)
    for verts, r, c in zip(triangles, rank, cond):
        rep = aw_unisolvence_check(verts)
        assert rep.rank == r and rep.cond == c
        # the one-matrix oracles: scipy's singular values, numpy's cond
        V = el._shape_dof_matrix(verts[None])[2][0]
        assert numerical_rank(V) == r and np.linalg.cond(V) == c
    with pytest.raises(ValueError, match="3 plane vertices"):
        aw_unisolvence_survey(REF)


def test_degenerate_triangle_rejected():
    collinear = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
    with pytest.raises(ValueError, match="degenerate"):
        aw_unisolvence_check(collinear)
    sliver = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 1e-12]])
    with pytest.raises(ValueError, match="degenerate"):
        el._dualize(np.stack([REF, sliver]))
    with pytest.raises(ValueError, match="3 plane vertices"):
        aw_unisolvence_check(REF[:2])


def test_nodal_basis_dual_to_global_dofs():
    # a one-cell mesh makes global interpolation apply exactly the 24
    # local functionals; each nodal field must produce a unit vector
    mesh = Mesh(2, np.array([[0.0, 0.0], [1.2, 0.1], [0.3, 0.9]]), [(0, 1, 2)])
    space = build_stress_space(mesh)
    for j, field in enumerate(_nodal_fields(space, 0)):
        def phys(points, field=field):
            return field.eval((points - space.origin[0]) / space.scale[0])
        dofs = interpolate_stress(space, phys)[space.cell_dofs[0]]
        target = np.zeros(NDOF)
        target[j] = 1.0
        assert np.max(np.abs(dofs - target)) <= 1e-10, j


def test_nodal_divergences_are_affine():
    mesh = Mesh(2, np.array([[0.0, 0.0], [1.0, 0.2], [0.4, 1.1]]), [(0, 1, 2)])
    for field in _nodal_fields(build_stress_space(mesh), 0):
        div = field.div()
        for comp in div.comps:
            coeffs = np.array(list(comp.terms.values()))
            scale = max(np.abs(coeffs).max(), 1.0) if coeffs.size else 1.0
            high = [c for e, c in comp.terms.items() if sum(e) >= 2]
            if high:
                assert np.max(np.abs(high)) <= 1e-10 * scale


def test_coupling_factors_through_divergence(crossed2):
    stress = build_stress_space(crossed2)
    disp = build_displacement_space(crossed2)
    B = assemble_coupling(stress, disp)
    MvD = displacement_mass(disp) @ assemble_divergence(stress, disp)
    diff = np.abs((B - MvD).todense()).max()
    assert diff <= 1e-12 * max(1.0, np.abs(B.todense()).max())


def test_divergence_is_onto_displacements(crossed2):
    stress = build_stress_space(crossed2)
    disp = build_displacement_space(crossed2)
    D = np.asarray(assemble_divergence(stress, disp).todense())
    assert numerical_rank(D) == 6 * crossed2.num_cells


def test_dimension_bookkeeping_counts_rigid_kernel(square4, annulus8):
    # 3 chi(domain): the P1 kernel on a disk, zero on an annulus
    assert dimension_bookkeeping(square4)["alternating_sum"] == 3
    assert dimension_bookkeeping(annulus8)["alternating_sum"] == 0


def test_assembled_fields_are_hdiv_conforming(crossed2, rng):
    space = build_stress_space(crossed2)
    sigma = rng.standard_normal(space.ndofs)
    cell_edges = crossed2.cell_subentities(1)
    interior = [e for e in range(crossed2.num_entities(1))
                if not crossed2.boundary[1][e]]
    edge = interior[len(interior) // 2]
    cells = np.nonzero((cell_edges == edge).any(axis=1))[0]
    assert len(cells) == 2
    a, b = crossed2.entities[1][edge]
    pa, pb = crossed2.vertices[a], crossed2.vertices[b]
    t = pb - pa
    n = np.array([t[1], -t[0]])
    pts = pa[None, :] + np.linspace(0.15, 0.85, 5)[:, None] * t[None, :]
    tractions = []
    for c in cells:
        tab = _tabulate(space, c, pts)              # (24, nq, 3)
        comp = np.einsum("s,sqi->qi", sigma[space.cell_dofs[c]], tab)
        tractions.append(np.stack([comp[:, 0] * n[0] + comp[:, 1] * n[1],
                                   comp[:, 1] * n[0] + comp[:, 2] * n[1]], axis=-1))
    scale = max(1.0, np.abs(tractions[0]).max())
    assert np.max(np.abs(tractions[0] - tractions[1])) <= 1e-10 * scale


def test_vertex_stresses_are_single_valued(crossed2, rng):
    space = build_stress_space(crossed2)
    sigma = rng.standard_normal(space.ndofs)
    vid = crossed2.cells[0][0]
    point = crossed2.vertices[vid][None, :]
    values = []
    for c in range(crossed2.num_cells):
        if vid in crossed2.cells[c]:
            tab = _tabulate(space, c, point)
            values.append(np.einsum("s,sqi->qi", sigma[space.cell_dofs[c]], tab)[0])
    assert len(values) >= 2
    for v in values[1:]:
        assert np.allclose(v, values[0], atol=1e-10 * max(1.0, np.abs(values[0]).max()))


def test_interpolation_reproduces_polynomial_stresses(crossed2):
    cases = [
        lambda p: np.tile([1.0, 0.0, 1.0], (len(p), 1)),                        # identity tensor
        lambda p: np.stack([p[:, 0], p[:, 1], -p[:, 0]], axis=-1),              # linear
        lambda p: np.stack([p[:, 0] ** 2, p[:, 0] * p[:, 1], p[:, 1] ** 2], axis=-1),
    ]
    space = build_stress_space(crossed2)
    for field in cases:
        sigma = interpolate_stress(space, field)
        pts, _, vals = evaluate_stress(space, sigma)
        exact = field(pts.reshape(-1, 2)).reshape(vals.shape)
        assert np.max(np.abs(vals - exact)) <= 1e-10


def test_interpolation_then_divergence_commutes():
    for n, pattern in ((2, "crossed"), (2, "uniform")):
        mesh = generate_square_mesh(n, pattern=pattern)
        assert commutativity_residual(mesh) <= 1e-9


def test_zero_load_gives_zero_solution(crossed2):
    sol = solve_mixed_elasticity(crossed2, f=lambda p: np.zeros((len(p), 2)))
    assert np.max(np.abs(sol.sigma)) <= 1e-10
    assert np.max(np.abs(sol.u)) <= 1e-10
    assert sol.equilibrium_residual <= 1e-12


def test_manufactured_load_matches_stress_divergence(rng):
    # f = -div sigma checked by central differences at interior points
    u, sigma, f = manufactured_solution(lam=1.3, mu=0.7)
    pts = rng.uniform(0.2, 0.8, (20, 2))
    h = 1e-6
    def d(comp, axis):
        shift = np.zeros(2)
        shift[axis] = h
        return (sigma(pts + shift)[:, comp] - sigma(pts - shift)[:, comp]) / (2 * h)
    fd = -np.stack([d(0, 0) + d(1, 1), d(1, 0) + d(2, 1)], axis=-1)
    assert np.max(np.abs(fd - f(pts))) <= 1e-5 * max(1.0, np.abs(f(pts)).max())


def _solution_errors(n, lam=1.0, mu=1.0):
    mesh = generate_square_mesh(n, pattern="uniform")
    u_exact, sigma_exact, f = manufactured_solution(lam, mu)
    sol = solve_mixed_elasticity(mesh, lam, mu, f)
    pts, wdet, uvals = evaluate_displacement(sol.displacement_space, sol.u)
    du = uvals - u_exact(pts.reshape(-1, 2)).reshape(uvals.shape)
    err_u = np.sqrt(np.einsum("cqi,cq->", du ** 2, wdet))
    pts, wdet, svals = evaluate_stress(sol.stress_space, sol.sigma)
    ds = svals - sigma_exact(pts.reshape(-1, 2)).reshape(svals.shape)
    err_s = np.sqrt(np.einsum("cqi,i,cq->", ds ** 2, [1.0, 2.0, 1.0], wdet))
    return err_u, err_s, sol.equilibrium_residual


def test_solver_converges_and_balances():
    eu2, es2, r2 = _solution_errors(2)
    eu4, es4, r4 = _solution_errors(4)
    assert max(r2, r4) <= 1e-9
    assert eu2 / eu4 >= 2.5   # displacement order about 2
    assert es2 / es4 >= 2.5   # stress order about 3
    with pytest.raises(ValueError, match="load"):
        solve_mixed_elasticity(generate_square_mesh(2), f=None)


def test_moduli_validation():
    from whitney.elasticity import compliance_coefficients

    with pytest.raises(ValueError, match="mu"):
        compliance_coefficients(1.0, -1.0)
    a1, a2 = compliance_coefficients(0.0, 0.5)
    assert a1 == 1.0 and a2 == 0.0


def test_displacement_projection_reproduces_p1(crossed2):
    disp = build_displacement_space(crossed2)
    field = lambda p: np.stack([1.0 + 2.0 * p[:, 0], p[:, 1] - p[:, 0]], axis=-1)
    dofs = displacement_projection(disp, field)
    pts, _, vals = evaluate_displacement(disp, dofs)
    exact = field(pts.reshape(-1, 2)).reshape(vals.shape)
    assert np.max(np.abs(vals - exact)) <= 1e-12
