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
    aw_unisolvence_survey,
    assemble_divergence,
    build_stress_space,
    commutativity_residual,
    constraint_matrix,
    evaluate_stress,
    interpolate_stress,
    manufactured_solution,
    solve_mixed_elasticity,
)
from whitney.linalg import RANK_RTOL, CheckFailedError
from whitney.mesh import Mesh, generate_annulus_mesh, generate_square_mesh
from whitney.poly import Poly, VecPoly, monomial_exponents
from whitney.quadrature import simplex_rule
from whitney.spaces import build_space, canonical_projection, evaluate_on_cells

REF = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])


def _symmetric_field(coeffs):
    """The symmetric field (s11, s12, s22) with P3(T, S) coefficients."""
    blocks = np.reshape(coeffs, (3, len(P3)))
    return VecPoly([Poly(2, dict(zip(P3, block))) for block in blocks])


def _nodal_fields(space, c):
    """The 24 nodal fields of cell c as 3-slot VecPolys in its local frame."""
    return [_symmetric_field(row) for row in space.coeffs[space.kind[c]]]


def _frame(space, c):
    """(origin, scale) of cell c's local coordinates."""
    origin, scale, _ = el._shape_dof_matrix(space.mesh.vertices[space.mesh.cells[c:c + 1]])
    return origin[0], scale[0]


def _tabulate(space, c, points):
    """(24, npoints, 3) nodal stresses of cell c at physical points."""
    origin, scale = _frame(space, c)
    local = (points - origin) / scale
    mono = np.stack([local[:, 0] ** a * local[:, 1] ** b for a, b in P3])
    return np.transpose(space.coeffs[space.kind[c]].reshape(NDOF, 3, len(P3)) @ mono, (0, 2, 1))


def test_shape_space_has_24_dimensions():
    null = el._shape_null_space()
    assert null.shape == (NDOF, 3 * len(P3)) and NDOF == 24
    assert np.linalg.matrix_rank(constraint_matrix()) == 6
    assert np.max(np.abs(null @ null.T - np.eye(NDOF))) <= 1e-13
    assert np.max(np.abs(constraint_matrix() @ null.T)) <= 1e-13


def test_shared_cached_arrays_are_read_only():
    """Arrays handed out by cached builders are shared by every later
    caller, so an in-place write must fail instead of leaking."""
    rules = map(simplex_rule, (1, 2, 3))
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
    rank, _ = aw_unisolvence_survey(REF[None])
    assert rank[0] == NDOF
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
        rank, _ = aw_unisolvence_survey([verts + 3.0, 10.0 * verts + 3.0])
        assert np.all(rank == NDOF), verts


def test_stacked_survey_matches_one_triangle_checks():
    rng = np.random.default_rng(3)
    # a legal sliver whose DOF matrix drops below the rank tolerance
    sliver = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 1e-3]])
    triangles = np.stack([REF, sliver] + [_random_triangle(rng, 0.02) for _ in range(40)])
    rank, cond = aw_unisolvence_survey(triangles)
    assert rank[1] < NDOF and np.all(np.delete(rank, 1) == NDOF)
    for verts, r, c in zip(triangles, rank, cond):
        one_rank, one_cond = aw_unisolvence_survey(verts[None])
        assert one_rank[0] == r and one_cond[0] == c
        # the one-matrix oracles: numpy's SVD rank and cond
        V = el._shape_dof_matrix(verts[None])[2][0]
        assert np.linalg.matrix_rank(V, rtol=RANK_RTOL) == r and np.linalg.cond(V) == c
    with pytest.raises(ValueError, match="3 plane vertices"):
        aw_unisolvence_survey(REF)


def test_degenerate_triangle_rejected():
    collinear = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
    with pytest.raises(ValueError, match="degenerate"):
        aw_unisolvence_survey(collinear[None])
    sliver = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 1e-12]])
    with pytest.raises(ValueError, match="degenerate"):
        el._shape_dof_matrix(np.stack([REF, sliver]))
    with pytest.raises(ValueError, match="3 plane vertices"):
        aw_unisolvence_survey(REF[None, :2])


def test_one_ill_conditioned_cell_fails_the_dualization():
    # one legal sliver among many cells of a few kinds: the guard runs on
    # every kind, so the sliver's own kind trips it
    square = generate_square_mesh(4, pattern="uniform")
    corner = [int(np.flatnonzero(np.all(square.vertices == p, axis=1))[0])
              for p in ([0.0, 0.0], [0.25, 0.0])]
    mesh = Mesh(2, np.vstack([square.vertices, [0.125, -1e-4]]),
                np.vstack([square.cells, corner + [square.num_vertices]]))
    with pytest.raises(CheckFailedError, match="ill-conditioned"):
        build_stress_space(mesh)


def test_nodal_basis_dual_to_global_dofs():
    # a one-cell mesh makes global interpolation apply exactly the 24
    # local functionals; each nodal field must produce a unit vector
    mesh = Mesh(2, np.array([[0.0, 0.0], [1.2, 0.1], [0.3, 0.9]]), [(0, 1, 2)])
    space = build_stress_space(mesh)
    origin, scale = _frame(space, 0)
    for j, field in enumerate(_nodal_fields(space, 0)):
        def phys(points, field=field):
            return field.eval((points - origin) / scale)
        dofs = interpolate_stress(space, phys)[space.cell_dofs[0]]
        target = np.zeros(NDOF)
        target[j] = 1.0
        assert np.max(np.abs(dofs - target)) <= 1e-10, j


def test_nodal_divergences_are_affine():
    mesh = Mesh(2, np.array([[0.0, 0.0], [1.0, 0.2], [0.4, 1.1]]), [(0, 1, 2)])
    for field in _nodal_fields(build_stress_space(mesh), 0):
        div = el._row_divergence(field)
        for comp in div.comps:
            coeffs = np.array(list(comp.terms.values()))
            scale = max(np.abs(coeffs).max(), 1.0) if coeffs.size else 1.0
            high = [c for e, c in comp.terms.items() if sum(e) >= 2]
            if high:
                assert np.max(np.abs(high)) <= 1e-10 * scale


def test_divergence_is_onto_displacements(crossed2):
    stress = build_stress_space(crossed2)
    disp = build_space(crossed2, "dg1_vector")
    D = np.asarray(assemble_divergence(stress, disp).todense())
    assert np.linalg.matrix_rank(D, rtol=RANK_RTOL) == 6 * crossed2.num_cells


def dimension_bookkeeping(mesh: Mesh) -> dict:
    """Euler-style count for the discrete elasticity sequence.

    The head space is counted but never built: 6 DOFs per vertex plus 1
    per edge (values, first and second derivatives at vertices; edge
    normal-derivative means).  On a disk the alternating sum equals 3,
    the dimension of the resolved P1 kernel.
    """
    nv, ne, nt = mesh.num_vertices, mesh.num_entities(1), mesh.num_cells
    head = 6 * nv + ne
    stress = 3 * nv + 4 * ne + 3 * nt
    disp = 6 * nt
    return {"head": head, "stress": stress, "displacement": disp,
            "alternating_sum": head - stress + disp}


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


def test_interpolation_then_divergence_commutes(jittered_meshes):
    meshes = [generate_square_mesh(2, pattern=pattern) for pattern in ("crossed", "uniform")]
    for mesh in meshes + [jittered_meshes[2]]:
        assert commutativity_residual(mesh) <= 1e-13


def test_divergence_is_built_from_geometry_alone():
    # Green's formula: 22 stored entries per cell of the uniform square, none
    # in a vertex column, and every traction-moment entry 0 or +-2/|det T|
    mesh = generate_square_mesh(32, pattern="uniform")
    stress = build_stress_space(mesh)
    disp = build_space(mesh, "dg1_vector")
    D = assemble_divergence(stress, disp)
    assert D.nnz == 22 * mesh.num_cells == 45_056
    assert D[:, :3 * mesh.num_vertices].nnz == 0
    edges = D[:, 3 * mesh.num_vertices:3 * mesh.num_vertices + 4 * mesh.num_entities(1)].tocoo()
    cell = np.empty(disp.ndofs, dtype=int)
    cell[disp.cell_dofs] = np.arange(mesh.num_cells)[:, None]
    assert np.array_equal(np.abs(edges.data), 2.0 / mesh.geometry.absdet[cell[edges.row]])


@pytest.mark.parametrize("n, pattern", [(32, "uniform"), (2, "crossed"), (None, "jittered")])
def test_mean_trace_row_is_the_cell_areas(jittered_meshes, n, pattern):
    # int tr(phi_j) is |T| at the s11 and s22 interior means of T, since
    # those DOFs are means, and 0 for every other nodal field: two stored
    # entries per cell, each |det| / 2 bit for bit
    mesh = jittered_meshes[2] if n is None else generate_square_mesh(n, pattern=pattern)
    space = build_stress_space(mesh)
    row = el._mean_trace_row(space)
    assert row.shape == (1, space.ndofs) and row.nnz == 2 * mesh.num_cells
    assert np.array_equal(row.indices, space.cell_dofs[:, [21, 23]].ravel())
    assert np.array_equal(row.data, np.repeat(mesh.geometry.absdet / 2, 2))
    if n == 32:
        return
    # against the quadrature of the basis: the stored entries to RTOL of the
    # largest, the zeros to RTOL of the sum of the magnitudes of their
    # terms, as a computed sum of terms that cancel can do no better
    wdet = simplex_rule(2).weights * mesh.geometry.absdet[:, None]
    coeffs, mono = space.coeffs[space.kind], space.mono[space.kind]
    def integrals(take):
        trace = take(coeffs[:, :, :len(P3)]) + take(coeffs[:, :, 2 * len(P3):])
        local = np.einsum("cim,cqm,cq->ci", trace, take(mono), wdet)
        return np.bincount(space.cell_dofs.ravel(), local.ravel(), space.ndofs)
    t = row.toarray()[0]
    gap = np.abs(integrals(lambda a: a) - t)
    assert gap[row.indices].max() <= 1e-13 * t.max()
    assert np.all(gap <= 1e-13 * integrals(np.abs))


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
    pts, wdet, uvals = evaluate_on_cells(sol.displacement_space, sol.u)
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


@pytest.mark.parametrize("n, pattern", [(4, "uniform"), (8, "uniform"), (16, "uniform"),
                                        (32, "uniform"), (8, "crossed")])
def test_equilibrium_holds_to_roundoff(n, pattern):
    # the divergence DOFs are the equilibrium rows themselves: D sigma =
    # -Pi_V f holds to the solver's backward error
    _, _, f = manufactured_solution()
    sol = solve_mixed_elasticity(generate_square_mesh(n, pattern=pattern), f=f)
    assert sol.equilibrium_residual <= 1e-14


def test_near_incompressible_solve_refines_its_first_solve():
    # lam / mu = 1e7: the first solve's residual exceeds max|b|, and
    # refinement must start from it, not from x = 0
    err_u, err_s, resid = _solution_errors(4, lam=1.0, mu=1e-7)
    assert resid <= 1e-9
    assert err_s <= 0.05


@pytest.mark.parametrize("lam,mu", [(1e8, 1.0), (1.0, 1e-8), (1.0, 1e-300)])
def test_extreme_moduli_keep_the_stress_accurate(lam, mu):
    # lam / mu = 1e8 leaves the constant stress I a near-kernel of the
    # saddle matrix; bordered by the mean-trace row, the solve keeps the
    # relative stress error of lam = mu (6.5e-3 at n = 4) and int tr sigma = 0.
    # mu = 1e-300 makes the compliance ~1e300, which the balanced moduli
    # bring back to order one
    _, sigma_exact, f = manufactured_solution(lam, mu)
    sol = solve_mixed_elasticity(generate_square_mesh(4), lam, mu, f)
    pts, wdet, svals = evaluate_stress(sol.stress_space, sol.sigma)
    exact = sigma_exact(pts.reshape(-1, 2)).reshape(svals.shape)

    def norm(v):
        return np.sqrt(np.einsum("cqi,i,cq->", v ** 2, [1.0, 2.0, 1.0], wdet))

    assert norm(svals - exact) <= 0.01 * norm(exact)
    assert abs(np.sum((svals[..., 0] + svals[..., 2]) * wdet)) <= 1e-13 * norm(exact)
    assert sol.equilibrium_residual <= 1e-9


def test_huge_lambda_solves():
    # |b| ~ 1e306: the solver's scaled right-hand side keeps the factor's
    # solves finite, and the discrete equilibrium holds
    _, _, f = manufactured_solution(1e305, 1.0)
    sol = solve_mixed_elasticity(generate_square_mesh(2), 1e305, 1.0, f)
    assert np.all(np.isfinite(sol.sigma)) and sol.equilibrium_residual <= 1e-9


@pytest.mark.parametrize("n, pattern", [(4, "uniform"), (8, "crossed")])
def test_compliance_equals_its_transpose_bit_for_bit(n, pattern):
    # the scatter sums an entry and its mirror in orders that can differ;
    # the symmetrized sum leaves the solver's A - A^T with no entries
    space = build_stress_space(generate_square_mesh(n, pattern=pattern))
    C = el.assemble_compliance(space, lam=3.0, mu=0.7)
    assert C.nnz and (C != C.T).nnz == 0


def test_moduli_validation():
    from whitney.elasticity import compliance_coefficients

    with pytest.raises(ValueError, match="mu"):
        compliance_coefficients(1.0, -1.0)
    for lam, mu in ((np.nan, 1.0), (1.0, np.inf), (np.inf, 1.0), (1.0, np.nan)):
        with pytest.raises(ValueError, match="finite"):
            compliance_coefficients(lam, mu)
    # finite moduli whose derived coefficients or load overflow
    for lam, mu in ((1e308, 1.0), (1.0, 1e-309)):
        with pytest.raises(ValueError, match="compliance overflows for lam=.*, mu="):
            compliance_coefficients(lam, mu)
    with pytest.raises(ValueError, match="manufactured load overflows for lam=.*, mu="):
        manufactured_solution(2e307, 1.0)
    # lam scaled by the power of two that balances a1 = 1/(2 mu) overflows
    with pytest.raises(ValueError, match="balanced moduli overflow for lam=.*, mu="):
        solve_mixed_elasticity(generate_square_mesh(1), 1e10, 1e-300, f=lambda p: p)
    assert np.isfinite(compliance_coefficients(1e307, 1.0)).all()
    a1, a2 = compliance_coefficients(0.0, 0.5)
    assert a1 == 1.0 and a2 == 0.0


def test_displacement_projection_reproduces_p1(crossed2):
    disp = build_space(crossed2, "dg1_vector")
    field = lambda p: np.stack([1.0 + 2.0 * p[:, 0], p[:, 1] - p[:, 0]], axis=-1)
    dofs = canonical_projection(disp, field)
    pts, _, vals = evaluate_on_cells(disp, dofs)
    exact = field(pts.reshape(-1, 2)).reshape(vals.shape)
    assert np.max(np.abs(vals - exact)) <= 1e-12
