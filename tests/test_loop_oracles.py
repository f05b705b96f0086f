"""The whole-array mesh tables, derivative scatter, reference-tensor
assembly, batched projection, incidence matrices, stress element,
sparse inf-sup test, sparse Poisson and saddle solves and exact complex
ranks against the loops and dense algebra they replaced.

The oracles below are the earlier implementations, kept verbatim in
substance: set-and-dict entity numbering, a dict-based derivative
scatter, quadrature-point assembly with per-cell physical tabulations,
one field call per edge or face, per-entity incidence lookups, per-cell
stress dualization and assembly, the einsum displacement helpers that
the dg1_vector space replaced, the SVD-deflated dense inf-sup constant, a
dense Cholesky solve of the primal Poisson system, a dense LU solve of
the saddle systems (refined with exact rational residuals), dense
Bareiss elimination plus SVD rank for the ranks of a complex, and the
mixed cavity pencil on an SVD basis of range(curl).  Integer tables,
ranks and the derivative must match exactly; forms, projections, the
displacement helpers and the stress element, whose summation order
changed, must match to 1e-13 relative to the largest entry, the Poisson
and saddle solutions to 1e-12, and the inf-sup constant and the mixed
cavity eigenvalues to 1e-10.
"""

import itertools

import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from whitney import elasticity as el
from whitney import experiments, linalg
from whitney.complexes import compute_infsup, derham_complex, incidence_matrix
from whitney.elements import (
    FAMILY_NAMES,
    apply_dofs,
    get_family,
    local_derivative_matrix,
    reference_vertices,
)
from whitney.experiments import solve_poisson
from whitney.linalg import RANK_RTOL, complex_ranks, generalized_symmetric_eig
from whitney.mesh import (
    Mesh,
    generate_annulus_mesh,
    generate_cube_mesh,
    generate_disk_mesh,
    generate_square_mesh,
    row_keys,
)
from whitney.quadrature import interval_rule, reference_measure, simplex_rule, triangle_rule
from whitney.spaces import (
    assemble_derivative,
    assemble_load,
    assemble_mass,
    assemble_stiffness_like,
    build_space,
    canonical_projection,
    evaluate_on_cells,
)

RTOL = 1e-13


# -- oracles -------------------------------------------------------------------


def loop_mesh_tables(dim, nv, cells):
    """Entity tables, cell-to-entity tables and boundary flags by loops."""
    cells = np.sort(np.asarray(cells, dtype=np.int64), axis=1)
    cells = cells[np.lexsort(cells.T[::-1])]
    entities = [np.arange(nv, dtype=np.int64).reshape(-1, 1)]
    for k in range(1, dim):
        subs = set()
        for cell in cells:
            for combo in itertools.combinations(cell.tolist(), k + 1):
                subs.add(combo)
        entities.append(np.array(sorted(subs), dtype=np.int64))
    entities.append(cells)
    index = [{tuple(row): i for i, row in enumerate(tab.tolist())} for tab in entities]
    cell_sub = []
    for k in range(dim + 1):
        combos = list(itertools.combinations(range(dim + 1), k + 1))
        table = np.empty((cells.shape[0], len(combos)), dtype=np.int64)
        for c, cell in enumerate(cells.tolist()):
            for j, combo in enumerate(combos):
                table[c, j] = index[k][tuple(cell[i] for i in combo)]
        cell_sub.append(table)

    counts = np.zeros(entities[dim - 1].shape[0], dtype=np.int64)
    for c in range(cells.shape[0]):
        for fid in cell_sub[dim - 1][c]:
            counts[fid] += 1
    boundary = [None] * (dim + 1)
    boundary[dim - 1] = counts == 1
    boundary[dim] = np.zeros(cells.shape[0], dtype=bool)
    bverts = np.zeros(nv, dtype=bool)
    for fid in np.nonzero(boundary[dim - 1])[0]:
        bverts[entities[dim - 1][fid]] = True
    boundary[0] = bverts
    if dim == 3:
        bedges = np.zeros(entities[1].shape[0], dtype=bool)
        for fid in np.nonzero(boundary[2])[0]:
            a, b, c = entities[2][fid].tolist()
            for pair in ((a, b), (a, c), (b, c)):
                bedges[index[1][pair]] = True
        boundary[1] = bedges
    return entities, cell_sub, boundary


def loop_square(n, pattern):
    xs = np.linspace(0.0, 1.0, n + 1)
    verts = [(x, y) for y in xs for x in xs]
    cells = []
    for j in range(n):
        for i in range(n):
            v00, v10 = j * (n + 1) + i, j * (n + 1) + i + 1
            v01, v11 = v00 + n + 1, v10 + n + 1
            if pattern == "uniform":
                cells += [(v00, v10, v11), (v00, v01, v11)]
            else:
                verts.append(((xs[i] + xs[i + 1]) / 2, (xs[j] + xs[j + 1]) / 2))
                c = (n + 1) ** 2 + j * n + i
                cells += [(a, b, c) for a, b in ((v00, v10), (v10, v11), (v11, v01), (v01, v00))]
    return np.array(verts), cells


def loop_cube(n):
    xs = np.linspace(0.0, 1.0, n + 1)
    verts = [(x, y, z) for z in xs for y in xs for x in xs]
    cells = []
    for k in range(n):
        for j in range(n):
            for i in range(n):
                for perm in itertools.permutations(range(3)):
                    path = [[i, j, k]]
                    for axis in perm:
                        path.append(list(path[-1]))
                        path[-1][axis] += 1
                    cells.append(tuple((c * (n + 1) + b) * (n + 1) + a for a, b, c in path))
    return np.array(verts), cells


def loop_bands(rings, m, first):
    def gid(ring, j):
        return first + ring * m + j % m

    cells = []
    for ring in range(rings):
        for j in range(m):
            a, b, c, d = gid(ring, j), gid(ring, j + 1), gid(ring + 1, j), gid(ring + 1, j + 1)
            cells += [(a, b, d), (a, c, d)]
    return cells


def loop_derivative(space_from, space_to):
    fam_f, fam_t = space_from.family, space_to.family
    L = local_derivative_matrix(fam_f, fam_t)
    mesh = space_from.mesh
    into_density = fam_t.mapping == "l2" and fam_f.mapping in ("covariant", "contravariant")
    entries = {}
    for c in range(mesh.num_cells):
        Lc = L / mesh.geometry.detB[c] if into_density else L
        gr, gc = space_to.cell_dofs[c], space_from.cell_dofs[c]
        for i in range(fam_t.shape_dim):
            for j in range(fam_f.shape_dim):
                entries.setdefault((int(gr[i]), int(gc[j])), Lc[i, j])
    keys = np.array(list(entries.keys()), dtype=np.int64)
    vals = np.array(list(entries.values()))
    return sp.coo_matrix((vals, (keys[:, 0], keys[:, 1])),
                         shape=(space_to.ndofs, space_from.ndofs)).tocsr()


def _physical_tab(family, derivative, geo, points):
    """Reference tabulation pushed to every cell: (nc, nsh, nq[, d])."""
    nc = geo.B.shape[0]
    if not derivative:
        ref = family.tabulate(points)
        if family.value_kind == "scalar" or family.mapping == "l2":
            return np.broadcast_to(ref, (nc,) + ref.shape)
        if family.mapping == "covariant":
            return np.einsum("sqj,cji->csqi", ref, geo.Binv)
        return np.einsum("sqj,cij->csqi", ref, geo.B) / geo.detB[:, None, None, None]
    ref = family.tabulate_derivative(points)
    kind = family.derivative_kind
    if kind == "grad":
        return np.einsum("sqj,cji->csqi", ref, geo.Binv)
    if kind == "curl" and family.mesh_dim == 3:
        return np.einsum("sqj,cij->csqi", ref, geo.B) / geo.detB[:, None, None, None]
    return ref[None, :, :] / geo.detB[:, None, None]


def loop_stiffness_like(row_space, col_space, operator, coefficient):
    mesh = row_space.mesh
    geo = mesh.geometry
    rule = simplex_rule(mesh.dim)
    tabs = [_physical_tab(s.family, operator != "identity" and s.family.derivative_kind == operator,
                          geo, rule.points) for s in (row_space, col_space)]
    vector = tabs[0].ndim == 4
    wdet = rule.weights[None, :] * geo.absdet[:, None]
    C = np.broadcast_to(np.asarray(coefficient, dtype=float), wdet.shape + np.shape(coefficient))
    if vector:
        if C.ndim == 2:
            C = C[..., None, None] * np.eye(mesh.dim)
        Ccol = np.einsum("cqij,csqj->csqi", C, tabs[1])
        local = np.einsum("crqi,csqi,cq->crs", tabs[0], Ccol, wdet)
    else:
        local = np.einsum("crq,csq,cq->crs", tabs[0], tabs[1] * C[:, None, :], wdet)
    rows = np.repeat(row_space.cell_dofs, col_space.family.shape_dim, axis=1).ravel()
    cols = np.tile(col_space.cell_dofs, (1, row_space.family.shape_dim)).ravel()
    return sp.coo_matrix((local.ravel(), (rows, cols)),
                         shape=(row_space.ndofs, col_space.ndofs)).tocsr()


def loop_projection(space, f):
    mesh, fam = space.mesh, space.family
    out = np.zeros(space.ndofs)
    counts = [fam.dofs_per_entity(k) for k in range(mesh.dim + 1)]
    base = np.cumsum([0] + [counts[k] * mesh.num_entities(k) for k in range(mesh.dim + 1)])
    layout = fam.dof_entity_layout()

    def program(k):
        return [fam.dofs[p] for p in layout.get((k, 0), ())]

    vals = np.asarray(f(mesh.vertices))
    for slot, dof in enumerate(program(0)):
        out[base[0] + slot:base[1]:counts[0]] = vals if dof.component is None else vals[:, dof.component]

    rule = interval_rule()
    s = rule.points[:, 0]
    for eid, (a, b) in enumerate(mesh.entities[1].tolist() if program(1) else []):
        va, vb = mesh.vertices[a], mesh.vertices[b]
        vals = np.asarray(f(va[None, :] + s[:, None] * (vb - va)[None, :]))
        for slot, dof in enumerate(program(1)):
            if dof.kind == "scalar":
                integrand = vals
            elif dof.kind == "tangential":
                integrand = vals @ (vb - va)
            else:
                integrand = vals @ np.array([vb[1] - va[1], -(vb[0] - va[0])])
            out[base[1] + eid * counts[1] + slot] = np.sum(rule.weights * s ** dof.weight[0] * integrand)

    if mesh.dim == 3 and program(2):
        rule = triangle_rule()
        s, t = rule.points[:, 0], rule.points[:, 1]
        for fid, (ia, ib, ic) in enumerate(mesh.entities[2].tolist()):
            pa, pb, pc = mesh.vertices[ia], mesh.vertices[ib], mesh.vertices[ic]
            vals = np.asarray(f(pa[None, :] + np.outer(s, pb - pa) + np.outer(t, pc - pa)))
            flux = vals @ np.cross(pb - pa, pc - pa)
            for slot, dof in enumerate(program(2)):
                wmono = s ** dof.weight[0] * t ** dof.weight[1]
                out[base[2] + fid * counts[2] + slot] = np.sum(rule.weights * wmono * flux)

    geo = mesh.geometry
    rule = simplex_rule(mesh.dim)
    pts = geo.push_points(rule.points)
    for c in range(mesh.num_cells if program(mesh.dim) else 0):
        vals = np.asarray(f(pts[c]))
        if fam.mapping == "covariant":
            vals = vals @ geo.B[c]
        elif fam.mapping == "contravariant":
            vals = vals @ geo.Binv[c].T * geo.detB[c]
        for slot, dof in enumerate(program(mesh.dim)):
            wmono = np.prod(rule.points ** np.asarray(dof.weight, dtype=float), axis=1)
            comp = vals if dof.component is None else vals[:, dof.component]
            out[base[mesh.dim] + c * counts[mesh.dim] + slot] = (
                np.sum(rule.weights * wmono * comp) / reference_measure(mesh.dim))
    return out


def loop_incidence_matrix(mesh, k):
    high = mesh.entities[k + 1]
    M = np.zeros((high.shape[0], mesh.num_entities(k)), dtype=np.int64)
    for row, verts in enumerate(high.tolist()):
        for i in range(k + 2):
            facet = tuple(verts[:i] + verts[i + 1:])
            M[row, mesh.entity_id(k, facet)] = (-1) ** i
    return M


def dense_infsup(coupling, a_form, mass_v, deflation_tol=1e-10):
    """gamma^2 = smallest eigenvalue of the Schur pencil restricted to
    range(B), with null directions of B^T cut by the SVD of B."""
    B = np.asarray(coupling, dtype=float)
    schur = B @ sla.cho_solve(sla.cho_factor(a_form), B.T)
    u, svals, _ = sla.svd(B, check_finite=False)
    if svals.size == 0 or svals[0] == 0.0:
        return 0.0
    rank = int(np.count_nonzero(svals > deflation_tol * svals[0]))
    basis = u[:, :rank]
    lam = generalized_symmetric_eig(basis.T @ schur @ basis, basis.T @ mass_v @ basis)
    return math.sqrt(max(float(lam[0]), 0.0))


def dense_refined_solve(K, b):
    """Dense LU solve of K x = b and one refinement step whose residual
    b - K x is computed in exact rationals and rounded once, so that x
    is accurate to roundoff rather than to cond(K) times roundoff."""
    K = sp.csr_matrix(K)
    dense = K.toarray()
    x = np.linalg.solve(dense, b)
    r = [float(Fraction(b[i]) - sum(Fraction(v) * Fraction(x[j])
                                    for j, v in zip(K.indices[lo:hi], K.data[lo:hi])))
         for i, (lo, hi) in enumerate(zip(K.indptr[:-1], K.indptr[1:]))]
    return x + np.linalg.solve(dense, r)


def bareiss_rank(M):
    """Exact rank of an integer matrix by fraction-free (Bareiss)
    elimination: every intermediate entry is an integer minor of M, small
    enough for int64 on incidence matrices."""
    M = np.rint(M).astype(np.int64)
    nrows, ncols = M.shape
    prev, r = 1, 0
    for c in range(ncols):
        pivots = np.nonzero(M[r:, c])[0]
        if pivots.size == 0:
            continue
        p = r + pivots[0]
        if p != r:
            M[[r, p]] = M[[p, r]]
        assert np.abs(M).max() <= 2 ** 30, "minors outgrew int64"
        piv = M[r, c]
        below = M[r + 1:, :]
        below[:] = (below * piv - np.outer(M[r + 1:, c], M[r])) // prev
        prev = piv
        r += 1
        if r == nrows:
            break
    return r


def loop_stress_dof_matrix(vertices, origin, scale):
    """(24, 30) DOF table of one triangle, one row block at a time."""
    nmono = len(el.P3)

    def monomials(points):                       # (10, npoints)
        return np.stack([points[:, 0] ** a * points[:, 1] ** b for a, b in el.P3])

    W = np.zeros((el.NDOF, el.NCOEF))
    vmono = monomials((vertices - origin) / scale)
    for v in range(3):
        for comp in range(3):
            W[v * 3 + comp, comp * nmono:(comp + 1) * nmono] = vmono[:, v]
    erule = interval_rule()
    s = erule.points[:, 0]
    smom = np.stack([erule.weights, erule.weights * s])
    for le, (a, b) in enumerate(el._EDGE_LOCAL):
        pa, pb = vertices[a], vertices[b]
        t = pb - pa
        n = np.array([t[1], -t[0]])
        moments = smom @ monomials((pa[None, :] + s[:, None] * t[None, :] - origin) / scale).T
        for comp in range(2):
            r1, r2 = el._ROWS[comp]
            for deg in range(2):
                row = 9 + le * 4 + comp * 2 + deg
                W[row, r1 * nmono:(r1 + 1) * nmono] = n[0] * moments[deg]
                W[row, r2 * nmono:(r2 + 1) * nmono] = n[1] * moments[deg]
    trule = triangle_rule()
    B = np.column_stack([vertices[1] - vertices[0], vertices[2] - vertices[0]])
    phys = vertices[0][None, :] + trule.points @ B.T
    means = 2.0 * (monomials((phys - origin) / scale) @ trule.weights)
    for comp in range(3):
        W[21 + comp, comp * nmono:(comp + 1) * nmono] = means
    return W


def loop_stress_cells(mesh):
    """Per-cell (origin, scale, coeffs, cond), dualized one at a time."""
    null = el._shape_null_space()
    cells = []
    for verts in mesh.vertices[mesh.cells]:
        origin = verts.mean(axis=0)
        scale = max(np.linalg.norm(verts[i] - verts[j]) for i, j in ((0, 1), (0, 2), (1, 2)))
        V = loop_stress_dof_matrix(verts, origin, scale) @ null.T
        cells.append((origin, scale, sla.solve(V.T, null), float(np.linalg.cond(V))))
    return cells


def _cell_tabulate(cell, points, derivative=False):
    """(24, npoints, 3) stresses or (24, npoints, 2) divergences."""
    origin, scale, coeffs, _ = cell
    local = (points - origin) / scale
    if derivative:
        coeffs, exps, ncomp = coeffs @ el._divergence_operator().T / scale, el.P2, 2
    else:
        exps, ncomp = el.P3, 3
    mono = np.stack([local[:, 0] ** a * local[:, 1] ** b for a, b in exps])
    return np.transpose(coeffs.reshape(el.NDOF, ncomp, len(exps)) @ mono, (0, 2, 1))


def loop_compliance(space, cells, lam, mu):
    a1, a2 = el.compliance_coefficients(lam, mu)
    rule = triangle_rule()
    geo = space.mesh.geometry
    pts = geo.push_points(rule.points)
    metric = np.array([1.0, 2.0, 1.0])
    rows, cols, vals = [], [], []
    for c, cell in enumerate(cells):
        tab = _cell_tabulate(cell, pts[c])
        w = rule.weights * geo.absdet[c]
        contract = np.einsum("sqi,tqi,i,q->st", tab, tab, metric, w)
        trace = tab[:, :, 0] + tab[:, :, 2]
        local = a1 * (contract - a2 * np.einsum("sq,tq,q->st", trace, trace, w))
        dofs = space.cell_dofs[c]
        rows.append(np.repeat(dofs, el.NDOF))
        cols.append(np.tile(dofs, el.NDOF))
        vals.append(local.reshape(-1))
    return sp.coo_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                         shape=(space.ndofs, space.ndofs)).tocsr()


def _dg1_moment_weights(rule):
    """The dg1 DOFs' moment monomials at the rule points, in DOF order."""
    return np.stack([np.prod(rule.points ** np.asarray(d.weight, dtype=float), axis=1)
                     for d in get_family("dg1").dofs])


def loop_divergence(space, disp, cells):
    rule = triangle_rule()
    mono = _dg1_moment_weights(rule)
    pts = space.mesh.geometry.push_points(rule.points)
    rows, cols, vals = [], [], []
    for c, cell in enumerate(cells):
        dtab = _cell_tabulate(cell, pts[c], derivative=True)
        local = 2.0 * np.einsum("sqi,mq,q->ims", dtab, mono, rule.weights)
        rows.append(np.repeat(np.arange(6 * c, 6 * c + 6), el.NDOF))
        cols.append(np.tile(space.cell_dofs[c], 6))
        vals.append(local.reshape(-1))
    return sp.coo_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                         shape=(disp.ndofs, space.ndofs)).tocsr()


def einsum_displacement_mass(disp):
    rule = triangle_rule()
    tab = get_family("dg1").tabulate(rule.points)
    local = np.einsum("iq,jq,q->ij", tab, tab, rule.weights)
    blocks = disp.mesh.geometry.absdet[:, None, None] * local[None, :, :]
    comp_block = np.zeros((disp.mesh.num_cells, 6, 6))
    comp_block[:, :3, :3] = blocks
    comp_block[:, 3:, 3:] = blocks
    return sp.block_diag(comp_block, format="csr")


def einsum_displacement_projection(disp, f):
    rule = triangle_rule()
    pts = disp.mesh.geometry.push_points(rule.points)
    vals = np.asarray(f(pts.reshape(-1, 2))).reshape(disp.mesh.num_cells, -1, 2)
    moments = 2.0 * np.einsum("cqi,sq,q->cis", vals, _dg1_moment_weights(rule), rule.weights)
    return moments.reshape(-1)


def einsum_load_vector(disp, f):
    rule = triangle_rule()
    tab = get_family("dg1").tabulate(rule.points)
    geo = disp.mesh.geometry
    vals = np.asarray(f(geo.push_points(rule.points).reshape(-1, 2))).reshape(disp.mesh.num_cells, -1, 2)
    wdet = rule.weights[None, :] * geo.absdet[:, None]
    return np.einsum("cqi,mq,cq->cim", vals, tab, wdet).reshape(-1)


def einsum_evaluate_displacement(disp, u, rule):
    tab = get_family("dg1").tabulate(rule.points)
    geo = disp.mesh.geometry
    vals = np.einsum("cis,sq->cqi", u.reshape(disp.mesh.num_cells, 2, 3), tab)
    return geo.push_points(rule.points), rule.weights[None, :] * geo.absdet[:, None], vals


def loop_interpolate_stress_edges(space, field):
    """Edge moments of the stress interpolant, one field call per edge."""
    mesh = space.mesh
    out = np.zeros(4 * mesh.num_entities(1))
    erule = interval_rule()
    s = erule.points[:, 0]
    smom = np.stack([erule.weights, erule.weights * s])
    for eid, (a, b) in enumerate(mesh.entities[1].tolist()):
        pa, pb = mesh.vertices[a], mesh.vertices[b]
        t = pb - pa
        n = np.array([t[1], -t[0]])
        comp = np.asarray(field(pa[None, :] + s[:, None] * t[None, :]))
        for cidx in range(2):
            r1, r2 = el._ROWS[cidx]
            traction = comp[:, r1] * n[0] + comp[:, r2] * n[1]
            for deg in range(2):
                out[eid * 4 + cidx * 2 + deg] = smom[deg] @ traction
    return out


# -- comparisons ---------------------------------------------------------------


def _families(dim):
    return [name for name in FAMILY_NAMES if get_family(name).mesh_dim == dim]


def _assert_close(new, old, what):
    new = new.toarray() if sp.issparse(new) else new
    old = old.toarray() if sp.issparse(old) else old
    scale = max(np.abs(old).max(), 1e-300)
    assert np.abs(new - old).max() <= RTOL * scale, what


def _scattered(mesh, low, nv, rng):
    """The mesh on nv vertices, its own ones moved to distinct random ids of
    at least `low` and every other vertex unused (at the origin)."""
    ids = low + rng.choice(nv - low, mesh.num_vertices, replace=False)
    verts = np.zeros((nv, mesh.dim))
    verts[ids] = mesh.vertices
    return Mesh(mesh.dim, verts, ids[mesh.cells])


def _table_mesh(jittered_meshes, which):
    if which == "tets beyond int64 keys":
        # 55,109^4 >= 2^63: the cell table takes np.lexsort, the faces keys
        mesh = _scattered(generate_cube_mesh(1), 55_109, 70_000, np.random.default_rng(1))
        assert row_keys(mesh.cells, mesh.num_vertices) is None
        assert row_keys(mesh.entities[2], mesh.num_vertices) is not None
        return mesh
    if which == "scattered 2D":
        return _scattered(generate_square_mesh(3, pattern="crossed"), 0, 1000,
                          np.random.default_rng(2))
    return {"jittered 2D": jittered_meshes[2], "cube": generate_cube_mesh(2),
            "jittered cube": jittered_meshes[3]}[which]


TABLE_MESHES = ["jittered 2D", "cube", "jittered cube", "tets beyond int64 keys", "scattered 2D"]


@pytest.mark.parametrize("which", TABLE_MESHES)
def test_mesh_tables_match_loops(jittered_meshes, which):
    mesh = _table_mesh(jittered_meshes, which)
    entities, cell_sub, boundary = loop_mesh_tables(mesh.dim, mesh.num_vertices, mesh.cells)
    for k in range(mesh.dim + 1):
        assert np.array_equal(mesh.entities[k], entities[k])
        assert np.array_equal(mesh.cell_subentities(k), cell_sub[k])
        assert np.array_equal(mesh.boundary[k], boundary[k])


def _same_mesh(mesh, verts, cells):
    assert np.array_equal(mesh.vertices, verts)
    assert np.array_equal(mesh.cells, Mesh(mesh.dim, verts, cells).cells)


@pytest.mark.parametrize("n", [1, 2, 5])
def test_generators_match_loops(n):
    for pattern in ("uniform", "crossed"):
        _same_mesh(generate_square_mesh(n, pattern), *loop_square(n, pattern))
    _same_mesh(generate_cube_mesh(n), *loop_cube(n))
    m = 6 * n
    theta = 2.0 * np.pi * np.arange(m) / m
    disk = [(0.0, 0.0)] + [(ring / n * np.cos(t), ring / n * np.sin(t))
                           for ring in range(1, n + 1) for t in theta]
    fan = [(0, 1 + j, 1 + (j + 1) % m) for j in range(m)]
    _same_mesh(generate_disk_mesh(n), np.array(disk), fan + loop_bands(n - 1, m, 1))
    k = 8 * n
    theta = 2.0 * np.pi * np.arange(k) / k
    annulus = generate_annulus_mesh(k)
    rings = round(annulus.num_vertices / k) - 1
    radii = np.linspace(0.5, 1.0, rings + 1)
    verts = [(r * np.cos(t), r * np.sin(t)) for r in radii for t in theta]
    _same_mesh(annulus, np.array(verts), loop_bands(rings, k, 0))


@pytest.mark.parametrize("chain", [("lagrange1", "edge1", "dg0"), ("face1", "dg0"),
                                   ("lagrange2", "edge2", "dg1"), ("face2", "dg1"),
                                   ("lagrange1_3d", "edge1_3d", "face1_3d", "dg0_3d")])
def test_derivative_scatter_matches_loop(jittered_meshes, chain):
    mesh = jittered_meshes[get_family(chain[0]).mesh_dim]
    spaces = [build_space(mesh, name) for name in chain]
    for src, dst in zip(spaces, spaces[1:]):
        D, oracle = assemble_derivative(src, dst), loop_derivative(src, dst)
        # canonical CSR: ascending columns in every row, no stored zeros
        assert D.has_canonical_format and np.all(D.data != 0.0)
        starts = np.zeros(D.nnz, dtype=bool)
        starts[D.indptr[:-1][np.diff(D.indptr) > 0]] = True
        assert np.all(starts[1:] | (np.diff(D.indices) > 0))
        oracle.eliminate_zeros()
        oracle.sort_indices()
        for part in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(D, part), getattr(oracle, part)), part


def _coefficients(dim, vector):
    a = np.arange(1.0, dim * dim + 1).reshape(dim, dim) / dim
    return [1.7, a + dim * np.eye(dim)] if vector else [1.7]


def _form_cases():
    cases = []
    for dim in (2, 3):
        for name in _families(dim):
            fam = get_family(name)
            operators = ["identity"] + ([fam.derivative_kind] if fam.derivative_kind else [])
            for op in operators:
                cases.append((name, name, op))
    cases += [("dg0", "face1", "div"), ("dg1", "face2", "div"),
              ("dg0_3d", "face1_3d", "div"), ("face1_3d", "edge1_3d", "curl"),
              ("edge2", "lagrange2", "grad")]
    return cases


@pytest.mark.parametrize("row,col,op", _form_cases())
def test_reference_tensor_assembly_matches_quadrature_loop(jittered_meshes, row, col, op):
    mesh = jittered_meshes[get_family(row).mesh_dim]
    R, C = build_space(mesh, row), build_space(mesh, col)
    fam, x = R.family, np.zeros((1, mesh.dim))
    tab = fam.tabulate_derivative(x) if fam.derivative_kind == op else fam.tabulate(x)
    vector = tab.ndim == 3
    for coefficient in _coefficients(mesh.dim, vector):
        _assert_close(assemble_stiffness_like(R, C, op, coefficient),
                      loop_stiffness_like(R, C, op, coefficient), (row, col, op, coefficient))


def _smooth_field(dim, vector):
    if vector:
        return lambda x: np.stack([np.sin(1.0 + x[:, i] + 2.0 * x[:, (i + 1) % dim])
                                   for i in range(dim)], axis=1)
    return lambda x: np.exp(0.5 * x[:, 0]) * np.cos(x[:, -1] - 0.3)


@pytest.mark.parametrize("dim", [2, 3])
def test_batched_projection_matches_entity_loop(jittered_meshes, dim):
    mesh = jittered_meshes[dim]
    for name in _families(dim):
        space = build_space(mesh, name)
        f = _smooth_field(dim, space.family.value_kind == "vector")
        _assert_close(canonical_projection(space, f), loop_projection(space, f), name)


@pytest.mark.parametrize("which", TABLE_MESHES)
def test_incidence_lookup_matches_loop(jittered_meshes, which):
    mesh = _table_mesh(jittered_meshes, which)
    for k in range(mesh.dim):
        M = incidence_matrix(mesh, k)
        assert M.dtype == np.int64
        assert np.array_equal(M.toarray(), loop_incidence_matrix(mesh, k))


def _stress_meshes(jittered_meshes):
    return {"crossed2": generate_square_mesh(2, pattern="crossed"), "jittered": jittered_meshes[2]}


@pytest.mark.parametrize("which", ["crossed2", "jittered"])
def test_batched_stress_element_matches_cell_loop(jittered_meshes, which):
    mesh = _stress_meshes(jittered_meshes)[which]
    space = el.build_stress_space(mesh)
    disp = build_space(mesh, "dg1_vector")
    cells = loop_stress_cells(mesh)
    _assert_close(space.coeffs, np.stack([c[2] for c in cells]), "coeffs")
    _assert_close(space.cond, np.array([c[3] for c in cells]), "cond")
    _assert_close(space.origin, np.stack([c[0] for c in cells]), "origin")
    _assert_close(space.scale, np.array([c[1] for c in cells]), "scale")
    for lam, mu in ((1.0, 1.0), (2.5, 0.4)):
        _assert_close(el.assemble_compliance(space, lam, mu),
                      loop_compliance(space, cells, lam, mu), ("compliance", lam, mu))
    _assert_close(el.assemble_divergence(space, disp), loop_divergence(space, disp, cells),
                  "divergence")


@pytest.mark.parametrize("which", ["crossed2", "jittered"])
def test_batched_stress_interpolation_matches_edge_loop(jittered_meshes, which):
    mesh = _stress_meshes(jittered_meshes)[which]
    space = el.build_stress_space(mesh)

    def field(p):
        x, y = p[:, 0], p[:, 1]
        return np.stack([np.sin(1.0 + x + 2.0 * y), x ** 3 - y, np.cos(x * y - 0.3)], axis=-1)

    edge_base = 3 * mesh.num_vertices
    edges = el.interpolate_stress(space, field)[edge_base:edge_base + 4 * mesh.num_entities(1)]
    _assert_close(edges, loop_interpolate_stress_edges(space, field), which)


def test_global_stress_interpolant_matches_per_cell_dofs(jittered_meshes):
    """One DOF applicator: the global interpolant restricted to a cell
    equals the 24 DOFs applied to that cell's own vertices, local edges
    and interior."""
    mesh = jittered_meshes[2]
    space = el.build_stress_space(mesh)

    def field(p):
        x, y = p[:, 0], p[:, 1]
        return np.stack([np.sin(1.0 + x + 2.0 * y), x ** 3 - y, np.cos(x * y - 0.3)], axis=-1)

    nc = mesh.num_cells
    own = 3 * np.arange(nc)[:, None]
    local_edges = (own[:, :, None] + np.array(el._EDGE_LOCAL)).reshape(-1, 2)
    parts = el._stress_dofs(mesh.vertices[mesh.cells].reshape(-1, 2), local_edges,
                            own + np.arange(3), field)
    per_cell = np.concatenate([p.reshape(nc, -1) for p in parts], axis=1)
    assert per_cell.shape == (nc, el.NDOF)
    _assert_close(el.interpolate_stress(space, field)[space.cell_dofs], per_cell, "per-cell dofs")


def test_dg1_vector_numbering_is_cell_component_moment(jittered_meshes):
    """The saddle matrix's SuperLU ordering and fill rest on the numbering
    cell*6 + component*3 + moment, which build_space alone decides."""
    mesh = jittered_meshes[2]
    disp = build_space(mesh, "dg1_vector")
    assert np.array_equal(disp.cell_dofs, 6 * np.arange(mesh.num_cells)[:, None] + np.arange(6))
    moments = get_family("dg1").dofs
    for i, dof in enumerate(disp.family.dofs):
        assert (dof.kind, dof.component, dof.weight) == ("interior", i // 3, moments[i % 3].weight)
    # the block-interleaved per-component dg1 mass, bit for bit
    M = assemble_mass(build_space(mesh, "dg1"))
    n = M.shape[0]
    order = np.stack([np.arange(n).reshape(-1, 3), n + np.arange(n).reshape(-1, 3)], axis=1)
    old = sp.block_diag([M, M], format="csr")[order.ravel()][:, order.ravel()]
    new = assemble_mass(disp)
    assert new.nnz == old.nnz and np.array_equal(new.toarray(), old.toarray())
    with pytest.raises(ValueError, match="2D mesh"):
        build_space(generate_cube_mesh(2), "dg1_vector")


@pytest.mark.parametrize("which", ["crossed2", "jittered"])
def test_dg1_displacement_space_matches_einsum_helpers(jittered_meshes, which):
    disp = build_space(_stress_meshes(jittered_meshes)[which], "dg1_vector")

    def f(p):
        x, y = p[:, 0], p[:, 1]
        return np.stack([np.sin(1.0 + x + 2.0 * y), np.cos(x * y - 0.3) + x ** 2], axis=-1)

    M, M_old = assemble_mass(disp), einsum_displacement_mass(disp)
    assert np.array_equal((M != 0).toarray(), (M_old != 0).toarray())
    _assert_close(M, M_old, "mass")
    _assert_close(canonical_projection(disp, f), einsum_displacement_projection(disp, f),
                  "projection")
    _assert_close(assemble_load(disp, f), einsum_load_vector(disp, f), "load")
    u = np.random.default_rng(5).standard_normal(disp.ndofs)
    new = evaluate_on_cells(disp, u)
    old = einsum_evaluate_displacement(disp, u, triangle_rule())
    for a, b, what in zip(new, old, ("points", "weights", "values")):
        assert a.shape == b.shape
        _assert_close(a, b, what)


@pytest.mark.parametrize("dim", [2, 3])
def test_projection_on_reference_cell_is_apply_dofs(dim):
    """One definition of each DOF: on the reference simplex, the global
    projection restricted to the cell is the family's own DOFs."""
    mesh = Mesh(dim, reference_vertices(dim), [list(range(dim + 1))])
    for name in _families(dim):
        space = build_space(mesh, name)
        f = _smooth_field(dim, space.family.value_kind == "vector")
        new = canonical_projection(space, f)[space.cell_dofs[0]]
        old = apply_dofs(space.family, f)
        assert np.abs(new - old).max() <= 1e-14 * np.abs(old).max(), name


def _flux_pressure(n, pattern, bc):
    """face1/dg0 pair on the unit square: (B, graph-norm a, M_V) on free DOFs."""
    mesh = generate_square_mesh(n, pattern=pattern)
    S = build_space(mesh, "face1", bc=bc)
    V = build_space(mesh, "dg0")
    D = assemble_derivative(S, V)
    Mv = assemble_mass(V)
    a = assemble_mass(S) + D.T @ Mv @ D
    free = S.free
    return (Mv @ D).tocsr()[:, free], a.tocsr()[free][:, free], Mv


@pytest.mark.parametrize("bc", ["none", "essential"])
@pytest.mark.parametrize("pattern,n", [("uniform", 4), ("uniform", 16), ("crossed", 2),
                                       ("crossed", 8)])
def test_sparse_infsup_matches_dense_oracle(monkeypatch, pattern, n, bc):
    # two Lanczos runs, lambda_max and then the d + 1 smallest values, d
    # the inertia count of null directions of B^T: 1 under essential BC
    calls, eigsh = [], spla.eigsh

    def spy(*args, **kwargs):
        calls.append(kwargs["k"])
        return eigsh(*args, **kwargs)

    monkeypatch.setattr(spla, "eigsh", spy)
    B, a, Mv = _flux_pressure(n, pattern, bc)
    sparse = compute_infsup(B, a, Mv)
    assert calls == [1, 1 + (bc == "essential")]
    dense = dense_infsup(B.toarray(), a.toarray(), Mv.toarray())
    assert 0.5 < dense < 1.0
    assert abs(sparse - dense) <= 1e-10 * dense, (sparse, dense)


def test_explicit_infsup_matches_dense_oracle():
    # multiplier spaces too small for Lanczos, one with a null direction of B^T
    rng = np.random.default_rng(5)
    G = rng.standard_normal((7, 7))
    a = G @ G.T + 7.0 * np.eye(7)
    full = rng.standard_normal((4, 7))
    deficient = np.vstack([full[:3], full[0] - 2.0 * full[2]])
    for B in (full, deficient, full[:1]):
        Mv = 0.3 * np.eye(B.shape[0])
        want = dense_infsup(B, a, Mv)
        assert want > 0.0
        assert abs(compute_infsup(B, a, Mv) - want) <= 1e-10 * want
        assert abs(compute_infsup(sp.csr_matrix(B), sp.csr_matrix(a), Mv) - want) <= 1e-10 * want


RANK_MESHES = {"cube": generate_cube_mesh, "annulus": generate_annulus_mesh,
               "disk": generate_disk_mesh,
               "crossed": lambda n: generate_square_mesh(n, pattern="crossed")}


@pytest.mark.parametrize("bc", ["none", "essential"])
@pytest.mark.parametrize("domain,n,order", [
    ("cube", 2, 1), ("cube", 4, 1), ("crossed", 4, 1), ("crossed", 8, 1), ("crossed", 16, 1),
    ("crossed", 4, 2), ("crossed", 8, 2), ("annulus", 8, 1), ("annulus", 16, 1),
    ("annulus", 8, 2), ("annulus", 16, 2), ("disk", 4, 2)])
def test_complex_ranks_match_dense_and_bareiss(domain, n, order, bc):
    mesh = RANK_MESHES[domain](n)
    cx = derham_complex(mesh, order=order, bc=bc)
    mats = [cx.restricted_derivative(k) for k in range(len(cx) - 1)]
    ranks = complex_ranks(mats)
    assert ranks == [np.linalg.matrix_rank(D.toarray(), rtol=RANK_RTOL) for D in mats]
    if cx.lowest_order:
        incidence = [incidence_matrix(mesh, k)[cx.spaces[k + 1].free][:, cx.spaces[k].free]
                     for k in range(len(mats))]
        assert ranks == complex_ranks(incidence)
        if mesh.num_cells <= 512:     # dense Bareiss is cubic: 9 s on 1,024 cells
            assert ranks == [bareiss_rank(M.toarray()) for M in incidence]


@pytest.mark.parametrize("family", ["lagrange1", "lagrange2"])
@pytest.mark.parametrize("domain", ["square", "ellipse"])
def test_laplace_rank_from_gradient_matches_svd_rank(monkeypatch, domain, family):
    # the rank laplace_eigenvalues certifies its zero count against is the
    # exact rank of the gradient into the edge partner; the SVD rank of the
    # stiffness it replaced must agree
    seen, spectrum = [], experiments._spectrum

    def spy(A, M, rank, kernel=None):
        seen.append((A, rank))
        return spectrum(A, M, rank, kernel)

    monkeypatch.setattr(experiments, "_spectrum", spy)
    experiments.laplace_eigenvalues(domain=domain, family=family, n=4)
    (K, rank), = seen
    assert rank == np.linalg.matrix_rank(K.toarray(), rtol=RANK_RTOL) == K.shape[0]


@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("n", [4, 8])
def test_sparse_poisson_solve_matches_dense_cholesky(order, n):
    def f(p):
        return np.exp(p[:, 0]) * (1.0 + p[:, 1] ** 2)

    W, u = solve_poisson(generate_square_mesh(n), order, f)
    K = W.restrict(assemble_stiffness_like(W, W, "grad")).toarray()
    F = W.restrict_vector(assemble_load(W, f))
    want = W.extend_vector(sla.cho_solve(sla.cho_factor(K), F))
    assert np.abs(u - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("pattern", ["crossed", "uniform"])
@pytest.mark.parametrize("n", [4, 8])
def test_mixed_cavity_on_dg0_matches_svd_basis(pattern, n):
    # the pencil on range(curl) itself: an orthonormal basis Z of it from
    # an SVD, G = Z^T M2 D A^-1 D^T M2 Z against M_p = Z^T M2 Z
    system = experiments.edge_cavity_system(n, pattern)
    D, M2 = system.curl.toarray(), system.cell_mass.toarray()
    Z = np.linalg.svd(D, full_matrices=False)[0][:, :system.rank]
    ZM2D = Z.T @ M2 @ D
    G = ZM2D @ sla.cho_solve(sla.cho_factor(system.mass.toarray()), ZM2D.T)
    want = generalized_symmetric_eig(G, Z.T @ M2 @ Z)
    got = experiments.maxwell_mixed_eigenvalues(n, pattern).eigenvalues
    assert got.shape == want.shape == (system.rank,)
    assert np.all(np.abs(got - want) <= 1e-10 * want), np.abs(got / want - 1).max()


@pytest.mark.parametrize("case, pattern, n, scale", [
    ("mixed-poisson", "uniform", 4, 1.0), ("mixed-poisson", "crossed", 2, 1.0),
    ("mixed-poisson", "uniform", 4, 1e-4), ("elasticity", "uniform", 4, 1.0),
    ("elasticity", "uniform", 4, 1e-4)],
    ids=["mixed-poisson-uniform4", "mixed-poisson-crossed2", "mixed-poisson-coefficient1e-4",
         "elasticity4", "elasticity4-mu1e-4"])
def test_saddle_solve_matches_dense_lu_without_pivoting(monkeypatch, case, pattern, n, scale):
    # scale is the Poisson coefficient or the shear modulus mu: the
    # factored shift must not depend on how the A block is scaled
    seen = {}
    solve, lu = linalg.symmetric_indefinite_solve, linalg.sparse_lu

    def spy_solve(K, rhs):
        seen.update(K=K, rhs=rhs, x=solve(K, rhs))
        return seen["x"]

    def spy_lu(K_tau):
        seen.update(K_tau=K_tau, factor=lu(K_tau))
        return seen["factor"]

    monkeypatch.setattr(linalg, "sparse_lu", spy_lu)
    mesh = generate_square_mesh(n, pattern=pattern)
    if case == "elasticity":
        monkeypatch.setattr(el, "symmetric_indefinite_solve", spy_solve)
        el.solve_mixed_elasticity(mesh, mu=scale, f=el.manufactured_solution(mu=scale)[2])
    else:
        monkeypatch.setattr(experiments, "symmetric_indefinite_solve", spy_solve)
        experiments.solve_mixed_poisson(mesh, coefficient=scale)
    want = dense_refined_solve(seen["K"], seen["rhs"])
    assert np.abs(seen["x"] - want).max() <= 1e-12 * np.abs(want).max()
    # the shifted matrix is factored on its diagonal, with no more fill
    # than a COLAMD partial-pivoting LU of it
    factor = seen["factor"]
    assert np.array_equal(factor.perm_r, factor.perm_c)
    pivoted = spla.splu(sp.csc_matrix(seen["K_tau"]))
    assert factor.L.nnz + factor.U.nnz <= pivoted.L.nnz + pivoted.U.nnz


@pytest.mark.parametrize("pattern", ["crossed", "uniform"])
@pytest.mark.parametrize("n", [2, 4, 8, 16])
def test_tree_cotree_spectrum_matches_dense_oracle(pattern, n):
    # the spectrum split along the gradients against one dense eigh of
    # the whole pencil: same size and zero count, positive part to 1e-10,
    # and computed kernel values below the zero threshold
    system = experiments.edge_cavity_system(n, pattern)
    want = sla.eigh(system.curlcurl.toarray(), system.mass.toarray(), eigvals_only=True)
    got = generalized_symmetric_eig(system.curlcurl, system.mass, kernel=system.gradient)
    threshold = experiments.ZERO_EIGENVALUE_RTOL * np.abs(want).max()
    zeros = int(np.searchsorted(want, threshold))
    assert got.shape == want.shape
    assert zeros == int(np.searchsorted(got, threshold)) == system.interior_vertices
    assert np.abs(got[:zeros]).max(initial=0.0) <= threshold
    assert np.all(np.abs(got[zeros:] - want[zeros:]) <= 1e-10 * want[zeros:])
