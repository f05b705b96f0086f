"""Global finite element spaces on simplicial meshes.

A DiscreteSpace couples one reference family to one mesh: global DOFs
are numbered entity-block-wise (all vertex DOFs, then edge, face, cell
DOFs, each in entity order), and reference shape functions are pushed
to each cell by the family's Piola map (plain pullback for scalars,
covariant for edge families, contravariant for face families, plain for
discontinuous densities).

Because all entities are stored with ascending vertex indices, the map
from the reference simplex onto each cell's sorted vertex tuple sends
reference tangents/normals to the global entity conventions, and every
degree of freedom is invariant under the pullback.  The local-to-global
sign table is therefore identically +1; it is kept explicit so the
orientation bookkeeping stays visible and testable.

Every map is affine, so each side of a form is a fixed reference
tabulation times a per-cell matrix M_c (B^-T for covariant values and
gradients, B/det for contravariant values and 3D curl, 1/det for 2D
curl and div, 1 for scalar values).  Local matrices are then a per-cell
geometry tensor G_c = |det| M_row^T C M_col times a reference tensor
R = sum_q w_q ref_r (x) ref_s, one matrix product for all cells (Kirby
& Logg, "A compiler for variational forms", ACM TOMS 2006).  The
derivative matrix is a single sorted scatter and the canonical
projection calls the field once per entity kind.

Essential boundary conditions are realized by eliminating DOFs attached
to boundary entities of codimension >= 1 (value trace for scalar
families, tangential trace for edge families, normal trace for face
families; no effect on discontinuous families).
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .elements import ElementFamily, get_family, local_derivative_matrix
from .mesh import Mesh
from .quadrature import interval_rule, reference_measure, simplex_rule, triangle_rule


@dataclass
class DiscreteSpace:
    mesh: Mesh
    family: ElementFamily
    bc: str
    ndofs: int
    cell_dofs: np.ndarray      # (num_cells, shape_dim) global dof ids
    cell_signs: np.ndarray     # (num_cells, shape_dim), +1 by construction
    dof_entity: np.ndarray     # (ndofs, 2): entity dim, entity id
    dof_boundary: np.ndarray   # (ndofs,) bool
    free: np.ndarray = field(default=None)  # indices of unconstrained dofs

    @property
    def num_free(self) -> int:
        return self.free.size

    def restrict(self, A):
        """Free-by-free block of an assembled operator."""
        A = A.tocsr() if sp.issparse(A) else np.asarray(A)
        if sp.issparse(A):
            return A[self.free, :][:, self.free]
        return A[np.ix_(self.free, self.free)]

    def restrict_vector(self, v):
        return np.asarray(v)[self.free]

    def extend_vector(self, v_free):
        out = np.zeros(self.ndofs)
        out[self.free] = v_free
        return out

    def local_coefficients(self, u, cell_index):
        return u[self.cell_dofs[cell_index]] * self.cell_signs[cell_index]

    def __repr__(self):
        return (f"<DiscreteSpace {self.family.name} on {self.mesh.domain_tag or 'mesh'}: "
                f"{self.ndofs} dofs, {self.num_free} free>")


def build_space(mesh: Mesh, family, bc: str = "none") -> DiscreteSpace:
    """Number global DOFs for a family over a mesh.

    family may be an ElementFamily or a catalog name.
    """
    if isinstance(family, str):
        family = get_family(family)
    if family.mesh_dim != mesh.dim:
        raise ValueError(f"{family.name} needs a {family.mesh_dim}D mesh, got {mesh.dim}D")
    if bc not in ("none", "essential"):
        raise ValueError(f"unknown boundary condition {bc!r}")

    counts = [family.dofs_per_entity(k) for k in range(mesh.dim + 1)]
    base = np.zeros(mesh.dim + 2, dtype=np.int64)
    for k in range(mesh.dim + 1):
        base[k + 1] = base[k] + counts[k] * mesh.num_entities(k)
    ndofs = int(base[-1])

    layout = family.dof_entity_layout()
    nloc = family.shape_dim
    cell_dofs = np.empty((mesh.num_cells, nloc), dtype=np.int64)
    for (k, local_idx), positions in layout.items():
        ent_ids = mesh.cell_subentities(k)[:, local_idx]
        for slot, pos in enumerate(positions):
            cell_dofs[:, pos] = base[k] + ent_ids * counts[k] + slot

    dof_entity = np.empty((ndofs, 2), dtype=np.int64)
    dof_boundary = np.zeros(ndofs, dtype=bool)
    for k in range(mesh.dim + 1):
        if counts[k] == 0:
            continue
        ids = np.repeat(np.arange(mesh.num_entities(k)), counts[k])
        rows = slice(int(base[k]), int(base[k + 1]))
        dof_entity[rows, 0] = k
        dof_entity[rows, 1] = ids
        if k < mesh.dim:
            dof_boundary[rows] = mesh.boundary[k][ids]

    if bc == "essential":
        free = np.nonzero(~dof_boundary)[0]
    else:
        free = np.arange(ndofs)
    signs = np.ones((mesh.num_cells, nloc), dtype=np.int8)
    return DiscreteSpace(mesh, family, bc, ndofs, cell_dofs, signs, dof_entity, dof_boundary, free)


# -- pullbacks and assembly ----------------------------------------------------


class DerivativeNotSingleValuedError(ValueError):
    """Cells sharing a target DOF disagree on its derivative entry."""


def _reference_tab(family: ElementFamily, what: str):
    rule = simplex_rule(family.mesh_dim)
    key = "_tab_" + what
    cached = getattr(family, key, None)
    if cached is None:
        cached = family.tabulate(rule.points) if what == "values" else family.tabulate_derivative(rule.points)
        setattr(family, key, cached)
    return rule, cached


def _pullback(family: ElementFamily, derivative: bool, geo) -> np.ndarray:
    """Per-cell maps M_c taking reference values (or derivatives) to
    physical ones, phys = M_c ref: (nc, p, m), with p = m = 1 for
    scalar-valued sides."""
    kind = family.derivative_kind if derivative else family.mapping
    if kind is None:
        raise ValueError(f"{family.name} has no derivative")
    if kind in ("grad", "covariant"):
        return np.transpose(geo.Binv, (0, 2, 1))
    if kind == "contravariant" or (kind == "curl" and family.mesh_dim == 3):
        return geo.B / geo.detB[:, None, None]
    if kind in ("curl", "div"):
        return (1.0 / geo.detB)[:, None, None]
    return np.ones((geo.detB.shape[0], 1, 1))


def _as_vector_tab(ref: np.ndarray) -> np.ndarray:
    """Reference tabulation as (nshape, nq, m), m = 1 for scalar values."""
    return ref.reshape(ref.shape[0], ref.shape[1], -1)


def _field_values(space: DiscreteSpace, u, ref, M) -> np.ndarray:
    """Field values sum_s u_s M_c ref_s at the tabulated points: (nc, nq, p)."""
    ref = _as_vector_tab(ref)
    coef = u[space.cell_dofs] * space.cell_signs
    ref_vals = (coef @ ref.reshape(ref.shape[0], -1)).reshape(coef.shape[0], ref.shape[1], -1)
    return np.einsum("cij,cqj->cqi", M, ref_vals)


def _coefficient_matrix(coefficient, dim: int, vector: bool) -> np.ndarray:
    """Constant coefficient as a (p, p) matrix, p = dim for vector
    integrands and 1 for scalar ones."""
    coefficient = np.asarray(coefficient, dtype=float)
    if coefficient.ndim == 0:
        return float(coefficient) * np.eye(dim if vector else 1)
    if coefficient.shape != (dim, dim):
        raise ValueError("matrix coefficient must be (dim, dim)")
    if not vector:
        raise ValueError("matrix coefficient with scalar-valued integrand")
    return coefficient


def _coefficient_samples(coefficient, pts, dim: int, vector: bool) -> np.ndarray:
    """Callable coefficient at physical points (nc, nq, dim) as (nc, nq, p, p)."""
    nc, nq = pts.shape[:2]
    vals = np.asarray(coefficient(pts.reshape(-1, dim)))
    if vals.ndim == 1:
        return vals.reshape(nc, nq, 1, 1) * np.eye(dim if vector else 1)
    if not vector:
        raise ValueError("matrix coefficient with scalar-valued integrand")
    return vals.reshape(nc, nq, dim, dim)


def assemble_stiffness_like(row_space: DiscreteSpace, col_space: DiscreteSpace,
                            operator: str = "identity", coefficient=1.0) -> sp.csr_matrix:
    """Assemble int (op row basis) . C . (op col basis) dx over all DOFs.

    `operator` is one of identity | grad | curl | div and is applied on
    each side whose family supports it (identity otherwise), which
    covers mass, stiffness, curl-curl, div-div and mixed couplings like
    int v div(tau) with a discontinuous row space.

    The local matrices are one product G @ R of a per-cell geometry
    tensor G and a reference tensor R.  For a constant coefficient
    G_c = |det B| M_row^T C M_col and R = sum_q w_q ref_r (x) ref_s; a
    callable coefficient keeps the quadrature axis in G.
    """
    if row_space.mesh is not col_space.mesh:
        raise ValueError("row and column spaces live on different meshes")
    if operator not in ("identity", "grad", "curl", "div"):
        raise ValueError(f"unknown operator {operator!r}")
    mesh = row_space.mesh
    geo = mesh.geometry
    rule = simplex_rule(mesh.dim)
    if operator != "identity" and (row_space.family.derivative_kind != operator
                                   and col_space.family.derivative_kind != operator):
        raise ValueError(f"operator {operator!r} applies to neither family")

    sides = []
    for space in (row_space, col_space):
        derivative = operator != "identity" and space.family.derivative_kind == operator
        _, ref = _reference_tab(space.family, "derivative" if derivative else "values")
        sides.append((_as_vector_tab(ref), _pullback(space.family, derivative, geo), ref.ndim == 3))
    (ref_r, M_r, row_vec), (ref_c, M_c, col_vec) = sides
    if row_vec != col_vec:
        raise ValueError("mixed scalar/vector integrand; operator pairing is inconsistent")

    M_rT = np.transpose(M_r, (0, 2, 1))
    if callable(coefficient):
        C = _coefficient_samples(coefficient, geo.push_points(rule.points), mesh.dim, row_vec)
        wdet = rule.weights[None, :] * geo.absdet[:, None]
        G = (M_rT[:, None] @ C @ M_c[:, None]) * wdet[:, :, None, None]
        R = np.einsum("rqa,sqb->qabrs", ref_r, ref_c)
    else:
        C = _coefficient_matrix(coefficient, mesh.dim, row_vec)
        G = (M_rT @ C @ M_c) * geo.absdet[:, None, None]
        R = np.einsum("rqa,sqb,q->abrs", ref_r, ref_c, rule.weights)
    nr, ns = ref_r.shape[0], ref_c.shape[0]
    local = G.reshape(mesh.num_cells, -1) @ R.reshape(-1, nr * ns)

    rows = np.repeat(row_space.cell_dofs, ns, axis=1).ravel()
    cols = np.tile(col_space.cell_dofs, (1, nr)).ravel()
    A = sp.coo_matrix((local.ravel(), (rows, cols)), shape=(row_space.ndofs, col_space.ndofs))
    return A.tocsr()


def assemble_mass(space: DiscreteSpace, coefficient=1.0) -> sp.csr_matrix:
    return assemble_stiffness_like(space, space, "identity", coefficient)


def assemble_derivative(space_from: DiscreteSpace, space_to: DiscreteSpace) -> sp.csr_matrix:
    """Global derivative matrix D: DOFs of d(u) from DOFs of u.

    Shared target DOFs receive identical values from every incident
    cell (the image of the derivative is single-valued).  All cell
    contributions are sorted by (row, col) once; each run of equal keys
    is checked against its first entry, which becomes the stored value.
    Raises DerivativeNotSingleValuedError when a run disagrees.
    """
    if space_from.mesh is not space_to.mesh:
        raise ValueError("spaces live on different meshes")
    fam_f, fam_t = space_from.family, space_to.family
    L = local_derivative_matrix(fam_f, fam_t)
    mesh = space_from.mesh
    into_density = fam_t.mapping == "l2" and fam_f.mapping in ("covariant", "contravariant")
    shape = (mesh.num_cells,) + L.shape
    if into_density:
        vals = L[None, :, :] / mesh.geometry.detB[:, None, None]
    else:
        vals = np.broadcast_to(L, shape)
    rows = np.broadcast_to(space_to.cell_dofs[:, :, None], shape).ravel()
    cols = np.broadcast_to(space_from.cell_dofs[:, None, :], shape).ravel()
    order = np.argsort(rows * space_from.ndofs + cols, kind="stable")
    rows, cols, vals = rows[order], cols[order], vals.ravel()[order]
    first = np.ones(rows.size, dtype=bool)
    first[1:] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
    kept, run = vals[first], np.cumsum(first) - 1
    bad = np.flatnonzero(np.abs(vals - kept[run]) > 1e-9 * max(np.abs(L).max(), 1.0))
    if bad.size:
        i = bad[0]
        raise DerivativeNotSingleValuedError(
            f"derivative DOF {(int(rows[i]), int(cols[i]))} double-valued: {kept[run[i]]} vs {vals[i]}")
    D = sp.coo_matrix((kept, (rows[first], cols[first])),
                      shape=(space_to.ndofs, space_from.ndofs)).tocsr()
    D.eliminate_zeros()
    return D


# -- canonical projection ------------------------------------------------------


def _entity_program(family: ElementFamily, k: int):
    layout = family.dof_entity_layout()
    positions = layout.get((k, 0))
    if positions is None:
        return []
    return [family.dofs[p] for p in positions]


def _as_callable(fieldlike):
    return fieldlike.eval if hasattr(fieldlike, "eval") else fieldlike


def canonical_projection(space: DiscreteSpace, fieldlike) -> np.ndarray:
    """DOF vector of the canonical interpolant of a smooth field.

    Vertex/edge/face DOFs are evaluated once per global entity with the
    global orientation conventions; interior DOFs are evaluated per cell
    through the family's pullback.  The result restricted to any cell
    coincides with the reference-element DOFs of the pulled-back field.
    The field is called once per entity kind, on the quadrature points
    of all entities of that kind.
    """
    f = _as_callable(fieldlike)
    mesh = space.mesh
    fam = space.family
    out = np.zeros(space.ndofs)
    counts = [fam.dofs_per_entity(k) for k in range(mesh.dim + 1)]
    base = np.cumsum([0] + [counts[k] * mesh.num_entities(k) for k in range(mesh.dim + 1)])

    # vertex values
    prog0 = _entity_program(fam, 0)
    if prog0:
        vals = np.asarray(f(mesh.vertices))
        for slot, dof in enumerate(prog0):
            col = vals if dof.component is None else vals[:, dof.component]
            out[base[0] + slot:base[1]:counts[0]] = col

    # edge moments
    prog1 = _entity_program(fam, 1)
    if prog1:
        rule = interval_rule()
        s = rule.points[:, 0]
        edges = mesh.entities[1]
        va = mesh.vertices[edges[:, 0]]
        tangent = mesh.vertices[edges[:, 1]] - va
        pts = va[:, None, :] + s[None, :, None] * tangent[:, None, :]
        vals = np.asarray(f(pts.reshape(-1, mesh.dim))).reshape(pts.shape[:2] + (-1,))
        for slot, dof in enumerate(prog1):
            if dof.kind == "scalar":
                integrand = vals[:, :, 0]
            elif dof.kind == "tangential":
                integrand = np.einsum("eqi,ei->eq", vals, tangent)
            elif dof.kind == "normal":
                normal = np.stack([tangent[:, 1], -tangent[:, 0]], axis=1)
                integrand = np.einsum("eqi,ei->eq", vals, normal)
            else:
                raise ValueError(f"bad edge dof kind {dof.kind}")
            out[base[1] + slot:base[2]:counts[1]] = integrand @ (rule.weights * s ** dof.weight[0])

    # 3D face moments
    if mesh.dim == 3:
        prog2 = _entity_program(fam, 2)
        if prog2:
            rule = triangle_rule()
            s, t = rule.points[:, 0], rule.points[:, 1]
            faces = mesh.entities[2]
            pa = mesh.vertices[faces[:, 0]]
            eb = mesh.vertices[faces[:, 1]] - pa
            ec = mesh.vertices[faces[:, 2]] - pa
            pts = pa[:, None, :] + s[None, :, None] * eb[:, None, :] + t[None, :, None] * ec[:, None, :]
            vals = np.asarray(f(pts.reshape(-1, 3))).reshape(pts.shape)
            flux = np.einsum("fqi,fi->fq", vals, np.cross(eb, ec))
            for slot, dof in enumerate(prog2):
                wmono = s ** dof.weight[0] * t ** dof.weight[1]
                out[base[2] + slot:base[3]:counts[2]] = flux @ (rule.weights * wmono)

    # interior moments through the family pullback
    progd = _entity_program(fam, mesh.dim)
    if progd:
        geo = mesh.geometry
        rule = simplex_rule(mesh.dim)
        pts = geo.push_points(rule.points)
        flat = np.asarray(f(pts.reshape(-1, mesh.dim)))
        if fam.value_kind == "vector":
            vals = flat.reshape(mesh.num_cells, -1, mesh.dim)
            if fam.mapping == "covariant":
                vals = np.einsum("cqi,cij->cqj", vals, geo.B)
            elif fam.mapping == "contravariant":
                vals = np.einsum("cqi,cji->cqj", vals, geo.Binv) * geo.detB[:, None, None]
        else:
            vals = flat.reshape(mesh.num_cells, -1)
        for slot, dof in enumerate(progd):
            wmono = np.ones(rule.points.shape[0])
            for ax, e in enumerate(dof.weight):
                if e:
                    wmono = wmono * rule.points[:, ax] ** e
            comp = vals if dof.component is None else vals[:, :, dof.component]
            moments = comp @ (rule.weights * wmono) / reference_measure(mesh.dim)
            out[base[mesh.dim] + np.arange(mesh.num_cells) * counts[mesh.dim] + slot] = moments
    return out


def evaluate_on_cells(space: DiscreteSpace, u, rule=None):
    """Field values of a DOF vector at quadrature points of every cell.

    Returns (physical points (nc, nq, dim), weights*|det| (nc, nq),
    values (nc, nq) or (nc, nq, dim)).
    """
    mesh = space.mesh
    rule = rule or simplex_rule(mesh.dim)
    geo = mesh.geometry
    ref = space.family.tabulate(rule.points)
    vals = _field_values(space, u, ref, _pullback(space.family, False, geo))
    pts = geo.push_points(rule.points)
    wdet = rule.weights[None, :] * geo.absdet[:, None]
    return pts, wdet, vals if ref.ndim == 3 else vals[:, :, 0]


def evaluate_derivative_on_cells(space: DiscreteSpace, u, rule=None):
    """Exterior-derivative values of a DOF vector at cell quadrature points.

    Gradient spaces give (nc, nq, dim), 2D curl and div give (nc, nq),
    3D curl gives (nc, nq, 3).  Same return layout as evaluate_on_cells.
    """
    mesh = space.mesh
    fam = space.family
    if fam.derivative_kind is None:
        raise ValueError(f"{fam.name} has no derivative")
    rule = rule or simplex_rule(mesh.dim)
    geo = mesh.geometry
    ref = fam.tabulate_derivative(rule.points)
    vals = _field_values(space, u, ref, _pullback(fam, True, geo))
    pts = geo.push_points(rule.points)
    wdet = rule.weights[None, :] * geo.absdet[:, None]
    return pts, wdet, vals if ref.ndim == 3 else vals[:, :, 0]


def assemble_load(space: DiscreteSpace, f) -> np.ndarray:
    """Load vector int f . phi_i dx against every global basis function.

    `f` maps (N, dim) points to (N,) scalars or (N, dim) vectors to
    match the family's value kind.
    """
    mesh = space.mesh
    geo = mesh.geometry
    rule, ref = _reference_tab(space.family, "values")
    ref = _as_vector_tab(ref)
    M = _pullback(space.family, False, geo)
    pts = geo.push_points(rule.points)
    fv = np.asarray(_as_callable(f)(pts.reshape(-1, mesh.dim))).reshape(mesh.num_cells, rule.weights.size, -1)
    wdet = rule.weights[None, :] * geo.absdet[:, None]
    pulled = np.einsum("cij,cqi->cqj", M, fv) * wdet[:, :, None]
    local = pulled.reshape(mesh.num_cells, -1) @ ref.reshape(ref.shape[0], -1).T
    out = np.zeros(space.ndofs)
    np.add.at(out, space.cell_dofs, local * space.cell_signs)
    return out


def assemble_component_products(space: DiscreteSpace, a: int, b: int) -> sp.csr_matrix:
    """int d_a(phi_i) d_b(phi_j) dx for a scalar H1 space.

    Building block for Cartesian-product vector fields (the nodal
    Maxwell discretization couples gradient components this way).
    """
    if space.family.mapping != "h1":
        raise ValueError("component products need a scalar H1 family")
    unit = np.zeros((space.mesh.dim, space.mesh.dim))
    unit[a, b] = 1.0
    return assemble_stiffness_like(space, space, "grad", unit)
