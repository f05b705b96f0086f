"""Global finite element spaces on simplicial meshes.

A DiscreteSpace couples one reference family to one mesh: global DOFs
are numbered entity-block-wise (all vertex DOFs, then edge, face, cell
DOFs, each in entity order), and reference shape functions are pushed
to each cell by the family's Piola map (plain pullback for scalars,
covariant for edge families, contravariant for face families, plain for
discontinuous densities and for the discontinuous vectors of dg1_vector).

Because all entities are stored with ascending vertex indices, the map
from the reference simplex onto each cell's sorted vertex tuple sends
reference tangents/normals to the global entity conventions, and every
degree of freedom is invariant under the pullback.  Local and global
DOFs therefore agree without orientation signs.

Every map is affine, so each side of a form is a fixed reference
tabulation times a per-cell matrix M_c (B^-T for covariant values and
gradients, B/det for contravariant values and 3D curl, 1/det for 2D
curl and div, the identity for unmapped scalar and vector values).
Local matrices are then a per-cell geometry tensor G_c = |det| M_row^T
C M_col times a reference tensor R = sum_q w_q ref_r (x) ref_s, one
matrix product for all cells (Kirby & Logg, "A compiler for variational
forms", ACM TOMS 2006).  Each row of the derivative matrix is read
from one cell that holds its target DOF, with no global sort, and every
other cell's contribution is checked against it.  The canonical
projection applies the catalog's own DOFs (`elements.dof_moments`) to
the global entities of each dimension, calling the field once per
entity kind.

Essential boundary conditions are realized by eliminating DOFs attached
to boundary entities of codimension >= 1 (value trace for scalar
families, tangential trace for edge families, normal trace for face
families; no effect on discontinuous families).
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .elements import ElementFamily, dof_moments, get_family, local_derivative_matrix
from .mesh import Mesh
from .quadrature import simplex_rule


@dataclass
class DiscreteSpace:
    mesh: Mesh
    family: ElementFamily
    ndofs: int
    cell_dofs: np.ndarray      # (num_cells, shape_dim) global dof ids
    dof_boundary: np.ndarray   # (ndofs,) bool
    free: np.ndarray = field(default=None)  # indices of unconstrained dofs

    @property
    def num_free(self) -> int:
        return self.free.size

    def restrict(self, A):
        """Free-by-free block of an assembled sparse operator."""
        return A.tocsr()[self.free, :][:, self.free]

    def restrict_vector(self, v):
        return np.asarray(v)[self.free]

    def extend_vector(self, v_free):
        out = np.zeros(self.ndofs)
        out[self.free] = v_free
        return out

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
    base = np.cumsum([0] + [counts[k] * mesh.num_entities(k) for k in range(mesh.dim + 1)])
    ndofs = int(base[-1])

    layout = family.dof_entity_layout()
    cell_dofs = np.empty((mesh.num_cells, family.shape_dim), dtype=np.int64)
    for (k, local_idx), positions in layout.items():
        ent_ids = mesh.cell_subentities(k)[:, local_idx]
        for slot, pos in enumerate(positions):
            cell_dofs[:, pos] = base[k] + ent_ids * counts[k] + slot

    # cells are never boundary entities (mesh.boundary[dim] is all False)
    dof_boundary = np.concatenate([np.repeat(mesh.boundary[k], counts[k])
                                   for k in range(mesh.dim + 1)])
    free = np.nonzero(~dof_boundary)[0] if bc == "essential" else np.arange(ndofs)
    return DiscreteSpace(mesh, family, ndofs, cell_dofs, dof_boundary, free)


# -- pullbacks and assembly ----------------------------------------------------


class DerivativeNotSingleValuedError(RuntimeError):
    """Cells sharing a target DOF disagree on its derivative entry."""


def _pullback(family: ElementFamily, derivative: bool, geo) -> np.ndarray:
    """Per-cell maps M_c taking reference values (or derivatives) to
    physical ones, phys = M_c ref: (nc, p, m), with p = m = 1 for
    scalar-valued sides; unmapped (h1, l2) values pass through as the
    identity."""
    kind = family.derivative_kind if derivative else family.mapping
    if kind is None:
        raise ValueError(f"{family.name} has no derivative")
    if kind in ("grad", "covariant"):
        return np.transpose(geo.Binv, (0, 2, 1))
    if kind == "contravariant" or (kind == "curl" and family.mesh_dim == 3):
        return geo.B / geo.detB[:, None, None]
    if kind in ("curl", "div"):
        return (1.0 / geo.detB)[:, None, None]
    n = family.mesh_dim if family.value_kind == "vector" else 1
    return np.broadcast_to(np.eye(n), (geo.detB.shape[0], n, n))


def _as_vector_tab(ref: np.ndarray) -> np.ndarray:
    """Reference tabulation as (nshape, nq, m), m = 1 for scalar values."""
    return ref.reshape(ref.shape[0], ref.shape[1], -1)


def _field_values(space: DiscreteSpace, u, ref, M) -> np.ndarray:
    """Field values sum_s u_s M_c ref_s at the tabulated points: (nc, nq, p)."""
    ref = _as_vector_tab(ref)
    coef = u[space.cell_dofs]
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


def assemble_stiffness_like(row_space: DiscreteSpace, col_space: DiscreteSpace,
                            operator: str = "identity", coefficient=1.0) -> sp.csr_matrix:
    """Assemble int (op row basis) . C . (op col basis) dx over all DOFs.

    `operator` is one of identity | grad | curl | div and is applied on
    each side whose family supports it (identity otherwise), which
    covers mass, stiffness, curl-curl, div-div and mixed couplings like
    int v div(tau) with a discontinuous row space.

    The coefficient C is a constant scalar or (dim, dim) matrix.  The
    local matrices are one product G @ R of the per-cell geometry tensor
    G_c = |det B| M_row^T C M_col and the reference tensor
    R = sum_q w_q ref_r (x) ref_s.
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
        ref = space.family.rule_derivatives if derivative else space.family.rule_values
        sides.append((_as_vector_tab(ref), _pullback(space.family, derivative, geo), ref.ndim == 3))
    (ref_r, M_r, row_vec), (ref_c, M_c, col_vec) = sides
    if row_vec != col_vec:
        raise ValueError("mixed scalar/vector integrand; operator pairing is inconsistent")

    C = _coefficient_matrix(coefficient, mesh.dim, row_vec)
    G = (np.transpose(M_r, (0, 2, 1)) @ C @ M_c) * geo.absdet[:, None, None]
    R = np.einsum("rqa,sqb,q->abrs", ref_r, ref_c, rule.weights)
    nr, ns = ref_r.shape[0], ref_c.shape[0]
    local = G.reshape(mesh.num_cells, -1) @ R.reshape(-1, nr * ns)
    return scatter_cell_blocks(local.reshape(-1, nr, ns), row_space.cell_dofs,
                               col_space.cell_dofs, (row_space.ndofs, col_space.ndofs))


def scatter_cell_blocks(local: np.ndarray, row_dofs: np.ndarray, col_dofs: np.ndarray, shape):
    """Sum the cell blocks local (nc, r, s) into CSR at rows row_dofs[c], cols col_dofs[c]."""
    nr, ns = local.shape[1:]
    rows = np.repeat(row_dofs, ns, axis=1)
    cols = np.tile(col_dofs, (1, nr))
    A = sp.coo_matrix((local.ravel(), (rows.ravel(), cols.ravel())), shape=shape).tocsr()
    A.eliminate_zeros()     # sums that cancel to 0.0 would steer the LU ordering
    return A


def assemble_mass(space: DiscreteSpace, coefficient=1.0) -> sp.csr_matrix:
    return assemble_stiffness_like(space, space, "identity", coefficient)


def assemble_derivative(space_from: DiscreteSpace, space_to: DiscreteSpace) -> sp.csr_matrix:
    """Global derivative matrix D: DOFs of d(u) from DOFs of u.

    Shared target DOFs receive identical values from every incident
    cell (the image of the derivative is single-valued), so each row of
    D is read from one cell that holds its DOF: one fancy assignment of
    the running (cell, local row) number over the target cell DOFs picks
    that cell and its local row together.  Every other cell's
    contribution is then checked against the stored entry of its
    (row, col), 0 where the stored row has no such column; a mismatch
    raises DerivativeNotSingleValuedError.
    """
    if space_from.mesh is not space_to.mesh:
        raise ValueError("spaces live on different meshes")
    fam_f, fam_t = space_from.family, space_to.family
    L = local_derivative_matrix(fam_f, fam_t)
    mesh = space_from.mesh
    into_density = fam_t.mapping == "l2" and fam_f.mapping in ("covariant", "contravariant")

    def contribution(cell, local):
        """Local rows of D in the given cells, over their source DOFs."""
        return L[local] / mesh.geometry.detB[cell, None] if into_density else L[local]

    n_to, n_from = L.shape
    to_dofs, from_dofs = space_to.cell_dofs.ravel(), space_from.cell_dofs
    position = np.arange(to_dofs.size)         # running (cell, local row) number
    owner = np.full(space_to.ndofs, -1, dtype=np.int64)
    owner[to_dofs] = position
    held = np.flatnonzero(owner >= 0)
    cell, local = np.divmod(owner[held], n_to)
    indptr = np.zeros(space_to.ndofs + 1, dtype=np.int64)
    indptr[held + 1] = n_from
    D = sp.csr_matrix((contribution(cell, local).ravel(), from_dofs[cell].ravel(), np.cumsum(indptr)),
                      shape=(space_to.ndofs, space_from.ndofs))
    D.sort_indices()

    other = np.flatnonzero(owner[to_dofs] != position)
    if other.size:      # scipy returns a sparse matrix, not values, for empty indices
        cell, local = np.divmod(other, n_to)
        mine = contribution(cell, local)
        rows, cols = np.repeat(to_dofs[other], n_from), from_dofs[cell].ravel()
        stored = np.asarray(D[rows, cols]).reshape(mine.shape)
        bad = np.flatnonzero(np.abs(mine - stored) > 1e-9 * max(np.abs(L).max(), 1.0))
        if bad.size:
            i = bad[0]
            raise DerivativeNotSingleValuedError(
                f"derivative DOF {(int(rows[i]), int(cols[i]))} double-valued: "
                f"{stored.flat[i]} vs {mine.flat[i]}")
    D.eliminate_zeros()
    return D


# -- canonical projection ------------------------------------------------------


def canonical_projection(space: DiscreteSpace, f) -> np.ndarray:
    """DOF vector of the canonical interpolant of a smooth field.

    `f` is a callable mapping points (N, dim) to (N,) scalars or (N, dim)
    vectors, matching the family's value kind (for a Poly or VecPoly,
    pass its `eval`).  The family's DOFs on the entities of each dimension k are applied to
    all global k-entities at once, each entity framed by its ascending
    vertex tuple, so the result restricted to any cell coincides with
    the reference-element DOFs of the pulled-back field.  Cell DOFs see
    the field through the family's Piola pullback.  The field is called
    once per entity kind, on the quadrature points of all its entities.
    """
    mesh, fam = space.mesh, space.family
    layout = fam.dof_entity_layout()
    blocks = []
    for k in range(mesh.dim + 1):
        dofs = [fam.dofs[p] for p in layout.get((k, 0), ())]
        if not dofs:
            continue
        verts = mesh.vertices[mesh.entities[k]]
        b, A = verts[:, 0], np.swapaxes(verts[:, 1:] - verts[:, :1], 1, 2)
        pullback = None
        if k == mesh.dim and fam.mapping in ("covariant", "contravariant"):
            geo = mesh.geometry
            pullback = geo.B if fam.mapping == "covariant" else \
                np.swapaxes(geo.Binv, 1, 2) * geo.detB[:, None, None]
        blocks.append(dof_moments(dofs, b, A, f, pullback).ravel())
    return np.concatenate(blocks)


def _evaluate(space: DiscreteSpace, u, derivative: bool):
    fam = space.family
    geo = space.mesh.geometry
    rule = simplex_rule(space.mesh.dim)
    ref = fam.rule_derivatives if derivative else fam.rule_values
    vals = _field_values(space, u, ref, _pullback(fam, derivative, geo))
    wdet = rule.weights[None, :] * geo.absdet[:, None]
    return geo.push_points(rule.points), wdet, vals if ref.ndim == 3 else vals[:, :, 0]


def evaluate_on_cells(space: DiscreteSpace, u):
    """Field values of a DOF vector at quadrature points of every cell.

    Returns (physical points (nc, nq, dim), weights*|det| (nc, nq),
    values (nc, nq) or (nc, nq, dim)).
    """
    return _evaluate(space, u, False)


def evaluate_derivative_on_cells(space: DiscreteSpace, u):
    """Exterior-derivative values of a DOF vector at cell quadrature points.

    Gradient spaces give (nc, nq, dim), 2D curl and div give (nc, nq),
    3D curl gives (nc, nq, 3).  Same return layout as evaluate_on_cells.
    """
    return _evaluate(space, u, True)


def assemble_load(space: DiscreteSpace, f) -> np.ndarray:
    """Load vector int f . phi_i dx against every global basis function.

    `f` is a callable mapping points (N, dim) to (N,) scalars or (N, dim)
    vectors, matching the family's value kind.
    """
    mesh = space.mesh
    geo = mesh.geometry
    rule = simplex_rule(mesh.dim)
    ref = _as_vector_tab(space.family.rule_values)
    M = _pullback(space.family, False, geo)
    pts = geo.push_points(rule.points)
    fv = np.asarray(f(pts.reshape(-1, mesh.dim))).reshape(mesh.num_cells, rule.weights.size, -1)
    wdet = rule.weights[None, :] * geo.absdet[:, None]
    pulled = np.einsum("cij,cqi->cqj", M, fv) * wdet[:, :, None]
    local = pulled.reshape(mesh.num_cells, -1) @ ref.reshape(ref.shape[0], -1).T
    out = np.zeros(space.ndofs)
    np.add.at(out, space.cell_dofs, local)
    return out
