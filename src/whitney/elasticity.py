"""Lowest-order conforming mixed elasticity on triangles.

The stress element is the 24-DOF symmetric-matrix triangle whose shape
space is S_T = {tau in P3(T, S) : div tau in P1(T, R^2)}: all quadratic
symmetric fields plus the divergence-reduced cubics (30 coefficients
minus 6 independent constraints).  Displacements are discontinuous
piecewise linear vector fields.

The stress element is not generated from a reference cell by a Piola
map (its DOF set is not affine-equivariant); each cell carries its own
nodal basis, built in centered, diameter-scaled coordinates for
conditioning.  DOFs are defined by global conventions so that shared
entities induce shared functionals:

* 9 vertex values: the components (s11, s12, s22) at each vertex,
* 12 edge moments: int_e (tau n)_c s^j ds for Cartesian components
  c in {x, y} and degrees j in {0, 1}, with s the arclength parameter
  ascending from the lower-indexed endpoint and n the unnormalized
  clockwise rotation of the edge vector,
* 3 interior means: (1/|T|) int_T tau_c dx per component.

Edge moments plus endpoint values pin all four coefficients of each
cubic component of tau n along an edge, so the assembled fields are
H(div, S)-conforming with single-valued vertex stresses.

The per-cell bases are computed for all cells at once: the DOF tables
are a (cells, 24, 30) stack, dualized by one batched condition number
and one stacked solve, and every global operator is a contraction of the
stacked nodal coefficients followed by a single sparse scatter.
"""
from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from .elements import get_family, moment_rule
from .linalg import numerical_rank, symmetric_indefinite_solve
from .mesh import Mesh
from .poly import Poly, SymPoly, monomial_exponents
from .quadrature import interval_rule, triangle_rule
from .spaces import (
    DiscreteSpace,
    assemble_load,
    assemble_mass,
    build_space,
    canonical_projection,
    evaluate_on_cells,
)

P3 = monomial_exponents(2, 3)           # 10 monomials per component
P2 = monomial_exponents(2, 2)           # 6 monomials of a divergence
NCOEF = 3 * len(P3)                     # 30 coefficients of P3(T, S)
NDOF = 24
DEGENERACY_TOL = 1e-10                  # area >= tol * diameter^2
COND_MAX = 1e12                         # dualization guard per cell

# local DOF order: 9 vertex values (vertex-major, components s11 s12 s22),
# then 12 edge moments (lexicographic local edges, slot = component*2 +
# degree), then 3 interior means
_EDGE_LOCAL = ((0, 1), (0, 2), (1, 2))
# rows of tau as index pairs into (s11, s12, s22)
_ROWS = ((0, 1), (1, 2))


def _monomials(points: np.ndarray, exponents) -> np.ndarray:
    """Monomial values at points (..., 2): shape (..., len(exponents))."""
    x, y = points[..., 0], points[..., 1]
    return np.stack([x ** a * y ** b for a, b in exponents], axis=-1)


@lru_cache(maxsize=1)
def _divergence_operator() -> np.ndarray:
    """(12, 30) map from P3(T,S) coefficients to div coefficients on P2.

    Row layout: component-major over P2 monomials; column layout:
    component blocks (s11, s12, s22) over P3 monomials.
    """
    index2 = {e: i for i, e in enumerate(P2)}
    D = np.zeros((2 * len(P2), NCOEF))
    for block in range(3):
        for j, e in enumerate(P3):
            col = block * len(P3) + j
            for comp in range(2):
                if block not in _ROWS[comp]:
                    continue
                axis = _ROWS[comp].index(block)
                if e[axis] == 0:
                    continue
                lower = list(e)
                lower[axis] -= 1
                D[comp * len(P2) + index2[tuple(lower)], col] += e[axis]
    return D


@lru_cache(maxsize=1)
def _shape_null_space() -> np.ndarray:
    """(24, 30) orthonormal coefficient basis of the constrained space.

    The constraint kills the strictly quadratic part of the divergence:
    6 rows of the divergence operator, independent by construction.
    """
    u, svals, vt = sla.svd(constraint_matrix())
    rank = int(np.count_nonzero(svals > 1e-12 * svals[0]))
    if rank != 6:
        raise RuntimeError(f"divergence constraint rank {rank}, expected 6")
    return vt[rank:]


def constraint_matrix() -> np.ndarray:
    """The (6, 30) map from coefficients to the quadratic part of div."""
    strict = [i for i, e in enumerate(P2) if sum(e) == 2]
    rows = np.concatenate([np.asarray(strict), len(P2) + np.asarray(strict)])
    return _divergence_operator()[rows].copy()


def _coeffs_to_sympoly(coeffs: np.ndarray) -> SymPoly:
    comps = []
    for block in range(3):
        terms = {e: c for e, c in zip(P3, coeffs[block * len(P3):(block + 1) * len(P3)])}
        comps.append(Poly(2, terms))
    return SymPoly(*comps)


def aw_shape_space(vertices) -> list[SymPoly]:
    """Orthonormal basis of S_T in centered, scaled local coordinates."""
    _triangle_sizes(_one_triangle(vertices)[None])
    return [_coeffs_to_sympoly(row) for row in _shape_null_space()]


def _one_triangle(vertices) -> np.ndarray:
    vertices = np.asarray(vertices, dtype=float)
    if vertices.shape != (3, 2):
        raise ValueError(f"triangle needs 3 plane vertices, got {vertices.shape}")
    return vertices


def _triangle_sizes(vertices: np.ndarray):
    """(area, diameter) of stacked triangles (nc, 3, 2); rejects slivers."""
    edges = vertices[:, [0, 0, 1]] - vertices[:, [1, 2, 2]]
    area = 0.5 * np.abs(edges[:, 0, 0] * edges[:, 1, 1] - edges[:, 0, 1] * edges[:, 1, 0])
    # edge lengths as a dot product, rounded like np.linalg.norm of one edge
    diam = np.sqrt((edges[:, :, None, :] @ edges[:, :, :, None])[:, :, 0, 0]).max(axis=1)
    if np.any(area < DEGENERACY_TOL * diam ** 2):
        raise ValueError("degenerate triangle")
    return area, diam


def _dof_matrix_on_monomials(vertices: np.ndarray, origin, scale) -> np.ndarray:
    """(nc, 24, 30) stack: each DOF applied to each single-monomial field,
    for triangles (nc, 3, 2) in frames (origin (nc, 2), scale (nc,))."""
    nc, nmono = vertices.shape[0], len(P3)
    W = np.zeros((nc, NDOF, 3, nmono))
    origin, scale = origin[:, None, :], scale[:, None, None]

    vmono = _monomials((vertices - origin) / scale, P3)          # (nc, 3, 10)
    for comp in range(3):
        W[:, comp:9:3, comp] = vmono

    erule = interval_rule()
    s = erule.points[:, 0]
    smom = np.stack([erule.weights, erule.weights * s])           # (2, nq)
    for le, (a, b) in enumerate(_EDGE_LOCAL):
        pa, t = vertices[:, a], vertices[:, b] - vertices[:, a]
        pts = (pa[:, None, :] + s[None, :, None] * t[:, None, :] - origin) / scale
        moments = smom @ _monomials(pts, P3)                      # (nc, 2, 10)
        for comp, (r1, r2) in enumerate(_ROWS):
            rows = slice(9 + le * 4 + comp * 2, 11 + le * 4 + comp * 2)
            # n = (t_y, -t_x), the clockwise rotation of the edge vector
            W[:, rows, r1] = t[:, 1, None, None] * moments
            W[:, rows, r2] = -t[:, 0, None, None] * moments

    trule = triangle_rule()
    B = np.stack([vertices[:, 1] - vertices[:, 0], vertices[:, 2] - vertices[:, 0]], axis=2)
    phys = vertices[:, None, 0] + trule.points @ np.swapaxes(B, 1, 2)
    mono = _monomials((phys - origin) / scale, P3)               # (nc, nq, 10)
    # weights sum to 1/2; contiguous (nc, 10, nq) rows round like one triangle's
    means = 2.0 * (np.ascontiguousarray(np.swapaxes(mono, 1, 2)) @ trule.weights)
    for comp in range(3):
        W[:, 21 + comp, comp] = means
    return W.reshape(nc, NDOF, NCOEF)


def _dualize(vertices: np.ndarray):
    """Nodal bases of stacked triangles (nc, 3, 2).

    Returns (area, origin, scale, coeffs (nc, 24, 30), cond (nc,)): the
    frames are centroid and diameter, and coeffs[c] holds the nodal
    fields dual to the 24 DOFs as rows over the P3(T, S) monomials.
    """
    area, scale = _triangle_sizes(vertices)
    origin = vertices.mean(axis=1)
    null = _shape_null_space()
    V = _dof_matrix_on_monomials(vertices, origin, scale) @ null.T   # dofs x shape basis
    cond = np.linalg.cond(V)
    bad = ~(cond <= COND_MAX)
    if bad.any():
        raise RuntimeError(
            f"stress element dualization ill-conditioned: {np.max(cond[bad]):.2e}")
    # nodal_j = sum_i X[i, j] shape_i with V X = I, so rows of X^T null
    coeffs = np.linalg.solve(np.swapaxes(V, 1, 2), np.broadcast_to(null, (len(V),) + null.shape))
    return area, origin, scale, coeffs, cond


@dataclass
class AWCell:
    """Nodal stress basis of one triangle in its scaled local frame."""

    vertices: np.ndarray
    origin: np.ndarray
    scale: float
    area: float
    coeffs: np.ndarray        # (24, 30) nodal coefficients, scaled coords
    cond: float

    def local_points(self, points: np.ndarray) -> np.ndarray:
        return (np.asarray(points, dtype=float) - self.origin) / self.scale

    def tabulate(self, points: np.ndarray) -> np.ndarray:
        """(24, npoints, 3) stress components at physical points."""
        mono = _monomials(self.local_points(points), P3).T
        vals = self.coeffs.reshape(NDOF, 3, len(P3)) @ mono
        return np.transpose(vals, (0, 2, 1))

    def nodal_fields(self) -> list[SymPoly]:
        return [_coeffs_to_sympoly(row) for row in self.coeffs]


def aw_nodal_basis(vertices) -> AWCell:
    """Dualize the shape basis against the 24 DOFs of one triangle."""
    vertices = _one_triangle(vertices)
    area, origin, scale, coeffs, cond = _dualize(vertices[None])
    return AWCell(vertices, origin[0], float(scale[0]), float(area[0]), coeffs[0],
                  float(cond[0]))


@dataclass(frozen=True)
class UnisolvenceReport:
    rank: int
    cond: float
    passed: bool

    def to_dict(self):
        return {"rank": self.rank, "cond": self.cond, "pass": self.passed}


def aw_unisolvence_check(vertices) -> UnisolvenceReport:
    """Rank and conditioning of the DOF matrix on the shape basis."""
    vertices = _one_triangle(vertices)[None]
    _, diam = _triangle_sizes(vertices)
    W = _dof_matrix_on_monomials(vertices, vertices.mean(axis=1), diam)[0]
    V = W @ _shape_null_space().T
    rank = numerical_rank(V)
    return UnisolvenceReport(rank, float(np.linalg.cond(V)), rank == NDOF)


# -- global spaces ---------------------------------------------------------


@dataclass
class StressSpace:
    """Global H(div, S) stress space: 3 DOFs/vertex + 4/edge + 3/cell.

    The nodal bases of all cells are stacked: cell c maps physical
    points x to local coordinates (x - origin[c]) / scale[c], where its
    24 nodal fields have the P3(T, S) coefficients coeffs[c].
    """

    mesh: Mesh
    ndofs: int
    cell_dofs: np.ndarray          # (num_cells, 24)
    origin: np.ndarray             # (num_cells, 2)
    scale: np.ndarray              # (num_cells,)
    coeffs: np.ndarray             # (num_cells, 24, 30)
    cond: np.ndarray               # (num_cells,) dualization condition numbers

    @property
    def num_cells(self):
        return self.mesh.num_cells

    @property
    def cells(self) -> Sequence:
        """cells[c] is the AWCell of cell c, a view of the stacked basis."""
        return _CellViews(self)

    def local_points(self, points: np.ndarray) -> np.ndarray:
        """Physical points (num_cells, nq, 2) in each cell's local frame."""
        return (points - self.origin[:, None, :]) / self.scale[:, None, None]


class _CellViews(Sequence):
    def __init__(self, space: StressSpace):
        self._space = space

    def __len__(self):
        return self._space.num_cells

    def __getitem__(self, c):
        space, mesh = self._space, self._space.mesh
        return AWCell(mesh.vertices[mesh.cells[c]], space.origin[c], float(space.scale[c]),
                      float(0.5 * mesh.geometry.absdet[c]), space.coeffs[c],
                      float(space.cond[c]))


def build_stress_space(mesh: Mesh) -> StressSpace:
    if mesh.dim != 2:
        raise ValueError("stress elements are two-dimensional")
    nv, ne, nt = mesh.num_vertices, mesh.num_entities(1), mesh.num_cells
    ndofs = 3 * nv + 4 * ne + 3 * nt
    edge_base, cell_base = 3 * nv, 3 * nv + 4 * ne
    cell_dofs = np.concatenate([
        (3 * mesh.cells[:, :, None] + np.arange(3)).reshape(nt, 9),
        (edge_base + 4 * mesh.cell_subentities(1)[:, :, None] + np.arange(4)).reshape(nt, 12),
        cell_base + 3 * np.arange(nt)[:, None] + np.arange(3)], axis=1)
    _, origin, scale, coeffs, cond = _dualize(mesh.vertices[mesh.cells])
    return StressSpace(mesh, ndofs, cell_dofs, origin, scale, coeffs, cond)


@dataclass
class DisplacementSpace:
    """Discontinuous P1 vectors: both components in the scalar dg1 space.

    DOF (cell, comp, slot) -> cell*6 + comp*3 + slot, where cell*3 + slot
    is the dg1 DOF of `scalar` (interior moments against 1, x, y in
    reference coordinates, normalized by the cell measure).
    """

    scalar: DiscreteSpace

    @property
    def mesh(self) -> Mesh:
        return self.scalar.mesh

    @property
    def ndofs(self) -> int:
        return 2 * self.scalar.ndofs

    @property
    def num_cells(self):
        return self.mesh.num_cells


def build_displacement_space(mesh: Mesh) -> DisplacementSpace:
    if mesh.dim != 2:
        raise ValueError("displacement space is two-dimensional")
    return DisplacementSpace(build_space(mesh, "dg1"))


def _interleave(v0, v1) -> np.ndarray:
    """Displacement DOF vector from the dg1 DOF vectors of its components."""
    return np.stack([v0.reshape(-1, 3), v1.reshape(-1, 3)], axis=1).ravel()


def displacement_mass(space: DisplacementSpace) -> sp.csr_matrix:
    """Block-diagonal L2 Gram of the per-cell nodal P1 vector basis."""
    M = assemble_mass(space.scalar)
    # position of each interleaved DOF in the component-major block_diag([M, M])
    order = _interleave(*np.arange(2 * M.shape[0]).reshape(2, -1))
    return sp.block_diag([M, M], format="csr")[order][:, order]


def displacement_projection(space: DisplacementSpace, f) -> np.ndarray:
    """Moment DOFs of a smooth vector field (its cellwise P1 projection)."""
    return _interleave(*[canonical_projection(space.scalar, lambda x: np.asarray(f(x))[:, comp])
                         for comp in (0, 1)])


def evaluate_displacement(space: DisplacementSpace, u: np.ndarray, rule=None):
    """(points, weights*|det|, values (nc, nq, 2)) of a DOF vector."""
    comps = [evaluate_on_cells(space.scalar, u.reshape(-1, 2, 3)[:, comp].ravel(), rule)
             for comp in (0, 1)]
    pts, wdet, _ = comps[0]
    return pts, wdet, np.stack([vals for _, _, vals in comps], axis=-1)


def evaluate_stress(space: StressSpace, sigma: np.ndarray, rule=None):
    """(points, weights*|det|, values (nc, nq, 3)) of a stress DOF vector."""
    rule = rule or triangle_rule()
    geo = space.mesh.geometry
    pts = geo.push_points(rule.points)
    coef = np.einsum("cs,csk->ck", sigma[space.cell_dofs], space.coeffs)
    mono = _monomials(space.local_points(pts), P3)                 # (nc, nq, 10)
    vals = np.einsum("cik,cqk->cqi", coef.reshape(-1, 3, len(P3)), mono)
    wdet = rule.weights[None, :] * geo.absdet[:, None]
    return pts, wdet, vals


def _scatter(local: np.ndarray, row_dofs: np.ndarray, col_dofs: np.ndarray, shape):
    """Sum the cell blocks local (nc, r, s) into a CSR matrix."""
    nr, ns = local.shape[1:]
    rows = np.repeat(row_dofs, ns, axis=1)
    cols = np.tile(col_dofs, (1, nr))
    return sp.coo_matrix((local.ravel(), (rows.ravel(), cols.ravel())), shape=shape).tocsr()


# -- global operators -------------------------------------------------------


def compliance_coefficients(lam: float, mu: float) -> tuple[float, float]:
    """(a1, a2) with C^-1 sigma = a1 (sigma - a2 tr(sigma) I) in 2D."""
    if mu <= 0.0 or lam < 0.0:
        raise ValueError("need mu > 0 and lam >= 0")
    return 1.0 / (2.0 * mu), lam / (2.0 * mu + 2.0 * lam)


def assemble_compliance(space: StressSpace, lam: float = 1.0, mu: float = 1.0) -> sp.csr_matrix:
    """Global int C^-1 sigma : tau with constant isotropic moduli.

    With G_c the Gram matrix of the local monomials on cell c, the
    local matrix is sum_ij K_ij C_i G_c C_j^T over the component blocks
    C_i of the nodal coefficients, where sigma : tau = s11 t11 + 2 s12
    t12 + s22 t22 and K = a1 (diag(1, 2, 1) - a2 e e^T), e = (1, 0, 1)
    picking out the trace.
    """
    a1, a2 = compliance_coefficients(lam, mu)
    rule = triangle_rule()
    geo = space.mesh.geometry
    mono = _monomials(space.local_points(geo.push_points(rule.points)), P3)   # (nc, nq, 10)
    wdet = rule.weights[None, :] * geo.absdet[:, None]
    gram = np.swapaxes(mono * wdet[:, :, None], 1, 2) @ mono                 # (nc, 10, 10)
    trace = np.array([1.0, 0.0, 1.0])
    K = a1 * (np.diag([1.0, 2.0, 1.0]) - a2 * np.outer(trace, trace))
    C = space.coeffs.reshape(-1, NDOF, 3, len(P3))
    KCG = np.einsum("ij,csjn->csin", K, C @ gram[:, None])
    local = KCG.reshape(-1, NDOF, NCOEF) @ np.swapaxes(space.coeffs, 1, 2)
    return _scatter(local, space.cell_dofs, space.cell_dofs, (space.ndofs, space.ndofs))


def assemble_divergence(space: StressSpace, disp: DisplacementSpace) -> sp.csr_matrix:
    """DOF matrix of div: (div sigma)'s displacement DOFs = D sigma."""
    # the dg1 interior moments of each component of div sigma
    y, W = moment_rule(get_family("dg1").dofs, 2)
    pts = space.mesh.geometry.push_points(y)
    p2 = _monomials(space.local_points(pts), P2)                   # (nc, nq, 6)
    dcoef = (space.coeffs @ _divergence_operator().T) / space.scale[:, None, None]
    dcoef = dcoef.reshape(-1, NDOF, 2, len(P2))
    local = np.einsum("csik,cqk,mq->cims", dcoef, p2, W, optimize=True)
    nc = space.num_cells
    rows = 6 * np.arange(nc)[:, None] + np.arange(6)
    return _scatter(local.reshape(nc, 6, NDOF), rows, space.cell_dofs,
                    (disp.ndofs, space.ndofs))


def assemble_coupling(space: StressSpace, disp: DisplacementSpace) -> sp.csr_matrix:
    """b(sigma, v) = int div sigma . v, rows over displacement DOFs: the
    displacement mass times the divergence DOF matrix."""
    return (displacement_mass(disp) @ assemble_divergence(space, disp)).tocsr()


def load_vector(disp: DisplacementSpace, f) -> np.ndarray:
    """int f . v_k over the displacement nodal basis."""
    return _interleave(*[assemble_load(disp.scalar, lambda x: np.asarray(f(x))[:, comp])
                         for comp in (0, 1)])


def interpolate_stress(space: StressSpace, field) -> np.ndarray:
    """Canonical stress interpolant of a smooth field.

    field maps (N, 2) points to (N, 3) components (s11, s12, s22).
    Shared DOFs are evaluated once per global entity.
    """
    mesh = space.mesh
    out = np.zeros(space.ndofs)
    vals = np.asarray(field(mesh.vertices))
    out[:3 * mesh.num_vertices] = vals.reshape(-1)

    erule = interval_rule()
    s = erule.points[:, 0]
    smom = np.stack([erule.weights, erule.weights * s])
    pa, pb = mesh.vertices[mesh.entities[1][:, 0]], mesh.vertices[mesh.entities[1][:, 1]]
    t = pb - pa
    normal = np.stack([t[:, 1], -t[:, 0]], axis=1)
    pts = pa[:, None, :] + s[None, :, None] * t[:, None, :]
    comp = np.asarray(field(pts.reshape(-1, 2))).reshape(len(t), len(s), 3)
    # traction (tau n)_c = tau_{c,x} n_x + tau_{c,y} n_y, rows of tau from _ROWS
    traction = np.stack([comp[:, :, r1] * normal[:, None, 0] + comp[:, :, r2] * normal[:, None, 1]
                         for r1, r2 in _ROWS], axis=1)                # (ne, 2, nq)
    edge_base = 3 * mesh.num_vertices
    out[edge_base:edge_base + 4 * len(t)] = (traction @ smom.T).reshape(-1)

    trule = triangle_rule()
    pts = mesh.geometry.push_points(trule.points)
    vals = np.asarray(field(pts.reshape(-1, 2))).reshape(mesh.num_cells, -1, 3)
    means = 2.0 * np.einsum("cqi,q->ci", vals, trule.weights)
    cell_base = 3 * mesh.num_vertices + 4 * mesh.num_entities(1)
    out[cell_base:] = means.reshape(-1)
    return out


def commutativity_residual(mesh: Mesh, degree: int = 3) -> float:
    """max over symmetric monomial fields of |D Pi_S(tau) - Pi_V(div tau)|.

    Relative to the projected divergence; the battery places every
    monomial of total degree <= degree in each component slot.
    """
    stress = build_stress_space(mesh)
    disp = build_displacement_space(mesh)
    D = assemble_divergence(stress, disp)
    zero = Poly.constant(2, 0.0)
    worst = 0.0
    for block in range(3):
        for e in monomial_exponents(2, degree):
            comps = [zero, zero, zero]
            comps[block] = Poly.monomial(2, e)
            tau = SymPoly(*comps)
            div = tau.div()
            lhs = D @ interpolate_stress(stress, tau.eval)
            rhs = displacement_projection(disp, div.eval)
            scale = max(1.0, np.abs(rhs).max())
            worst = max(worst, np.abs(lhs - rhs).max() / scale)
    return worst


# -- mixed solver ------------------------------------------------------------


@dataclass
class ElasticitySolution:
    stress_space: StressSpace
    displacement_space: DisplacementSpace
    sigma: np.ndarray
    u: np.ndarray
    equilibrium_residual: float


def solve_mixed_elasticity(mesh: Mesh, lam: float = 1.0, mu: float = 1.0,
                           f=None) -> ElasticitySolution:
    """Saddle-point solve of the stress-displacement system.

    Finds (sigma, u) with int C^-1 sigma : tau + int u . div tau = 0 and
    int div sigma . v = -int f . v for all (tau, v): the classical
    equilibrium -div sigma = f, with u = 0 on the boundary encoded
    weakly by the first equation.  The reported equilibrium residual is
    max |D sigma + Pi_V f| over the displacement DOFs, which the
    discrete equations satisfy up to solver roundoff.
    """
    if f is None:
        raise ValueError("need a load f(points) -> (N, 2)")
    stress = build_stress_space(mesh)
    disp = build_displacement_space(mesh)
    D = assemble_divergence(stress, disp)
    Bm = (displacement_mass(disp) @ D).tocsr()
    F = load_vector(disp, f)
    # assembled inline and in the solver's format, so that neither the
    # compliance matrix nor a CSR copy of K lives through the factorization
    K = sp.bmat([[assemble_compliance(stress, lam, mu), Bm.T], [Bm, None]], format="csc")
    rhs = np.concatenate([np.zeros(stress.ndofs), -F])
    x = symmetric_indefinite_solve(K, rhs)
    sigma, u = x[:stress.ndofs], x[stress.ndofs:]
    target = displacement_projection(disp, f)
    resid = np.abs(D @ sigma + target).max() / max(1.0, np.abs(target).max())
    return ElasticitySolution(stress, disp, sigma, u, float(resid))


def manufactured_solution(lam: float = 1.0, mu: float = 1.0):
    """(u, sigma, f) callables for u = (sin(pi x) sin(pi y), 0).

    sigma = 2 mu eps(u) + lam tr(eps) I and f = -div sigma; u vanishes
    on the boundary of the unit square, matching the weak Dirichlet
    condition of the mixed form.
    """
    def u(points):
        x, y = points[:, 0], points[:, 1]
        return np.stack([np.sin(np.pi * x) * np.sin(np.pi * y),
                         np.zeros_like(x)], axis=-1)

    def sigma(points):
        x, y = points[:, 0], points[:, 1]
        e11 = np.pi * np.cos(np.pi * x) * np.sin(np.pi * y)
        e12 = 0.5 * np.pi * np.sin(np.pi * x) * np.cos(np.pi * y)
        s11 = (2.0 * mu + lam) * e11
        s12 = 2.0 * mu * e12
        s22 = lam * e11
        return np.stack([s11, s12, s22], axis=-1)

    def f(points):
        x, y = points[:, 0], points[:, 1]
        ss = np.sin(np.pi * x) * np.sin(np.pi * y)
        cc = np.cos(np.pi * x) * np.cos(np.pi * y)
        return np.stack([(3.0 * mu + lam) * np.pi ** 2 * ss,
                         -(mu + lam) * np.pi ** 2 * cc], axis=-1)

    return u, sigma, f


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
