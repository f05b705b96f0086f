"""Lowest-order conforming mixed elasticity on triangles.

The stress element is the 24-DOF symmetric-matrix triangle whose shape
space is S_T = {tau in P3(T, S) : div tau in P1(T, R^2)}: all quadratic
symmetric fields plus the divergence-reduced cubics (30 coefficients
minus 6 independent constraints).  Displacements are discontinuous
piecewise linear vector fields.

The stress element is not generated from a reference cell by a Piola
map (its DOF set is not affine-equivariant); each cell has its own
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

One DOF applicator (_stress_dofs) applies these functionals on stacked
entities: the canonical interpolant runs it on the global vertices,
edges and cells, the per-cell DOF tables on each cell's own entities
with the 10 cubic monomials in one component as a batch, from which
the table over the 30 monomial fields of P3(T, S) is placed.  The
bases exist only as stacked arrays, with no per-cell objects: the
(cells, 24, 30) DOF tables are dualized by one batched condition number
and one stacked solve, and every global operator is a contraction of
the stacked nodal coefficients followed by a single sparse scatter.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from .elements import _read_only, get_family, moment_rule
from .linalg import RANK_RTOL, CheckFailedError, symmetric_indefinite_solve
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
    scatter_cell_blocks,
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
    # each power once; repeated products would round differently from pow
    xa = {a: x ** a for a in {a for a, _ in exponents}}
    yb = {b: y ** b for b in {b for _, b in exponents}}
    out = np.empty(x.shape + (len(exponents),))
    for k, (a, b) in enumerate(exponents):
        np.multiply(xa[a], yb[b], out=out[..., k])
    return out


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
    return _read_only(D)


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
    return _read_only(vt[rank:])


def constraint_matrix() -> np.ndarray:
    """The (6, 30) map from coefficients to the quadratic part of div."""
    strict = [i for i, e in enumerate(P2) if sum(e) == 2]
    rows = np.concatenate([np.asarray(strict), len(P2) + np.asarray(strict)])
    return _divergence_operator()[rows]


def _triangle_sizes(vertices: np.ndarray):
    """(area, diameter) of stacked triangles (nc, 3, 2); rejects slivers."""
    edges = vertices[:, [0, 0, 1]] - vertices[:, [1, 2, 2]]
    area = 0.5 * np.abs(edges[:, 0, 0] * edges[:, 1, 1] - edges[:, 0, 1] * edges[:, 1, 0])
    # edge lengths as a dot product, rounded like np.linalg.norm of one edge
    diam = np.sqrt((edges[:, :, None, :] @ edges[:, :, :, None])[:, :, 0, 0]).max(axis=1)
    if np.any(area < DEGENERACY_TOL * diam ** 2):
        raise ValueError("degenerate triangle")
    return area, diam


def _stress_dofs(points: np.ndarray, edges: np.ndarray, triangles: np.ndarray, f):
    """The 24 stress DOFs of a field on stacked entities.

    f maps points (N, 2) to values (N, ..., 3) in (s11, s12, s22); the
    batch axes "..." are kept.  Edges (n1, 2) are parametrized from
    their first vertex and triangles (n2, 3) from theirs.  Returns the
    vertex values (n0, 3, ...), the traction moments (n1, 4, ...) in
    slot order component*2 + degree, and the interior means (n2, 3, ...).
    """
    vertex = np.moveaxis(np.asarray(f(points)), -1, 1)

    erule = interval_rule()
    s = erule.points[:, 0]
    smom = np.stack([erule.weights, erule.weights * s])           # (2, nq)
    pa = points[edges[:, 0]]
    t = points[edges[:, 1]] - pa
    pts = pa[:, None, :] + s[None, :, None] * t[:, None, :]
    vals = np.asarray(f(pts.reshape(-1, 2)))
    batch = vals.shape[1:-1]
    m = (smom @ vals.reshape(len(t), len(s), -1)).reshape(len(t), 2, -1, 3)
    # traction (tau n)_c with n = (t_y, -t_x), the clockwise rotation of
    # the edge vector; rows of tau from _ROWS
    traction = np.stack([t[:, 1, None, None] * m[..., r1] - t[:, 0, None, None] * m[..., r2]
                         for r1, r2 in _ROWS], axis=1)

    trule = triangle_rule()
    tri = points[triangles]
    B = np.stack([tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0]], axis=2)
    phys = tri[:, None, 0] + trule.points @ np.swapaxes(B, 1, 2)
    vals = np.asarray(f(phys.reshape(-1, 2))).reshape(phys.shape[:2] + batch + (3,))
    # weights sum to 1/2; contiguous (n2, 3, ..., nq) rows round like one triangle's
    vals = np.ascontiguousarray(np.moveaxis(vals, (1, -1), (-1, 1)))
    return vertex, traction.reshape((len(t), 4) + batch), 2.0 * (vals @ trule.weights)


def _dof_matrix_on_monomials(vertices: np.ndarray, origin, scale) -> np.ndarray:
    """(nc, 24, 30) stack: each DOF applied to each single-monomial field,
    for triangles (nc, 3, 2) in frames (origin (nc, 2), scale (nc,)).

    The DOFs run once, on the 10 monomials in component s12.  A monomial
    in any one component has the same vertex values and means, and tau n
    = (t_y s11 - t_x s12, t_y s12 - t_x s22) takes from its two rows the
    -t_x and t_y multiples of the edge moments.
    """
    nc = vertices.shape[0]
    origin, scale = origin[:, None, :], scale[:, None, None]

    def monomials_in_s12(points):
        """(N, 10, 3) at cell-major points in their cells' frames."""
        mono = _monomials((points.reshape(nc, -1, 2) - origin) / scale, P3)
        fields = np.zeros((len(points), len(P3), 3))
        fields[:, :, 1] = mono.reshape(len(points), -1)
        return fields

    own = 3 * np.arange(nc)[:, None]
    vertex, traction, mean = _stress_dofs(
        vertices.reshape(-1, 2), (own[:, :, None] + _EDGE_LOCAL).reshape(-1, 2),
        own + np.arange(3), monomials_in_s12)
    table = np.zeros((nc, NDOF, 3, len(P3)))          # columns: component blocks
    edge = table[:, 9:21].reshape(nc, 3, 2, 2, 3, len(P3))    # edge, component, degree
    moments = traction.reshape(nc, 3, 2, 2, len(P3))           # rows: -t_x M, t_y M
    for c, (r1, r2) in enumerate(_ROWS):
        edge[:, :, c, :, r1] = moments[:, :, 1]
        edge[:, :, c, :, r2] = moments[:, :, 0]
    for c in range(3):
        table[:, c:9:3, c] = vertex[:, 1].reshape(nc, 3, len(P3))
        table[:, 21 + c, c] = mean[:, 1]
    return table.reshape(nc, NDOF, NCOEF)


def _shape_dof_matrix(vertices: np.ndarray):
    """(origin, scale, V) of stacked triangles (nc, 3, 2): frames at the
    centroid and diameter, V (nc, 24, 24) the DOFs applied to the
    orthonormal shape basis."""
    _, scale = _triangle_sizes(vertices)
    origin = vertices.mean(axis=1)
    V = _dof_matrix_on_monomials(vertices, origin, scale) @ _shape_null_space().T
    return origin, scale, V


def _condition_numbers(s: np.ndarray) -> np.ndarray:
    """2-norm condition numbers from stacked descending singular values,
    as np.linalg.cond takes them: inf for a singular matrix."""
    with np.errstate(divide="ignore"):
        return s[:, 0] / s[:, -1]


def _dualize(vertices: np.ndarray):
    """Nodal bases of stacked triangles (nc, 3, 2).

    Returns (origin, scale, coeffs (nc, 24, 30), cond (nc,)): coeffs[c]
    holds the nodal fields dual to the 24 DOFs as rows over the
    P3(T, S) monomials.
    """
    origin, scale, V = _shape_dof_matrix(vertices)
    null = _shape_null_space()
    cond = _condition_numbers(np.linalg.svd(V, compute_uv=False))
    bad = ~(cond <= COND_MAX)
    if bad.any():
        raise CheckFailedError(
            f"stress element dualization ill-conditioned: {np.max(cond[bad]):.2e}")
    # nodal_j = sum_i X[i, j] shape_i with V X = I, so rows of X^T null
    coeffs = np.linalg.solve(np.swapaxes(V, 1, 2), np.broadcast_to(null, (len(V),) + null.shape))
    return origin, scale, coeffs, cond


@dataclass(frozen=True)
class UnisolvenceReport:
    rank: int
    cond: float
    passed: bool

    def to_dict(self):
        return {"rank": self.rank, "cond": self.cond, "pass": self.passed}


def aw_unisolvence_survey(triangles):
    """(rank, cond) of the DOF matrix on the shape basis, for each of the
    stacked triangles (n, 3, 2), from one batch of singular values."""
    triangles = np.asarray(triangles, dtype=float)
    if triangles.ndim != 3 or triangles.shape[1:] != (3, 2):
        raise ValueError(f"triangles need 3 plane vertices each, got {triangles.shape}")
    s = np.linalg.svd(_shape_dof_matrix(triangles)[2], compute_uv=False)
    # numerical_rank's count, with the largest singular value first
    rank = np.count_nonzero(s > RANK_RTOL * s[:, :1], axis=1)
    return rank, _condition_numbers(s)


def aw_unisolvence_check(vertices) -> UnisolvenceReport:
    """Rank and conditioning of the DOF matrix on the shape basis."""
    vertices = np.asarray(vertices, dtype=float)
    if vertices.shape != (3, 2):
        raise ValueError(f"triangle needs 3 plane vertices, got {vertices.shape}")
    rank, cond = aw_unisolvence_survey(vertices[None])
    return UnisolvenceReport(int(rank[0]), float(cond[0]), bool(rank[0] == NDOF))


# -- global spaces ---------------------------------------------------------


@dataclass
class StressSpace:
    """Global H(div, S) stress space: 3 DOFs/vertex + 4/edge + 3/cell.

    The nodal bases of all cells are stacked: cell c maps physical
    points x to local coordinates (x - origin[c]) / scale[c], where its
    24 nodal fields have the P3(T, S) coefficients coeffs[c].  mono[c]
    holds the P3 monomials at the triangle_rule points of cell c, in its
    local frame, for the compliance, the divergence and evaluate_stress.
    """

    mesh: Mesh
    ndofs: int
    cell_dofs: np.ndarray          # (num_cells, 24)
    origin: np.ndarray             # (num_cells, 2)
    scale: np.ndarray              # (num_cells,)
    coeffs: np.ndarray             # (num_cells, 24, 30)
    cond: np.ndarray               # (num_cells,) dualization condition numbers
    mono: np.ndarray               # (num_cells, nq, 10)

    @property
    def num_cells(self):
        return self.mesh.num_cells


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
    origin, scale, coeffs, cond = _dualize(mesh.vertices[mesh.cells])
    local = (mesh.geometry.push_points(triangle_rule().points) - origin[:, None, :]) \
        / scale[:, None, None]
    return StressSpace(mesh, ndofs, cell_dofs, origin, scale, coeffs, cond,
                       _monomials(local, P3))


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


def evaluate_displacement(space: DisplacementSpace, u: np.ndarray):
    """(points, weights*|det|, values (nc, nq, 2)) of a DOF vector."""
    comps = [evaluate_on_cells(space.scalar, u.reshape(-1, 2, 3)[:, comp].ravel())
             for comp in (0, 1)]
    pts, wdet, _ = comps[0]
    return pts, wdet, np.stack([vals for _, _, vals in comps], axis=-1)


def evaluate_stress(space: StressSpace, sigma: np.ndarray):
    """(points, weights*|det|, values (nc, nq, 3)) of a stress DOF vector."""
    rule = triangle_rule()
    geo = space.mesh.geometry
    pts = geo.push_points(rule.points)
    coef = np.einsum("cs,csk->ck", sigma[space.cell_dofs], space.coeffs)
    vals = np.einsum("cik,cqk->cqi", coef.reshape(-1, 3, len(P3)), space.mono)
    wdet = rule.weights[None, :] * geo.absdet[:, None]
    return pts, wdet, vals


# -- global operators -------------------------------------------------------


def compliance_coefficients(lam: float, mu: float) -> tuple[float, float]:
    """(a1, a2) with C^-1 sigma = a1 (sigma - a2 tr(sigma) I) in 2D."""
    if mu <= 0.0 or lam < 0.0:
        raise ValueError("need mu > 0 and lam >= 0")
    return 1.0 / (2.0 * mu), lam / (2.0 * mu + 2.0 * lam)


def assemble_compliance(space: StressSpace, lam: float = 1.0, mu: float = 1.0) -> sp.csr_matrix:
    """Global int C^-1 sigma : tau with constant isotropic moduli.

    With G_c the Gram matrix of the local monomials on cell c and C_c
    the nodal coefficients, the local matrix is C_c kron(K, G_c) C_c^T
    (the columns of C_c are component blocks), where sigma : tau = s11
    t11 + 2 s12 t12 + s22 t22 and K = a1 (diag(1, 2, 1) - a2 e e^T),
    e = (1, 0, 1) picking out the trace.
    """
    a1, a2 = compliance_coefficients(lam, mu)
    rule = triangle_rule()
    mono = space.mono
    wdet = rule.weights[None, :] * space.mesh.geometry.absdet[:, None]
    gram = np.swapaxes(mono * wdet[:, :, None], 1, 2) @ mono                 # (nc, 10, 10)
    trace = np.array([1.0, 0.0, 1.0])
    K = a1 * (np.diag([1.0, 2.0, 1.0]) - a2 * np.outer(trace, trace))
    kron = (K[None, :, None, :, None] * gram[:, None, :, None, :]).reshape(-1, NCOEF, NCOEF)
    local = space.coeffs @ kron @ np.swapaxes(space.coeffs, 1, 2)
    return scatter_cell_blocks(local, space.cell_dofs, space.cell_dofs, (space.ndofs, space.ndofs))


def assemble_divergence(space: StressSpace, disp: DisplacementSpace) -> sp.csr_matrix:
    """DOF matrix of div: (div sigma)'s displacement DOFs = D sigma."""
    # the dg1 interior moments of each component of div sigma, whose
    # rule runs on the triangle_rule points of space.mono
    _, W = moment_rule(get_family("dg1").dofs, 2)
    p2 = space.mono[..., [P3.index(e) for e in P2]]                # (nc, nq, 6)
    dcoef = (space.coeffs @ _divergence_operator().T) / space.scale[:, None, None]
    dcoef = dcoef.reshape(-1, NDOF, 2, len(P2))
    local = np.einsum("csik,cqk,mq->cims", dcoef, p2, W, optimize=True)
    nc = space.num_cells
    rows = 6 * np.arange(nc)[:, None] + np.arange(6)
    return scatter_cell_blocks(local.reshape(nc, 6, NDOF), rows, space.cell_dofs,
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
    dofs = _stress_dofs(mesh.vertices, mesh.entities[1], mesh.cells, field)
    return np.concatenate([d.ravel() for d in dofs])


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
    # compliance matrix nor a CSR copy of K lives through the factorization;
    # blocks that are all CSC with sorted indices are stacked, not sorted
    Bm.sort_indices()
    K = sp.bmat([[assemble_compliance(stress, lam, mu).tocsc(), Bm.T],
                 [Bm.tocsc(), sp.csc_matrix((disp.ndofs, disp.ndofs))]], format="csc")
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
