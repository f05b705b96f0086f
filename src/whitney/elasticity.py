"""Lowest-order conforming mixed elasticity on triangles.

The stress element is the 24-DOF symmetric-matrix triangle whose shape
space is S_T = {tau in P3(T, S) : div tau in P1(T, R^2)}: all quadratic
symmetric fields plus the divergence-reduced cubics (30 coefficients
minus 6 independent constraints).  Displacements are discontinuous
piecewise linear vector fields, the catalog family dg1_vector, so their
mass, load, projection and evaluation are the generic `spaces` calls.

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
edges and cells, the per-kind DOF tables on each kind's first cell
with the 10 cubic monomials in one component as a batch, from which
the table over the 30 monomial fields of P3(T, S) is placed.  The
bases exist only as stacked arrays, the compliance is their contraction
and one sparse scatter, and the mean-trace row needs no basis at all.

The divergence needs no basis.  By Green's formula, the dg1_vector
DOFs of div tau (moments against 1, lambda_2 and lambda_1) are fixed by
the 12 edge moments and the 3 interior means of tau, with weights from
the cell's geometry alone: the edge entries are 0 or +-2 / |det B|, the
interior ones -grad lambda_k, and the vertex values enter nowhere.  So D
Pi_S = Pi_V div holds to the roundoff of B^-1 (22 stored entries per
cell on the uniform square), as the lowest-order de Rham derivatives
are signed incidences.

Cells are grouped into kinds by the exact bytes of their centred
vertices (minus the centroid) and |det|: on a structured mesh most
cells translate a few shapes (2,048 cells of 72 kinds on the uniform
square at n = 32, 24 kinds on the crossed one).  Only the lowest cell
of a kind builds its DOF table, from its own vertices, and the nodal
coefficients, the monomial table and the condition number are stored
once per kind.  The compliance blocks are formed per kind and scattered
cell by cell; evaluate_stress gathers the per-kind tables to the cells.
LAPACK and matmul work matrix by matrix, so a kind's tables are its
first cell's own bit for bit.  A translate's own differ by roundoff:
none on the uniform square, on the crossed one <= 2.5e-14 relative in
the coefficients and about eps * cond in the condition number.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from .complexes import commuting_residual, monomial_battery
from .elements import _read_only, reference_vertices
from .linalg import RANK_RTOL, CheckFailedError, mixed_solve, spd_factor
from .mesh import Mesh
from .poly import Poly, VecPoly, monomial_exponents
from .quadrature import simplex_rule
from .spaces import (
    DiscreteSpace,
    assemble_mass,
    build_space,
    canonical_projection,
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
    """(12, 30) map from P3(T,S) coefficients to div coefficients on P2:
    column j holds the _row_divergence of monomial field j.

    Row layout: component-major over P2 monomials; column layout:
    component blocks (s11, s12, s22) over P3 monomials.
    """
    divs = [_row_divergence(VecPoly([Poly.monomial(2, e) if c == block else Poly(2)
                                     for c in range(3)]))
            for block in range(3) for e in P3]
    return _read_only(np.array([[div.comps[c].terms.get(e, 0) for div in divs]
                                for c in range(2) for e in P2], dtype=float))


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

    erule = simplex_rule(1)
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

    trule = simplex_rule(2)
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


def _dualize(V: np.ndarray):
    """Nodal bases from stacked DOF tables V (n, 24, 24) on the shape basis.

    Returns (coeffs (n, 24, 30), cond (n,)): coeffs[i] holds the nodal
    fields dual to the 24 DOFs as rows over the P3(T, S) monomials.
    """
    null = _shape_null_space()
    cond = _condition_numbers(np.linalg.svd(V, compute_uv=False))
    bad = ~(cond <= COND_MAX)
    if bad.any():
        raise CheckFailedError(
            f"stress element dualization ill-conditioned: {np.max(cond[bad]):.2e}")
    # nodal_j = sum_i X[i, j] shape_i with V X = I, so rows of X^T null
    coeffs = np.linalg.solve(np.swapaxes(V, 1, 2), np.broadcast_to(null, (len(V),) + null.shape))
    return coeffs, cond


def _cell_kinds(*tables) -> tuple[np.ndarray, np.ndarray]:
    """(first, kind): cells whose rows of every stacked float table
    (cells, ...) are bit-identical share a kind; first[k] is the lowest
    cell of kind k and kind[c] the kind of cell c, as np.unique numbers
    the rows' bytes."""
    rows = np.concatenate([t.reshape(len(t), -1) for t in tables], axis=1)
    # sort one void scalar per row, then compare neighbours as integers:
    # np.unique on axis=0, or on the void scalars, compares far slower
    order = np.argsort(rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel(),
                       kind="stable")
    ranked = rows.view(np.uint64)[order]
    new = np.ones(len(rows), dtype=bool)
    new[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
    kind = np.empty(len(rows), dtype=np.intp)
    kind[order] = np.cumsum(new) - 1
    return order[new], kind


def aw_unisolvence_survey(triangles):
    """(rank, cond) of the DOF matrix on the shape basis, for each of the
    stacked triangles (n, 3, 2), from one batch of singular values."""
    triangles = np.asarray(triangles, dtype=float)
    if triangles.ndim != 3 or triangles.shape[1:] != (3, 2):
        raise ValueError(f"triangles need 3 plane vertices each, got {triangles.shape}")
    s = np.linalg.svd(_shape_dof_matrix(triangles)[2], compute_uv=False)
    # singular values above RANK_RTOL times the largest, which comes first
    rank = np.count_nonzero(s > RANK_RTOL * s[:, :1], axis=1)
    return rank, _condition_numbers(s)


# -- global spaces ---------------------------------------------------------


@dataclass
class StressSpace:
    """Global H(div, S) stress space: 3 DOFs/vertex + 4/edge + 3/cell.

    Cells with bit-identical centred vertices and |det| are one kind:
    kind[c] is the kind of cell c and first[k] the lowest cell of kind
    k, whose own vertices build the kind's tables.  Cell c maps physical
    points to local coordinates in the frame of _shape_dof_matrix
    (centroid and diameter), where its 24 nodal fields have the P3(T, S)
    coefficients coeffs[kind[c]]; mono[k] holds the P3 monomials at the
    simplex_rule(2) points of cell first[k] in its frame, shared by the
    kind.  Only the DOF numbering and the kind are stored per cell.
    """

    mesh: Mesh
    ndofs: int
    cell_dofs: np.ndarray          # (num_cells, 24)
    coeffs: np.ndarray             # (num_kinds, 24, 30)
    cond: np.ndarray               # (num_kinds,) dualization condition numbers
    mono: np.ndarray               # (num_kinds, nq, 10)
    first: np.ndarray              # (num_kinds,) lowest cell of each kind
    kind: np.ndarray               # (num_cells,) kind of each cell


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
    tri = mesh.vertices[mesh.cells]
    first, kind = _cell_kinds(tri - tri.mean(axis=1)[:, None, :], mesh.geometry.absdet)
    origin, scale, V = _shape_dof_matrix(tri[first])
    coeffs, cond = _dualize(V)
    local = (mesh.geometry.push_points(simplex_rule(2).points)[first] - origin[:, None, :]) \
        / scale[:, None, None]
    return StressSpace(mesh, ndofs, cell_dofs, coeffs, cond, _monomials(local, P3), first, kind)


def evaluate_stress(space: StressSpace, sigma: np.ndarray):
    """(points, weights*|det|, values (nc, nq, 3)) of a stress DOF vector."""
    rule = simplex_rule(2)
    geo = space.mesh.geometry
    pts = geo.push_points(rule.points)
    coef = np.einsum("cs,csk->ck", sigma[space.cell_dofs], space.coeffs[space.kind])
    vals = np.einsum("cik,cqk->cqi", coef.reshape(-1, 3, len(P3)), space.mono[space.kind])
    wdet = rule.weights[None, :] * geo.absdet[:, None]
    return pts, wdet, vals


# -- global operators -------------------------------------------------------


def compliance_coefficients(lam: float, mu: float) -> tuple[float, float]:
    """(a1, a2) with C^-1 sigma = a1 (sigma - a2 tr(sigma) I) in 2D."""
    if not (np.isfinite(lam) and np.isfinite(mu) and mu > 0.0 and lam >= 0.0):
        raise ValueError(f"need finite mu > 0 and lam >= 0, got lam={lam}, mu={mu}")
    a1, denominator = 1.0 / (2.0 * mu), 2.0 * mu + 2.0 * lam
    if not np.isfinite([a1, denominator]).all():    # 2 lam near the float maximum, subnormal mu
        raise ValueError(f"compliance overflows for lam={lam}, mu={mu}")
    return a1, lam / denominator


def assemble_compliance(space: StressSpace, lam: float = 1.0, mu: float = 1.0) -> sp.csr_matrix:
    """Global int C^-1 sigma : tau with constant isotropic moduli.

    With G_c the Gram matrix of the local monomials on cell c and C_c
    the nodal coefficients, the local matrix is C_c kron(K, G_c) C_c^T
    (the columns of C_c are component blocks), where sigma : tau = s11
    t11 + 2 s12 t12 + s22 t22 and K = a1 (diag(1, 2, 1) - a2 e e^T),
    e = (1, 0, 1) picking out the trace.  It is formed once per cell
    kind, each cell scatters its kind's block, and the sum is made
    symmetric bit for bit (an entry and its mirror may sum in two orders).
    """
    a1, a2 = compliance_coefficients(lam, mu)
    wdet = simplex_rule(2).weights * space.mesh.geometry.absdet[space.first, None]
    gram = np.swapaxes(space.mono * wdet[:, :, None], 1, 2) @ space.mono     # (kinds, 10, 10)
    trace = np.array([1.0, 0.0, 1.0])
    K = a1 * (np.diag([1.0, 2.0, 1.0]) - a2 * np.outer(trace, trace))
    kron = (K[None, :, None, :, None] * gram[:, None, :, None, :]).reshape(-1, NCOEF, NCOEF)
    local = space.coeffs @ kron @ np.swapaxes(space.coeffs, 1, 2)
    C = scatter_cell_blocks(local[space.kind], space.cell_dofs, space.cell_dofs,
                            (space.ndofs, space.ndofs))
    return 0.5 * (C + C.T)


def _mean_trace_row(space: StressSpace) -> sp.csr_matrix:
    """t_j = int tr(phi_j): |T| at the s11 and s22 means of T, else 0."""
    cols = space.cell_dofs[:, [21, 23]].ravel()          # ascending, cell by cell
    return sp.csr_matrix((np.repeat(0.5 * space.mesh.geometry.absdet, 2), cols,
                          [0, len(cols)]), shape=(1, space.ndofs))


def assemble_divergence(space: StressSpace, disp: DiscreteSpace) -> sp.csr_matrix:
    """DOF matrix of div: (div sigma)'s dg1_vector DOFs = D sigma.

    DOF (c, e) of the displacement family is (2 / |det B|) int_T
    (div sigma)_c q with q = lambda^e, the barycentric monomial of degree
    <= 1 (1, lambda_2 or lambda_1).  By Green's formula it is (2 / |det
    B|) times the outward flux sum_e int_e (sigma n)_c q ds minus int_T
    sigma_c . grad q, row c of sigma being the pair _ROWS[c].  Along edge
    (a, b), q = q(p_a) + s (q(p_b) - q(p_a)) in the edge parameter s, so
    the flux takes the degree 0 and 1 traction moments with weights
    q(p_a) and q(p_b) - q(p_a), each 0 or +-1; and since 2 |T| = |det B|,
    the interior mean of sigma_c enters with -grad q, from the rows of
    B^-1.  D is thus fixed by the geometry alone: no basis, no
    quadrature, and no entry in a vertex column.
    """
    geo = space.mesh.geometry
    # the DOF normal (t_y, -t_x) points out of a positively oriented cell
    # on local edges (0, 1) and (1, 2) and into it on (0, 2)
    flux = np.sign(geo.detB)[:, None] * np.array([1.0, -1.0, 1.0]) \
        * (2.0 / geo.absdet)[:, None]
    ref = reference_vertices(2)
    local = np.zeros((space.mesh.num_cells, len(disp.family.dofs), NDOF))
    for m, dof in enumerate(disp.family.dofs):
        q = np.prod(ref ** np.asarray(dof.weight), axis=1)     # at the local vertices
        for le, (a, b) in enumerate(_EDGE_LOCAL):
            slot = 9 + 4 * le + 2 * dof.component
            local[:, m, slot] = flux[:, le] * q[a]
            local[:, m, slot + 1] = flux[:, le] * (q[b] - q[a])
        grad_q = dof.weight[0] * geo.Binv[:, 0] + dof.weight[1] * geo.Binv[:, 1]
        local[:, m, 21 + np.array(_ROWS[dof.component])] = -grad_q
    return scatter_cell_blocks(local, disp.cell_dofs, space.cell_dofs,
                               (disp.ndofs, space.ndofs))


def interpolate_stress(space: StressSpace, field) -> np.ndarray:
    """Canonical stress interpolant of a smooth field.

    field maps (N, 2) points to (N, 3) components (s11, s12, s22).
    Shared DOFs are evaluated once per global entity.
    """
    mesh = space.mesh
    dofs = _stress_dofs(mesh.vertices, mesh.entities[1], mesh.cells, field)
    return np.concatenate([d.ravel() for d in dofs])


def _row_divergence(tau: VecPoly) -> VecPoly:
    """Row-wise divergence of a symmetric field (s11, s12, s22): the rows
    of tau are the component pairs of _ROWS."""
    return VecPoly([tau.comps[a].diff(0) + tau.comps[b].diff(1) for a, b in _ROWS])


def commutativity_residual(mesh: Mesh, degree: int = 3) -> float:
    """complexes.commuting_residual of the square D Pi_S = Pi_V div, over every
    monomial of total degree <= degree in each symmetric component slot."""
    stress = build_stress_space(mesh)
    disp = build_space(mesh, "dg1_vector")
    return commuting_residual(assemble_divergence(stress, disp),
                              partial(interpolate_stress, stress),
                              partial(canonical_projection, disp),
                              monomial_battery(2, degree, 3, _row_divergence))


# -- mixed solver ------------------------------------------------------------


@dataclass
class ElasticitySolution:
    stress_space: StressSpace
    displacement_space: DiscreteSpace
    sigma: np.ndarray
    u: np.ndarray
    equilibrium_residual: float


def solve_mixed_elasticity(mesh: Mesh, lam: float = 1.0, mu: float = 1.0,
                           f=None) -> ElasticitySolution:
    """Saddle-point solve of the stress-displacement system.

    Finds (sigma, u) with int C^-1 sigma : tau + int u . div tau = 0 and
    int div sigma . v = -int f . v for all (tau, v): the classical
    equilibrium -div sigma = f, with u = 0 on the boundary encoded
    weakly by the first equation.  Since div sigma is a dg1_vector field
    whose DOFs are D sigma, and the DOFs are moments against P1, this is
    the mixed form of linalg.mixed_solve: D sigma = -Pi_V f, the
    canonical projection of the load, and C sigma + D^T w = 0 with the
    multiplier w = M_V u, M_V the block-diagonal displacement mass, so u
    takes one solve with M_V.  The reported equilibrium residual is
    mixed_solve's, max |D sigma + Pi_V f| relative: solver roundoff.

    The constant stress I has div I = 0 and compliance energy |Omega| /
    (mu + lam), a near-kernel of the saddle matrix for lam >> mu.  Tested
    with tau = I, the first equation gives int tr sigma = 0 already, so
    the mean-trace row, bordering the matrix as the first multiplier row,
    removes that near-kernel and nothing of the solution.  The row is
    exact: the interior DOFs are cell means, so int tr phi_j is |T| at
    the s11 and s22 means of T and 0 for every other DOF.  The system is
    solved in balanced moduli, lam and mu times 2^e with 1/(2 mu) = m 2^e,
    m in [1/2, 1): the compliance is exactly 2^-e times the true one, of
    order one for any mu, and the multiplier is 2^-e M_V u.
    """
    if f is None:
        raise ValueError("need a load f(points) -> (N, 2)")
    e = int(np.frexp(compliance_coefficients(lam, mu)[0])[1])
    if np.frexp(lam)[1] + e > 1024:                 # lam 2^e would overflow
        raise ValueError(f"balanced moduli overflow for lam={lam}, mu={mu}")
    stress = build_stress_space(mesh)
    disp = build_space(mesh, "dg1_vector")
    sigma, w, resid = mixed_solve(      # the symmetric compliance as its CSC transpose
        assemble_compliance(stress, np.ldexp(lam, e), np.ldexp(mu, e)).T,
        assemble_divergence(stress, disp), canonical_projection(disp, f), _mean_trace_row(stress))
    u = np.ldexp(spd_factor(assemble_mass(disp)).solve(w), e)
    return ElasticitySolution(stress, disp, sigma, u, resid)


def manufactured_solution(lam: float = 1.0, mu: float = 1.0):
    """(u, sigma, f) callables for u = (sin(pi x) sin(pi y), 0).

    sigma = 2 mu eps(u) + lam tr(eps) I and f = -div sigma; u vanishes
    on the boundary of the unit square, matching the weak Dirichlet
    condition of the mixed form.
    """
    if not np.isfinite([(3.0 * mu + lam) * np.pi ** 2, 2.0 * mu + lam]).all():
        raise ValueError(f"manufactured load overflows for lam={lam}, mu={mu}")
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
