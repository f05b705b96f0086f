"""Reference element catalog.

Every de Rham family on the unit simplex comes from one rule (Hiptmair
1999; Arnold, Falk & Winther 2006): the shape space is

    P_r^- Lambda^k = P_{r-1} Lambda^k + kappa H_{r-1} Lambda^{k+1},

and its degrees of freedom are the moments on each d-face against
P_{r+k-d-1} Lambda^{d-k} (point values at vertices).  For k = 0 this is
P_r (lagrange_r); for k = n it is P_{r-1}, so dg_p = P_{p+1}^- Lambda^n.
Vector families are P_{r-1} vectors plus a Koszul field times the
homogeneous monomials of degree r - 1: x for face families, e_i cross x
for 3D edges and (-y, x) for 2D edges, so 2D edge and face differ only in
that field.  The nodal basis is dual to the DOFs, obtained by inverting
the DOF-by-span Vandermonde matrix (the construction of FIAT, Kirby 2004).

The dual basis is built in exact rationals: spans have integer
coefficients, each DOF of a polynomial is computed exactly by
restricting it to its entity (affine substitution with the integer
reference vertices) and integrating term by term, and the Vandermonde
is inverted by exact Gauss-Jordan elimination.  The nodal basis, its
derivatives and the local derivative matrices stay exact; each exact
coefficient is rounded once, when evaluated (tabulation) or when the
derivative matrix is formed, so the integer entries of every derivative
matrix in the catalog (the signed incidence pattern at lowest order)
come out exact.  Quadrature is used only to apply DOFs to fields given
as callables: `dof_moments` does so on stacked entities of a mesh (the
canonical interpolant of `spaces`).

2D families: lagrange1..3, dg0..2, edge1..2 (tangentially continuous),
face1..2 (normally continuous) and dg1_vector (discontinuous P1 vectors,
the elasticity displacements, outside the rule: the dg1 moments of
component 0, then of component 1).  3D families (suffix _3d):
lagrange1_3d, dg0_3d, edge1_3d, face1_3d.

Conventions: tangents run from the lower to the higher local vertex
index; 2D edge normals are the tangent rotated by -90 degrees, i.e.
n = (t2, -t1); 3D face normals follow the right-hand rule on the
ascending vertex tuple.  Tangential and normal moments are line/flux
integrals weighted by powers of the arc parameter s in [0, 1]; scalar
edge moments and interior moments are normalized by the entity measure.
With these choices every functional is invariant under the family's
affine pullback (plain for scalars, covariant for edge, contravariant
for face, plain for discontinuous scalars and vectors), so a mesh stored
in ascending vertex order needs no orientation corrections during
assembly.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import factorial

import numpy as np

from .poly import Poly, VecPoly, grad, monomial_exponents
from .quadrature import simplex_rule


class UnknownFamilyError(KeyError):
    pass


class IncompatibleFamiliesError(ValueError):
    pass


class UnevenDofLayoutError(ValueError):
    """Entities of one dimension carry different numbers of DOFs."""


def reference_vertices(dim: int) -> np.ndarray:
    """Integer vertices of the unit simplex: the origin, then e_1..e_dim."""
    return np.vstack([np.zeros((1, dim), dtype=int), np.eye(dim, dtype=int)])


def local_entities(dim: int, k: int) -> list[tuple[int, ...]]:
    """Sub-simplices of the reference simplex as ascending local vertex
    tuples, enumerated lexicographically (matches mesh tables)."""
    return list(itertools.combinations(range(dim + 1), k + 1))


@dataclass(frozen=True)
class DofSpec:
    """One degree of freedom of a reference element.

    kind:
      "value"      point evaluation at a vertex (component for vectors)
      "scalar"     moment of a scalar on an edge against s^j (normalized)
      "tangential" edge moment of q . t against s^j (line integral)
      "normal"     edge/face moment of q . n against parameter monomial
                   (flux integral)
      "interior"   cell moment against a reference monomial, normalized
                   by the cell measure (component selects for vectors)
    """

    entity_dim: int
    entity_index: int
    kind: str
    weight: tuple[int, ...] = ()
    component: int | None = None


_DOF_KINDS = {0: ("value",), 1: ("scalar", "tangential", "normal"), 2: ("normal",)}


def _check_dof(dof: DofSpec, dim: int, k: int):
    """A DOF on a k-entity of a dim-simplex must be of a kind that lives there."""
    kinds = _DOF_KINDS.get(k, ()) + (("interior",) if k == dim else ())
    if dof.entity_dim != k or dof.kind not in kinds:
        raise ValueError(f"unsupported dof {dof} on a {k}-entity")


def _dof_frame(dof: DofSpec, dim: int):
    """The entity of a reference DOF as x = b + A y over the unit simplex
    of its own dimension k (a point for k = 0): integer (b, A)."""
    _check_dof(dof, dim, dof.entity_dim)
    verts = reference_vertices(dim)
    ent = local_entities(dim, dof.entity_dim)[dof.entity_index]
    b = verts[ent[0]]
    return b, (verts[list(ent[1:])] - b).T


def _direction(dof: DofSpec, A):
    """Direction a tangential or normal DOF dots the field with, for
    entity frames A (..., dim, k); None for the other kinds.  2D edge
    normals are the tangent turned clockwise; 3D faces use the
    right-hand rule."""
    if dof.kind == "tangential":
        return A[..., :, 0]
    if dof.kind == "normal":
        if A.shape[-1] == 1:
            return np.stack([A[..., 1, 0], -A[..., 0, 0]], axis=-1)
        return np.cross(A[..., :, 0], A[..., :, 1])
    return None


def _scale(dof: DofSpec) -> int:
    """Interior moments are normalized by the measure 1/k! of the cell."""
    return factorial(dof.entity_dim) if dof.kind == "interior" else 1


def moment_rule(dofs, k: int):
    """Points y (nq, k) of simplex_rule(k) (one point for k = 0) and
    weights W (len(dofs), nq) such that each DOF on a k-entity is
    sum_q W[i, q] g_i(y_q), g_i its integrand: the field, its component
    or its dot product with `_direction`."""
    if k == 0:
        y, w = np.zeros((1, 0)), np.ones(1)
    else:
        rule = simplex_rule(k)
        y, w = rule.points, rule.weights
    W = np.stack([_scale(d) * w * np.prod(y ** np.asarray(d.weight, dtype=int), axis=1)
                  for d in dofs])
    return y, W


def dof_moments(dofs, b, A, f, pullback=None) -> np.ndarray:
    """DOFs of a field on n stacked entities of one dimension k.

    Entity j is x = b[j] + A[j] y, b (n, dim), A (n, dim, k), and each DOF
    is a moment over y as on the reference entity.  `f` maps points
    (N, dim) to (N,) or (N, m) values and is called once, on all rule
    points of all entities.  `pullback` (n, m, m), when given, takes the
    field values (as rows) to the reference values the DOFs see, like the
    covariant v -> v B.  Returns (n, len(dofs)).
    """
    n, dim, k = A.shape
    for dof in dofs:
        _check_dof(dof, dim, k)
    y, W = moment_rule(dofs, k)
    pts = b[:, None, :] + np.einsum("nik,qk->nqi", A, y)
    vals = np.asarray(f(pts.reshape(-1, dim)))
    vals = vals.reshape((n, len(y)) + vals.shape[1:])
    if pullback is not None:
        vals = vals @ pullback
    out = np.empty((n, len(dofs)))
    for i, dof in enumerate(dofs):
        direction = _direction(dof, A)
        if direction is not None:
            g = np.einsum("nqi,ni->nq", vals, direction)
        else:
            g = vals if dof.component is None else vals[:, :, dof.component]
        out[:, i] = g @ W[i]
    return out


def _exact_moment(dof: DofSpec, field, dim: int):
    """One DOF of a Poly or VecPoly, computed without quadrature: the
    field is restricted to the entity by affine substitution and
    integrated term by term.  Exact (a Fraction) for exact coefficients."""
    b, A = _dof_frame(dof, dim)
    direction = _direction(dof, A)
    if direction is not None:
        g = Poly(dim)
        for d, comp in zip(direction.tolist(), field.comps):
            g = g + comp * d
    else:
        g = field if dof.component is None else field.comps[dof.component]
    k = A.shape[1]
    restricted = g.compose_affine(A, b) * Poly.monomial(k, dof.weight)
    return _scale(dof) * restricted.integral_reference_simplex()


def _rational_inverse(V, name: str):
    """Gauss-Jordan inverse of a square matrix in exact rationals."""
    n = len(V)
    rows = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
            for i, row in enumerate(V)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if rows[r][col] != 0), None)
        if pivot is None:
            raise ValueError(f"{name}: degrees of freedom not unisolvent (singular Vandermonde)")
        rows[col], rows[pivot] = rows[pivot], rows[col]
        head = rows[col][col]
        rows[col] = [x / head for x in rows[col]]
        for r in range(n):
            factor = rows[r][col]
            if r != col and factor != 0:
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[col])]
    return [row[n:] for row in rows]


def _exterior_derivative(p, kind: str):
    if kind == "grad":
        return grad(p)
    if kind == "curl":
        return p.curl2() if p.dim == 2 else p.curl3()
    return p.div()


class ElementFamily:
    """A reference element: shape space, DOFs and the dual nodal basis.

    The span is given with exact (int or Fraction) coefficients; the
    nodal basis and its exterior derivatives are then exact, and
    `tabulate`/`tabulate_derivative` evaluate them in floats.
    """

    def __init__(self, name, mesh_dim, form_degree, mapping, span, dofs):
        self.name = name
        self.mesh_dim = mesh_dim
        self.form_degree = form_degree
        self.mapping = mapping  # h1 | covariant | contravariant | l2
        self.span = tuple(span)
        self.dofs = tuple(dofs)
        if len(self.span) != len(self.dofs):
            raise ValueError(f"{name}: {len(span)} span functions vs {len(dofs)} dofs")

    # -- basic facts ---------------------------------------------------------

    @property
    def shape_dim(self) -> int:
        return len(self.dofs)

    @property
    def value_kind(self) -> str:
        return "vector" if isinstance(self.span[0], VecPoly) else "scalar"

    @property
    def derivative_kind(self) -> str | None:
        return {
            "h1": "grad",
            "covariant": "curl",
            "contravariant": "div",
            "l2": None,
        }[self.mapping]

    def dofs_per_entity(self, k: int) -> int:
        per = {len(pos) for (ek, _), pos in self.dof_entity_layout().items() if ek == k}
        if len(per) > 1:
            raise UnevenDofLayoutError(f"{self.name}: uneven dof count on dim-{k} entities")
        return per.pop() if per else 0

    def dof_entity_layout(self):
        """Mapping (entity_dim, local_index) -> tuple of dof positions."""
        layout: dict[tuple[int, int], list[int]] = {}
        for i, d in enumerate(self.dofs):
            layout.setdefault((d.entity_dim, d.entity_index), []).append(i)
        return {k: tuple(v) for k, v in layout.items()}

    # -- nodal basis -----------------------------------------------------------

    @cached_property
    def _exact_basis(self):
        """Nodal basis phi_j = sum_i C[i, j] span_i with C = V^-1, where
        V[i, j] = dof_i(span_j); V and C are exact rationals."""
        V = [[_exact_moment(d, p, self.mesh_dim) for p in self.span] for d in self.dofs]
        C = _rational_inverse(V, self.name)
        return [_combine(self.span, [row[j] for row in C]) for j in range(self.shape_dim)]

    @cached_property
    def _exact_derivatives(self):
        """Exterior derivative of each exact nodal shape function: grad
        for h1, scalar curl (2D) / curl (3D) for covariant, div for
        contravariant."""
        return [_exterior_derivative(p, self.derivative_kind) for p in self._exact_basis]

    # -- tabulation ------------------------------------------------------------

    def tabulate(self, points) -> np.ndarray:
        """Values of the nodal basis: (shape_dim, N) or (shape_dim, N, dim)."""
        return np.stack([p.eval(points) for p in self._exact_basis])

    def tabulate_derivative(self, points) -> np.ndarray:
        if self.derivative_kind is None:
            raise ValueError(f"{self.name} has no derivative operator")
        return np.stack([d.eval(points) for d in self._exact_derivatives])

    @cached_property
    def rule_values(self) -> np.ndarray:
        """tabulate() at the points of simplex_rule(mesh_dim), read-only."""
        return _read_only(self.tabulate(simplex_rule(self.mesh_dim).points))

    @cached_property
    def rule_derivatives(self) -> np.ndarray:
        """tabulate_derivative() at the points of simplex_rule(mesh_dim),
        read-only."""
        return _read_only(self.tabulate_derivative(simplex_rule(self.mesh_dim).points))

    def __repr__(self):
        return f"<ElementFamily {self.name}: dim {self.mesh_dim}, k={self.form_degree}, {self.shape_dim} dofs>"


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


# -- catalog -------------------------------------------------------------------


def _vec(dim, comp, poly: Poly) -> VecPoly:
    zero = Poly(dim)
    comps = [zero] * dim
    comps[comp] = poly
    return VecPoly(comps)


def _koszul_fields(x, mapping):
    """The Koszul fields of a vector family with coordinates x: x itself
    (face), (-y, x) (2D edge) or the three e_i cross x (3D edge)."""
    if mapping == "contravariant":
        return [VecPoly(x)]
    if len(x) == 2:
        return [VecPoly([-x[1], x[0]])]
    zero = Poly(3)
    return [VecPoly([zero, -x[2], x[1]]), VecPoly([x[2], zero, -x[0]]),
            VecPoly([-x[1], x[0], zero])]


def _trimmed_family(name, dim, k, r, mapping):
    """P_r^- Lambda^k = P_{r-1} Lambda^k + kappa H_{r-1} Lambda^{k+1} with
    moments on each d-face against P_{r+k-d-1} Lambda^{d-k}."""
    if k in (0, dim):  # P_r for k = 0, P_{r-1} for k = dim
        span = [Poly.monomial(dim, e) for e in monomial_exponents(dim, r if k == 0 else r - 1)]
    else:
        span = [_vec(dim, c, Poly.monomial(dim, e))
                for e in monomial_exponents(dim, r - 1) for c in range(dim)]
        x = [Poly.variable(dim, ax) for ax in range(dim)]
        fields = _koszul_fields(x, mapping)
        for axes in itertools.combinations_with_replacement(range(dim), r - 1):
            factor = math.prod((x[ax] for ax in axes), start=Poly.constant(dim, 1))
            span += [field * factor for field in fields]
    trace = "tangential" if mapping == "covariant" else "normal"
    dofs = []
    for d in range(k, dim + 1):
        kind = "interior" if d == dim else "value" if d == 0 else "scalar" if k == 0 else trace
        comps = range(dim) if d == dim and 0 < k < dim else [None]
        for idx in range(len(local_entities(dim, d))):
            dofs += [DofSpec(d, idx, kind, e, c)
                     for c in comps for e in monomial_exponents(d, r + k - d - 1)]
    return ElementFamily(name, dim, k, mapping, span, dofs)


def _dg1_vector():
    """Discontinuous P1 vectors (the elasticity displacements): the dg1
    moments of component 0, then of component 1."""
    p1 = monomial_exponents(2, 1)
    span = [_vec(2, c, Poly.monomial(2, e)) for e in p1 for c in (0, 1)]
    dofs = [DofSpec(2, 0, "interior", e, c) for c in (0, 1) for e in p1]
    return ElementFamily("dg1_vector", 2, 2, "l2", span, dofs)


# name -> (dim, k, r, mapping) of P_r^- Lambda^k; dg_p is r = p + 1
_TRIMMED = {
    "lagrange1": (2, 0, 1, "h1"),
    "lagrange2": (2, 0, 2, "h1"),
    "lagrange3": (2, 0, 3, "h1"),
    "dg0": (2, 2, 1, "l2"),
    "dg1": (2, 2, 2, "l2"),
    "dg2": (2, 2, 3, "l2"),
    "edge1": (2, 1, 1, "covariant"),
    "edge2": (2, 1, 2, "covariant"),
    "face1": (2, 1, 1, "contravariant"),
    "face2": (2, 1, 2, "contravariant"),
    "lagrange1_3d": (3, 0, 1, "h1"),
    "dg0_3d": (3, 3, 1, "l2"),
    "edge1_3d": (3, 1, 1, "covariant"),
    "face1_3d": (3, 2, 1, "contravariant"),
}

FAMILY_NAMES = tuple(sorted([*_TRIMMED, "dg1_vector"]))


@lru_cache(maxsize=None)
def get_family(name: str) -> ElementFamily:
    if name == "dg1_vector":
        return _dg1_vector()
    try:
        spec = _TRIMMED[name]
    except KeyError:
        raise UnknownFamilyError(f"family {name!r} not in catalog (choose from {', '.join(FAMILY_NAMES)})") from None
    return _trimmed_family(name, *spec)


# -- local derivative ----------------------------------------------------------

_COMPLEX_STEPS = {
    ("h1", "covariant"),
    ("covariant", "l2"),        # 2D curl
    ("covariant", "contravariant"),  # 3D curl
    ("contravariant", "l2"),    # div
}


def local_derivative_matrix(fam_from: ElementFamily, fam_to: ElementFamily) -> np.ndarray:
    """Matrix taking source DOF values to the DOFs of the derivative.

    M[i, j] = dof_i^to(d phi_j^from), computed in exact rationals and
    rounded once, so integer entries (every catalog step) are exact.
    The image of the derivative must lie in the target shape space;
    this is verified exactly by reconstructing each image from its
    target DOFs.
    """
    if fam_from.mesh_dim != fam_to.mesh_dim:
        raise IncompatibleFamiliesError("families live on different reference simplices")
    if (fam_from.mapping, fam_to.mapping) not in _COMPLEX_STEPS:
        raise IncompatibleFamiliesError(
            f"{fam_from.name} -> {fam_to.name} is not a consecutive complex step"
        )
    kind = fam_from.derivative_kind
    image = "scalar" if kind == "div" or (kind == "curl" and fam_from.mesh_dim == 2) else "vector"
    if image != fam_to.value_kind:
        raise IncompatibleFamiliesError(f"{kind} of {fam_from.name} lands in a {image} space")
    target = fam_to._exact_basis
    columns = []
    for dp in fam_from._exact_derivatives:
        coeffs = [_exact_moment(d, dp, fam_to.mesh_dim) for d in fam_to.dofs]
        if not (dp - _combine(target, coeffs)).almost_zero(0):
            raise IncompatibleFamiliesError("derivative target does not contain image")
        columns.append(coeffs)
    return np.array(columns, dtype=float).T


def _combine(basis, coeffs):
    """sum_i coeffs[i] basis[i], skipping zero coefficients."""
    acc = basis[0] * 0
    for c, b in zip(coeffs, basis):
        if c != 0:
            acc = acc + b * c
    return acc
