"""Reference element catalog.

Four families on the unit simplex, all constructed the same way: a
polynomial shape space given by an explicit spanning set, a list of
degrees of freedom (point values and entity moments), and the nodal
basis dual to those degrees of freedom obtained by inverting the
DOF-by-span Vandermonde matrix (the construction of FIAT, Kirby 2004).

The dual basis is built in exact rationals: spans have integer
coefficients, each DOF of a polynomial is computed exactly by
restricting it to its entity (affine substitution with the integer
reference vertices) and integrating term by term, and the Vandermonde
is inverted by exact Gauss-Jordan elimination.  The nodal basis, its
derivatives and the local derivative matrices are rounded to float once,
at the end, so the integer entries of every derivative matrix in the
catalog (the signed incidence pattern at lowest order) come out exact.
Quadrature is used only to apply DOFs to fields given as callables:
`dof_moments` does so on stacked entities, the reference ones or all
entities of a mesh (the canonical interpolant of `spaces`).

2D families: lagrange1..3 (scalar, C0), dg0..2 (scalar, discontinuous),
edge1..2 (vector, tangentially continuous; order 1 span a + b(-y, x)),
face1..2 (vector, normally continuous; order 1 span a + b x).  The edge
family is the 90-degree rotation of the face family.

3D families (suffix _3d): lagrange1_3d, dg0_3d, edge1_3d (span a + b
cross x), face1_3d (span a + b x).

Conventions: tangents run from the lower to the higher local vertex
index; 2D edge normals are the tangent rotated by -90 degrees, i.e.
n = (t2, -t1); 3D face normals follow the right-hand rule on the
ascending vertex tuple.  Tangential and normal moments are line/flux
integrals weighted by powers of the arc parameter s in [0, 1]; scalar
edge moments and interior moments are normalized by the entity measure.
With these choices every functional is invariant under the family's
affine pullback (plain for scalars, covariant for edge, contravariant
for face, plain for discontinuous), so a mesh stored in ascending vertex
order needs no orientation corrections during assembly.
"""
from __future__ import annotations

import itertools
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


def _quadrature_moment(dof: DofSpec, f, dim: int) -> float:
    """One DOF of a field given as a callable on points (N, dim)."""
    b, A = _dof_frame(dof, dim)
    return float(dof_moments([dof], b[None], A[None], f)[0, 0])


def evaluate_dof(dof: DofSpec, field, dim: int) -> float:
    """Apply one reference DOF to a field: a Poly or VecPoly (exact
    moment, rounded once) or a callable on points (quadrature)."""
    if isinstance(field, (Poly, VecPoly)):
        return float(_exact_moment(dof, field, dim))
    return _quadrature_moment(dof, field, dim)


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
    nodal basis is then exact, and `nodal_basis`/`nodal_derivatives`
    are its float rounding.
    """

    def __init__(self, name, mesh_dim, form_degree, order, mapping, span, dofs):
        self.name = name
        self.mesh_dim = mesh_dim
        self.form_degree = form_degree
        self.order = order
        self.mapping = mapping  # h1 | covariant | contravariant | l2
        self.span = tuple(span)
        self.dofs = tuple(dofs)
        if len(self.span) != len(self.dofs):
            raise ValueError(f"{name}: {len(span)} span functions vs {len(dofs)} dofs")
        self._nodal = None
        self._deriv = None

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

    @property
    def nodal_basis(self):
        """Shape functions dual to the DOFs (delta property)."""
        if self._nodal is None:
            self._nodal = [p.to_float() for p in self._exact_basis]
        return self._nodal

    @property
    def nodal_derivatives(self):
        """Exterior derivative of each nodal shape function.

        grad for h1, scalar curl (2D) / curl (3D) for covariant, div for
        contravariant; None for discontinuous families.
        """
        if self.derivative_kind is None:
            return None
        if self._deriv is None:
            self._deriv = [_exterior_derivative(p, self.derivative_kind).to_float()
                           for p in self._exact_basis]
        return self._deriv

    # -- tabulation ------------------------------------------------------------

    def tabulate(self, points) -> np.ndarray:
        """Values of the nodal basis: (shape_dim, N) or (shape_dim, N, dim)."""
        return np.stack([p.eval(points) for p in self.nodal_basis])

    def tabulate_derivative(self, points) -> np.ndarray:
        der = self.nodal_derivatives
        if der is None:
            raise ValueError(f"{self.name} has no derivative operator")
        return np.stack([d.eval(points) for d in der])

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


def apply_dofs(family: ElementFamily, field) -> np.ndarray:
    """Evaluate all reference DOFs on a field (callable, Poly or VecPoly)."""
    return np.array([evaluate_dof(d, field, family.mesh_dim) for d in family.dofs])


# -- catalog -------------------------------------------------------------------


def _scalar_span(dim, degree):
    return [Poly.monomial(dim, e) for e in monomial_exponents(dim, degree)]


def _vec(dim, comp, poly: Poly) -> VecPoly:
    zero = Poly(dim)
    comps = [zero] * dim
    comps[comp] = poly
    return VecPoly(comps)


def _p1_vector_span(dim):
    out = []
    for e in monomial_exponents(dim, 1):
        for comp in range(dim):
            out.append(_vec(dim, comp, Poly.monomial(dim, e)))
    return out


def _radial(dim) -> VecPoly:
    return VecPoly([Poly.variable(dim, ax) for ax in range(dim)])


def _rotated_radial() -> VecPoly:
    return VecPoly([-Poly.variable(2, 1), Poly.variable(2, 0)])


def _build_lagrange(dim, p):
    dofs = [DofSpec(0, i, "value") for i in range(dim + 1)]
    for e_idx in range(len(local_entities(dim, 1))):
        for j in range(p - 1):
            dofs.append(DofSpec(1, e_idx, "scalar", (j,)))
    if dim == 2 and p >= 3:
        for exps in monomial_exponents(2, p - 3):
            dofs.append(DofSpec(2, 0, "interior", exps))
    name = f"lagrange{p}" + ("_3d" if dim == 3 else "")
    return ElementFamily(name, dim, 0, p, "h1", _scalar_span(dim, p), dofs)


def _build_dg(dim, p):
    dofs = [DofSpec(dim, 0, "interior", exps) for exps in monomial_exponents(dim, p)]
    name = f"dg{p}" + ("_3d" if dim == 3 else "")
    return ElementFamily(name, dim, dim, p, "l2", _scalar_span(dim, p), dofs)


def _build_edge_2d(p):
    if p == 1:
        span = [_vec(2, 0, Poly.constant(2, 1)), _vec(2, 1, Poly.constant(2, 1)), _rotated_radial()]
    else:
        rr = _rotated_radial()
        span = _p1_vector_span(2) + [
            VecPoly([Poly.variable(2, ax) * c for c in rr.comps]) for ax in (0, 1)
        ]
    dofs = []
    for e_idx in range(3):
        for j in range(p):
            dofs.append(DofSpec(1, e_idx, "tangential", (j,)))
    if p == 2:
        for comp in (0, 1):
            dofs.append(DofSpec(2, 0, "interior", (0, 0), comp))
    return ElementFamily(f"edge{p}", 2, 1, p, "covariant", span, dofs)


def _build_face_2d(p):
    if p == 1:
        span = [_vec(2, 0, Poly.constant(2, 1)), _vec(2, 1, Poly.constant(2, 1)), _radial(2)]
    else:
        rad = _radial(2)
        span = _p1_vector_span(2) + [
            VecPoly([Poly.variable(2, ax) * c for c in rad.comps]) for ax in (0, 1)
        ]
    dofs = []
    for e_idx in range(3):
        for j in range(p):
            dofs.append(DofSpec(1, e_idx, "normal", (j,)))
    if p == 2:
        for comp in (0, 1):
            dofs.append(DofSpec(2, 0, "interior", (0, 0), comp))
    return ElementFamily(f"face{p}", 2, 1, p, "contravariant", span, dofs)


def _build_edge_3d():
    x = [Poly.variable(3, ax) for ax in range(3)]
    zero = Poly(3)
    span = [
        _vec(3, 0, Poly.constant(3, 1)),
        _vec(3, 1, Poly.constant(3, 1)),
        _vec(3, 2, Poly.constant(3, 1)),
        VecPoly([zero, -x[2], x[1]]),   # e1 cross x
        VecPoly([x[2], zero, -x[0]]),   # e2 cross x
        VecPoly([-x[1], x[0], zero]),   # e3 cross x
    ]
    dofs = [DofSpec(1, e_idx, "tangential", (0,)) for e_idx in range(6)]
    return ElementFamily("edge1_3d", 3, 1, 1, "covariant", span, dofs)


def _build_face_3d():
    span = [
        _vec(3, 0, Poly.constant(3, 1)),
        _vec(3, 1, Poly.constant(3, 1)),
        _vec(3, 2, Poly.constant(3, 1)),
        _radial(3),
    ]
    dofs = [DofSpec(2, f_idx, "normal", (0, 0)) for f_idx in range(4)]
    return ElementFamily("face1_3d", 3, 2, 1, "contravariant", span, dofs)


_BUILDERS = {
    "lagrange1": lambda: _build_lagrange(2, 1),
    "lagrange2": lambda: _build_lagrange(2, 2),
    "lagrange3": lambda: _build_lagrange(2, 3),
    "dg0": lambda: _build_dg(2, 0),
    "dg1": lambda: _build_dg(2, 1),
    "dg2": lambda: _build_dg(2, 2),
    "edge1": lambda: _build_edge_2d(1),
    "edge2": lambda: _build_edge_2d(2),
    "face1": lambda: _build_face_2d(1),
    "face2": lambda: _build_face_2d(2),
    "lagrange1_3d": lambda: _build_lagrange(3, 1),
    "dg0_3d": lambda: _build_dg(3, 0),
    "edge1_3d": _build_edge_3d,
    "face1_3d": _build_face_3d,
}

FAMILY_NAMES = tuple(sorted(_BUILDERS))


@lru_cache(maxsize=None)
def get_family(name: str) -> ElementFamily:
    try:
        builder = _BUILDERS[name]
    except KeyError:
        raise UnknownFamilyError(f"family {name!r} not in catalog (choose from {', '.join(FAMILY_NAMES)})") from None
    return builder()


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
    for p in fam_from._exact_basis:
        dp = _exterior_derivative(p, kind)
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
