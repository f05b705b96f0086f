"""Discrete differential complexes: exactness, commuting diagrams, stability.

A DiscreteComplex chains global spaces W_0 -> W_1 -> ... together with
the assembled derivative matrices between consecutive pairs.  The
checks certify the structural facts the element construction promises:

* d o d = 0 and the cohomology dimensions match the Betti numbers of
  the domain (check_exactness; exact ranks by collapse and coreduction,
  and at lowest order an audit that each derivative is the
  combinatorial incidence matrix scaled row by row, so it has the
  incidence ranks),
* the canonical projections commute with the derivatives on smooth
  fields (check_commuting over a fixed monomial battery),
* quantitative saddle-point stability for a tail pair: the inf-sup
  constant (compute_infsup, sparse shift-invert Lanczos on the Schur
  pencil, its deflated count by inertia, a non-SPD a-form rejected by
  its pivots).  The kernel condition needs no audit of its own: for a
  pair such as face1/dg0, div maps the flux space into the pressure
  space, and check_exactness certifies that inclusion.

Every audit here is sparse, except the explicit inf-sup pencil of at
most EXPLICIT_ORDER multipliers: its m x m Schur matrix, from m solves
of the sparse a factor.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .elements import _exterior_derivative
from .linalg import (CheckFailedError, NotPositiveDefiniteError, _absmax, check_symmetric,
                     complex_ranks, generalized_symmetric_eig, inertia, sparse_lu)
from .mesh import Mesh, row_keys
from .poly import Poly, VecPoly, monomial_exponents
from .spaces import assemble_derivative, build_space, canonical_projection

# composition residual above this (relative to the factor magnitudes)
# disqualifies the pair of matrices from being a complex at all
DD_RTOL = 1e-12
# Schur-pencil eigenvalues at or below this (relative to the largest)
# are null directions of B^T and are deflated from the inf-sup
# eigenproblem; their number is an inertia count, not a guess
DEFLATION_RTOL = 1e-10
# inf-sup Lanczos: shift -SHIFT_RTOL * lambda_max; explicit up to EXPLICIT_ORDER multipliers
SHIFT_RTOL = 1e-2
SCALE_RTOL = 1e-4              # Lanczos tolerance on lambda_max
EXPLICIT_ORDER = 8
# commuting checks are quadrature-exact; residuals are roundoff
BATTERY_DEGREE = 3

_FAMILY_CHAINS = {
    (2, 1): ("lagrange1", "edge1", "dg0"),
    (2, 2): ("lagrange2", "edge2", "dg1"),
    (3, 1): ("lagrange1_3d", "edge1_3d", "face1_3d", "dg0_3d"),
}


class NotAComplexError(CheckFailedError):
    """Composition of two consecutive derivative matrices is nonzero."""


@dataclass(frozen=True)
class DiscreteComplex:
    """Spaces W_0..W_n over one mesh with derivatives D_k: W_k -> W_{k+1}."""

    spaces: tuple
    derivatives: tuple

    def __post_init__(self):
        if len(self.derivatives) != len(self.spaces) - 1:
            raise ValueError("need one derivative matrix per consecutive pair")
        mesh = self.spaces[0].mesh
        for s in self.spaces:
            if s.mesh is not mesh:
                raise ValueError("complex spaces must share one mesh")
        for k, D in enumerate(self.derivatives):
            want = (self.spaces[k + 1].ndofs, self.spaces[k].ndofs)
            if D.shape != want:
                raise ValueError(f"derivative {k} has shape {D.shape}, expected {want}")

    def __len__(self):
        return len(self.spaces)

    @property
    def mesh(self) -> Mesh:
        return self.spaces[0].mesh

    @property
    def family_names(self):
        return tuple(s.family.name for s in self.spaces)

    @property
    def lowest_order(self) -> bool:
        """One DOF per mesh entity at every level (Whitney-form chains)."""
        return self.family_names in (_FAMILY_CHAINS[2, 1], _FAMILY_CHAINS[3, 1])

    def restricted_derivative(self, k: int):
        """D_k on the free DOFs (identical to D_k without essential BC)."""
        D = self.derivatives[k].tocsr()
        return D[self.spaces[k + 1].free, :][:, self.spaces[k].free]


def derham_complex(mesh: Mesh, order: int = 1, bc: str = "none") -> DiscreteComplex:
    """The graded scalar-vector-density chain over a mesh.

    2D: lagrange_p -grad-> edge_p -curl-> dg_{p-1} for order p in {1, 2};
    3D: lagrange1 -grad-> edge1 -curl-> face1 -div-> dg0 (order 1 only).
    """
    chain = _FAMILY_CHAINS.get((mesh.dim, order))
    if chain is None:
        raise ValueError(f"no order {order} complex on {mesh.dim}D meshes")
    spaces = tuple(build_space(mesh, name, bc=bc) for name in chain)
    derivs = tuple(assemble_derivative(a, b) for a, b in zip(spaces, spaces[1:]))
    return DiscreteComplex(spaces, derivs)


def incidence_matrix(mesh: Mesh, k: int) -> sp.csr_matrix:
    """Signed coboundary matrix from k-entities to (k+1)-entities.

    Entities carry ascending vertex tuples; the entry for the facet of
    (v_0..v_{k+1}) that drops v_i is (-1)^i.  Sparse and int64.
    """
    if not 0 <= k < mesh.dim:
        raise ValueError(f"no coboundary from dimension {k} on a {mesh.dim}D mesh")
    high = mesh.entities[k + 1]
    # the row keys ascend with the sorted k-entity table
    keys = row_keys(mesh.entities[k], mesh.num_vertices)
    if keys is None:
        raise ValueError(f"{k}-entity keys on {mesh.num_vertices} vertices overflow int64")
    facets = [row_keys(np.delete(high, i, axis=1), mesh.num_vertices) for i in range(k + 2)]
    cols = np.searchsorted(keys, np.stack(facets, axis=1))
    signs = np.tile((-1) ** np.arange(k + 2, dtype=np.int64), len(high))
    return sp.csr_matrix((signs, cols.ravel(), (k + 2) * np.arange(len(high) + 1)),
                         shape=(len(high), mesh.num_entities(k)))


# -- exactness -----------------------------------------------------------------


@dataclass(frozen=True)
class LevelReport:
    dim: int
    rank: int
    kernel: int
    cohomology: int


@dataclass(frozen=True)
class ComplexReport:
    levels: tuple
    alternating_sum: int
    expected_betti: tuple
    passed: bool

    def to_dict(self):
        return {
            "levels": [{"dim": lv.dim, "rank": lv.rank, "kernel": lv.kernel,
                        "cohomology": lv.cohomology} for lv in self.levels],
            "alternating_sum": self.alternating_sum,
            "expected_betti": list(self.expected_betti),
            "pass": self.passed,
        }


def check_exactness(cx: DiscreteComplex, expected_betti) -> ComplexReport:
    """Cohomology dimensions of the complex versus expected Betti numbers.

    Works on the free DOFs, so a bc="none" complex reports the absolute
    cohomology of the domain and a bc="essential" complex the relative
    one.  Raises NotAComplexError if any sparse product D_{k+1} D_k
    fails to vanish; cohomology at level k is dim ker D_k - rank D_{k-1}
    by rank-nullity.  The ranks come from one exact path,
    linalg.complex_ranks on the restricted derivatives.  At lowest order
    each restricted derivative must be the incidence slice with every row
    multiplied by one nonzero factor: 1 below the top level, and at the
    top one over the cell's signed volume.  A row scaling keeps the
    rank, so this audit certifies the incidence ranks without computing
    them again (a mismatch raises: it would mean a broken assembly).
    """
    expected = tuple(int(b) for b in expected_betti)
    if len(expected) != len(cx):
        raise ValueError(f"expected_betti needs {len(cx)} entries, got {len(expected)}")

    mats = [cx.restricted_derivative(k) for k in range(len(cx) - 1)]
    for k in range(len(mats) - 1):
        err = _absmax((mats[k + 1] @ mats[k]).data)
        scale = max(1.0, _absmax(mats[k].data) * _absmax(mats[k + 1].data))
        if err > DD_RTOL * scale:
            raise NotAComplexError(f"not a complex: |D{k + 1} D{k}| = {err:.3e}")

    if cx.lowest_order:
        for k, D in enumerate(mats):
            incidence = incidence_matrix(cx.mesh, k)[cx.spaces[k + 1].free][:, cx.spaces[k].free]
            if not _is_row_scaled(D, incidence, unit=k < len(mats) - 1):
                raise CheckFailedError(
                    f"rank cross-check failed at level {k}: D{k} is not a row scaling "
                    "of the incidence matrix")
    ranks = complex_ranks(mats) + [0]

    levels = []
    for k, space in enumerate(cx.spaces):
        dim = space.num_free
        kernel = dim - ranks[k]
        image_below = ranks[k - 1] if k > 0 else 0
        levels.append(LevelReport(dim, ranks[k], kernel, kernel - image_below))
    alternating = sum((-1) ** k * lv.dim for k, lv in enumerate(levels))
    passed = all(lv.cohomology == b for lv, b in zip(levels, expected))
    return ComplexReport(tuple(levels), alternating, expected, passed)


def _is_row_scaled(D, incidence, unit):
    """Whether D is the incidence matrix with each row multiplied by one
    nonzero factor (by 1 when `unit`): the same pattern, one ratio per row."""
    D, incidence = sp.csr_matrix(D, copy=True), incidence.sorted_indices()
    D.sum_duplicates()
    D.eliminate_zeros()
    if not (np.array_equal(D.indptr, incidence.indptr)
            and np.array_equal(D.indices, incidence.indices)):
        return False
    ratio = D.data / incidence.data
    factor = 1.0 if unit else ratio[np.repeat(D.indptr[:-1], np.diff(D.indptr))]
    return bool(np.all(ratio == factor))


# -- commuting diagrams --------------------------------------------------------


def _battery(family, degree):
    """Monomial test fields (u, du) shaped for a family's value type."""
    dim, scalar = family.mesh_dim, family.value_kind == "scalar"
    for comp in range(1 if scalar else dim):
        for e in monomial_exponents(dim, degree):
            u = Poly.monomial(dim, e)
            if not scalar:
                u = VecPoly([u if c == comp else Poly.constant(dim, 0.0) for c in range(dim)])
            yield u, _exterior_derivative(u, family.derivative_kind)


def check_commuting(cx: DiscreteComplex, degree: int = BATTERY_DEGREE) -> np.ndarray:
    """Max relative residual |D Pi_k u - Pi_{k+1} du| per square.

    The battery is every monomial of total degree <= degree placed in
    every value component of the source space; all DOF integrands stay
    within the quadrature design degree, so residuals are pure roundoff
    for a commuting construction.
    """
    residuals = np.zeros(len(cx) - 1)
    for k in range(len(cx) - 1):
        src, dst = cx.spaces[k], cx.spaces[k + 1]
        D = cx.derivatives[k]
        worst = 0.0
        for u, du in _battery(src.family, degree):
            lhs = D @ canonical_projection(src, u)
            rhs = canonical_projection(dst, du)
            worst = max(worst, _absmax(lhs - rhs) / max(1.0, _absmax(rhs)))
        residuals[k] = worst
    return residuals


# -- saddle-point stability ----------------------------------------------------


def compute_infsup(coupling, a_form, mass_v) -> float:
    """Inf-sup constant of a coupling form against an SPD a-form.

    gamma is the square root of the smallest eigenvalue of the Schur
    pencil

        (B a^-1 B^T) q = lambda M_V q

    after deflating the null directions of B^T: eigenvalues at or below
    t = DEFLATION_RTOL * lambda_max are dropped, so a surjectivity failure
    shows up as a rank drop, not a spurious zero.  The remaining
    eigenvectors are M_V-orthogonal to the null directions, so gamma is
    the constant on the quotient of the multiplier space by them.

    Everything stays sparse (Chapelle & Bathe, "The inf-sup test",
    1993): a is factored once by SuperLU, whose pivots reject an a-form
    that is not SPD, and lambda_max comes from Lanczos (to SCALE_RTOL).
    The positive pivots of [[a, B^T], [B, t M_V]] past the order of a
    count the d deflated eigenvalues (Sylvester's law).  Shift-invert
    Lanczos at -tau, tau = SHIFT_RTOL * lambda_max, by one sparse LU of
    [[a, B^T], [B, -tau M_V]], finds the d + 1 smallest, of which exactly
    d must be deflated (Ericsson & Ruhe, 1980).  Up to EXPLICIT_ORDER
    multipliers (ARPACK needs more unknowns than eigenvalues), or for
    d + 1 = m, the pencil is formed explicitly, B a^-1 B^T by one solve
    of the a factor per column of B^T, and takes its full spectrum.
    """
    B = sp.csr_matrix(coupling, dtype=float)
    a = check_symmetric(sp.csc_matrix(a_form, dtype=float), "a_form").tocsc()
    Mv = check_symmetric(sp.csr_matrix(mass_v, dtype=float), "mass_v")
    m, n = B.shape
    if m == 0 or B.count_nonzero() == 0:
        return 0.0
    a_lu = sparse_lu(a)
    if not np.array_equal(a_lu.perm_r, a_lu.perm_c) or np.any(a_lu.U.diagonal() <= 0.0):
        raise NotPositiveDefiniteError("a_form is not SPD by the pivots of its factor")
    Bt = B.T.tocsr()
    if m > EXPLICIT_ORDER:
        schur = spla.LinearOperator((m, m), matvec=lambda q: B @ a_lu.solve(Bt @ q), dtype=float)
        # a fixed start vector keeps repeated runs bit-identical; lambda_max
        # only sets scales, and the top of the spectrum clusters, so a loose
        # tolerance saves thousands of iterations
        v0 = np.random.default_rng(0).standard_normal(m)
        lam_max = float(spla.eigsh(schur, k=1, M=Mv, which="LA", v0=v0, tol=SCALE_RTOL,
                                   return_eigenvectors=False)[0])
        t = DEFLATION_RTOL * lam_max
        deflated = inertia(sp.bmat([[a, Bt], [B, t * Mv]], format="csc"))[1] - n
        if deflated < m - 1:
            tau = SHIFT_RTOL * lam_max
            lu = sparse_lu(sp.bmat([[a, Bt], [B, -tau * Mv]], format="csc"))
            # [[a, B^T], [B, -tau M]] (x, y) = (0, -r) gives y = (S + tau M)^-1 r
            inverse = spla.LinearOperator(
                (m, m), dtype=float,
                matvec=lambda r: lu.solve(np.concatenate([np.zeros(n), -np.ravel(r)]))[n:])
            lam = spla.eigsh(schur, k=deflated + 1, M=Mv, sigma=-tau, OPinv=inverse, v0=v0,
                             return_eigenvectors=False)
            return _smallest_kept(lam, lam_max, deflated)
    lam = generalized_symmetric_eig(B @ a_lu.solve(Bt.toarray()), Mv.toarray())
    return _smallest_kept(lam, lam[-1])


def _smallest_kept(lam, lam_max, deflated=None) -> float:
    """sqrt of the smallest eigenvalue above DEFLATION_RTOL * lam_max, with
    `deflated` (an inertia count) at or below it.  For an SPD a and B != 0
    the pencil is positive semidefinite, with lam_max > 0."""
    if lam_max <= 0.0 or np.min(lam) < -DEFLATION_RTOL * lam_max:
        raise NotPositiveDefiniteError("Schur pencil is not positive semidefinite")
    kept = lam[lam > DEFLATION_RTOL * lam_max]
    if deflated is not None and lam.size - kept.size != deflated:
        raise CheckFailedError(f"inf-sup: Lanczos and inertia disagree on {deflated} deflated")
    return math.sqrt(float(np.min(kept)))
