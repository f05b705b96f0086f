"""Eigenvalue and convergence case studies over the core discretizations.

Four families of runs, each packaged as a reproducible program that
returns a structured report:

* Dirichlet Laplace eigenvalues with Lagrange elements, the control
  case where the Galerkin method approximates the spectrum cleanly,
* the Maxwell cavity eigenproblem on the square of side pi, comparing
  the edge-element discretization (correct: zero eigenvalues counted
  exactly by interior vertices, positive eigenvalues accurate) against
  the nodal vector discretization (polluted spectrum),
* the mixed form of the cavity problem on the range of the discrete
  curl, whose spectrum must reproduce the positive Galerkin spectrum
  with the zero eigenspace suppressed (posed on all of dg0, with the
  extra zeros counted by the exact rank and dropped),
* convergence sweeps for the mixed Poisson pair face1/dg0 with
  per-level inf-sup monitoring, for the primal Poisson problem at
  orders 1 and 2, and for the mixed elasticity solver.

Every spectrum comes from one checked eigensolve, full-spectrum: its
zero count from thresholding is cross-checked against the kernel
dimension, and a mismatch raises.  That is size - rank, exact from a
complex (linalg.complex_ranks) wherever the operator factors through
one: the curl for the edge cavity and its mixed form, the gradient into
the edge partner for Laplace.  The nodal cavity, in no complex, counts
its kernel by the inertia of one sparse factor.  A zero block so
certified is reported as exact zeros.  The edge cavity's eigensolve
splits its gradients off, as exact zeros, along the tree its collapse
pairs with them and densifies only the cotree block; the mixed pencil's
Schur matrix comes from the sparse factor of the edge mass
(linalg.spd_factor), as the explicit inf-sup pencil's does, and every
pencil is solved dense.  The sweeps share one refinement loop, one order
fit per series and one L2 error norm, scaled by a power of two so that
huge errors stay finite.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .elasticity import evaluate_stress, manufactured_solution, solve_mixed_elasticity
from .complexes import compute_infsup, derham_complex
from .elements import get_family
from .linalg import (
    CheckFailedError,
    complex_ranks,
    generalized_symmetric_eig,
    inertia,
    mixed_solve,
    spd_factor,
    symmetric_indefinite_solve,
)
from .mesh import Mesh, generate_ellipse_mesh, generate_square_mesh
from .spaces import (
    assemble_derivative,
    assemble_load,
    assemble_mass,
    assemble_stiffness_like,
    build_space,
    canonical_projection,
    evaluate_derivative_on_cells,
    evaluate_on_cells,
)

ZERO_EIGENVALUE_RTOL = 1e-8
SPECTRUM_MATCH_RTOL = 1e-8
STRUCTURE_RTOL = 1e-12
REFERENCE_BAND = (0.0, 10.0)
CLUSTER_RTOL = 0.05
POLLUTION_FACTOR = 2.0
ORDER_FIT_WINDOW = 3
# the edge family that holds the gradients of each Laplace family
EDGE_PARTNER = {"lagrange1": "edge1", "lagrange2": "edge2"}


# -- reports -------------------------------------------------------------------


@dataclass(frozen=True)
class SpectrumReport:
    """Full spectrum of one eigenvalue run plus its consistency checks.

    `zero_count` comes from thresholding at `zero_threshold` and equals
    the independent rank or inertia count of the kernel (a mismatch
    aborts the run instead of producing a report); the JSON repeats it
    as `kernel_dim`.  The first `zero_count` eigenvalues, the certified
    kernel, are exact zeros.  `relative_errors` are signed, (computed - exact) /
    exact, for the leading positive eigenvalues against `reference`.
    """

    family: str
    mesh: str
    eigenvalues: np.ndarray
    zero_count: int
    zero_threshold: float
    reference: tuple
    relative_errors: tuple
    passed: bool
    notes: dict = field(default_factory=dict)

    @property
    def positive_eigenvalues(self) -> np.ndarray:
        return self.eigenvalues[self.zero_count:]

    def to_dict(self) -> dict:
        return {
            "family": self.family,
            "mesh": self.mesh,
            "eigenvalues": [float(v) for v in self.eigenvalues],
            "zero_count": int(self.zero_count),
            "zero_threshold": float(self.zero_threshold),
            "kernel_dim": int(self.zero_count),
            "reference": [float(v) for v in self.reference],
            "relative_errors": [float(v) for v in self.relative_errors],
            "passed": bool(self.passed),
            "notes": dict(self.notes),
        }


@dataclass(frozen=True)
class ConvergenceReport:
    """Error history of a refinement sweep with fitted observed orders.

    Orders are least-squares slopes of log(error) against log(h) over
    the last ORDER_FIT_WINDOW levels; `fit_residuals` carries the rms
    misfit of that line so a bad fit is visible in the report.
    """

    name: str
    hs: tuple
    errors: dict
    orders: dict
    fit_residuals: dict
    infsup: tuple | None = None
    notes: dict = field(default_factory=dict)

    def __post_init__(self):
        hs = np.asarray(self.hs, dtype=float)
        if hs.size and np.any(np.diff(hs) >= 0):
            raise ValueError("mesh sizes must be strictly decreasing")
        for key, seq in self.errors.items():
            if len(seq) != hs.size:
                raise ValueError(f"error series {key!r} does not match the levels")

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "h": [float(h) for h in self.hs],
            "errors": {k: [float(v) for v in seq] for k, seq in self.errors.items()},
            "orders": {k: float(v) for k, v in self.orders.items()},
            "fit_residuals": {k: float(v) for k, v in self.fit_residuals.items()},
            "infsup": None if self.infsup is None else [float(g) for g in self.infsup],
            "passed": bool(self.passed) if "passed" in self.notes else None,
            "notes": dict(self.notes),
        }

    @property
    def passed(self):
        return self.notes.get("passed")


def observed_order(hs, errors):
    """Least-squares slope of log(err) vs log(h) over the last ORDER_FIT_WINDOW levels.

    Returns (order, rms residual of the fit in log space).  Exact-zero
    errors would break the log fit and mean the sweep is degenerate, so
    they raise.
    """
    hs = np.asarray(hs, dtype=float)[-ORDER_FIT_WINDOW:]
    errors = np.asarray(errors, dtype=float)[-ORDER_FIT_WINDOW:]
    if hs.size < 2:
        raise ValueError("need at least two levels to fit an order")
    if np.any(errors <= 0):
        raise ValueError("non-positive error in order fit")
    A = np.stack([np.log(hs), np.ones_like(hs)], axis=1)
    coef, *_ = np.linalg.lstsq(A, np.log(errors), rcond=None)
    resid = A @ coef - np.log(errors)
    return float(coef[0]), float(np.sqrt(np.mean(resid**2)))


# -- references ----------------------------------------------------------------


def square_dirichlet_reference(count: int) -> tuple:
    """Smallest Dirichlet Laplacian eigenvalues on the square of side pi,
    with multiplicity: m^2 + n^2 for m, n >= 1."""
    limit = int(np.ceil(np.sqrt(count))) + 2
    vals = sorted(m * m + n * n for m in range(1, limit + 1) for n in range(1, limit + 1))
    return tuple(float(v) for v in vals[:count])


def cavity_reference(count: int) -> tuple:
    """Smallest positive Maxwell cavity eigenvalues on the square of
    side pi, with multiplicity: m^2 + n^2 over m, n >= 0, not both 0."""
    limit = int(np.ceil(np.sqrt(count))) + 2
    vals = sorted(m * m + n * n for m in range(limit + 1) for n in range(limit + 1)
                  if m + n > 0)
    return tuple(float(v) for v in vals[:count])


def _signed_errors(positive: np.ndarray, reference) -> tuple:
    k = min(len(reference), positive.size)
    ref = np.asarray(reference[:k], dtype=float)
    return tuple((positive[:k] - ref) / ref)


def _spectrum(A, M, rank, kernel=None):
    """Ascending eigenvalues of A x = lambda M x (none: a usage error), their
    zero count and the zero threshold.  The count from thresholding must
    equal size - rank, or the inertia count below the threshold for rank
    None, or the run aborts; once certified, the zero block is returned as
    exact zeros.  `kernel`, a known part of ker A (the edge gradients),
    splits the eigensolve along its tree-cotree gauge."""
    lam = generalized_symmetric_eig(A, M, kernel)
    if lam.size == 0:
        raise ValueError("the mesh leaves no free DOFs: the spectrum is empty")
    threshold = ZERO_EIGENVALUE_RTOL * max(abs(lam[0]), abs(lam[-1]))
    zero_count = int(np.searchsorted(lam, threshold))
    kernel_dim = lam.size - rank if rank is not None else inertia(A - threshold * M)[0]
    if zero_count != kernel_dim:
        raise CheckFailedError(
            f"zero-eigenvalue threshold count {zero_count} disagrees with "
            f"{'rank-based' if rank is not None else 'inertia'} kernel dimension {kernel_dim}")
    lam[:zero_count] = 0.0
    return lam, zero_count, threshold


def _require_count(count: int):
    """A spectrum study compares at least one reference eigenvalue."""
    if count < 1:
        raise ValueError("count must be >= 1")


# -- Laplace eigenvalues -------------------------------------------------------


def laplace_eigenvalues(domain: str = "square", family: str = "lagrange1",
                        n: int = 8, pattern: str = "uniform",
                        count: int = 10) -> SpectrumReport:
    """Dirichlet Laplace eigenvalues, full spectrum on the free DOFs.

    The square has side pi so the exact eigenvalues are the integers
    m^2 + n^2 (m, n >= 1); computed values are Rayleigh-Ritz upper
    bounds and the report checks that.  Ellipse runs carry no analytic
    reference and only report the spectrum.  The zero count is checked
    against the exact rank of the gradient into the family's
    EDGE_PARTNER, which is the rank of the stiffness.
    """
    _require_count(count)
    if domain == "square":
        mesh = generate_square_mesh(n, pattern=pattern, side=np.pi)
    elif domain == "ellipse":
        mesh = generate_ellipse_mesh(n)
    else:
        raise ValueError(f"unknown domain {domain!r}")
    if family not in EDGE_PARTNER:
        raise ValueError(f"Laplace eigenproblem needs an H1 family with an edge partner "
                         f"({' or '.join(EDGE_PARTNER)}), not {family!r}")
    W = build_space(mesh, family, bc="essential")
    K = W.restrict(assemble_stiffness_like(W, W, "grad"))
    M = W.restrict(assemble_mass(W))
    # K = G^T M_edge G with M_edge SPD, so rank K = rank G, exact from the complex
    gradient = assemble_derivative(W, build_space(mesh, EDGE_PARTNER[family]))[:, W.free]
    lam, zero_count, threshold = _spectrum(K, M, complex_ranks([gradient])[0])
    if domain == "square":
        reference = square_dirichlet_reference(count)
        errors = _signed_errors(lam[zero_count:], reference)
        passed = (zero_count == 0
                  and len(errors) == count
                  and all(e >= -1e-10 for e in errors))
    else:
        reference, errors = (), ()
        passed = zero_count == 0
    return SpectrumReport(
        family=family, mesh=mesh.domain_tag, eigenvalues=lam,
        zero_count=zero_count, zero_threshold=threshold,
        reference=reference, relative_errors=errors, passed=passed,
        notes={"free_dofs": int(W.num_free)})


# -- Maxwell cavity ------------------------------------------------------------


@dataclass(frozen=True)
class CavitySystem:
    """Assembled sparse (curl-curl, mass) pair on free DOFs.

    `rank` is the exact rank of the edge `curlcurl` (None for the nodal
    one, whose kernel _spectrum counts by inertia).  The edge builder
    also keeps the free-restricted derivatives and the cell mass of the
    complex, for the gradient-kernel and mixed-form runs.
    """

    mesh: Mesh
    curlcurl: sp.csr_matrix
    mass: sp.csr_matrix
    interior_vertices: int
    rank: int | None = None
    gradient: sp.csr_matrix | None = None   # free-restricted derivative W -> Q
    curl: sp.csr_matrix | None = None       # free-restricted derivative Q -> V
    cell_mass: sp.csr_matrix | None = None


def edge_cavity_system(n: int, pattern: str = "crossed") -> CavitySystem:
    """Edge-element cavity operator on the square of side pi.

    The de Rham chain with tangential essential BC; the curl-curl stiffness
    is assembled both directly and as D^T M2 D and the two must agree,
    which exercises the derivative-matrix path end to end.  M2 is SPD, so
    the rank of curl-curl is that of the curl, exact from the complex.
    """
    mesh = generate_square_mesh(n, pattern=pattern, side=np.pi)
    cx = derham_complex(mesh, bc="essential")
    Q, V = cx.spaces[1:]
    D1 = cx.derivatives[1]
    M2 = assemble_mass(V)
    A = (D1.T @ M2 @ D1).tocsr()
    gap = abs(A - assemble_stiffness_like(Q, Q, "curl")).max()
    if gap > STRUCTURE_RTOL * max(abs(A).max(), 1.0):
        raise CheckFailedError(f"curl-curl != D^T M2 D (gap {gap:.3e})")
    gradient, curl = cx.restricted_derivative(0), cx.restricted_derivative(1)
    return CavitySystem(
        mesh=mesh, curlcurl=Q.restrict(A), mass=Q.restrict(assemble_mass(Q)),
        interior_vertices=int(np.count_nonzero(~mesh.boundary[0])),
        rank=complex_ranks([gradient, curl])[1], gradient=gradient, curl=curl, cell_mass=M2)


def nodal_cavity_system(n: int, pattern: str = "uniform") -> CavitySystem:
    """Vector Lagrange cavity operator on the square of side pi.

    Each Cartesian component is a lagrange1 field, DOF g = c * V +
    vertex for component c.  The tangential BC is imposed the way
    nodal codes impose it, by clamping both components at boundary
    vertices (the free count is then twice the interior vertex count).
    """
    mesh = generate_square_mesh(n, pattern=pattern, side=np.pi)
    W = build_space(mesh, get_family("lagrange1"))
    # int d_a(phi_i) d_b(phi_j) dx: the coefficient e_a e_b^T on the gradients
    K = [[assemble_stiffness_like(W, W, "grad", np.outer(a, b)) for b in np.eye(2)]
         for a in np.eye(2)]
    # curl E = d1 Ey - d2 Ex, so testing with (phi, 0) picks up d2 and
    # with (0, phi) picks up d1, with a sign flip on the cross blocks
    A = sp.bmat([[K[1][1], -K[1][0]], [-K[0][1], K[0][0]]], format="csr")
    M = sp.block_diag([assemble_mass(W)] * 2, format="csr")
    free = np.tile(~mesh.boundary[0], 2)
    return CavitySystem(
        mesh=mesh, curlcurl=A[free][:, free], mass=M[free][:, free],
        interior_vertices=int(np.count_nonzero(~mesh.boundary[0])))


def maxwell_eigenvalues(family: str = "edge1", n: int = 16,
                        pattern: str | None = None, count: int = 10) -> SpectrumReport:
    """Cavity eigenvalues curl curl E = lambda E on the square of side pi.

    For edge1 the report checks the zero count against both the rank
    of the curl-curl operator and the interior-vertex count, and the
    positive eigenvalues against the exact m^2 + n^2 list.  For the
    nodal discretization `passed` means the expected spectral
    pollution was observed: the count of computed values in the
    reference band is off from the exact count by more than
    POLLUTION_FACTOR, since that failure is the point of the run.  The
    exact values with no computed value nearby are reported as a note;
    on fine meshes the spurious values fill the band and none is left.
    pattern defaults per family: crossed for edge1, uniform for nodal
    (where the clamped uniform grid shows the cleanest pollution).
    """
    _require_count(count)
    if family == "edge1":
        pattern = pattern or "crossed"
        system = edge_cavity_system(n, pattern)
    elif family == "nodal":
        pattern = pattern or "uniform"
        system = nodal_cavity_system(n, pattern)
    else:
        raise ValueError(f"unknown cavity family {family!r}")

    lam, zero_count, threshold = _spectrum(system.curlcurl, system.mass, system.rank,
                                           system.gradient)
    reference = cavity_reference(count)
    errors = _signed_errors(lam[zero_count:], reference)
    notes = {"n": int(n), "pattern": pattern,
             "interior_vertices": int(system.interior_vertices),
             "free_dofs": int(lam.size)}

    if family == "edge1":
        passed = (zero_count == system.interior_vertices
                  and len(errors) == count
                  and max(abs(e) for e in errors) <= 0.01)
    else:
        lo, hi = REFERENCE_BAND
        band_count = int(np.count_nonzero((lam > max(lo, threshold)) & (lam < hi)))
        expected = sum(1 for v in reference if lo < v < hi)
        unmatched = [v for v in sorted(set(reference))
                     if np.min(np.abs(lam - v)) > CLUSTER_RTOL * v]
        notes.update({"band": list(REFERENCE_BAND), "band_count": band_count,
                      "expected_band_count": expected,
                      "unmatched_reference": [float(v) for v in unmatched]})
        passed = (band_count > POLLUTION_FACTOR * expected
                  or band_count < expected / POLLUTION_FACTOR)

    return SpectrumReport(
        family=family, mesh=system.mesh.domain_tag, eigenvalues=lam,
        zero_count=zero_count, zero_threshold=threshold,
        reference=reference, relative_errors=errors, passed=passed, notes=notes)


def maxwell_mixed_eigenvalues(n: int = 8, pattern: str = "crossed",
                              count: int = 10) -> SpectrumReport:
    """Mixed form of the cavity problem on P_h = curl Q_h.

    The pencil G q = lambda M2 q, with G = (M2 D) A^{-1} (M2 D)^T (D the
    curl, A the edge mass, M2 the cell mass), is posed on all of dg0, with
    one solve of linalg.spd_factor(A) per cell, as in compute_infsup.  G
    vanishes exactly on the M2-orthogonal complement of range(D), so the
    spectrum on P_h is the dg0 spectrum with its cells - rank zeros
    dropped, and _spectrum certifies that zero count against the exact
    rank from the complex.  The spectrum on P_h must equal the positive
    Galerkin cavity spectrum; `passed` asserts exactly that equivalence,
    computed side by side.
    """
    _require_count(count)
    system = edge_cavity_system(n, pattern)
    M2D = system.cell_mass @ system.curl
    G = M2D @ spd_factor(system.mass).solve(M2D.T.toarray())
    full, zeros, threshold = _spectrum(G, system.cell_mass, system.rank)
    lam = full[zeros:]
    galerkin, g_zero, _ = _spectrum(system.curlcurl, system.mass, system.rank, system.gradient)
    g_pos = galerkin[g_zero:]

    # both checked spectra have `rank` positive values, so they pair up
    match_gap = float(np.abs(lam - g_pos).max() / np.abs(g_pos).max())
    reference = cavity_reference(count)
    errors = _signed_errors(lam, reference)
    passed = bool(match_gap <= SPECTRUM_MATCH_RTOL)
    notes = {"n": int(n), "pattern": pattern, "multiplier_dim": system.rank,
             "galerkin_zero_count": int(g_zero), "equivalence_gap": match_gap}
    return SpectrumReport(
        family="edge1-mixed", mesh=system.mesh.domain_tag, eigenvalues=lam,
        zero_count=0, zero_threshold=threshold,
        reference=reference, relative_errors=errors, passed=passed, notes=notes)


# -- refinement sweeps ---------------------------------------------------------


def _sin_sin(p):
    """The manufactured potential u = sin(pi x) sin(pi y)."""
    return np.sin(np.pi * p[:, 0]) * np.sin(np.pi * p[:, 1])


def _grad_sin_sin(p):
    return np.stack([np.pi * np.cos(np.pi * p[:, 0]) * np.sin(np.pi * p[:, 1]),
                     np.pi * np.sin(np.pi * p[:, 0]) * np.cos(np.pi * p[:, 1])], axis=1)


def _l2_error(*terms) -> float:
    """L2 norm of the errors of one or more (evaluation, exact[, metric])
    terms: evaluation the (points, weights*|det|, values) triple of an
    evaluate_* call, compared with exact(points); `metric` weights the
    components of vector values, which are otherwise summed.  Every error
    is scaled by one power of two, which brings the largest into [1/2, 1),
    before it is squared, so the norm is finite wherever the errors are;
    where no square over- or underflows, it is the unscaled norm bit for bit."""
    errors = []
    for (pts, wdet, vals), exact, *metric in terms:
        err = vals - exact(pts.reshape(-1, pts.shape[-1])).reshape(vals.shape)
        errors.append((wdet, err, metric[0] if metric else None))
    exponent = int(np.frexp(max(np.abs(err).max(initial=0.0) for _, err, _ in errors))[1])
    total = 0.0
    for wdet, err, metric in errors:
        sq = np.ldexp(err, -exponent)**2
        if sq.ndim == 3:
            sq = np.sum(sq, axis=-1) if metric is None else sq @ metric
        total += np.sum(wdet * sq)
    return float(np.ldexp(np.sqrt(total), exponent))


def _sweep(ns, pattern: str, level, keys):
    """Run level(mesh) -> {name: number} on the unit square at each n.

    Returns the per-level series of every name, and the hs, errors,
    orders and fit_residuals fields of a ConvergenceReport over the
    error series named in `keys`.
    """
    hs, series = [], {}
    for n in ns:
        for name, value in level(generate_square_mesh(n, pattern=pattern)).items():
            series.setdefault(name, []).append(value)
        hs.append(1.0 / n)
    fits = {k: observed_order(hs, series.get(k, ())) for k in keys}
    return series, {"hs": tuple(hs), "errors": {k: tuple(series[k]) for k in keys},
                    "orders": {k: order for k, (order, _) in fits.items()},
                    "fit_residuals": {k: resid for k, (_, resid) in fits.items()}}


def _coefficient_matrix(coefficient) -> np.ndarray:
    C = np.asarray(coefficient, dtype=float)
    if not np.all(np.isfinite(C)):
        raise ValueError(f"coefficient must be finite, got {coefficient!r}")
    if C.ndim == 0:
        C = float(C) * np.eye(2)
    elif C.ndim == 1:
        C = np.diag(C)
    if C.shape != (2, 2) or np.abs(C - C.T).max() > 1e-12 * np.abs(C).max():
        raise ValueError("coefficient must be a scalar or a symmetric 2x2 matrix")
    if np.linalg.eigvalsh(C)[0] <= 0:
        raise ValueError("coefficient must be positive definite")
    return C


def solve_mixed_poisson(mesh: Mesh, coefficient=1.0):
    """Solve sigma = C grad u, -div sigma = f (u = sin pi x sin pi y
    manufactured, homogeneous natural BC for u) with face1/dg0.

    The mixed form of linalg.mixed_solve: D sigma = -Pi_V f and C^-1 sigma
    + D^T w = 0 with the multiplier w = M_V u, M_V the dg0 mass.

    Returns (sigma_dofs, u_dofs, err_sigma, err_u, infsup).
    """
    C = _coefficient_matrix(coefficient)
    Cinv = np.linalg.inv(C)

    def sigma_exact(p):
        return _grad_sin_sin(p) @ C.T

    def f(p):
        cc = np.cos(np.pi * p[:, 0]) * np.cos(np.pi * p[:, 1])
        return np.pi**2 * ((C[0, 0] + C[1, 1]) * _sin_sin(p) - 2 * C[0, 1] * cc)

    S = build_space(mesh, get_family("face1"))
    V = build_space(mesh, get_family("dg0"))
    A = assemble_mass(S, coefficient=Cinv)
    D = assemble_derivative(S, V)
    MV = assemble_mass(V)
    sigma_h, w, _ = mixed_solve(A.tocsc(), D, canonical_projection(V, f))
    u_h = spd_factor(MV).solve(w)
    err_u = _l2_error((evaluate_on_cells(V, u_h), _sin_sin))
    err_sigma = _l2_error((evaluate_on_cells(S, sigma_h), sigma_exact))

    gamma = compute_infsup(MV @ D, A + D.T @ MV @ D, MV)
    return sigma_h, u_h, err_sigma, err_u, gamma


def mixed_poisson_convergence(ns=(4, 8, 16, 32), coefficient=1.0,
                              pattern: str = "uniform") -> ConvergenceReport:
    """Refinement sweep for the mixed Poisson pair on the unit square.

    Reports L2 errors and observed orders for flux and potential, and
    the inf-sup constant of the discrete pair at every level (its
    near-constancy across levels is the stability statement).
    """
    def level(mesh):
        _, _, err_sigma, err_u, gamma = solve_mixed_poisson(mesh, coefficient)
        return {"err_u": err_u, "err_sigma": err_sigma, "infsup": gamma}

    series, fit = _sweep(ns, pattern, level, ("err_u", "err_sigma"))
    gammas = series["infsup"]
    spread = (max(gammas) - min(gammas)) / max(gammas)
    passed = all(order >= 0.9 for order in fit["orders"].values()) and spread < 0.10
    return ConvergenceReport(
        name="mixed-poisson", **fit, infsup=tuple(gammas),
        notes={"coefficient": _coefficient_matrix(coefficient).tolist(),
               "pattern": pattern, "infsup_spread": float(spread),
               "passed": bool(passed)})


def solve_poisson(mesh: Mesh, order: int = 1, f=None):
    """Primal Dirichlet Poisson solve; returns (space, dof vector)."""
    fam = get_family(f"lagrange{order}")
    W = build_space(mesh, fam, bc="essential")
    if f is None:
        def f(p):
            return 2 * np.pi**2 * np.sin(np.pi * p[:, 0]) * np.sin(np.pi * p[:, 1])
    K = W.restrict(assemble_stiffness_like(W, W, "grad"))
    F = W.restrict_vector(assemble_load(W, f))
    return W, W.extend_vector(symmetric_indefinite_solve(K, F))


def galerkin_quasioptimality_demo(ns=(4, 8, 16, 32), order: int = 1,
                                  pattern: str = "uniform") -> ConvergenceReport:
    """H1 convergence of the primal Poisson problem at order p.

    Quasioptimality bounds the H1 error by the best-approximation
    error, which is O(h^p) for the smooth manufactured solution; the
    sweep checks that the observed order matches.
    """
    if order not in (1, 2):
        raise ValueError("order must be 1 or 2")

    def level(mesh):
        W, u_h = solve_poisson(mesh, order)
        u_term = (evaluate_on_cells(W, u_h), _sin_sin)
        return {"err_h1": _l2_error(u_term, (evaluate_derivative_on_cells(W, u_h), _grad_sin_sin)),
                "err_l2": _l2_error(u_term)}

    _, fit = _sweep(ns, pattern, level, ("err_h1", "err_l2"))
    passed = fit["orders"]["err_h1"] >= order - 0.1
    return ConvergenceReport(
        name=f"poisson-p{order}", **fit,
        notes={"order": int(order), "pattern": pattern, "passed": bool(passed)})


def elasticity_convergence(ns=(4, 8, 16), lam: float = 1.0, mu: float = 1.0,
                           pattern: str = "uniform") -> ConvergenceReport:
    """Refinement sweep for the mixed elasticity solver.

    L2 errors for stress and displacement against the manufactured
    solution; the discrete equilibrium residual div sigma_h + P f = 0
    is recorded per level and must stay at solver precision.
    """
    u_exact, sigma_exact, f = manufactured_solution(lam, mu)

    def level(mesh):
        sol = solve_mixed_elasticity(mesh, lam=lam, mu=mu, f=f)
        return {"err_u": _l2_error((evaluate_on_cells(sol.displacement_space, sol.u), u_exact)),
                "err_sigma": _l2_error((evaluate_stress(sol.stress_space, sol.sigma),
                                        sigma_exact, np.array([1.0, 2.0, 1.0]))),
                "residual": float(sol.equilibrium_residual)}

    series, fit = _sweep(ns, pattern, level, ("err_u", "err_sigma"))
    residuals = series["residual"]
    passed = all(order >= 1.0 for order in fit["orders"].values()) and max(residuals) <= 1e-9
    return ConvergenceReport(
        name="mixed-elasticity", **fit,
        notes={"lambda": float(lam), "mu": float(mu), "pattern": pattern,
               "equilibrium_residuals": residuals, "passed": bool(passed)})
