"""Desk-scale linear algebra: symmetry-checked solves, a symmetric-definite
generalized eigensolver, and numerical plus exact integer rank.

Every linear system, definite or not and with one right-hand side or
many, goes through symmetric_indefinite_solve: one SuperLU
factorization (sparse_lu) of the matrix in CSC form, dense input
included.  check_symmetric keeps a sparse matrix sparse.  Dense LAPACK
is used only for spectra (generalized_symmetric_eig) and for the
singular values behind numerical_rank.  This module pins the contracts
the rest of the package relies on: symmetry checks, ascending
B-orthonormal eigenpairs, residual-verified solves, and a rank that can
be cross-checked against exact integer elimination for incidence
matrices.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

SYMMETRY_RTOL = 1e-12
RANK_RTOL = 1e-10


class CheckFailedError(RuntimeError):
    """A self-audit ran and failed: the check failed, nothing crashed."""


class NotSymmetricError(ValueError):
    pass


class NotPositiveDefiniteError(ValueError):
    pass


class SingularSystemError(ValueError):
    pass


def as_dense(A) -> np.ndarray:
    if sp.issparse(A):
        return A.toarray()
    return np.asarray(A, dtype=float)


def check_symmetric(A, name="matrix", rtol=SYMMETRY_RTOL):
    """The symmetric part of A, after checking that A - A^T is roundoff.

    A sparse matrix stays sparse; anything else becomes a dense array.
    """
    if not sp.issparse(A):
        A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise NotSymmetricError(f"{name} is not square: {A.shape}")
    if _absmax(A - A.T) > rtol * max(_absmax(A), 1e-300):
        raise NotSymmetricError(f"{name} is not symmetric within {rtol:g} relative tolerance")
    return 0.5 * (A + A.T)


def _absmax(A) -> float:
    if sp.issparse(A):
        return float(abs(A).max()) if A.nnz else 0.0
    return float(np.abs(A).max()) if A.size else 0.0


def sparse_lu(A):
    """SuperLU factorization of a square sparse matrix; an exactly
    singular matrix raises SingularSystemError."""
    try:
        return spla.splu(sp.csc_matrix(A))
    except RuntimeError as exc:
        raise SingularSystemError("singular system") from exc


def symmetric_indefinite_solve(A, b, residual_rtol=1e-8) -> np.ndarray:
    """Solve A x = b for symmetric (possibly indefinite) A; the columns
    of a 2-D b are solved at once.

    A is taken as CSC (dense input is converted, not factored dense),
    factored once by SuperLU and improved by one step of iterative
    refinement; the relative residual is verified against
    `residual_rtol` and a failure is reported as a singular system.
    """
    A = sp.csc_matrix(A, dtype=float)
    check_symmetric(A, "A")
    b = np.asarray(b, dtype=float)
    try:
        with np.errstate(all="ignore"):
            factor = sparse_lu(A)
            x = factor.solve(b)
            x = x + factor.solve(b - A @ x)
    except ValueError as exc:
        raise SingularSystemError("singular system") from exc
    scale = max(_absmax(A) * max(np.abs(x).max(), 1.0), np.abs(b).max(), 1e-300)
    resid = np.abs(b - A @ x).max()
    if not np.isfinite(resid) or resid > residual_rtol * scale:
        raise SingularSystemError("singular system")
    return x


@dataclass
class Spectrum:
    """Ascending eigenvalues with B-orthonormal eigenvectors as columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def __iter__(self):
        return iter((self.eigenvalues, self.eigenvectors))


def generalized_symmetric_eig(A, B) -> Spectrum:
    """Solve A x = lambda B x with A symmetric and B symmetric positive
    definite.  Dense reduction through the Cholesky factor of B."""
    A = check_symmetric(as_dense(A), "A")
    B = check_symmetric(as_dense(B), "B")
    try:
        vals, vecs = sla.eigh(A, B, check_finite=False)
    except sla.LinAlgError as exc:
        raise NotPositiveDefiniteError("matrix not positive definite") from exc
    return Spectrum(vals, vecs)


def numerical_rank(A, rel_tol=RANK_RTOL) -> int:
    """Number of singular values above rel_tol times the largest one."""
    A = as_dense(A)
    if A.size == 0:
        return 0
    svals = sla.svdvals(A, check_finite=False)
    if svals.size == 0 or svals[0] == 0.0:
        return 0
    return int(np.count_nonzero(svals > rel_tol * svals[0]))


def integer_rank(M) -> int:
    """Exact rank of an integer matrix via fraction-free elimination.

    Bareiss' algorithm keeps every intermediate entry an exact integer
    (a minor of M).  For incidence matrices these minors are tiny, so
    int64 suffices; a Python bigint fallback guards the general case.
    """
    M = as_dense(M)
    if M.size == 0:
        return 0
    R = np.rint(M).astype(np.int64)
    if np.abs(M - R).max() > 0:
        raise ValueError("integer_rank requires an integer matrix")
    try:
        return _bareiss_rank_int64(R.copy())
    except OverflowError:
        return _bareiss_rank_bigint([[int(x) for x in row] for row in R.tolist()])


def _bareiss_rank_int64(M: np.ndarray) -> int:
    nrows, ncols = M.shape
    prev = 1
    r = 0
    for c in range(ncols):
        pivots = np.nonzero(M[r:, c])[0]
        if pivots.size == 0:
            continue
        p = r + pivots[0]
        if p != r:
            M[[r, p]] = M[[p, r]]
        if np.abs(M).max() > 2**30:
            raise OverflowError
        piv = M[r, c]
        below = M[r + 1 :, :]
        below[:] = (below * piv - np.outer(M[r + 1 :, c], M[r])) // prev
        prev = piv
        r += 1
        if r == nrows:
            break
    return r


def _bareiss_rank_bigint(M: list[list[int]]) -> int:
    nrows = len(M)
    ncols = len(M[0])
    prev = 1
    r = 0
    for c in range(ncols):
        p = next((i for i in range(r, nrows) if M[i][c] != 0), None)
        if p is None:
            continue
        M[r], M[p] = M[p], M[r]
        piv = M[r][c]
        for i in range(r + 1, nrows):
            fac = M[i][c]
            M[i] = [(piv * M[i][j] - fac * M[r][j]) // prev for j in range(ncols)]
        prev = piv
        r += 1
        if r == nrows:
            break
    return r
