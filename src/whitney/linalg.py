"""Desk-scale linear algebra: symmetry-checked solves, a symmetric-definite
generalized eigensolver, numerical rank, and exact ranks of complexes.

Every linear system, definite or not and with one right-hand side or
many, goes through symmetric_indefinite_solve (dense input is converted
to CSC): a zero diagonal shifted to make a saddle matrix quasi-definite
(Vanderbei 1995), one sparse_lu factorization without pivoting, and
refinement against the true matrix (Gill, Saunders & Shinnerl 1996).
check_symmetric keeps a sparse matrix sparse.  Dense LAPACK is used
only for spectra (generalized_symmetric_eig) and for the singular
values behind numerical_rank, which serves operators that belong to no
complex.  The ranks of a complex are exact and sparse: complex_ranks
pivots on the sparsity pattern alone and hands what is left to
exact_rank, an elimination over the rationals.
"""
from __future__ import annotations

from collections import deque
from fractions import Fraction

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

SYMMETRY_RTOL = 1e-12
RANK_RTOL = 1e-10
SADDLE_SHIFT = 1e-8
MAX_REFINEMENT_STEPS = 8


class CheckFailedError(RuntimeError):
    """A self-audit ran and failed: the check failed, nothing crashed."""


class NotSymmetricError(RuntimeError):
    pass


class NotPositiveDefiniteError(RuntimeError):
    pass


class SingularSystemError(RuntimeError):
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
    """SuperLU on the minimum-degree ordering of A + A^T with diagonal pivots
    (off-diagonal only for an exact zero); a singular A raises SingularSystemError."""
    try:
        return spla.splu(sp.csc_matrix(A), permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                         options={"SymmetricMode": True})
    except RuntimeError as exc:
        raise SingularSystemError("singular system") from exc


def symmetric_indefinite_solve(A, b, residual_rtol=1e-10) -> np.ndarray:
    """Solve A x = b for symmetric (possibly indefinite) A; the columns
    of a 2-D b are solved at once.

    sparse_lu factors A once, each zero-diagonal row i shifted by
    -SADDLE_SHIFT * sum_j A_ij^2 / |A_jj| (nonzero A_jj only): the
    diagonal of the Schur complement B diag(A)^-1 B^T, which scales with
    the system.  Refinement against A stops at a componentwise backward
    error of 4 eps, when the residual stops falling, or after
    MAX_REFINEMENT_STEPS.  A relative residual above `residual_rtol`
    means a singular A: its shifted matrix is regular.
    """
    A = sp.csc_matrix(A, dtype=float)
    check_symmetric(A, "A")
    b = np.asarray(b, dtype=float)
    d, x, r = np.abs(A.diagonal()), np.zeros_like(b), b
    try:
        with np.errstate(all="ignore"):
            schur = A.multiply(A) @ np.divide(1.0, d, out=np.zeros_like(d), where=d > 0)
            factor = sparse_lu(A - sp.diags(SADDLE_SHIFT * schur * (d == 0)))
            for _ in range(1 + MAX_REFINEMENT_STEPS):    # one solve, then refinement
                x_next = x + factor.solve(r)
                r_next = b - A @ x_next
                if not np.abs(r_next).max() < np.abs(r).max():
                    break
                x, r = x_next, r_next
                if np.all(np.abs(r) <= 4 * np.finfo(float).eps * (abs(A) @ np.abs(x) + np.abs(b))):
                    break
    except ValueError as exc:
        raise SingularSystemError("singular system") from exc
    scale = max(_absmax(A) * max(np.abs(x).max(), 1.0), np.abs(b).max(), 1e-300)
    if not np.abs(r).max() <= residual_rtol * scale:
        raise SingularSystemError("singular system")
    return x


def generalized_symmetric_eig(A, B) -> np.ndarray:
    """Ascending eigenvalues of A x = lambda B x with A symmetric and B
    symmetric positive definite.  Dense reduction through the Cholesky
    factor of B."""
    A = check_symmetric(as_dense(A), "A")
    B = check_symmetric(as_dense(B), "B")
    try:
        return sla.eigh(A, B, eigvals_only=True, check_finite=False)
    except sla.LinAlgError as exc:
        raise NotPositiveDefiniteError("matrix not positive definite") from exc


def numerical_rank(A, rel_tol=RANK_RTOL) -> int:
    """Number of singular values above rel_tol times the largest one."""
    A = as_dense(A)
    if A.size == 0:
        return 0
    svals = sla.svdvals(A, check_finite=False)
    if svals.size == 0 or svals[0] == 0.0:
        return 0
    return int(np.count_nonzero(svals > rel_tol * svals[0]))


def complex_ranks(mats) -> list[int]:
    """Exact ranks of the derivatives D_k (level k -> k+1) of one complex.

    A live column of D_k with one live nonzero, or a live row with one,
    adds 1 to rank D_k and its entity pair is deleted.  As D_{k+1} D_k =
    0, the deletion keeps the ranks of D_{k-1} and D_{k+1} (collapses and
    coreductions: Kaczynski, Mischaikow & Mrozek, Computational Homology,
    2004).  Neighbour counts that drop to 1 are queued; the core left
    over goes to exact_rank.  The pattern alone picks pivots: no tolerance.
    """
    mats = [sp.csr_matrix(D) for D in mats]
    if any(a.shape[0] != b.shape[1] for a, b in zip(mats, mats[1:])):
        raise ValueError("consecutive derivatives do not chain")
    sizes = [D.shape[1] for D in mats] + [mats[-1].shape[0]]
    off = np.cumsum([0] + sizes)
    level = np.repeat(np.arange(len(sizes)), sizes).tolist()
    # the pattern of the whole complex on one entity numbering: column g
    # of T lists the cofaces of entity g, row g its faces
    B = sp.block_diag(mats, format="coo")
    B.eliminate_zeros()
    T = sp.csr_matrix((B.data, (B.row + sizes[0], B.col)), shape=(off[-1], off[-1]))
    adj = [(A.indptr.tolist(), A.indices.tolist()) for A in (T.tocsc(), T)]
    count = [np.diff(ptr).tolist() for ptr, _ in adj]
    alive = [True] * off[-1]
    # (g, side): side 0 pairs g with its only live coface, side 1 with its only face
    queue = deque((g, side) for side in (0, 1) for g, c in enumerate(count[side]) if c == 1)
    ranks = [0] * len(mats)

    def delete(g):
        alive[g] = False
        for side, (ptr, idx) in enumerate(adj):
            for f in idx[ptr[g]:ptr[g + 1]]:
                if alive[f]:
                    count[1 - side][f] -= 1
                    if count[1 - side][f] == 1:
                        queue.append((f, 1 - side))

    while queue:
        g, side = queue.popleft()
        if not alive[g] or count[side][g] != 1:
            continue
        ptr, idx = adj[side]
        partner = next(f for f in idx[ptr[g]:ptr[g + 1]] if alive[f])
        ranks[level[g] - side] += 1
        delete(g)
        delete(partner)

    alive = np.array(alive)
    for k, D in enumerate(mats):
        core = D[alive[off[k + 1]:off[k + 2]]][:, alive[off[k]:off[k + 1]]]
        if core.nnz:
            ranks[k] += exact_rank(core)
    return ranks


def exact_rank(A) -> int:
    """Rank over Q by sparse Gaussian elimination on Fractions: every
    float is an exact rational, so this is the rank of A as stored."""
    A = sp.csr_matrix(A)
    pivots = {}                                  # leading column -> normalized row
    for i in range(A.shape[0]):
        lo, hi = A.indptr[i], A.indptr[i + 1]
        row = {j: Fraction(v) for j, v in zip(A.indices[lo:hi].tolist(), A.data[lo:hi].tolist())
               if v}
        while row and (lead := min(row)) in pivots:
            factor = row[lead]
            for j, v in pivots[lead].items():
                row[j] = row.get(j, 0) - factor * v
                if not row[j]:
                    del row[j]
        if row:
            pivots[lead] = {j: v / row[lead] for j, v in row.items()}
    return len(pivots)
