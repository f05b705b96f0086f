"""Desk-scale linear algebra: symmetry-checked solves, a symmetric-definite
generalized eigensolver, inertia counts, and exact ranks of complexes.

Every global linear system whose solution is returned, definite or not,
goes through symmetric_indefinite_solve with one right-hand side (dense
input is converted to CSC): a zero diagonal shifted to make a saddle
matrix quasi-definite (Vanderbei 1995), one sparse_lu factorization
without pivoting, and refinement against the true matrix (Gill,
Saunders & Shinnerl 1996).  Its refinement and its final check use one
componentwise backward error, judging rows that a sparse right-hand
side leaves empty by the omega_2 scale of Arioli, Demmel & Duff (1989).
The one mixed form of mixed Poisson and elasticity, C sigma + D^T w =
0 and D sigma = -Pi_V f with the multiplier w = M_V u, is assembled,
bordered, solved and read back by mixed_solve alone.  A Schur matrix
X^T K^-1 X (the inf-sup pencil, the mixed cavity's G, the tree-cotree
split's mass complement) takes one unrefined solve per column of X with
spd_factor(K), the sparse_lu factor whose pivots certify an SPD K; the
Lanczos operators of complexes.compute_infsup apply factors unrefined
too, since the eigensolver's own tolerance governs those solves.  The
stress element dualizes its DOF tables, one per kind of cell, by one
stacked dense solve, and check_symmetric keeps a sparse matrix sparse.
Dense LAPACK is used only for spectra (generalized_symmetric_eig),
which hand every dense pencil to eigh's "gv" driver: the Cholesky
factor of the mass reduces it.  inertia counts the eigenvalues below a
shift, with no spectrum, from the signs of the sparse_lu pivots.
Every exact-structure question goes through one pass, collapse: the
collapses and coreductions of a complex's sparsity pattern pair its
entities.  complex_ranks counts the pairs and hands the unpaired core
to exact_rank, an elimination over the rationals.  A spectrum with a
known kernel, such as the gradients in an edge space, is split along
the tree rows the collapse pairs with the kernel's columns (the
tree-cotree gauge of Albanese & Rubinacci, 1988): the kernel's
eigenvalues are exact zeros, certified by max|A kernel| and the
pairing, and only the cotree block, against a Schur complement of the
mass, is dense.
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
KERNEL_RTOL = 1e-12
MAX_REFINEMENT_STEPS = 8
# a solve whose componentwise backward error exceeds this is rejected
RESIDUAL_RTOL = 1e-10
EPS = np.finfo(float).eps


class CheckFailedError(RuntimeError):
    """A self-audit ran and failed: the check failed, nothing crashed."""


class NotSymmetricError(RuntimeError):
    pass


class NotPositiveDefiniteError(RuntimeError):
    pass


class SingularSystemError(RuntimeError):
    pass


def check_symmetric(A, name="matrix"):
    """The symmetric part of A, after checking that A - A^T is roundoff.

    A sparse matrix stays sparse; anything else becomes a dense array.
    """
    if not sp.issparse(A):
        A = np.asarray(A, dtype=float)
    _require_symmetric(A, A.T, _absmax(A), name)
    return 0.5 * (A + A.T)


def _require_symmetric(A, AT, amax, name):
    """Raise NotSymmetricError unless A is square and A - AT, AT its
    transpose, is roundoff next to amax = max|A|."""
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise NotSymmetricError(f"{name} is not square: {A.shape}")
    if _absmax(A - AT) > SYMMETRY_RTOL * max(amax, 1e-300):
        raise NotSymmetricError(f"{name} is not symmetric to {SYMMETRY_RTOL:g} relative tolerance")


def _absmax(A) -> float:
    if sp.issparse(A):
        return float(abs(A).max()) if A.nnz else 0.0
    return float(np.abs(A).max()) if A.size else 0.0


def _row_absmax(R) -> np.ndarray:
    """max_j |R_ij| of each row of a CSR matrix without duplicate entries;
    0 for an empty row."""
    out = np.zeros(R.shape[0])
    filled = np.diff(R.indptr) > 0
    if R.nnz:
        out[filled] = np.maximum.reduceat(np.abs(R.data), R.indptr[:-1][filled])
    return out


def sparse_lu(A):
    """SuperLU on the minimum-degree ordering of A + A^T with diagonal pivots
    (off-diagonal only for an exact zero); a singular A raises SingularSystemError."""
    try:
        return spla.splu(sp.csc_matrix(A), permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                         options={"SymmetricMode": True})
    except RuntimeError as exc:
        raise SingularSystemError("singular system") from exc


def spd_factor(K):
    """sparse_lu(K) for a symmetric positive definite K: a pivot that leaves
    the diagonal or is not positive raises NotPositiveDefiniteError."""
    lu = sparse_lu(K)
    if not np.array_equal(lu.perm_r, lu.perm_c) or np.any(lu.U.diagonal() <= 0.0):
        raise NotPositiveDefiniteError("matrix is not SPD by the pivots of its factor")
    return lu


def symmetric_indefinite_solve(A, b) -> np.ndarray:
    """Solve A x = b for symmetric (possibly indefinite) A and one vector b.

    sparse_lu factors A once, each zero-diagonal row i shifted by
    -SADDLE_SHIFT * sum_j A_ij^2 / |A_jj| (nonzero A_jj only): the
    diagonal of the Schur complement B diag(A)^-1 B^T, which scales with
    the system.  Refinement against A stops when every residual entry is
    within 4 eps of its row's scale, when the residual stops falling, or
    after MAX_REFINEMENT_STEPS.  The row scale is (|A||x| + |b|)_i, or
    (|A||x|)_i + |A_i|_inf |x|_inf where that is roundoff next to the
    second term, as it is in the empty rows of a sparse b (the omega_1 /
    omega_2 split of Arioli, Demmel & Duff, SIMAX 1989).  The same
    componentwise backward error judges the result: a residual entry
    above RESIDUAL_RTOL times its row scale means a singular A (its
    shifted matrix is regular) or a refinement that fell short.  The
    solve runs on b scaled by a power of two to max|b| in [1/2, 1), an
    exact scaling that keeps the shifted factor's solves from
    overflowing when |b| nears the top of the float range.
    """
    b = np.asarray(b, dtype=float)
    if b.ndim != 1:
        raise ValueError(f"b must be a vector, not an array of shape {b.shape}")
    exponent = int(np.frexp(np.abs(b).max(initial=0.0))[1])
    b = np.ldexp(b, -exponent)
    A = sp.csc_matrix(A, dtype=float)
    # the one copy of A, duplicates summed: its CSR arrays, read as CSC,
    # are A^T.  It gives the symmetry check, the row maxima of |A| and the
    # squares of the shift, and is released before the factorization.
    R = A.tocsr()
    R.sum_duplicates()
    row_max = _row_absmax(R)
    _require_symmetric(A, sp.csc_matrix((R.data, R.indices, R.indptr), shape=A.shape[::-1]),
                       float(row_max.max(initial=0.0)), "A")
    if A.shape[0] == 0:
        return np.zeros_like(b)
    d = np.abs(A.diagonal())
    try:
        with np.errstate(all="ignore"):
            schur = (sp.csr_matrix((R.data ** 2, R.indices, R.indptr), shape=A.shape)
                     @ np.divide(1.0, d, out=np.zeros_like(d), where=d > 0))
            del R
            factor = sparse_lu(A - sp.diags(SADDLE_SHIFT * schur * (d == 0)))
            absA = abs(A)
            # the first solve is always taken: its residual may exceed |b|
            x, r, r_max, passed = np.zeros_like(b), b, np.inf, False
            for _ in range(1 + MAX_REFINEMENT_STEPS):    # one solve, then refinement
                x_next = x + factor.solve(r)
                r_next = b - A @ x_next
                r_next_max = np.abs(r_next).max()
                if not r_next_max < r_max:
                    break
                x, r, r_max = x_next, r_next, r_next_max
                r_abs, scale = np.abs(r), _row_scale(absA, row_max, b, x)
                passed = bool(np.all(r_abs <= RESIDUAL_RTOL * scale))
                if np.all(r_abs <= 4 * EPS * scale):
                    break
    except ValueError as exc:
        raise SingularSystemError("singular system") from exc
    if not passed:
        raise SingularSystemError("singular system")
    return np.ldexp(x, exponent)


def _row_scale(absA, row_max, b, x) -> np.ndarray:
    """The omega_1 / omega_2 row scale of x described in
    symmetric_indefinite_solve; row_max holds |A_i|_inf."""
    ax = absA @ np.abs(x)
    near = ax + np.abs(b)                        # |A||x| + |b|
    far = row_max * np.abs(x).max()              # |A_i|_inf |x|_inf
    return np.where(near <= 1000 * absA.shape[0] * EPS * (far + np.abs(b)), far + ax, near)


def mixed_solve(C, D, target, border=None):
    """(sigma, w, residual) of C sigma + L^T w' = 0, L sigma = (0, -target),
    L = D under the rows of `border`, by one symmetric_indefinite_solve: w
    holds the multipliers of D's rows, and residual = max|D sigma + target|
    / max(1, max|target|).  Every block is CSC (C too), so bmat stacks the
    compressed arrays with no COO copy; C is released before the
    factorization."""
    L = sp.csr_matrix(D) if border is None else sp.vstack([border, D], format="csr")
    n, k = C.shape[0], L.shape[0] - D.shape[0]
    K = sp.bmat([[C, L.T], [L.tocsc(), sp.csc_matrix((L.shape[0],) * 2)]], format="csc")
    del C, L
    x = symmetric_indefinite_solve(K, np.concatenate([np.zeros(n + k), -target]))
    residual = np.abs(D @ x[:n] + target).max() / max(1.0, np.abs(target).max())
    return x[:n], x[n + k:], float(residual)


def generalized_symmetric_eig(A, B, kernel=None) -> np.ndarray:
    """Ascending eigenvalues of A x = lambda B x with A symmetric and B
    symmetric positive definite, by eigh's "gv" driver (LAPACK dsygv), which
    reduces through the Cholesky factor of B (NotPositiveDefiniteError where it fails).

    `kernel`, a matrix whose columns lie in ker A (the gradient of an
    edge space), splits the spectrum along a tree (the tree-cotree gauge
    of Albanese & Rubinacci, 1988).  The level-0 pairs of
    collapse([kernel]) give one tree row per column, and the tree block
    they index is nonsingular for any sparsity pattern, so the kernel
    columns and the unit vectors of the other (cotree) rows C form a
    basis; a column left unpaired raises CheckFailedError.  In that
    basis A is diag(0, A_CC), up to the roundoff that max|A kernel| is
    checked against, so the spectrum is one exact zero per kernel column
    merged with the eigenvalues of (A_CC, S), S the Schur complement of
    the kernel block of B: S = B_CC - X K^-1 X^T with X = (B kernel)_C,
    K = kernel^T B kernel factored by spd_factor.  Those zeros are
    certified by the two checks, not computed: no pencil on span(kernel)
    is formed.  Only the cotree pencil is dense at its full size, and
    LAPACK writes over its two blocks in place.  A kernel the split
    misses, such as a harmonic field, shows as computed near-zero values
    of the cotree pencil.
    """
    zeros = 0 if kernel is None else kernel.shape[1]
    if not zeros:
        # check_symmetric returns exactly symmetric arrays: their transposes
        # are the same matrices, F-ordered, which LAPACK overwrites uncopied
        A, B = (check_symmetric(M.toarray() if sp.issparse(M) else M, name).T
                for M, name in ((A, "A"), (B, "B")))
    else:
        A = check_symmetric(sp.csr_matrix(A, dtype=float), "A")
        B = check_symmetric(sp.csr_matrix(B, dtype=float), "B")
        G = sp.csc_matrix(kernel, dtype=float)
        gap = _absmax(A @ G)
        if gap > KERNEL_RTOL * _absmax(A) * _absmax(G):
            raise CheckFailedError(f"kernel is not in ker A: max|A G| = {gap:.3e}")
        (pairs,), _ = collapse([G])
        if len(pairs) < G.shape[1]:
            raise CheckFailedError("kernel columns are left unpaired by the collapse")
        cotree = np.ones(A.shape[0], dtype=bool)
        cotree[pairs[:, 1]] = False
        # S = B_cc - X K^-1 X^T, X = (B G)_c, K = G^T B G: one spd_factor(K) solve
        # per cotree row, into a C-ordered Y that X @ Y reads uncopied.  B_cc adds
        # its stored entries to the product's F-ordered transpose in place.
        BG = B @ G
        X = BG[cotree]
        Y = np.empty(X.shape[::-1])
        Y[:] = spd_factor(check_symmetric(G.T @ BG, "G^T B G")).solve(X.toarray().T)
        S = (-X @ Y).T
        del Y
        B_cc = B[cotree][:, cotree].tocoo()
        S[B_cc.row, B_cc.col] += B_cc.data
        A, B = A[cotree][:, cotree].toarray(order="F"), S
    try:
        values = sla.eigh(A, B, eigvals_only=True, driver="gv", overwrite_a=True,
                          overwrite_b=True, check_finite=False)
    except np.linalg.LinAlgError as exc:
        if "of B is not positive definite" not in str(exc):
            raise
        raise NotPositiveDefiniteError("matrix not positive definite") from exc
    return np.sort(np.concatenate([np.zeros(zeros), values]))


def inertia(K) -> tuple[int, int]:
    """(negative, positive) eigenvalue counts of a symmetric K: the signs of
    D = diag(U) in sparse_lu's P K P^T = L D L^T (Sylvester's law; Parlett
    1998).  A pivot off the diagonal or exactly zero raises CheckFailedError."""
    try:
        lu = sparse_lu(K)
    except SingularSystemError as exc:
        raise CheckFailedError("inertia: a pivot is exactly zero") from exc
    if not np.array_equal(lu.perm_r, lu.perm_c):
        raise CheckFailedError("inertia: a pivot left the diagonal")
    pivots = lu.U.diagonal()
    return int(np.count_nonzero(pivots < 0)), int(np.count_nonzero(pivots > 0))


def collapse(mats):
    """Pair the entities of one complex of derivatives D_k (level k -> k+1)
    by collapses and coreductions (Kaczynski, Mischaikow & Mrozek,
    Computational Homology, 2004).

    A live column of D_k with one live nonzero, or a live row with one,
    is paired with that entry's row or column and both are deleted.  As
    D_{k+1} D_k = 0, the deletion keeps the ranks of D_{k-1} and D_{k+1}.
    Neighbour counts that drop to 1 are queued; the pattern alone picks
    pairs: no tolerance.  Each pair, when made, is the only live entry of
    its row or of its column, so the pairs of D_k in pairing order
    eliminate with no fill: D_k[rows, cols] is nonsingular.

    Returns (pairs, core): pairs[k] holds one (column, row) of D_k per
    pair, in pairing order, and core[k] masks level k's unpaired entities.
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
    pairs = [[] for _ in mats]                   # (face, coface) entity numbers

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
        pairs[level[g] - side].append((partner, g) if side else (g, partner))
        delete(g)
        delete(partner)

    alive = np.array(alive)
    return ([np.array(p, dtype=int).reshape(-1, 2) - off[k:k + 2] for k, p in enumerate(pairs)],
            [alive[off[k]:off[k + 1]] for k in range(len(sizes))])


def complex_ranks(mats) -> list[int]:
    """Exact ranks of the derivatives D_k (level k -> k+1) of one complex:
    the pairs of collapse(mats), plus exact_rank of the unpaired core."""
    mats = [sp.csr_matrix(D) for D in mats]
    pairs, core = collapse(mats)
    ranks = []
    for k, D in enumerate(mats):
        block = D[core[k + 1]][:, core[k]]
        ranks.append(len(pairs[k]) + (exact_rank(block) if block.nnz else 0))
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
