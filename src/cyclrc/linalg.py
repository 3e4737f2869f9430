"""Dense linear algebra over a FieldSpec.

Every elimination runs through one batched Gauss-Jordan kernel,
`gauss_jordan`: it reduces a (batch, rows, cols) stack to reduced row
echelon form at numpy speed and reports each entry's rank, pivot columns
and signed pivot product.  The other routines are views over it.  The
single-matrix ones (`rref`, `rank`, `nullspace`) run a batch of one, and the
batched ones (`batch_rank`, `batch_det`, `batch_nullvec`) read their answer
off the reduced stack.  `kernel_from_rref` is the one kernel read-off: it
turns a stack of RREFs of one rank into their kernel bases, for `nullspace`,
`batch_nullvec` and the zero-core scan's prefix pencils.  All matrices are
numpy int64 arrays of element indices.

`first_dependent_columns` is the one column-dependence scan: it batches the
t-subsets of a matrix's columns through `batch_rank`, and
`column_scan_cost` is its work estimate.  The support climb of a cyclic code
scans only the C(n-1, w-1) supports through coordinate 0, but the estimate
still counts all C(n, w), and so do the strategy ranking and the budget
refusals built on it, until the cost model is recalibrated (an open ROADMAP
item).
"""

from __future__ import annotations

import itertools
from functools import reduce
from math import comb
from typing import NamedTuple, Optional

import numpy as np

from .field import FieldSpec


class Elimination(NamedTuple):
    reduced: np.ndarray  # (batch, rows, cols) RREF stack, zero rows last
    rank: np.ndarray  # (batch,)
    pivots: np.ndarray  # (batch, rows): pivot column of row i < rank, else -1
    scales: np.ndarray  # (batch, rows): pivot of row i < rank before it was scaled to 1, else 1


def gauss_jordan(F: FieldSpec, mats) -> Elimination:
    """Batched Gauss-Jordan elimination of a (batch, rows, cols) stack.

    Row swaps negate the row moved down, which keeps the row space (so the
    RREF) and the determinant; the determinant of a full-rank square entry
    is then the product of its scales.
    """
    R = np.array(mats, dtype=np.int64, copy=True)
    nb, rows, cols = R.shape
    rank = np.zeros(nb, dtype=np.int64)
    pivots = np.full((nb, rows), -1, dtype=np.int64)
    scales = np.ones((nb, rows), dtype=np.int64)
    ridx = np.arange(rows)
    for c in range(cols):
        cand = (R[:, :, c] != 0) & (ridx >= rank[:, None])
        bi = np.flatnonzero(cand.any(axis=1))
        if len(bi) == 0:
            continue
        r0 = rank[bi]
        sel = cand[bi].argmax(axis=1)
        swap = sel != r0
        if swap.any():
            sb, a, b = bi[swap], r0[swap], sel[swap]
            R[sb, a], R[sb, b] = R[sb, b], F.vneg(R[sb, a])
        # rows from r0 down are zero left of column c, so only columns c.. change
        pivrow = R[bi, r0, c:]
        scales[bi, r0] = pivrow[:, 0]
        pivrow = F.vdiv_nz(pivrow, pivrow[:, :1])
        block = R[bi, :, c:]
        R[bi, :, c:] = F.vsub(block, F.vmul(block[:, :, :1], pivrow[:, None, :]))
        R[bi, r0, c:] = pivrow  # the update zeroed it
        pivots[bi, r0] = c
        rank[bi] = r0 + 1
    return Elimination(R, rank, pivots, scales)


def rref(F: FieldSpec, M) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form; returns (nonzero rows, pivot columns)."""
    e = gauss_jordan(F, np.asarray(M)[None])
    r = int(e.rank[0])
    return e.reduced[0, :r], e.pivots[0, :r].tolist()


def rank(F: FieldSpec, M) -> int:
    return int(gauss_jordan(F, np.asarray(M)[None]).rank[0])


def nullspace(F: FieldSpec, M) -> np.ndarray:
    """Basis of the right kernel, one vector per row: `kernel_from_rref` of
    the matrix's RREF."""
    R, piv = rref(F, M)
    return kernel_from_rref(F, R[None], np.array(piv, dtype=np.int64)[None])[0]


def kernel_from_rref(F: FieldSpec, R, piv) -> np.ndarray:
    """Kernel bases of a stack of RREFs that share one rank r.

    R is (batch, r, cols) with no zero rows and piv its (batch, r) pivot
    columns.  Entry b of the (batch, cols - r, cols) result has one row per
    free column f, in increasing order: v[f] = 1, v[piv_i] = -R[i, f], and
    zero at the other free columns.
    """
    nb, r, cols = R.shape
    bound = np.zeros((nb, cols), dtype=bool)
    bound[np.arange(nb)[:, None], piv] = True
    free = np.nonzero(~bound)[1].reshape(nb, cols - r)
    bi = np.arange(nb)[:, None, None]
    fi = np.arange(cols - r)[None, :, None]
    basis = np.zeros((nb, cols - r, cols), dtype=np.int64)
    basis[bi, fi, free[:, :, None]] = 1
    at_free = np.take_along_axis(R, free[:, None, :], axis=2)  # (batch, r, cols - r)
    basis[bi, fi, piv[:, None, :]] = F.vneg(at_free.transpose(0, 2, 1))
    return basis


def mat_vec(F: FieldSpec, M, v) -> np.ndarray:
    M = np.asarray(M, dtype=np.int64)
    acc = np.zeros(M.shape[0], dtype=np.int64)
    for j in range(M.shape[1]):
        if v[j]:
            acc = F.vadd(acc, F.vmul(M[:, j], int(v[j])))
    return acc


def mat_mul(F: FieldSpec, A, B) -> np.ndarray:
    A = np.asarray(A, dtype=np.int64)
    B = np.asarray(B, dtype=np.int64)
    out = np.zeros((A.shape[0], B.shape[1]), dtype=np.int64)
    for j in range(A.shape[1]):
        col = A[:, j]
        row = B[j, :]
        out = F.vadd(out, F.vmul(col[:, None], row[None, :]))
    return out


# ---------------------------------------------------------------------------
# Batched views.  mats has shape (batch, rows, cols).


def batch_rank(F: FieldSpec, mats) -> np.ndarray:
    return gauss_jordan(F, mats).rank


def batch_det(F: FieldSpec, mats) -> np.ndarray:
    """Determinants of a stack of square matrices (0 for singular ones)."""
    e = gauss_jordan(F, mats)
    nb, n, cols = e.reduced.shape
    if n != cols:
        raise ValueError(f"determinant of non-square {n}x{cols} matrices")
    det = reduce(F.vmul, e.scales.T, np.ones(nb, dtype=np.int64))
    return np.where(e.rank == n, det, 0)


def batch_nullvec(F: FieldSpec, mats) -> np.ndarray:
    """One kernel vector for each (c-1) x c matrix, read off its RREF.

    Rows of the result are all-zero exactly for the batch entries whose rank
    is below c-1 (kernel dimension > 1); callers drop those rows.
    """
    R, rk, piv, _ = gauss_jordan(F, mats)
    nb, r, c = R.shape
    if r != c - 1:
        raise ValueError(f"kernel vector of {r}x{c} matrices needs {c - 1} rows")
    out = np.zeros((nb, c), dtype=np.int64)
    full = rk == r
    out[full] = kernel_from_rref(F, R[full], piv[full])[:, 0]
    return out


def column_scan_cost(cols: int, rows: int, t: int) -> int:
    """Work estimate of `first_dependent_columns`: one rows x t elimination
    per t-subset of the columns.  The support climb's scan through coordinate
    0 does C(cols-1, t-1) of them; it is still priced at C(cols, t) until the
    cost model is recalibrated (an open ROADMAP item)."""
    return comb(cols, t) * rows * t * min(t, rows)


def first_dependent_columns(F: FieldSpec, M, t: int, chunk: int = 4096) -> Optional[tuple[int, ...]]:
    """Lex-first t-subset of the columns of M that is linearly dependent, or None."""
    M = np.asarray(M, dtype=np.int64)
    rows, cols = M.shape
    if rows < t:
        return tuple(range(t)) if cols >= t else None  # rank never reaches t
    it = itertools.combinations(range(cols), t)
    while block := list(itertools.islice(it, chunk)):
        combos = np.array(block, dtype=np.int64)
        dep = np.flatnonzero(batch_rank(F, M[:, combos].transpose(1, 0, 2)) < t)
        if len(dep):
            return tuple(int(x) for x in combos[dep[0]])
    return None
