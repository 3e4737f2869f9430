"""Dense linear algebra over a FieldSpec.

Two eliminations serve every routine.  `gauss_jordan` reduces a (batch,
rows, cols) stack to reduced row echelon form at numpy speed and reports
each entry's rank, pivot columns and signed pivot product.  The
single-matrix routines (`rref`, `rank`, `nullspace`) run a batch of one, and
the batched ones (`batch_rank`, `batch_det`, `batch_nullvec`) read their
answer off the reduced stack.  `kernel_from_rref` is the one kernel
read-off: it turns a stack of RREFs of one rank into their kernel bases, for
`nullspace` and `batch_nullvec`.  All matrices are numpy int64 arrays of
element indices.

`prefix_walk` is the other: it walks the column subsets of a matrix
depth-first in lex order and eliminates each prefix once, one pivot step
from its parent's rows, so every subset that shares a prefix shares that
work.  Both fold the pivot's scalars in on the small side (one coefficient
per row), so each element of a block costs one multiplication and one
addition.  The walk serves the zero-core scan and
`first_dependent_columns`, the one column-dependence scan, and both read
their last level off pencils instead of eliminating it: the zero-core scan
classes the points of each two-row node by the ratio of its rows, and the
column scan classes the columns of each (t-2)-column prefix's rows by their
projective point, so a dependent t-set through the prefix is a pair of
parallel columns or one with a zero column.  Both take a `lead`, the bound
on the first column, which the cyclic scans set by the smallest cyclic
gap, and the zero-core scan adds a `keep` filter on children, which walks
one zero set per Frobenius orbit.  `column_scan_cost` is the scan's work
estimate, one elimination per t-subset, kept as it was: the strategy
ranking and the budget refusals built on it stay put until the cost model
is recalibrated (an open ROADMAP item).
"""

from __future__ import annotations

from functools import reduce
from math import comb
from typing import Callable, NamedTuple, Optional

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
        R[bi, :, c:] = F.vadd(block, F.vmul(F.vneg(block[:, :, :1]), pivrow[:, None, :]))
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


# Largest parent-row block, in elements, that one batch of `prefix_walk`
# children gathers; wide matrices get fewer children per batch.
_BATCH_ELEMS = 1 << 18


def prefix_walk(F: FieldSpec, A, size: int, chunk: int = 1024, lead: Optional[int] = None,
                deepest: Optional[int] = None, keep: Optional[Callable] = None):
    """Depth-first walk, in lex order, over the column sets of A that are
    independent, extend to `size` columns, hold at most `deepest` columns
    (default: size - 1), but for the empty set start below column `lead`
    (default: any column), and pass `keep` (default: every set).

    A node is such a set P with rows R = Y A for a basis Y of
    the y whose y A vanishes on P; column s of R is then zero exactly when
    A's column s lies in the span of A's columns P.  The root is the empty
    set with R = A.  Its child P + s, for s past P's last column with at
    least size - |P| - 1 columns after s, pivots on the first row i with
    R[i, s] != 0 and keeps the rows R[r] + c_r R[i], r != i, with
    c_r = -R[r, s] / R[i, s] formed once per row, so Y stays a basis.  A
    child whose column s is zero is dependent and is not visited.

    Yields (P, R) per batch of nodes: P (batch, |P|) columns and R (batch,
    rows - |P|, cols).  A batch holds up to `chunk` children of one parent
    batch, fewer where their parents' rows would pass _BATCH_ELEMS
    elements, and comes before its children's batches, so batches come in
    lex order of their first node.  `lead` cuts only the root's children to
    the columns s < lead; every deeper step is unchanged.  `keep(P, parent,
    s)` sees one batch's columns P and the candidate children P[parent] + s
    before any is eliminated, and returns a mask of those to walk, or None
    for all of them; a child it drops is not visited, nor anything below it.
    The column scan stops at `deepest` = size - 2, where it reads the last
    level off pencils, so no node it is given lacks the columns to complete
    a set.
    """
    A = np.asarray(A, dtype=np.int64)
    cols = A.shape[1]
    deepest = size - 1 if deepest is None else deepest
    pending = [iter([(np.zeros((1, 0), dtype=np.int64), A[None])])]
    while pending:
        node = next(pending[-1], None)
        if node is None:
            pending.pop()
            continue
        yield node
        depth = node[0].shape[1]
        if depth < deepest:
            stop = cols if depth or lead is None else lead
            pending.append(_children(F, *node, size, chunk, stop, keep))


def _children(F: FieldSpec, P, R, size: int, chunk: int, stop: int, keep: Optional[Callable]):
    """The batches of independent children of one `prefix_walk` batch whose
    new column lies below `stop` and that `keep` keeps."""
    nb, m, cols = R.shape
    depth = P.shape[1]
    first = P[:, -1] + 1 if depth else np.zeros(nb, dtype=np.int64)
    counts = np.maximum(min(cols - size + depth + 1, stop) - first, 0)
    parent = np.repeat(np.arange(nb), counts)
    col = np.arange(len(parent)) + np.repeat(first - np.cumsum(counts) + counts, counts)
    mask = None if keep is None else keep(P, parent, col)
    if mask is not None:
        parent, col = parent[mask], col[mask]
    step = max(1, min(chunk, _BATCH_ELEMS // max(1, m * cols)))
    for lo in range(0, len(parent), step):
        b, s = parent[lo:lo + step], col[lo:lo + step]
        at = R[b, :, s]  # (batch, m): column s of each parent's rows
        nz = at != 0
        live = nz.any(axis=1)
        b, s, at = b[live], s[live], at[live]
        if not len(b):
            continue
        piv = nz[live].argmax(axis=1)
        rest = np.arange(m - 1) + (np.arange(m - 1) >= piv[:, None])  # (batch, m - 1): rows r != piv
        ib = np.arange(len(b))
        coef = F.vneg(F.vdiv_nz(at[ib[:, None], rest], at[ib, piv][:, None]))  # (batch, m - 1)
        kept = F.vadd(R[b[:, None], rest], F.vmul(coef[:, :, None], R[b, piv][:, None, :]))
        yield np.column_stack([P[b], s]), kept


def column_scan_cost(cols: int, rows: int, t: int) -> int:
    """Work estimate of `first_dependent_columns`: one rows x t elimination
    per t-subset of the columns.  The walk eliminates each prefix once, and
    the support climb's scan through coordinate 0, cut to a second point at
    most cols // t, walks fewer than C(cols-1, t-1) subsets, but the
    estimate still prices C(cols, t) on purpose, so no strategy choice or
    budget refusal built on it moves until the cost model is recalibrated
    (an open ROADMAP item)."""
    return comb(cols, t) * rows * t * min(t, rows)


def first_dependent_columns(F: FieldSpec, M, t: int, chunk: int = 1024,
                            lead: Optional[int] = None) -> Optional[tuple[int, ...]]:
    """Lex-first t-subset of the columns of M that is linearly dependent and
    starts below column `lead` (default: any column), or None.

    `prefix_walk` visits the independent prefixes that extend to t columns
    and hold at most t - 2 of them (the root alone when t <= 2).  A zero
    column s past a prefix P's last column makes P + s dependent, and with
    it every t-set through P + s, the first of which completes P + s by the
    columns right after s.  The last level is read off pencils: at a node P
    of t - 2 columns, Y v = 0 exactly when v lies in the span of M's columns
    P, so P + s + u is dependent exactly when columns s and u of R = Y M
    are, that is when they are parallel or one of them is zero.  The
    lex-first such set through P is P + s + u for the least s past P's last
    column that has a partner u > s, and its least partner: s + 1 when
    column s is zero, else the next column of its class or the next zero
    column, whichever comes first (`_column_partners`).

    So a set no later than any dependent t-set Q is found.  Let Q[:j] be
    Q's shortest dependent prefix.  If j < t - 1, or t = 1, the node Q[:j-1]
    has the zero column Q[j-1] and finds the completion of Q[:j], no later
    than Q.  Otherwise Q[:t-2] is independent, a pencil node whose columns
    Q[t-2] and Q[t-1] are dependent, and it finds its least pair, no later
    than Q.  Every set found is dependent, so the least is the lex-first.

    A prefix's completion is the first t-set through it, and completions
    never decrease along the walk's order of batches, so once a batch's
    first prefix completes no earlier than the best set found, no later
    batch holds an earlier one.  The nodes of one batch are distinct
    prefixes of one length in lex order, so a set through an earlier node
    comes first; a batch of pencils is classed in slices of growing size
    and stops at the first slice with a pair (`_first_pair`).  A set that
    starts below `lead` is a zero column of the root below `lead`, a root
    pair whose first column is below `lead` (t = 2), or lies under a root
    child the walk keeps, so the cut walk finds the lex-first of those sets.
    """
    M = np.asarray(M, dtype=np.int64)
    rows, cols = M.shape
    if t == 0 or cols < t:
        return None  # the empty set is independent; no t-set exists
    if rows < t:
        return tuple(range(t))  # rank never reaches t

    def completion(prefix, s):
        return (*prefix.tolist(), *range(s, s + t - len(prefix)))

    best = None
    idx = np.arange(cols)
    for P, R in prefix_walk(F, M, t, chunk, lead, max(t - 2, 0)):
        depth = P.shape[1]
        after = P[:, -1] + 1 if depth else np.zeros(len(P), dtype=np.int64)
        if best is not None and completion(P[0], int(after[0])) >= best:
            break
        last = cols - t + depth if depth or lead is None else min(cols - t, lead - 1)
        if depth == t - 2:
            found = _first_pair(F, P, R, after, last, chunk)
        else:
            zero = ~R.any(axis=1) & (idx >= after[:, None]) & (idx <= last)
            hit = np.flatnonzero(zero.any(axis=1))
            found = completion(P[hit[0]], int(zero[hit[0]].argmax())) if len(hit) else None
        if found is not None:
            best = found if best is None else min(best, found)
    return best


def _first_pair(F: FieldSpec, P, R, after, last: int, chunk: int) -> Optional[tuple[int, ...]]:
    """P[b] + (s, u) for the first pencil b of a batch that has a pair s < u
    of dependent columns with after[b] <= s <= last, and its least such
    pair; or None.  The pencils are classed in slices of doubling size, the
    first of about chunk / cols, so a pair near the batch's start is found
    without classing the rest."""
    nb, _, cols = R.shape
    idx = np.arange(cols)
    lo, step = 0, max(1, chunk // cols)
    while lo < nb:
        cut = slice(lo, lo + step)
        partner = _column_partners(F, R[cut])
        ok = (partner < cols) & (idx >= after[cut, None]) & (idx <= last)
        hit = np.flatnonzero(ok.any(axis=1))
        if len(hit):
            b, s = hit[0], int(ok[hit[0]].argmax())
            return (*P[lo + b].tolist(), s, int(partner[b, s]))
        lo, step = lo + step, 2 * step
    return None


def _column_partners(F: FieldSpec, R) -> np.ndarray:
    """Least partner of each column of a (batch, m, cols) stack: the least
    later column u of the same matrix with columns s and u dependent, that
    is s + 1 for a zero column s, else the next column parallel to s or the
    next zero column; cols where there is none.

    A column's class key is the column scaled so that its first nonzero
    entry is 1, packed into ceil(m / (63 // bits)) int64 words of 63 // bits
    entries, `bits` the bit length of q - 1; a zero column keeps its zeros.
    Two nonzero columns are parallel exactly when their keys agree.  Stable
    argsorts along each matrix, one per word from the last, order the
    columns by key and then by index, so a column's next in class is the
    one after it in that order when the keys agree.
    """
    nb, m, cols = R.shape
    bi, idx = np.arange(nb)[:, None], np.arange(cols)
    pivot = R[bi, (R != 0).argmax(axis=1), idx]  # (batch, cols): first nonzero entry
    zero = pivot == 0
    unit = F.vdiv_nz(R, pivot[:, None, :])  # a zero pivot reads as 1, so a zero column stays zero
    bits = (F.q - 1).bit_length()
    per = 63 // bits
    shifts = np.arange(per, dtype=np.int64)[:, None] * bits
    words = [(unit[:, lo:lo + per] << shifts[:min(per, m - lo)]).sum(axis=1) for lo in range(0, m, per)]
    order = np.argsort(words[-1], axis=1, kind="stable")
    for w in reversed(words[:-1]):
        order = order[bi, np.argsort(w[bi, order], axis=1, kind="stable")]
    same = np.logical_and.reduce([key[:, 1:] == key[:, :-1] for key in (w[bi, order] for w in words)])
    partner = np.full((nb, cols), cols)
    partner[bi, order[:, :-1]] = np.where(same, order[:, 1:], cols)
    if zero.any():
        next_zero = np.minimum.accumulate(np.where(zero, idx, cols)[:, :0:-1], axis=1)[:, ::-1]
        partner[:, :-1] = np.minimum(partner[:, :-1], next_zero)
        partner = np.where(zero, idx + 1, partner)
    return partner
