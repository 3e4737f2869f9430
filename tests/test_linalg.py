"""Property tests of the batched Gauss-Jordan kernel and its views."""

import numpy as np
from hypothesis import given, settings, strategies as st

from cyclrc import linalg
from cyclrc.field import field_create

# binary, prime and two odd-characteristic extension fields
FIELDS = [field_create(2, 4), field_create(7, 1), field_create(5, 2), field_create(3, 3)]

SETTINGS = settings(max_examples=60, deadline=None)


@st.composite
def stacks(draw, shape):
    """(F, mats) with some all-zero entries and some rank-deficient ones."""
    F = draw(st.sampled_from(FIELDS))
    nb = draw(st.integers(1, 4))
    rows, cols = draw(shape)
    elem = st.one_of(st.just(0), st.integers(0, F.q - 1))
    vals = draw(st.lists(elem, min_size=nb * rows * cols, max_size=nb * rows * cols))
    mats = np.array(vals, dtype=np.int64).reshape(nb, rows, cols)
    for b in range(nb):
        kind = draw(st.sampled_from(["random", "zero", "dependent"]))
        if kind == "zero":
            mats[b] = 0
        elif kind == "dependent" and rows >= 2:
            s = draw(st.integers(0, F.q - 1))
            mats[b, -1] = F.vadd(F.vmul(mats[b, 0], s), mats[b, 1])
    return F, mats


ANY = st.tuples(st.integers(0, 5), st.integers(0, 6))
SQUARE = st.integers(1, 4).map(lambda n: (n, n))
CORANK_ONE = st.integers(1, 6).map(lambda c: (c - 1, c))


def cofactor_det(F, M) -> int:
    n = len(M)
    if n == 1:
        return int(M[0][0])
    det = 0
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in M[1:]]
        term = int(F.vmul(int(M[0][j]), cofactor_det(F, minor)))
        det = int(F.vadd(det, F.neg(term) if j % 2 else term))
    return det


@SETTINGS
@given(stacks(ANY))
def test_batch_equals_batch_of_one(case):
    F, mats = case
    e = linalg.gauss_jordan(F, mats)
    ranks = linalg.batch_rank(F, mats)
    for b, M in enumerate(mats):
        one = linalg.gauss_jordan(F, mats[b:b + 1])
        for whole, single in zip(e, one):
            assert np.array_equal(whole[b], single[0])
        assert ranks[b] == linalg.rank(F, M) == e.rank[b]
        R, piv = linalg.rref(F, M)
        assert np.array_equal(R, e.reduced[b, :e.rank[b]])
        assert piv == list(e.pivots[b, :e.rank[b]])


@SETTINGS
@given(stacks(ANY))
def test_reduced_stack_is_rref(case):
    F, mats = case
    e = linalg.gauss_jordan(F, mats)
    for R, rk, piv in zip(e.reduced, e.rank, e.pivots):
        assert (R[rk:] == 0).all()
        assert (piv[rk:] == -1).all()
        assert (np.diff(piv[:rk]) > 0).all()
        for i in range(rk):
            assert not R[i, :piv[i]].any()
            unit = np.zeros(len(R), dtype=np.int64)
            unit[i] = 1
            assert np.array_equal(R[:, piv[i]], unit)


@SETTINGS
@given(stacks(ANY))
def test_nullspace_is_kernel_basis(case):
    F, mats = case
    for M in mats:
        N = linalg.nullspace(F, M)
        cols = M.shape[1]
        assert N.shape == (cols - linalg.rank(F, M), cols)
        assert linalg.rank(F, N) == N.shape[0]
        for v in N:
            assert not linalg.mat_vec(F, M, v).any()


@SETTINGS
@given(stacks(ANY))
def test_kernel_read_off_batched_rref_equals_nullspace(case):
    # the zero-core scan's read-off: one kernel_from_rref per rank group
    F, mats = case
    e = linalg.gauss_jordan(F, mats)
    for r in np.unique(e.rank):
        idx = np.flatnonzero(e.rank == r)
        kers = linalg.kernel_from_rref(F, e.reduced[idx, :r], e.pivots[idx, :r])
        assert kers.shape == (len(idx), mats.shape[2] - r, mats.shape[2])
        for b, K in zip(idx, kers):
            assert np.array_equal(K, linalg.nullspace(F, mats[b]))
            free = np.setdiff1d(np.arange(mats.shape[2]), e.pivots[b, :r])
            assert np.array_equal(K[:, free], np.eye(len(free), dtype=np.int64))


@SETTINGS
@given(stacks(CORANK_ONE))
def test_batch_nullvec_in_kernel(case):
    F, mats = case
    vecs = linalg.batch_nullvec(F, mats)
    c = mats.shape[2]
    assert vecs.shape == (len(mats), c)
    for M, v in zip(mats, vecs):
        assert v.any() == (linalg.rank(F, M) == c - 1)
        assert not linalg.mat_vec(F, M, v).any()


@SETTINGS
@given(stacks(SQUARE))
def test_batch_det_matches_cofactor_expansion(case):
    F, mats = case
    dets = linalg.batch_det(F, mats)
    for M, d in zip(mats, dets):
        assert d == cofactor_det(F, M.tolist())
