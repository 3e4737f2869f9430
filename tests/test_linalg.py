"""Property tests of the batched Gauss-Jordan kernel and its views, and of
the prefix walk under the column-dependence scan."""

import itertools

import numpy as np
import pytest
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
        det = int(F.vadd(det, F.vneg(term) if j % 2 else term))
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
    # the read-off under nullspace and batch_nullvec: one kernel_from_rref per rank group
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


def reference_first_dependent_columns(F, M, t, chunk=4096):
    """The per-subset scan: every t-subset of the columns in lex order, one
    batch_rank elimination each, up to the first batch with a dependent set."""
    M = np.asarray(M, dtype=np.int64)
    rows, cols = M.shape
    if rows < t:
        return tuple(range(t)) if cols >= t else None
    it = itertools.combinations(range(cols), t)
    while block := list(itertools.islice(it, chunk)):
        combos = np.array(block, dtype=np.int64).reshape(len(block), t)
        dep = np.flatnonzero(linalg.batch_rank(F, M[:, combos].transpose(1, 0, 2)) < t)
        if len(dep):
            return tuple(int(x) for x in combos[dep[0]])
    return None


# the four fields of the differential scan: binary, prime and two
# odd-characteristic extensions
SCAN_FIELDS = [field_create(2, 4), field_create(19, 1), field_create(5, 2), field_create(3, 3)]


def scan_matrices(F, rng, count):
    """Seeded matrices with zero columns, repeated columns, rank-deficient
    rows and fewer rows than columns."""
    for _ in range(count):
        rows, cols = int(rng.integers(0, 7)), int(rng.integers(0, 10))
        M = rng.integers(0, F.q, size=(rows, cols))
        M[rng.random(M.shape) < rng.random() / 2] = 0
        if cols and rng.random() < 0.4:
            M[:, rng.integers(cols)] = 0
        if cols >= 2 and rng.random() < 0.4:
            M[:, rng.integers(cols)] = M[:, rng.integers(cols)]
        if rows >= 3 and rng.random() < 0.4:
            M[-1] = F.vadd(F.vmul(M[0], int(rng.integers(F.q))), M[1])
        yield M


@pytest.mark.parametrize("F", SCAN_FIELDS, ids=lambda F: f"GF({F.p}^{F.m})")
def test_first_dependent_columns_matches_per_subset_scan(F):
    rng = np.random.default_rng(1931 + F.q)
    for M in scan_matrices(F, rng, 250):
        rows, cols = M.shape
        for t in sorted({0, 1, rows, cols, int(rng.integers(0, cols + 2))}):
            want = reference_first_dependent_columns(F, M, t)
            for chunk in (1, 3, None):
                kw = {} if chunk is None else {"chunk": chunk}
                assert linalg.first_dependent_columns(F, M, t, **kw) == want, (M.tolist(), t, chunk)


@pytest.mark.parametrize("F", SCAN_FIELDS, ids=lambda F: f"GF({F.p}^{F.m})")
def test_prefix_walk_visits_each_independent_prefix_once(F):
    # in lex order of each batch's first prefix, with rows in A's row space
    # that vanish on the prefix and keep full rank
    rng = np.random.default_rng(1949 + F.q)
    for A in scan_matrices(F, rng, 12):
        rows, cols = A.shape
        rank = len(linalg.rref(F, A)[1])
        for size in range(1, cols + 1):
            want = [P for j in range(size) for P in itertools.combinations(range(cols), j)
                    if all(p <= cols - size + i for i, p in enumerate(P))
                    and len(linalg.rref(F, A[:, list(P)])[1]) == j]
            got, firsts = [], []
            for P, R in linalg.prefix_walk(F, A, size, chunk=3):
                assert R.shape == (len(P), rows - P.shape[1], cols)
                firsts.append(tuple(P[0].tolist()))
                for prefix, rows_p in zip(P.tolist(), R):
                    got.append(tuple(prefix))
                    assert not rows_p[:, prefix].any()
                    assert len(linalg.rref(F, np.vstack([A, rows_p]))[1]) == rank
                    assert len(linalg.rref(F, rows_p)[1]) == rank - len(prefix) or rank < rows
            assert sorted(got) == sorted(want) and len(got) == len(set(got)), (A.tolist(), size)
            assert firsts == sorted(firsts)


@pytest.mark.parametrize("F", SCAN_FIELDS, ids=lambda F: f"GF({F.p}^{F.m})")
def test_prefix_walk_lead_keeps_the_unrestricted_walk_below_it(F):
    # a walk cut at `lead` visits exactly the unrestricted walk's nodes that
    # start below `lead`, with the same rows, still in lex order of batches
    rng = np.random.default_rng(2027 + F.q)
    for A in scan_matrices(F, rng, 15):
        cols = A.shape[1]
        for size in range(1, cols + 1):
            full = {tuple(p): r for P, R in linalg.prefix_walk(F, A, size)
                    for p, r in zip(P.tolist(), R)}
            for lead in range(cols + 1):
                for chunk in (1, 3, 1024):
                    got, firsts = {}, []
                    for P, R in linalg.prefix_walk(F, A, size, chunk, lead):
                        firsts.append(tuple(P[0].tolist()))
                        got.update((tuple(p), r) for p, r in zip(P.tolist(), R))
                    assert set(got) == {p for p in full if not p or p[0] < lead}, (A.tolist(), size, lead)
                    assert all(np.array_equal(got[p], full[p]) for p in got)
                    assert firsts == sorted(firsts)


@pytest.mark.parametrize("F", SCAN_FIELDS, ids=lambda F: f"GF({F.p}^{F.m})")
def test_first_dependent_columns_lead_matches_the_filtered_scan(F):
    # the lex-first dependent t-set among those that start below `lead`
    rng = np.random.default_rng(2053 + F.q)
    for M in scan_matrices(F, rng, 60):
        rows, cols = M.shape
        for t in sorted({1, rows, cols, int(rng.integers(1, cols + 2))}):
            dependent = [c for c in itertools.combinations(range(cols), t)
                         if len(linalg.rref(F, M[:, list(c)])[1]) < t]
            for lead in range(1, cols + 1):
                want = next((c for c in dependent if c[0] < lead), None)
                for chunk in (1, 3, 1024):
                    got = linalg.first_dependent_columns(F, M, t, chunk, lead=lead)
                    assert got == want, (M.tolist(), t, lead, chunk)


@pytest.mark.parametrize("F", SCAN_FIELDS, ids=lambda F: f"GF({F.p}^{F.m})")
def test_prefix_walk_deepest_keeps_the_shallower_nodes(F):
    # a walk stopped at `deepest` visits exactly the full walk's nodes of at
    # most that many columns, with the same rows, still in lex order of batches
    rng = np.random.default_rng(2129 + F.q)
    for A in scan_matrices(F, rng, 15):
        cols = A.shape[1]
        for size in range(1, cols + 1):
            full = {tuple(p): r for P, R in linalg.prefix_walk(F, A, size)
                    for p, r in zip(P.tolist(), R)}
            for deepest in range(size):
                for chunk in (1, 3, 1024):
                    got, firsts = {}, []
                    for P, R in linalg.prefix_walk(F, A, size, chunk, None, deepest):
                        firsts.append(tuple(P[0].tolist()))
                        got.update((tuple(p), r) for p, r in zip(P.tolist(), R))
                    assert set(got) == {p for p in full if len(p) <= deepest}, (A.tolist(), size, deepest)
                    assert all(np.array_equal(got[p], full[p]) for p in got)
                    assert firsts == sorted(firsts)


@pytest.mark.parametrize("F", SCAN_FIELDS, ids=lambda F: f"GF({F.p}^{F.m})")
def test_prefix_walk_keep_drops_the_subtrees_it_rejects(F):
    # a walk filtered by `keep` visits exactly the full walk's nodes whose
    # every step passed the filter, with the same rows, still in lex order of
    # batches; a None from `keep` passes the whole batch
    rng = np.random.default_rng(2161 + F.q)

    def passes(prefix, s):
        return not prefix or (s + prefix[0] + len(prefix)) % 3 != 1

    def keep(P, parent, s):
        if not P.shape[1]:
            return None
        return np.array([passes(p, c) for p, c in zip(P[parent].tolist(), s.tolist())], dtype=bool)

    for A in scan_matrices(F, rng, 15):
        cols = A.shape[1]
        for size in range(1, cols + 1):
            full = {tuple(p): r for P, R in linalg.prefix_walk(F, A, size)
                    for p, r in zip(P.tolist(), R)}
            want = {p for p in full if all(passes(p[:i], p[i]) for i in range(len(p)))}
            for chunk in (1, 3, 1024):
                got, firsts = {}, []
                for P, R in linalg.prefix_walk(F, A, size, chunk, keep=keep):
                    firsts.append(tuple(P[0].tolist()))
                    got.update((tuple(p), r) for p, r in zip(P.tolist(), R))
                assert set(got) == want, (A.tolist(), size)
                assert all(np.array_equal(got[p], full[p]) for p in got)
                assert firsts == sorted(firsts)


def first_filtered(F, M, t, lead):
    """The lex-first dependent t-set that starts below `lead`, by rank."""
    return next((c for c in itertools.combinations(range(M.shape[1]), t)
                 if c[0] < lead and len(linalg.rref(F, M[:, list(c)])[1]) < t), None)


def with_parallel_columns(F, rng, M):
    """M with a few columns replaced by multiples of others, one of them zero."""
    M = M.copy()
    cols = M.shape[1]
    for _ in range(int(rng.integers(1, 4))):
        i, j = rng.integers(cols, size=2)
        M[:, j] = F.vmul(M[:, i], int(rng.integers(F.q)))
    return M


@pytest.mark.parametrize("F", SCAN_FIELDS, ids=lambda F: f"GF({F.p}^{F.m})")
def test_root_pencil_matches_the_filtered_scan_at_every_lead(F):
    # t = 2: the pencil is the root, and its pairs are cut at `lead`
    rng = np.random.default_rng(2203 + F.q)
    for M in scan_matrices(F, rng, 60):
        rows, cols = M.shape
        if rows < 2 or cols < 2:
            continue
        M = with_parallel_columns(F, rng, M)
        want = reference_first_dependent_columns(F, M, 2)
        for chunk in (1, 3, 1024):
            assert linalg.first_dependent_columns(F, M, 2, chunk) == want, (M.tolist(), chunk)
            for lead in range(1, cols + 1):
                got = linalg.first_dependent_columns(F, M, 2, chunk, lead=lead)
                assert got == first_filtered(F, M, 2, lead), (M.tolist(), lead, chunk)


# (columns, lex-first dependent pair) over GF(19), a = (1, 2, 3), b = (4, 5, 7)
PAIR_CASES = [
    ([(1, 2, 3), (4, 5, 7), (2, 4, 6), (0, 0, 0), (4, 5, 7)], (0, 2)),  # zero after a parallel pair
    ([(1, 2, 3), (4, 5, 7), (0, 0, 0), (2, 4, 6)], (0, 2)),  # zero before the parallel column
    ([(1, 2, 3), (4, 5, 7), (12, 15, 2), (0, 0, 0)], (0, 3)),  # zero partner beats a later pair
    ([(0, 0, 0), (1, 2, 3), (4, 5, 7)], (0, 1)),  # a zero column's partner is the next column
    ([(1, 2, 3), (0, 0, 0), (0, 0, 0)], (0, 1)),
    ([(1, 2, 3), (4, 5, 7), (3, 6, 9)], (0, 2)),
    ([(1, 2, 3), (4, 5, 7), (1, 2, 4)], None),
]


@pytest.mark.parametrize("columns,pair", PAIR_CASES)
def test_pencil_partner_is_the_nearer_of_its_class_and_a_zero(columns, pair):
    # at the root (t = 2) and one level down (t = 3, under the prefix {0}
    # of a unit column whose rows leave these columns as they are)
    F = field_create(19, 1)
    M = np.array(columns, dtype=np.int64).T
    assert reference_first_dependent_columns(F, M, 2) == pair
    lifted = np.zeros((4, len(columns) + 1), dtype=np.int64)
    lifted[0] = np.arange(1, len(columns) + 2)
    lifted[1:, 1:] = M
    want = None if pair is None else (0, *(c + 1 for c in pair))
    assert reference_first_dependent_columns(F, lifted, 3) == want
    for chunk in (1, 3, 1024):
        assert linalg.first_dependent_columns(F, M, 2, chunk) == pair
        assert linalg.first_dependent_columns(F, lifted, 3, chunk) == want


def test_wide_pencil_keys_match_the_reference(monkeypatch):
    # GF(2^10) with 7 and 8 rows at the pencil: the class key takes two
    # 63-bit words.  Columns that agree with another on the first word's
    # rows only, or on the second's only, are not parallel
    F = field_create(2, 10)
    classed = []

    def recording(F, R, real=linalg._column_partners):
        classed.append(R.shape[1])
        return real(F, R)

    monkeypatch.setattr(linalg, "_column_partners", recording)
    rng = np.random.default_rng(2221)
    for _ in range(12):
        M = rng.integers(1, F.q, size=(8, 10))
        M[:, 2] = M[:, 0]
        M[7, 2] = F.vadd(M[7, 2], 1)  # first word agrees with column 0
        M[:, 4] = F.vmul(M[:, 1], int(rng.integers(2, F.q)))
        M[3, 4] = F.vadd(M[3, 4], 1)  # second word agrees with column 1's
        M[:, 6] = F.vmul(M[:, 1], int(rng.integers(2, F.q)))  # column 4 sits between 1 and 6
        M = with_parallel_columns(F, rng, M)
        for t in (2, 3, 4):
            want = reference_first_dependent_columns(F, M, t)
            for chunk in (1, 3, 1024):
                assert linalg.first_dependent_columns(F, M, t, chunk) == want, (M.tolist(), t, chunk)
            for lead in (1, 3):
                assert linalg.first_dependent_columns(F, M, t, lead=lead) == first_filtered(F, M, t, lead)
    assert max(classed) * F.m > 63


def test_pencil_batch_hit_past_its_first_node(monkeypatch):
    # the depth-1 pencils of a 3-column scan form one batch; its first node
    # {0} has no pair, and the hit is {1} with the pair (2, 3)
    F = field_create(19, 1)
    M = np.random.default_rng(2237).integers(1, F.q, size=(4, 7))
    M[:, 3] = F.vadd(M[:, 1], M[:, 2])
    assert reference_first_dependent_columns(F, M, 3) == (1, 2, 3)
    batches = []
    prefix_walk = linalg.prefix_walk

    def recording_walk(*args):
        for P, R in prefix_walk(*args):
            batches.append([tuple(p) for p in P.tolist()])
            yield P, R

    monkeypatch.setattr(linalg, "prefix_walk", recording_walk)
    for chunk in (1, 3, 1024):
        assert linalg.first_dependent_columns(F, M, 3, chunk) == (1, 2, 3), chunk
    assert batches[-1][:2] == [(0,), (1,)]


def test_pencil_scan_stops_at_the_first_slice_with_a_pair(monkeypatch):
    # column 2 is zero under the prefix {0, 1}, the first of several hundred
    # depth-2 pencils of one batch: only the first slice is classed
    F = field_create(19, 1)
    M = np.random.default_rng(2251).integers(1, F.q, size=(6, 30))
    M[:, 2] = F.vadd(M[:, 0], M[:, 1])
    classed, pencils = [], []
    prefix_walk = linalg.prefix_walk

    def recording_walk(*args):
        for P, R in prefix_walk(*args):
            if P.shape[1] == 2:
                pencils.append(len(P))
            yield P, R

    def recording(F, R, real=linalg._column_partners):
        classed.append(len(R))
        return real(F, R)

    monkeypatch.setattr(linalg, "prefix_walk", recording_walk)
    monkeypatch.setattr(linalg, "_column_partners", recording)
    assert linalg.first_dependent_columns(F, M, 4) == (0, 1, 2, 3)
    assert pencils[0] > 300 and classed == [1024 // 30]


def reference_children(F, P, R, size, chunk, stop, keep=None):
    """The division-free pivot step: child rows lead*R[r] - R[r, s]*R[piv]."""
    nb, m, cols = R.shape
    depth = P.shape[1]
    first = P[:, -1] + 1 if depth else np.zeros(nb, dtype=np.int64)
    counts = np.maximum(min(cols - size + depth + 1, stop) - first, 0)
    parent = np.repeat(np.arange(nb), counts)
    col = np.arange(len(parent)) + np.repeat(first - np.cumsum(counts) + counts, counts)
    mask = None if keep is None else keep(P, parent, col)
    if mask is not None:
        parent, col = parent[mask], col[mask]
    step = max(1, min(chunk, linalg._BATCH_ELEMS // max(1, m * cols)))
    for lo in range(0, len(parent), step):
        b, s = parent[lo:lo + step], col[lo:lo + step]
        at = R[b, :, s]
        nz = at != 0
        live = nz.any(axis=1)
        b, s, at = b[live], s[live], at[live]
        if not len(b):
            continue
        piv = nz[live].argmax(axis=1)
        rest = np.arange(m - 1) + (np.arange(m - 1) >= piv[:, None])
        ib = np.arange(len(b))
        lead = at[ib, piv]
        kept = F.vsub(F.vmul(lead[:, None, None], R[b[:, None], rest]),
                      F.vmul(at[ib[:, None], rest][:, :, None], R[b, piv][:, None, :]))
        yield np.column_stack([P[b], s]), kept


@pytest.mark.parametrize("F", SCAN_FIELDS, ids=lambda F: f"GF({F.p}^{F.m})")
def test_prefix_walk_rows_are_the_division_free_rows_scaled(F, monkeypatch):
    # the normalised pivot step visits the same batches in the same order as
    # the division-free one, and each node's rows are the reference rows
    # times one nonzero scalar, so zero columns and row ratios agree
    rng = np.random.default_rng(1973 + F.q)
    for A in scan_matrices(F, rng, 40):
        for size in range(1, A.shape[1] + 1):
            for chunk in (1, 3, 1024):
                got = list(linalg.prefix_walk(F, A, size, chunk))
                with monkeypatch.context() as mp:
                    mp.setattr(linalg, "_children", reference_children)
                    want = list(linalg.prefix_walk(F, A, size, chunk))
                assert len(got) == len(want), (A.tolist(), size, chunk)
                for (P, R), (P_ref, R_ref) in zip(got, want):
                    assert np.array_equal(P, P_ref) and R.shape == R_ref.shape
                    for node, ref in zip(R.reshape(len(R), -1), R_ref.reshape(len(R), -1)):
                        assert np.array_equal(node != 0, ref != 0)
                        if ref.any():
                            j = int(np.flatnonzero(ref)[0])
                            scale = F.vdiv_nz(node[j], ref[j])
                            assert scale != 0 and np.array_equal(F.vmul(ref, scale), node)
