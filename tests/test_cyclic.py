import gc
import itertools
import os
import subprocess
import sys
import weakref
from dataclasses import FrozenInstanceError
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cyclrc import cyclic as cy
from cyclrc import linalg, selfcheck
from cyclrc.bounds import BettiSalaWitness
from cyclrc.constructions import ConstructionRequest, build
from cyclrc.field import FieldSpec, field_create
from cyclrc.cyclic import (
    DEFAULT_BUDGET,
    BoundInversion,
    BudgetExceededInconclusive,
    BudgetTooSmall,
    CycContext,
    DistanceResult,
    InvariantViolated,
    NotQClosed,
    all_cyclotomic_cosets,
    code_from_defining_set,
    cyc_context,
    cyclotomic_coset,
    exhaustive_min_weight,
    has_weight_at_most,
    is_q_closed,
    min_distance,
    min_weight_word,
    product_set,
    support_orbit,
)
from reference_algebra import encode


def test_context_alpha_order():
    for q, n in [(2, 31), (19, 18), (23, 24), (32, 33)]:
        ctx = cyc_context(q, n)
        F = ctx.field
        assert F.pow(ctx.alpha, n) == 1
        for j in range(1, n):
            assert F.pow(ctx.alpha, j) != 1
        assert (F.q - 1) % n == 0


def test_cyclotomic_cosets():
    ctx = cyc_context(2, 7)
    assert cyclotomic_coset(0, ctx).exps == (0,)
    assert cyclotomic_coset(1, ctx).exps == (1, 2, 4)
    assert cyclotomic_coset(3, ctx).exps == (3, 5, 6)
    # n | q+1: cosets are {s, -s}
    ctx24 = cyc_context(23, 24)
    for s in range(1, 12):
        assert set(cyclotomic_coset(s, ctx24).exps) == {s, 24 - s}
    assert cyclotomic_coset(12, ctx24).exps == (12,)


def test_coset_closure_randomized():
    # orbit property over 1000 random (q, n, s) draws
    rng = np.random.default_rng(11)
    pairs = [(2, 7), (2, 15), (3, 8), (3, 13), (4, 15), (5, 8), (19, 18), (23, 24)]
    for _ in range(1000):
        q, n = pairs[int(rng.integers(0, len(pairs)))]
        ctx = cyc_context(q, n)
        s = int(rng.integers(0, n))
        c = cyclotomic_coset(s, ctx)
        assert s in c
        assert is_q_closed(c)
        assert {(e * q) % n for e in c.exps} == set(c.exps)


def test_is_q_closed_examples():
    ctx = cyc_context(2, 31)
    assert is_q_closed(ctx.exponent_set([]))
    assert is_q_closed(ctx.exponent_set(range(31)))
    assert is_q_closed(ctx.exponent_set([0, 1, 2, 4, 8, 16]))
    ctx7 = cyc_context(2, 7)
    assert not is_q_closed(ctx7.exponent_set([1]))


def test_product_set_examples():
    ctx = cyc_context(2, 31)
    A = ctx.exponent_set([0, 1, 2, 4, 8, 16])
    B = ctx.exponent_set([5, 9, 10, 18, 20])
    assert product_set(A, ctx.exponent_set([0])).exps == A.exps
    ab = product_set(A, B)
    assert ab.exps == (3, 5, 6, 7, 9, 10, 11, 12, 13, 14, 17, 18, 19, 20, 21, 22, 24, 25, 26, 28)
    # singleton times a window is a shifted window
    t = ctx.exponent_set([4])
    win = ctx.exponent_set(range(0, 3))
    assert product_set(t, win).exps == (4, 5, 6)


def test_code_construction_and_errors():
    ctx = cyc_context(8, 7)
    full = code_from_defining_set(ctx, ctx.exponent_set([]))
    assert full.k == 7 and full.gen.degree == 0
    code = code_from_defining_set(ctx, ctx.exponent_set([3, 4, 5]))
    assert code.k == 4
    ctx7 = cyc_context(2, 7)
    with pytest.raises(NotQClosed):
        code_from_defining_set(ctx7, ctx7.exponent_set([1]))
    code_from_defining_set(ctx7, ctx7.exponent_set([1]), base="extension")  # fine


def test_codeword_roots_and_shift_closure_randomized():
    # encoded words vanish on the defining set; shifts stay in the code
    rng = np.random.default_rng(23)
    cases = [(2, 15, [1, 2, 4, 8, 5, 10]), (19, 18, [1, 2, 3, 4, 5, 9]), (8, 7, [3, 4, 5])]
    count = 0
    while count < 1000:
        q, n, exps = cases[count % len(cases)]
        ctx = cyc_context(q, n)
        code = code_from_defining_set(ctx, ctx.exponent_set(exps))
        sub = code.base_elements
        msg = sub[rng.integers(0, len(sub), code.k)]
        cw = encode(code, msg)
        for j in code.defining.exps:
            acc = 0
            for i, root in enumerate(ctx.root_powers([j], range(n))[0]):
                acc = ctx.field.vadd(acc, ctx.field.vmul(int(cw[i]), root))
            assert acc == 0
            break  # one root per draw keeps the loop cheap
        shifted = np.roll(cw, int(rng.integers(1, n)))
        M = ctx.root_powers(code.defining.exps, range(n))  # parity checks over the ambient field
        assert not linalg.mat_vec(ctx.field, M, shifted).any()
        count += 1


def test_dual_code_structure():
    ctx = cyc_context(8, 7)
    code = code_from_defining_set(ctx, ctx.exponent_set([3, 4, 5]))
    dual = code.dual_code()
    assert dual.k == 3
    assert dual.dual_code().defining.exps == code.defining.exps
    prod = linalg.mat_mul(ctx.field, code.generator_matrix(), dual.generator_matrix().T)
    assert not prod.any()
    # dual of the full space is the zero code
    full = code_from_defining_set(ctx, ctx.exponent_set([]))
    assert full.dual_code().k == 0


# (q, n) with ambient fields GF(2^4), GF(19), GF(5^2) and GF(3^3)
ORTHOGONALITY_CONTEXTS = [(4, 5), (19, 18), (5, 24), (3, 13)]


@pytest.mark.parametrize("q,n", ORTHOGONALITY_CONTEXTS)
def test_is_orthogonal_matches_dense_product(q, n):
    # the correlation with g against the dense G * rows^T reference, on base
    # and ambient codes from the zero code to the full space, for random rows
    # and for rows of the dual and combinations of them
    ctx = cyc_context(q, n)
    F = ctx.field
    rng = np.random.default_rng(q * n)
    cosets = [c.exps for c in all_cyclotomic_cosets(ctx)]
    sets = [(), tuple(range(n))]
    sets += [sum((c for c in cosets if rng.random() < 0.5), ()) for _ in range(4)]
    sets += [tuple(np.flatnonzero(rng.random(n) < rng.random()).tolist()) for _ in range(4)]
    verdicts = []
    for exps in sets:
        for base in ("subfield", "extension"):
            if base == "subfield" and not is_q_closed(ctx.exponent_set(exps)):
                continue
            code = code_from_defining_set(ctx, ctx.exponent_set(exps), base=base)
            H = code.dual_code().generator_matrix()
            combos = linalg.mat_mul(F, rng.integers(0, F.q, (3, len(H))), H) if len(H) else np.zeros((3, n), int)
            perturbed = F.vadd(combos, np.eye(3, n, dtype=np.int64))
            for rows in (rng.integers(0, F.q, (3, n)), H, combos, perturbed):
                for batch in [rows, *([row] for row in rows)]:
                    batch = np.asarray(batch, dtype=np.int64).reshape(-1, n)
                    want = not linalg.mat_mul(F, code.generator_matrix(), batch.T).any()
                    assert code.is_orthogonal(batch) == want, (exps, base, batch)
                    verdicts.append(want)
    assert True in verdicts and False in verdicts


def test_dual_code_refuses_a_code_that_is_not_the_dual():
    # a wrong code cached under the dual's key fails the orthogonality check
    ctx = cy.CycContext(8, 7)
    code = code_from_defining_set(ctx, ctx.exponent_set([3, 4, 5]))
    ctx._code_cache[(code.defining.complement().negate().exps, "subfield")] = code
    with pytest.raises(cy.CoefficientLeak, match="not orthogonal"):
        code.dual_code()


def test_complement_code():
    ctx = cyc_context(8, 7)
    code = code_from_defining_set(ctx, ctx.exponent_set([3, 4, 5]))
    comp = code.complement_code()
    assert comp.defining.exps == (0, 1, 2, 6)
    assert len(code.defining) + len(comp.defining) == 7
    zero = code_from_defining_set(ctx, ctx.exponent_set([]))
    assert zero.complement_code().k == 0


def test_puncture():
    def puncture(code, support):
        # row-reduced generator matrix of the projection onto `support`
        support = sorted({int(s) for s in support})
        if not support:
            raise ValueError("puncturing support is empty")
        R, _ = linalg.rref(code.field, code.generator_matrix()[:, support])
        return R

    ctx = cyc_context(19, 18)
    code = code_from_defining_set(ctx, ctx.exponent_set([1, 2, 3, 4, 5, 9]))
    R = puncture(code, range(18))
    assert R.shape[0] == code.k
    single = puncture(code, [4])
    assert single.shape[0] <= 1
    with pytest.raises(ValueError):
        puncture(code, [])


def test_zero_code_distance_undefined():
    ctx = cyc_context(8, 7)
    zero = code_from_defining_set(ctx, ctx.exponent_set(range(7)))
    res = min_distance(zero)
    assert res.undefined and res.exact is None


def test_full_space_distance_one():
    ctx = cyc_context(8, 7)
    full = code_from_defining_set(ctx, ctx.exponent_set([]))
    assert min_distance(full).exact == 1


def test_min_distance_example_values():
    # dual parameters of the n=18 anchor: [18, 6, 10]
    ctx = cyc_context(19, 18)
    A = ctx.exponent_set([1, 2, 3, 4, 5, 9])
    dual = code_from_defining_set(ctx, A).dual_code()
    assert dual.k == 6
    res = min_distance(dual)
    assert res.exact == 10
    # the same value through the independent support scan
    assert not has_weight_at_most(dual, 9)
    assert has_weight_at_most(dual, 10)


def test_exhaustive_partitioned_iteration():
    # an [18, 4, 9] dual through the message-space enumeration; the d and the
    # minimum-weight words do not depend on how the space is cut into chunks
    ctx = cyc_context(19, 18)
    dual = code_from_defining_set(ctx, ctx.exponent_set([0, 1, 5, 9])).dual_code()
    assert exhaustive_min_weight(dual) == 9
    total = 19**dual.k
    want = None
    for chunk in (total // 3, 4096, total):
        d, words = cy._exhaustive_scan(dual, want_words=True, chunk=chunk)
        assert d == 9
        got = sorted(tuple(int(x) for x in w) for w in words)
        assert got
        if want is None:
            want = got
        assert got == want


def reference_exhaustive_scan(code, early_stop_at=None, want_words=False, chunk=1 << 15):
    """The product-based message enumeration: each chunk of message indices is
    rebuilt from its base-q_b digits by k rounds of vmul plus vadd."""
    F = code.field
    n, k = code.n, code.k
    sub = code.base_elements
    qb = len(sub)
    total = qb**k
    G = code.generator_matrix()
    best = n + 1
    best_words = []
    start = 1
    while start < total:
        stop = min(start + chunk, total)
        v = np.arange(start, stop, dtype=np.int64)
        cw = np.zeros((len(v), n), dtype=np.int64)
        for row in range(k):
            cw = F.vadd(cw, F.vmul(sub[v % qb][:, None], G[row][None, :]))
            v //= qb
        wts = (cw != 0).sum(axis=1)
        mn = int(wts.min())
        if mn < best:
            best = mn
            best_words = []
        if want_words and mn == best:
            best_words.extend(cy._normalize_word(F, cw[r].copy()) for r in np.flatnonzero(wts == best))
        if not want_words and early_stop_at is not None and best <= early_stop_at:
            return best, []
        start = stop
    return best, best_words


# (q, n, base, coset representatives of the nonzeros): binary, prime, and the
# odd extensions GF(25) and GF(27) over the subfield and the extension base
SCAN_CODES = [
    (2, 15, "subfield", [0]),  # k = 1
    (2, 15, "subfield", [0, 1, 3]),
    (2, 15, "extension", [1]),
    (19, 18, "subfield", [0, 1, 5, 9]),
    (5, 24, "subfield", [0, 1, 2, 3]),
    (5, 24, "extension", [1, 6]),
    (3, 26, "subfield", [0, 1, 2, 13]),
    (3, 26, "extension", [1]),
]


@pytest.mark.parametrize("q,n,base,reps", SCAN_CODES)
def test_exhaustive_scan_matches_product_reference(q, n, base, reps):
    # offsets plus one block against the product-based loop: the same d, the
    # same minimum-weight words, and the same early stop, however the block is
    # cut.  The scan weighs one message per scalar class, so it lists each
    # normalised word once, where the reference lists it q_b - 1 times
    ctx = cyc_context(q, n)
    nonzeros = [e for r in reps for e in cyclotomic_coset(r, ctx).exps]
    code = code_from_defining_set(ctx, ctx.exponent_set(nonzeros).complement(), base=base)
    total = code.base_q**code.k
    # 1000 is no power of q_b, so q_b^k is no multiple of the reference's chunk
    for chunk in (1 << 15, 1000, 7):
        if total // chunk > 4096:
            continue
        want_d, want = reference_exhaustive_scan(code, want_words=True, chunk=chunk)
        d, words = cy._exhaustive_scan(code, want_words=True, chunk=chunk)
        assert d == want_d
        assert sorted(tuple(int(x) for x in w) for w in words) == sorted({tuple(int(x) for x in w) for w in want})
        assert words
    # the early stop at a lower bound that the scan reaches returns it, no words
    for stop in (want_d, cy.bounds.bch_lower(code.defining)[0]):
        assert cy._exhaustive_scan(code, early_stop_at=stop) == reference_exhaustive_scan(code, early_stop_at=stop)
    assert cy._exhaustive_scan(code, early_stop_at=want_d) == (want_d, [])


def test_exhaustive_scan_stops_at_the_lower_bound(monkeypatch):
    # the binary Hamming [15, 11, 3] code at chunk 16: one block of the last
    # four rows (three vadd sums) and 2^7 offset steps, one vadd each after
    # the zero offset.  Every row has weight 3, so the first block meets the
    # lower bound 3 and the scan stops there
    ctx = cyc_context(2, 15)
    code = code_from_defining_set(ctx, cyclotomic_coset(1, ctx))
    assert code.k == 11 and len(code.gen.coeffs) - code.gen.coeffs.count(0) == 3
    calls = []
    vadd = FieldSpec.vadd

    def counting_vadd(F, a, b):
        calls.append(1)
        return vadd(F, a, b)

    monkeypatch.setattr(FieldSpec, "vadd", counting_vadd)
    assert cy._exhaustive_scan(code, early_stop_at=3, chunk=16) == (3, [])
    assert len(calls) == 3
    calls.clear()
    assert cy._exhaustive_scan(code, chunk=16) == (3, [])
    assert len(calls) == 3 + 2**7 - 1


def test_exhaustive_scan_weighs_one_message_per_scalar_class(monkeypatch):
    # golden's n24_case1 code, [24, 4, 18] over GF(23): the messages whose
    # leading nonzero digit is 1, (23^4 - 1)/22 = 12,720 lines, not 23^4
    code = build(ConstructionRequest(family="C52", q=23, n=24, delta=4, r=3, i=1, ell=1, case=1)).code
    assert (code.n, code.k, code.base_q) == (24, 4, 23)
    lines = []
    count_nonzero = np.count_nonzero

    def counting(a, axis=None):
        if axis == 1:
            lines.append(a.shape[0])
        return count_nonzero(a, axis=axis)

    monkeypatch.setattr(np, "count_nonzero", counting)
    assert cy._exhaustive_scan(code) == (18, [])
    assert sum(lines) == (23**4 - 1) // 22 == 12720


def test_has_weight_at_most_examples():
    ctx = cyc_context(2, 31)
    B = ctx.exponent_set([5, 9, 10, 18, 20])
    code = code_from_defining_set(ctx, B)
    assert not has_weight_at_most(code, 0)
    assert not has_weight_at_most(code, 2)
    assert has_weight_at_most(code, 3)
    # weights beyond the parity rank are always reachable, no scan needed
    assert has_weight_at_most(code, 14, budget=10**6)
    # a mid-range weight on a high-codimension code does blow the budget
    wide = code_from_defining_set(ctx, product_set(ctx.exponent_set([0, 1, 2, 4, 8, 16]), B))
    with pytest.raises(BudgetExceededInconclusive):
        has_weight_at_most(wide, 14, budget=10**6)


def test_support_scan_agrees_with_enumeration_binary_sweep():
    # all binary cyclic codes with n in {7, 9, 15}: the support-scan decision
    # matches the exhaustively computed distance at every weight
    for n in (7, 9, 15):
        ctx = cyc_context(2, n)
        cosets = all_cyclotomic_cosets(ctx)
        for mask in range(1, 1 << len(cosets)):
            exps = []
            for i, c in enumerate(cosets):
                if mask >> i & 1:
                    exps.extend(c.exps)
            S = ctx.exponent_set(exps)
            if len(S) == n:
                continue
            code = code_from_defining_set(ctx, S)
            d = exhaustive_min_weight(code)
            for w in range(1, min(n, d + 2)):
                assert has_weight_at_most(code, w) == (w >= d), (n, exps, w, d)


def reference_dependent_support(code, w):
    """The all-subsets scan: the lex-first dependent w-set of all C(n, w)
    parity-check column subsets."""
    return linalg.first_dependent_columns(code.field, code.parity_check_matrix(), w)


# (q, n, defining exponents, base): binary, prime, and GF(25) and GF(27)
# ambients over their base fields and over the extension; "dual" is the
# dual of the extension code of the C511 anchor at n = 17, over GF(2^8)
SUPPORT_CODES = [
    (2, 15, [1, 2, 4, 8, 3, 6, 12, 9], "subfield"),
    (2, 15, [], "subfield"),
    (2, 31, [1, 2, 4, 8, 16, 3, 6, 12, 24, 17], "subfield"),
    (19, 18, range(1, 7), "subfield"),
    (19, 18, [0, 5, 10, 12, 16], "subfield"),
    (5, 12, [1, 5, 2, 10, 3], "subfield"),
    (5, 12, [1, 5, 2, 10, 3], "extension"),
    (5, 12, [1, 2, 3, 4], "extension"),
    (3, 13, [1, 3, 9, 2, 6, 5], "subfield"),
    (3, 13, [1, 2, 3, 4, 5], "extension"),
    (16, 17, [0, 1, 2, 8, 14, 15, 16], "dual"),
]


def support_code(q, n, exps, base):
    ctx = cyc_context(q, n)
    if base == "dual":
        return code_from_defining_set(ctx, ctx.exponent_set(exps), base="extension").dual_code()
    return code_from_defining_set(ctx, ctx.exponent_set(exps), base=base)


@pytest.mark.parametrize("q,n,exps,base", SUPPORT_CODES,
                         ids=[f"{q}-{n}-{base}-{len(list(e))}" for q, n, e, base in SUPPORT_CODES])
def test_dependent_support_matches_all_subsets_scan(q, n, exps, base):
    # the scan through coordinate 0 returns the all-subsets scan's support at
    # every weight up to n-k+1, where w-1 exceeds the rows of H[1:, 1:]
    code = support_code(q, n, exps, base)
    r = n - code.k
    outcomes = set()
    for w in range(1, r + 2):
        got = cy._dependent_support(code, w, float("inf"))
        assert got == reference_dependent_support(code, w), w
        outcomes.add(got is None)
    assert outcomes == ({False} if r == 0 else {True, False})
    # the budget check prices all C(n, w) supports, as column_scan_cost does
    w = min(2, r + 1)
    with pytest.raises(BudgetExceededInconclusive):
        cy._dependent_support(code, w, linalg.column_scan_cost(n, r, w) - 1)


def test_support_scan_runs_through_coordinate_zero(monkeypatch):
    # the [18, 8, 11] Reed-Solomon code over GF(19): at weight 7 the scan finds
    # nothing, so it decides every support it can reach.  Those run through
    # coordinate 0 with a second point of at most 18 // 7 = 2, as a shift
    # starts a smallest gap at 0: the C(16, 5) 7-sets through {0, 1} and the
    # C(15, 5) through {0, 2} but not 1, not all C(17, 6) through 0 nor all
    # C(18, 7).  The walk runs on the 17 columns past coordinate 0, its root
    # keeps columns 0 and 1, and it stops at the 4-column prefixes: each one
    # it reaches is a pencil that decides the 6-sets that add two later
    # columns
    ctx = cyc_context(19, 18)
    code = code_from_defining_set(ctx, ctx.exponent_set(range(1, 11)))
    assert code.n - code.k == 10
    shapes, decided = [], []
    prefix_walk = linalg.prefix_walk

    def counting_walk(F, A, size, chunk, lead, deepest):
        shapes.append((np.shape(A), size, lead, deepest))
        for P, R in prefix_walk(F, A, size, chunk, lead, deepest):
            assert P.shape[1] <= deepest
            if P.shape[1] == deepest:
                later = np.shape(A)[1] - 1 - P[:, -1]
                decided.append(int((later * (later - 1) // 2).sum()))
            yield P, R

    monkeypatch.setattr(linalg, "prefix_walk", counting_walk)
    assert not has_weight_at_most(code, 7)
    assert shapes == [((9, 17), 6, 2, 4)]
    assert sum(decided) == comb(16, 5) + comb(15, 5) == 7371


def test_min_weight_word_properties():
    ctx = cyc_context(2, 31)
    A = ctx.exponent_set([0, 1, 2, 4, 8, 16])
    dual = code_from_defining_set(ctx, A, base="extension").dual_code()
    res = min_weight_word(dual)
    sup = [i for i, x in enumerate(res.word) if x]
    assert res.exact == 15 and len(sup) == 15
    assert res.word[sup[0]] == 1  # leading normalization
    # membership: orthogonal to the primal generator matrix
    G = code_from_defining_set(ctx, A, base="extension").generator_matrix()
    assert not linalg.mat_vec(ctx.field, G, np.asarray(res.word)).any()


# (q, n) with small ambient fields: binary, prime and odd-characteristic
# extension ambients (GF(8), GF(16), GF(9), GF(19), GF(25), GF(27))
DIFF_CONTEXTS = [(2, 7), (2, 15), (4, 5), (3, 8), (19, 18), (5, 6), (3, 13)]
MESSAGE_CAP = 4096
CLIMB_BUDGET = 2 * 10**6


@st.composite
def closed_codes(draw):
    """A code from a closed defining set, over the base or the ambient field,
    whose message space stays small enough to enumerate."""
    q, n = draw(st.sampled_from(DIFF_CONTEXTS))
    ctx = cyc_context(q, n)
    base = draw(st.sampled_from(["subfield", "extension"]))
    qb = q if base == "subfield" else ctx.field.q
    cosets = all_cyclotomic_cosets(ctx)
    order = draw(st.permutations(range(len(cosets))))
    # grow the nonzero set coset by coset while the message space fits
    nonzeros: list[int] = []
    for i in order[: draw(st.integers(1, len(cosets)))]:
        if qb ** (len(nonzeros) + len(cosets[i])) <= MESSAGE_CAP:
            nonzeros.extend(cosets[i].exps)
    if not nonzeros:  # the coset {0} always fits
        nonzeros = [0]
    return code_from_defining_set(ctx, ctx.exponent_set(nonzeros).complement(), base=base)


@settings(max_examples=80, deadline=None)
@given(closed_codes())
def test_strategy_cross_agreement_ambient(code):
    # every exact strategy finds one distance and one canonical (support, word)
    F = code.field
    n, k = code.n, code.k
    d_ex, ex_words = cy._exhaustive_scan(code, want_words=True)
    found = {"exhaustive": (d_ex, ex_words)}
    d_climb, climb_word, reached = cy._support_climb(code, 1, n - k + 1, CLIMB_BUDGET)
    if d_climb is None:
        assert reached <= d_ex  # a cut climb still certifies a sound lower bound
    else:
        found["low_weight"] = (d_climb, [climb_word])
    if code.base_q == F.q:
        found["zero_core"] = cy._zero_core_scan(code, want_words=True)
    assert {d for d, _ in found.values()} == {d_ex}, (code.defining.exps, found)
    assert min_distance(code).exact == d_ex
    res = min_weight_word(code)
    assert res.exact == d_ex
    canonical = {cy._canonical_word(F, words) for _, words in found.values()} | {res.word}
    assert len(canonical) == 1, (code.defining.exps, canonical)


def projective_coeff_block(F, t):
    """Coefficient rows covering the projective space of a t-dim space:
    first nonzero coefficient normalized to 1."""
    blocks = []
    for lead in range(t):
        tail = t - lead - 1
        count = F.q**tail
        rows = np.zeros((count, t), dtype=np.int64)
        rows[:, lead] = 1
        v = np.arange(count, dtype=np.int64)
        for j in range(tail):
            rows[:, lead + 1 + j] = v % F.q
            v //= F.q
        blocks.append(rows)
    return np.concatenate(blocks, axis=0)


def reference_zero_core_candidates(F, V, chunk):
    """Every zero-core candidate, degenerate cores included: the kernel
    vector of each rank-(k-1) core, then one nullspace per distinct
    degenerate RREF with all the projective points of its kernel."""
    n, k = V.shape
    kernels, seen = [], set()
    it = itertools.combinations(range(1, n), k - 2)
    while block := list(itertools.islice(it, chunk)):
        cores = np.zeros((len(block), k - 1), dtype=np.int64)
        if k >= 3:
            cores[:, 1:] = block
        mats = V[cores]
        fs = linalg.batch_nullvec(F, mats)
        dead = ~fs.any(axis=1)
        for M in mats[dead]:
            key = linalg.rref(F, M)[0].tobytes()
            if key not in seen:
                seen.add(key)
                kernels.append(linalg.nullspace(F, M))
        yield fs[~dead]
    for ker in kernels:
        yield linalg.mat_mul(F, projective_coeff_block(F, len(ker)), ker)


def reference_zero_core_words(F, V, blocks):
    """Max zero count and the deduplicated words, one row at a time."""
    n = V.shape[0]
    best_zero, best_fs = 0, []
    for fs in blocks:
        for f in fs:
            zeros = int((linalg.mat_vec(F, V, f) == 0).sum())
            if zeros > best_zero:
                best_zero, best_fs = zeros, []
            if zeros == best_zero:
                best_fs.append(f)
    words = {}
    for f in best_fs:
        ev = linalg.mat_vec(F, V, f)
        word = cy._normalize_word(F, np.array([ev[(-i) % n] for i in range(n)], dtype=np.int64))
        words.setdefault(tuple(int(x) for x in word), None)
    return best_zero, list(words)


# anchor-dual codes whose zero cores include degenerate ones (kernel dimension > 1)
DEGENERATE_ANCHORS = [
    (19, 18, (0, 5, 10, 12, 16)),
    (19, 18, (0, 8, 10, 14, 16)),
    (25, 24, (0, 1, 5, 11, 12)),
    (25, 24, (0, 4, 8, 16, 20)),
]


@pytest.mark.parametrize("q,n,anchor", DEGENERATE_ANCHORS)
def test_zero_core_degenerate_kernels_match_reference(q, n, anchor):
    # the scan skips cores of rank below k-1; the reference enumerates their kernels
    ctx = cyc_context(q, n)
    F = ctx.field
    code = code_from_defining_set(ctx, ctx.exponent_set(anchor), base="extension").dual_code()
    n, k = code.n, code.k
    V = ctx.root_powers(range(n), list(code.defining.complement().exps))
    ref = list(reference_zero_core_candidates(F, V, 8192))
    assert len(ref) > -(-comb(n - 1, k - 2) // 8192)  # degenerate kernels are enumerated
    best_zero, words = reference_zero_core_words(F, V, ref)
    for chunk in (7, 64, 8192):
        d, got_words = cy._zero_core_scan(code, want_words=True, chunk=chunk)
        assert d == n - best_zero
        # the scan returns its words in lexicographic order
        assert [tuple(int(x) for x in w) for w in got_words] == sorted(words)


def random_ambient_codes(seed, per_k):
    """Seeded ambient-field codes, per_k of each k = 2..7, whose k nonzero
    exponents are drawn at random."""
    rng = np.random.default_rng(seed)
    for k in [k for k in range(2, 8) for _ in range(per_k)]:
        fits = [(q, n) for q, n in DIFF_CONTEXTS if n > k]
        q, n = fits[int(rng.integers(len(fits)))]
        ctx = cyc_context(q, n)
        nonzeros = rng.choice(n, size=k, replace=False)
        yield code_from_defining_set(ctx, ctx.exponent_set(nonzeros).complement(), base="extension")


def anchor_duals():
    for q, n, anchor in DEGENERATE_ANCHORS:
        ctx = cyc_context(q, n)
        yield code_from_defining_set(ctx, ctx.exponent_set(anchor), base="extension").dual_code()


@pytest.mark.parametrize("code", [*random_ambient_codes(1907, 3), *anchor_duals()],
                         ids=lambda c: f"{c.ctx.q}-{c.n}-k{c.k}-{'.'.join(map(str, c.defining.complement().exps))}")
def test_zero_core_pencils_match_reference(code):
    # the prefix walk, one pivot step per (k-2)-point prefix, finds the
    # distance and the words that the brute-force core enumeration finds,
    # however its children are batched
    F, n, k = code.field, code.n, code.k
    V = code.ctx.root_powers(range(n), list(code.defining.complement().exps))
    best_zero, words = reference_zero_core_words(F, V, reference_zero_core_candidates(F, V, 4096))
    for chunk in (1, 3, None):
        kw = {} if chunk is None else {"chunk": chunk}
        d, got = cy._zero_core_scan(code, want_words=True, **kw)
        assert d == n - best_zero, (chunk, k)
        assert [tuple(int(x) for x in w) for w in got] == sorted(words), (chunk, k)


def reference_zero_core_scan(code, want_words=False, chunk=1024):
    """The zero-core scan without the smallest-gap cut: every prefix through
    0 is walked, and the words are those counted, normalised and distinct."""
    F, n, k = code.field, code.n, code.k
    V = code.ctx.root_powers(range(n), list(code.defining.complement().exps))
    rev = (-np.arange(n)) % n
    best_zero, best_words = k - 2, []
    for P, E in linalg.prefix_walk(F, F.vsub(V.T[1:], V.T[0]), k - 2, chunk):
        if P.shape[1] < k - 3:
            continue
        E1, E2 = E[:, 0], E[:, 1]
        cls = cy._ratio_classes(F, E1, E2)
        common = cls == F.q + 1
        srt = np.sort(cls, axis=1)
        starts = np.flatnonzero(np.c_[np.ones(len(srt), dtype=bool), srt[:, 1:] != srt[:, :-1]])
        rows, val = starts // n, srt.ravel()[starts]
        size = np.diff(np.r_[starts, srt.size])
        zeros = np.where(val == F.q + 1, -1, common.sum(axis=1)[rows] + size)
        mz = int(zeros.max())
        if mz > best_zero:
            best_zero, best_words = mz, []
        if want_words and mz == best_zero:
            hit = zeros == best_zero
            b = rows[hit]
            t = (cls[b] == val[hit][:, None]).argmax(axis=1)
            best_words.append(F.vsub(F.vmul(E2[b, t][:, None], E1[b]), F.vmul(E1[b, t][:, None], E2[b])))
    if not best_words:
        return n - best_zero, []
    return n - best_zero, list(cy._distinct_words(F, np.concatenate(best_words)[:, rev]))


def ambient_code(q, n, nonzeros):
    ctx = cyc_context(q, n)
    return code_from_defining_set(ctx, ctx.exponent_set(nonzeros).complement(), base="extension")


# ambient codes with forced zeros: every word that vanishes at 0 also
# vanishes on the subgroup of points t with t*N = 0 mod n for all nonzero
# exponents N, here {0, 6, 12, 18}, {0, 8, 16} and {0, 9}
FORCED_ZERO_CODES = [(25, 24, [0, 4, 8, 16, 20]), (25, 24, [0, 3, 9, 15, 21]), (19, 18, [0, 2, 4, 8, 10, 14])]


@pytest.mark.parametrize("q,n,nonzeros", FORCED_ZERO_CODES)
def test_forced_zero_codes_have_their_subgroup(q, n, nonzeros):
    code = ambient_code(q, n, nonzeros)
    V = code.ctx.root_powers(range(n), list(code.defining.complement().exps))
    forced = np.flatnonzero(~code.field.vsub(V.T[1:], V.T[0]).any(axis=0))
    assert len(forced) > 1 and n % len(forced) == 0
    assert forced.tolist() == list(range(0, n, n // len(forced)))


# anchor duals with long Frobenius orbits: the C56 n33 dual, [33, 7] over
# GF(2^10) with p = 2 of order 10 mod 33, and the [17, 7] dual over GF(2^8),
# of order 8 mod 17
LONG_ORBIT_ANCHORS = [(32, 33, [0, 14, 15, 16, 17, 18, 19]), (16, 17, [0, 1, 2, 8, 14, 15, 16])]


def long_orbit_duals():
    for q, n, anchor in LONG_ORBIT_ANCHORS:
        ctx = cyc_context(q, n)
        yield code_from_defining_set(ctx, ctx.exponent_set(anchor), base="extension").dual_code()


# the walk serves k >= 3; below that the scan reads its one core directly
@pytest.mark.parametrize(
    "code", [c for c in random_ambient_codes(2311, 4) if c.k >= 3]
    + [*anchor_duals(), *(ambient_code(*c) for c in FORCED_ZERO_CODES), *long_orbit_duals()],
    ids=lambda c: f"{c.ctx.q}-{c.n}-k{c.k}-{'.'.join(map(str, c.defining.complement().exps))}")
def test_zero_core_scan_matches_the_unrestricted_walk(code):
    # the smallest-gap cut, the walk over one zero set per Frobenius orbit
    # and the expanded, shifted words give the unrestricted walk's distance
    # and exactly its word list, however the walk batches; the reference
    # walks 35,960 prefixes on n33, so the long orbits run at the default
    # chunk only
    long_orbit = code.n in (17, 33)
    for chunk in (None,) if long_orbit else (1, 3, None):
        kw = {} if chunk is None else {"chunk": chunk}
        want = reference_zero_core_scan(code, want_words=True, **kw)
        got = cy._zero_core_scan(code, want_words=True, **kw)
        assert got[0] == want[0], (chunk, code.defining.exps)
        assert [w.tolist() for w in got[1]] == [w.tolist() for w in want[1]], (chunk, code.defining.exps)
        assert cy._zero_core_scan(code, **kw) == (want[0], [])


# the anchors of DEGENERATE_ANCHORS over GF(q^2), whose duals the zero-core
# tests scan, have only five parity checks
CUT_SUPPORT_CODES = [support_code(*c) for c in SUPPORT_CODES] + [
    *random_ambient_codes(2333, 1), *(support_code(q, n, a, "extension") for q, n, a in DEGENERATE_ANCHORS)]


@pytest.mark.parametrize("code", CUT_SUPPORT_CODES, ids=lambda c: f"{c.ctx.q}-{c.n}-k{c.k}-{len(c.defining)}")
def test_dependent_support_cut_matches_the_unrestricted_walk(code):
    # the scan cut to a second point of at most n // w returns the support
    # of the scan over every support through 0, and the same verdict, at
    # every weight up to two past the first dependent one, however the walk
    # batches
    F, n, r = code.field, code.n, code.n - code.k
    H = code.parity_check_matrix()
    hits = 0
    for w in range(2, r + 2):
        full = linalg.first_dependent_columns(F, H[1:, 1:], w - 1)
        want = None if full is None else (0, *(c + 1 for c in full))
        assert cy._dependent_support(code, w, float("inf")) == want, w
        assert has_weight_at_most(code, w, float("inf")) == (want is not None), w
        for chunk in (1, 3):
            assert linalg.first_dependent_columns(F, H[1:, 1:], w - 1, chunk, lead=n // w) == full, (w, chunk)
        hits += want is not None
        if hits == 3:
            break
    assert hits or r == 0


def test_n33_zero_core_walk_starts_from_the_smallest_gap(monkeypatch):
    # the n33 anchor dual's scan walked 35,960 prefixes through 0; cut to a
    # first point of at most 33 // 6 and stopped once a batch starts past
    # 33 // 10, it walked 14,353; with one zero set per Frobenius orbit, its
    # roots the orbit leaders 1, 3 and 5 and its children cut by their
    # differences' leaders, it walks 4,717
    ctx = cyc_context(32, 33)
    dual = code_from_defining_set(ctx, ctx.exponent_set([0, 14, 15, 16, 17, 18, 19]), base="extension").dual_code()
    nodes = []
    prefix_walk = linalg.prefix_walk

    def counting_walk(*args, **kwargs):
        for P, R in prefix_walk(*args, **kwargs):
            nodes.append(len(P))
            yield P, R

    monkeypatch.setattr(linalg, "prefix_walk", counting_walk)
    assert cy._zero_core_scan(dual, want_words=True)[0] == 23
    assert sum(nodes) <= 4717


def reference_frobenius(F, word, n):
    """phi(word)[p*i mod n] = word[i]^p, one element at a time."""
    out = [0] * n
    for i, x in enumerate(word):
        out[i * F.p % n] = F.pow(int(x), F.p)
    return np.array(out, dtype=np.int64)


@pytest.mark.parametrize("seed", [2401, 2402])
def test_frobenius_maps_every_ambient_code_onto_itself(seed):
    # phi keeps the code whatever its defining set: the image of every
    # generator row is a codeword of the row's weight, and its powers, which
    # `_frobenius_images` lists up to the order of p mod n, return to the row
    rng = np.random.default_rng(seed)
    for q, n in [*DIFF_CONTEXTS, (32, 33), (16, 17)]:
        ctx = cyc_context(q, n)
        F = ctx.field
        for k in range(1, min(n, 8)):
            nonzeros = rng.choice(n, size=k, replace=False)
            code = code_from_defining_set(ctx, ctx.exponent_set(nonzeros).complement(), base="extension")
            G = code.generator_matrix()
            images = [reference_frobenius(F, row, n) for row in G]
            assert code.dual_code().is_orthogonal(images), (q, n, sorted(nonzeros))
            assert [np.count_nonzero(r) for r in images] == [np.count_nonzero(r) for r in G]
            order = cy.ord_mod(F.p, n)
            got = cy._frobenius_images(F, G).reshape(order, len(G), n)
            assert np.array_equal(got[0], G) and np.array_equal(got[1 % order], images if order > 1 else G)
            assert np.array_equal(np.stack([reference_frobenius(F, r, n) for r in got[-1]]), G)


@pytest.mark.parametrize(
    "code", [*long_orbit_duals(), *anchor_duals(), *(ambient_code(*c) for c in FORCED_ZERO_CODES),
             *(c for c in random_ambient_codes(2311, 4) if c.k >= 4)],
    ids=lambda c: f"{c.ctx.q}-{c.n}-k{c.k}-{'.'.join(map(str, c.defining.complement().exps))}")
def test_zero_core_walk_keeps_one_zero_set_per_orbit(code, monkeypatch):
    # every root child of the scan's walk is a Frobenius orbit leader below
    # the lead n // (k-1) + 1, and under a root l > 1 every point of a prefix
    # and every difference of a later point with an earlier one has a leader
    # of at least l and is no forced zero, whose column would be zero or
    # parallel to the earlier point's; when p = 1 mod n every point leads
    # its orbit, and the cut is by the differences alone
    n, k, ctx = code.n, code.k, code.ctx
    leaders = ctx.frobenius_leaders()
    V = ctx.root_powers(range(n), list(code.defining.complement().exps))
    forced = ~code.field.vsub(V.T[1:], V.T[0]).any(axis=0)
    nodes, keeps = [], []
    prefix_walk = linalg.prefix_walk

    def recording_walk(*args, **kwargs):
        keeps.append(kwargs.get("keep"))
        for P, R in prefix_walk(*args, **kwargs):
            nodes.extend(P.tolist())
            yield P, R

    monkeypatch.setattr(linalg, "prefix_walk", recording_walk)
    cy._zero_core_scan(code, want_words=True)
    assert len(keeps) == 1 and keeps[0] is not None
    roots = {P[0] for P in nodes if P}
    assert all(leaders[r] == r and r <= n // (k - 1) for r in roots), roots
    if n == 33:  # the leaders of Z_33 under doubling below 33 // 6 + 1
        assert roots == {1, 3, 5}
    for P in nodes:
        if P and P[0] > 1:
            diffs = [(b - a) % n for i, b in enumerate(P) for a in [0, *P[:i]]]
            assert all(leaders[x] >= P[0] and not forced[x] for x in diffs), P


def test_orbit_cut_prunes_when_p_is_1_mod_n(monkeypatch):
    # at p = 1 mod n every orbit is one point, yet the cut by differences
    # still drops children under a root l > 1: the [18, 6] GF(19) code with
    # forced zeros walks 172 nodes instead of 221, to the same result
    code = ambient_code(19, 18, [0, 2, 4, 8, 10, 14])
    prefix_walk = linalg.prefix_walk
    results, nodes = [], []
    for cut in (True, False):
        count = []

        def counting_walk(*args, **kwargs):
            for P, R in prefix_walk(*args, **{**kwargs, **({} if cut else {"keep": None})}):
                count.append(len(P))
                yield P, R

        monkeypatch.setattr(linalg, "prefix_walk", counting_walk)
        d, words = cy._zero_core_scan(code, want_words=True)
        results.append((d, [w.tolist() for w in words]))
        nodes.append(sum(count))
    assert results[0] == results[1] and results[0][0] == 6
    assert nodes == [172, 221]


def test_n33_anchor_dual_settles_by_zero_core():
    # the C56 anchor {0, +-17, +-18, +-19} at n = 33 over GF(32): its [33, 7]
    # dual lives over GF(2^10), where the zero-core scan is the cheapest oracle
    ctx = cyc_context(32, 33)
    dual = code_from_defining_set(ctx, ctx.exponent_set([0, 14, 15, 16, 17, 18, 19]), base="extension").dual_code()
    res = min_distance(dual)
    assert (dual.k, res.exact, res.method) == (7, 23, "zero_core")


def reference_ratio_classes(F, E1, E2):
    """The log-difference classes: log E1 - log E2 mod q-1, else separate
    classes for E1 = 0, E2 = 0 and a common zero."""
    q1 = F.q - 1
    z1, z2 = E1 == 0, E2 == 0
    common = z1 & z2
    return np.select([common, z1, z2], [q1 + 2, q1, q1 + 1], (F._log[E1] - F._log[E2]) % q1)


# binary, prime and odd-extension fields; GF(3^7) has no addition table
RATIO_FIELDS = [(2, 1), (2, 4), (2, 10), (19, 1), (5, 2), (3, 3), (3, 7)]


@pytest.mark.parametrize("p,m", RATIO_FIELDS, ids=lambda v: str(v))
def test_ratio_classes_partition_points_as_the_log_classes(p, m):
    # every zero pattern: E1 only, E2 only, both and neither
    F = field_create(p, m)
    rng = np.random.default_rng(2113 + F.q)
    pairs = np.array(list(itertools.product(range(min(F.q, 32)), repeat=2))).T
    blocks = [pairs[:, None, :]]
    for _ in range(20):
        vals = rng.integers(1, F.q, size=3)  # few values, so ratios recur
        E = vals[rng.integers(0, 3, size=(2, 5, 40))]
        E[rng.random(E.shape) < 0.3] = 0
        E[:, :, :4] = np.array([[0, 0, 1, 1], [0, 1, 0, 1]])[:, None, :] * vals[0]  # each pattern once
        blocks.append(E)
    for E1, E2 in blocks:
        got, want = cy._ratio_classes(F, E1, E2), reference_ratio_classes(F, E1, E2)
        assert np.array_equal(got == F.q + 1, want == F.q + 1)  # the common zeros
        same = lambda c: c[:, :, None] == c[:, None, :]
        assert np.array_equal(same(got), same(want))


def test_scan_kernel_elements_stay_at_their_bounds(monkeypatch):
    # output elements of each field kernel, a deterministic measure of the
    # work, over one zero-core scan of the n33 anchor dual and one
    # enumeration of a GF(25) [24, 5] code.  The loops that formed two
    # products per element of the walk's rows and added the offset to every
    # word made 5.44M vmul elements in the scan and 234M vadd elements in
    # the enumeration, and the scan's walk over every prefix through 0,
    # before it started from the smallest gap, 2.90M; its walk over one zero
    # set per shift, before one per Frobenius orbit, made 1.15M vmul and
    # 1.01M vadd elements
    counts = {}
    for name in ("vadd", "vsub", "vneg", "vmul", "vdiv_nz"):
        def counted(F, *args, _kernel=getattr(FieldSpec, name), _name=name):
            out = _kernel(F, *args)
            counts[_name] = counts.get(_name, 0) + np.size(out)
            return out
        monkeypatch.setattr(FieldSpec, name, counted)
    bounds = {
        "zero_core": {"vadd": 333500, "vsub": 25500, "vneg": 10200, "vmul": 384000, "vdiv_nz": 197000},
        "exhaustive": {"vadd": 425983, "vsub": 15847, "vneg": 30848, "vmul": 5620, "vdiv_nz": 2762},
    }
    ctx = cyc_context(32, 33)
    dual = code_from_defining_set(ctx, ctx.exponent_set([0, 14, 15, 16, 17, 18, 19]), base="extension").dual_code()
    assert cy._zero_core_scan(dual, want_words=True)[0] == 23
    assert all(counts[k] <= bounds["zero_core"][k] for k in counts), counts
    counts.clear()
    ctx = cyc_context(25, 24)
    code = code_from_defining_set(ctx, ctx.exponent_set([0, 1, 5, 11, 12]), base="extension").dual_code()
    assert code.k == 5 and cy._exhaustive_scan(code, want_words=True)[0] == 12
    assert all(counts[k] <= bounds["exhaustive"][k] for k in counts), counts


def test_generator_check_reads_the_base_field_mask():
    # the context's mask marks exactly GF(q) inside the ambient field, and a
    # generator coefficient outside it is a named leak
    for q, n in [(2, 15), (4, 5), (19, 18), (5, 12), (3, 13), (32, 33)]:
        ctx = cy.CycContext(q, n)
        assert np.flatnonzero(ctx.in_base).tolist() == ctx.field.subfield_elements(q).tolist()
    ctx = cy.CycContext(2, 15)
    ctx.in_base[1] = False
    with pytest.raises(cy.CoefficientLeak, match="coefficient 1 escapes GF\\(2\\)"):
        code_from_defining_set(ctx, ctx.exponent_set([1, 2, 4, 8]))
    assert code_from_defining_set(ctx, ctx.exponent_set([1, 2, 4, 8]), base="extension").k == 11


def test_zero_core_words_do_not_import_numpy_ma():
    # a fresh process that takes the zero-core word path never imports
    # numpy.ma, whose lazy import costs ~16 ms (np.unique would trigger it)
    ctx = cyc_context(16, 17)
    dual = code_from_defining_set(ctx, ctx.exponent_set([0, 1, 2, 8, 14, 15, 16]), base="extension").dual_code()
    assert min_distance(dual).method == "zero_core"
    probe = (
        "import sys\n"
        "from cyclrc.cyclic import code_from_defining_set, cyc_context, min_weight_word\n"
        "ctx = cyc_context(16, 17)\n"
        "code = code_from_defining_set(ctx, ctx.exponent_set([0, 1, 2, 8, 14, 15, 16]), base='extension')\n"
        "before = 'numpy.ma' in sys.modules\n"
        "d = min_weight_word(code.dual_code()).exact\n"
        "print(d, before, 'numpy.ma' in sys.modules)\n"
    )
    src = os.path.dirname(os.path.dirname(cy.__file__))
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.split() == ["9", "False", "False"]


# ambient-field codes with many degenerate cores, whose kernels hold over
# 10^6 projective points in all
CAP_CODES = [
    (19, 18, range(1, 18, 2), 2),
    (19, 18, range(0, 18, 2), 2),
    (25, 24, [e for e in range(24) if e % 3 != 2], 3),
]


@pytest.mark.parametrize("q,n,exps,d", CAP_CODES, ids=["19-18-odd", "19-18-even", "25-24-not2mod3"])
def test_zero_core_settles_codes_with_many_degenerate_cores(q, n, exps, d):
    ctx = cyc_context(q, n)
    code = code_from_defining_set(ctx, ctx.exponent_set(exps), base="extension")
    got, words = cy._zero_core_scan(code, want_words=True)
    assert got == d
    res = min_distance(code)
    assert (res.exact, res.method) == (d, "zero_core")
    climb_d, climb_word, _ = cy._support_climb(code, 1, n - code.k + 1, CLIMB_BUDGET)
    assert climb_d == d
    assert len({cy._canonical_word(code.field, ws) for ws in (words, [climb_word])}) == 1


def test_serialization_shape():
    ctx = cyc_context(2, 31)
    code = code_from_defining_set(ctx, ctx.exponent_set([0, 1, 2, 4, 8, 16]))
    d = code.to_dict()
    assert d["q"] == 2 and d["n"] == 31 and d["k"] == code.k
    assert d["defining_exponents"] == list(code.defining.exps)
    assert d["generator_coeffs"] == list(code.gen.coeffs)


def test_inverted_distance_result_raises_named_error():
    with pytest.raises(BoundInversion):
        DistanceResult(lower=5, upper=3, exact=4, method="sandwich")
    # a word must weigh the exact distance
    with pytest.raises(InvariantViolated):
        DistanceResult(3, 5, 4, "zero_core", word=(1, 0, 1))
    with pytest.raises(InvariantViolated):
        DistanceResult(3, 5, None, "bch", word=(1, 0, 1))
    # the checks are not asserts, so they hold under python -O as well; so
    # does the field construction check that refuses a reducible modulus
    probe = (
        "from cyclrc import field\n"
        "from cyclrc.cyclic import BoundInversion, DistanceResult, InvariantViolated\n"
        "for args in ((5, 3, 4, 'sandwich'), (3, 5, 4, 'zero_core', False, (1, 0, 1))):\n"
        "    try:\n        DistanceResult(*args)\n    except InvariantViolated as e:\n"
        "        print(type(e).__name__)\n"
        "field._EXTENSIONS[2, 4] = (1, field._EXTENSIONS[2, 4][1])  # x^4 + 1 = (x + 1)^4\n"
        "try:\n    field.FieldSpec(2, 4)\nexcept field.FieldError as e:\n    print(type(e).__name__)\n"
    )
    out = subprocess.run([sys.executable, "-O", "-c", probe], capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["BoundInversion", "InvariantViolated", "FieldError"]


# a binary [21,7,8] code: the run bound is 5, the run-plus-blocks witness
# lifts the lower bound to 6, and the default budget settles 8 where budget
# 2000 leaves it open
MEMO_SET = (1, 2, 3, 4, 6, 7, 8, 9, 11, 12, 14, 15, 16, 18)
MEMO_WITNESS = BettiSalaWitness(u=7, b=1, m=1, delta=3)


def _memo_code(ctx=None):
    ctx = ctx or CycContext(2, 21)
    return code_from_defining_set(ctx, ctx.exponent_set(MEMO_SET))


def _spy_settle(monkeypatch):
    """Record (exponents, base, lower, upper, budget, want_words) of every
    _settle call."""
    calls = []
    settle = cy._settle

    def spy(code, lower, upper, budget, want_words):
        calls.append((code.defining.exps, code.base_q, lower, upper, budget, want_words))
        return settle(code, lower, upper, budget, want_words)

    monkeypatch.setattr(cy, "_settle", spy)
    return calls


def test_min_distance_second_call_reads_the_memo(monkeypatch):
    calls = _spy_settle(monkeypatch)
    code = _memo_code()
    first = min_distance(code)
    assert (first.exact, first.method, first.word) == (8, "exhaustive", None)
    assert min_distance(code) is first
    assert len(calls) == 1
    with_word = min_weight_word(code)
    assert (with_word.exact, with_word.method, sum(map(bool, with_word.word))) == (8, "exhaustive", 8)
    assert min_weight_word(code) is with_word
    assert len(calls) == 2


def test_min_distance_memo_keys_budget_witness_and_upper(monkeypatch):
    args = [(DEFAULT_BUDGET, None, None), (2000, None, None), (DEFAULT_BUDGET, MEMO_WITNESS, None),
            (DEFAULT_BUDGET, None, 10)]
    cold = [min_distance(_memo_code(), *a) for a in args]  # each in a fresh context
    assert len(set(cold)) == len(args)  # each argument moves the result
    # word queries at the default budget and at one that cuts the climb
    cold_words = [min_weight_word(_memo_code(), b) for b in (DEFAULT_BUDGET, 2000)]
    assert cold_words[0] != cold[0] and cold_words[0].word is not None
    assert cold_words[1].exact is None and cold_words[1].word is None
    calls = _spy_settle(monkeypatch)
    code = _memo_code()
    for _ in range(2):
        assert [min_distance(code, *a) for a in args] == cold
        assert [min_weight_word(code, b) for b in (DEFAULT_BUDGET, 2000)] == cold_words
    # one _settle per key: the word and distance entries at one budget are
    # distinct, and the cut word query is stored, so its repeat climbs no more
    assert len(calls) == len(set(calls)) == len(args) + 2
    assert len(code._distances) == len(args) + 2


def test_min_distance_at_a_budget_does_not_depend_on_history():
    # README's run code: budget 2000 leaves its distance open, the default
    # budget settles it
    def run_code():
        ctx = CycContext(2, 31)
        return code_from_defining_set(ctx, ctx.exponent_set([5, 9, 10, 18, 20]), base="extension")

    small_first, default_first = run_code(), run_code()
    before = min_distance(small_first, 2000)
    settled = min_distance(small_first)
    assert min_distance(default_first) == settled and settled.exact == 3
    after = min_distance(default_first, 2000)
    assert after == before and after.exact is None


def test_min_distance_refusals_raise_on_every_call():
    code = _memo_code()
    for error, kwargs in ((BudgetTooSmall, {"budget": 21 * 21 - 1}), (BoundInversion, {"upper": 4})):
        raised = []
        for _ in range(2):
            with pytest.raises(error) as info:
                min_distance(code, **kwargs)
            raised.append(info.value)
        assert raised[0] is not raised[1]  # raised afresh, not replayed


def test_a_call_that_raises_leaves_nothing_in_the_memo(monkeypatch):
    code = _memo_code()

    def fail(*_args, **_kwargs):
        raise RuntimeError("transient")

    monkeypatch.setattr(cy, "_settle", fail)
    with pytest.raises(RuntimeError):
        min_distance(code)
    monkeypatch.undo()
    assert min_distance(code) == min_distance(_memo_code())


def test_distance_result_is_frozen():
    res = min_distance(_memo_code())
    with pytest.raises(FrozenInstanceError):
        res.exact = 7


def test_the_memo_lives_and_dies_with_its_context(monkeypatch):
    calls = _spy_settle(monkeypatch)
    ctx = CycContext(2, 21)
    min_distance(_memo_code(ctx))
    min_distance(_memo_code())  # another context settles its own copy
    assert len(calls) == 2
    gone = weakref.ref(ctx)
    del ctx
    gc.collect()
    assert gone() is None  # no module-level table keeps the context's codes


@pytest.mark.parametrize("q, n", [(2, 15), (3, 13), (4, 15)])
def test_dual_code_is_the_complement_code_of_the_negated_set(q, n):
    ctx = CycContext(q, n)
    for S in selfcheck.closed_sets(ctx):
        for base in ("subfield", "extension"):
            code = code_from_defining_set(ctx, S, base=base)
            assert code.dual_code() is code_from_defining_set(ctx, S.negate(), base=base).complement_code()


def test_sweep_walk_settles_each_code_once(monkeypatch):
    # the (3, 13) walk of run_sweeps in a fresh context: a set's dual code
    # is another set's complement code, and every revisit reads the memo
    calls = _spy_settle(monkeypatch)
    monkeypatch.setattr(selfcheck, "SWEEP_PAIRS", ((3, 13),))
    monkeypatch.setattr(selfcheck, "cyc_context", CycContext)
    monkeypatch.setattr(selfcheck, "_random_subgroup_sets", lambda budget: [])
    results = selfcheck.run_sweeps()
    assert len(results) == 3 and all(r.ok for r in results)
    assert calls and len(calls) == len(set(calls))


def reference_shift_set(support, n):
    """Every shift of the support, one per s in range(n), deduplicated."""
    return {tuple(sorted((i + s) % n for i in support)) for s in range(n)}


def orbit_cases():
    rng = np.random.default_rng(1501)
    yield [0], 1  # n = 1
    for n in (1, 2, 7, 12, 18, 30):
        yield list(range(n)), n  # the full set, period 1
        for i in {0, n // 2, n - 1}:
            yield [i], n  # singletons
        for ell in (e for e in range(1, n + 1) if n % e == 0):
            for c in {0, 1 % ell, ell - 1}:
                yield list(range(c, n, ell)), n  # subgroup cosets
                yield sorted(set(range(c, n, ell)) | {0, (c + 1) % n}), n  # a coset plus two points
        for _ in range(12):
            yield sorted(rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False).tolist()), n
    # unions of cosets of one subgroup: period n/ell, though no single coset
    yield [0, 1, 6, 7, 12, 13], 18
    yield [2, 5, 9, 12, 16, 19, 23, 26], 28


def test_support_orbit_matches_all_n_shifts():
    for support, n in orbit_cases():
        orbit = support_orbit(support, n)
        sups = [g for _, g in orbit]
        assert set(sups) == reference_shift_set(support, n), (support, n)
        assert sups == sorted(set(sups)), (support, n)  # distinct, sorted by support
        for s, g in orbit:
            assert 0 <= s < n and g == tuple(sorted((i + s) % n for i in support)), (support, n, s)
        assert 0 in sups[0] and sups[0] == min(reference_shift_set(support, n)), (support, n)
        # the orbit length is n over the number of shifts fixing the support
        fixing = sum(set(support) == {(i + s) % n for i in support} for s in range(n))
        assert len(orbit) * fixing == n, (support, n)


def test_support_orbit_rejects_an_empty_support():
    with pytest.raises(ValueError):
        support_orbit([], 5)


def reference_canonical_word(F, words):
    """The lex-first support over every word and all n of its shifts, the
    word scaled to leading coefficient 1."""
    best_sup = best_word = None
    for w0 in words:
        n = len(w0)
        sup0 = np.nonzero(w0)[0]
        for s in range(n):
            sup = tuple(sorted((int(x) + s) % n for x in sup0))
            if best_sup is None or sup < best_sup:
                best_sup, best_word = sup, cy._normalize_word(F, np.roll(w0, s))
    return best_sup, best_word


def canonical_word_lists():
    for code in [*random_ambient_codes(2207, 2), *anchor_duals()]:
        yield code, cy._zero_core_scan(code, want_words=True)[1]
    for q, n, exps in ((2, 15, [0, 1, 2, 4, 8]), (2, 21, [1, 2, 4, 8, 11, 16, 3, 6, 12]),
                       (3, 13, [0, 1, 3, 9, 2, 6, 5]), (19, 18, range(2, 18)),
                       (4, 15, [3, 5, 6, 7, 9, 10, 11, 12, 13, 14])):
        ctx = cyc_context(q, n)
        code = code_from_defining_set(ctx, ctx.exponent_set(exps))
        # the scan lists one normalised word per scalar class; every nonzero
        # multiple of each goes in, so the pick must not depend on the scaling
        words = cy._exhaustive_scan(code, want_words=True)[1]
        yield code, [code.field.vmul(c, w) for w in words for c in code.base_elements[1:]]


@pytest.mark.parametrize("code,words", list(canonical_word_lists()),
                         ids=lambda v: f"{v.ctx.q}-{v.n}-k{v.k}" if isinstance(v, cy.CyclicCode) else f"{len(v)}w")
def test_canonical_word_matches_n_shift_loop(code, words):
    # the orbit's first entry per word picks the same (support, word) as
    # trying all n shifts of every word
    assert words
    word = cy._canonical_word(code.field, words)
    ref_sup, ref_word = reference_canonical_word(code.field, words)
    assert tuple(i for i, x in enumerate(word) if x) == ref_sup and word == tuple(ref_word.tolist())
