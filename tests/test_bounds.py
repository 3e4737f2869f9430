import tracemalloc
from math import gcd

import numpy as np
import pytest

from cyclrc import bounds
from cyclrc.bounds import (
    BadParams,
    BchWitness,
    BettiSalaWitness,
    StepNotUnit,
    WitnessNotContained,
    bch_lower,
    betti_sala_lower,
    exact_dual_distance,
    singleton_like,
    subgroup_coset_in,
    units_mod,
)
from cyclrc.cyclic import CycContext, all_cyclotomic_cosets, code_from_defining_set, cyc_context, min_distance


def test_bch_empty_set():
    ctx = cyc_context(2, 7)
    bound, w = bch_lower(ctx.exponent_set([]))
    assert bound == 1 and w.length == 0


def test_bch_consecutive_run():
    ctx = cyc_context(19, 18)
    S = ctx.exponent_set(range(3, 3 + 6))
    bound, w = bch_lower(S)
    assert bound == 7
    assert {(w.u + i * w.b) % 18 for i in range(w.length)} <= set(S.exps)


def test_bch_nonunit_step_found():
    # {0,2,4} mod 7 is a run of 3 at step 2, a unit mod 7
    ctx = cyc_context(8, 7)
    bound, w = bch_lower(ctx.exponent_set([0, 2, 4]))
    assert bound == 4
    assert w.length == 3 and w.b in (2, 5)


def test_bch_witness_exhaustive_oracle():
    # compare against direct enumeration of all (u, b) runs
    import itertools
    from math import gcd

    ctx = cyc_context(2, 15)
    import numpy as np

    rng = np.random.default_rng(2)
    for _ in range(50):
        exps = {int(x) for x in rng.integers(0, 15, rng.integers(0, 12))}
        S = ctx.exponent_set(exps)
        bound, _ = bch_lower(S)
        best = 0
        for b, u in itertools.product(range(1, 15), range(15)):
            if gcd(b, 15) != 1:
                continue
            ln = 0
            while ln < 15 and (u + ln * b) % 15 in exps:
                ln += 1
            best = max(best, ln)
        assert bound == best + 1



def reference_longest_run(positions: set[int], n: int) -> tuple[int, int]:
    """The two-pass loop bch_lower ran per step: longest cyclic run of
    consecutive residues as (length, start), the first such run on ties."""
    if len(positions) >= n:
        return n, 0
    best_len, best_start, run, start = 0, 0, 0, 0
    for i in range(2 * n):
        if (i % n) in positions:
            if run == 0:
                start = i % n
            run += 1
            if run > best_len:
                best_len, best_start = run, start
        else:
            run = 0
    return best_len, best_start


def reference_bch_lower(S):
    n = S.ctx.n
    if not S.exps:
        return 1, BchWitness(0, 1, 0)
    best = (0, 1, 0)  # (length, b, u): the smallest step wins ties
    for b in units_mod(n):
        binv = pow(b, -1, n)
        length, start = reference_longest_run({(e * binv) % n for e in S.exps}, n)
        if length > best[0]:
            best = (length, b, (start * b) % n)
    length, b, u = best
    return length + 1, BchWitness(u, b, length)


def test_bch_lower_matches_loop_reference():
    # every closed set over six contexts, 3000 random sets over (19, 18), and
    # a few sets at n = 1 and n = 1023: the same bound and the same witness
    sets = []
    for q, n in [(2, 15), (3, 13), (5, 8), (4, 15), (2, 21), (2, 31)]:
        ctx = cyc_context(q, n)
        cosets = all_cyclotomic_cosets(ctx)
        for mask in range(1 << len(cosets)):
            sets.append(ctx.exponent_set([e for i, c in enumerate(cosets) if mask >> i & 1 for e in c.exps]))
    assert len(sets) == 832
    rng = np.random.default_rng(14)
    ctx = cyc_context(19, 18)
    sets += [ctx.exponent_set(np.flatnonzero(rng.random(18) < rng.random())) for _ in range(3000)]
    sets += [cyc_context(2, 1).exponent_set(e) for e in ([], [0])]
    ctx = cyc_context(2, 1023)
    sets += [ctx.exponent_set(rng.choice(1023, size=s, replace=False)) for s in (1, 300, 1022)]
    sets.append(ctx.exponent_set(range(1023)))
    for S in sets:
        assert bch_lower(S) == reference_bch_lower(S), (S.ctx.q, S.ctx.n, S.exps)


def table_scan_bch_lower(S):
    """The membership-table scan bch_lower ran before the sorted scan: entry
    (b, i) of one table per block of steps tells whether i*b is in the set,
    for i up to 2n; the first longest run of the first step that reaches
    the longest length is the witness."""
    n = S.ctx.n
    if not S.exps:
        return 1, BchWitness(0, 1, 0)
    inset = np.zeros(n, dtype=bool)
    inset[list(S.exps)] = True
    steps = np.array(units_mod(n), dtype=np.int64)
    idx = np.arange(2 * n)
    chunk = max(1, (1 << 20) // (2 * n))
    best = (0, 1, 0)  # (length, b, u)
    for lo in range(0, len(steps), chunk):
        b = steps[lo : lo + chunk]
        gap = np.where(inset[b[:, None] * idx % n], -1, idx)
        run = np.minimum(idx - np.maximum.accumulate(gap, axis=1), n)
        end = run.argmax(axis=1)
        length = run.max(axis=1)
        j = int(length.argmax())
        if length[j] > best[0]:
            start = (int(end[j]) - int(length[j]) + 1) % n
            best = (int(length[j]), int(b[j]), start * int(b[j]) % n)
    length, b, u = best
    return length + 1, BchWitness(u, b, length)


def test_bch_lower_matches_table_scan():
    # random sets of every size 0..n, so the empty set, the full set and
    # both sides of |S| = n/2; then small and co-small sets at large n
    rng = np.random.default_rng(23)
    sets = []
    for n in (1, 2, 3, 7, 8, 13, 15, 18, 24, 33, 65):
        ctx = CycContext(next(q for q in (2, 3, 5) if gcd(q, n) == 1), n)
        for size in range(n + 1):
            sets += [ctx.exponent_set(rng.choice(n, size=size, replace=False)) for _ in range(4)]
    ctx = CycContext(2, 1023)
    for size in (1, 2, 5):
        S = ctx.exponent_set(rng.choice(1023, size=size, replace=False))
        sets += [S, S.complement()]
    # at n = 8191 a side of more than 64 exponents splits the steps into
    # blocks, so the complement of 100 exponents ties across blocks
    ctx = CycContext(8192, 8191)
    sets.append(ctx.exponent_set(rng.choice(8191, size=4, replace=False)))
    sets.append(ctx.exponent_set(rng.choice(8191, size=100, replace=False)).complement())
    for S in sets:
        assert bch_lower(S) == table_scan_bch_lower(S), (S.ctx.n, S.exps)


def test_bch_witness_tie_break_is_by_position():
    # b = 2 has runs {6, 8} and {1, 3}; their positions 2^-1*S = 8*S mod 15
    # are {3, 4} and {8, 9}, so the witness starts at u = 3*2 = 6, not 1
    ctx = cyc_context(2, 15)
    assert bch_lower(ctx.exponent_set([1, 3, 6, 8])) == (3, BchWitness(u=6, b=2, length=2))


def _traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_bch_lower_memory_follows_the_smaller_side():
    # the table scan peaked at 32 MiB on each of these sets
    ctx = CycContext(8192, 8191)
    S = ctx.exponent_set([1, 2, 3, 5])
    half = ctx.exponent_set(np.random.default_rng(8191).choice(8191, size=8191 // 2, replace=False))
    for T, limit in ((S, 4), (S.complement(), 4), (half, 48)):
        assert _traced_peak(lambda: bch_lower(T)) < limit << 20, len(T)


def test_bch_lower_memo_does_not_depend_on_history():
    rng = np.random.default_rng(5)
    for q, n in ((2, 15), (19, 18), (32, 33), (2, 65)):
        sets = [cyc_context(q, n).exponent_set(rng.choice(n, size=s, replace=False)) for s in range(n + 1)]
        warm = [bch_lower(S) for S in sets]
        fresh = CycContext(q, n)
        assert [bch_lower(fresh.exponent_set(S.exps)) for S in sets] == warm
        assert all(bch_lower(S) is pair for S, pair in zip(sets, warm))  # memoised
        forward, backward = CycContext(q, n), CycContext(q, n)
        for S in sets:
            A, B = forward.exponent_set(S.exps), backward.exponent_set(S.exps)
            complement_first = bch_lower(A.complement()), bch_lower(A)
            set_first = bch_lower(B), bch_lower(B.complement())
            assert complement_first == set_first[::-1]
            assert set_first[0] == bch_lower(S)


def test_bch_lower_builds_the_unit_steps_once_per_context(monkeypatch):
    # the steps and their inverses depend on n alone, so a context builds
    # them for its first set and reuses them for every later one
    calls = []
    monkeypatch.setattr(bounds, "units_mod", lambda n, real=bounds.units_mod: calls.append(n) or real(n))
    ctx = CycContext(8192, 8191)
    sets = [ctx.exponent_set([1, 2, 3, 5]), ctx.exponent_set([7, 9]), ctx.exponent_set([1, 2, 3, 5]).complement()]
    for S in sets:
        bch_lower(S)
    assert calls == [8191]
    steps, inv = ctx._unit_steps
    assert steps == units_mod(8191) and (inv * np.array(steps) % 8191 == 1).all()


def test_betti_sala_bound_and_errors():
    ctx = cyc_context(19, 18)
    S = ctx.exponent_set([0, 1, 2, 3, 5, 6, 7, 9, 10, 11])
    w = BettiSalaWitness(u=0, b=1, m=1, delta=4)
    assert betti_sala_lower(S, w) == 8
    with pytest.raises(WitnessNotContained):
        betti_sala_lower(ctx.exponent_set([0, 1, 2]), w)
    with pytest.raises(StepNotUnit):
        betti_sala_lower(S, BettiSalaWitness(u=0, b=6, m=1, delta=4))


def test_betti_sala_delta1_degenerates_to_run():
    # block width 1: pattern is a plain run of m, bound m+1
    ctx = cyc_context(19, 18)
    S = ctx.exponent_set(range(0, 8))
    w = BettiSalaWitness(u=0, b=1, m=3, delta=1)
    assert set(w.exponents(18)) == set(range(3))
    assert betti_sala_lower(S, w) == 4


def test_singleton_like():
    assert singleton_like(18, 10, 8, 3) == 7
    assert singleton_like(65, 16, 9, 5) == 46
    # r = k reduces to the classical bound
    for n, k in [(10, 4), (31, 28), (65, 12)]:
        assert singleton_like(n, k, k, 2) == n - k + 1
    with pytest.raises(BadParams):
        singleton_like(10, 4, 5, 2)
    with pytest.raises(BadParams):
        singleton_like(10, 4, 2, 1)


def test_subgroup_coset_detection():
    ctx = cyc_context(19, 18)
    A = ctx.exponent_set([1, 4, 7, 10, 13, 16, 0])
    found = subgroup_coset_in(A)
    assert (6, 1) in found  # the coset 1 + 3Z of the order-6 subgroup
    assert found[0][0] >= found[-1][0]  # ordered by order, largest first


def test_exact_dual_distance_full_set():
    ctx = cyc_context(19, 18)
    assert exact_dual_distance(ctx.exponent_set(range(18))) == 1


def test_exact_dual_distance_single_root():
    ctx = cyc_context(19, 18)
    A = ctx.exponent_set([5])
    assert exact_dual_distance(A) == 18
    dual = code_from_defining_set(ctx, A).dual_code()
    assert min_distance(dual).exact == 18


def test_exact_dual_distance_product_family_shape():
    # anchor of the divisible family: a leading run plus the multiples of
    # r+delta-1 = 4; subgroup order 7, so the dual distance is n/7 = 4
    ctx = cyc_context(29, 28)
    A = ctx.exponent_set(list(range(0, 6)) + [8, 12, 16, 20, 24])
    assert exact_dual_distance(A) == 4
    dual = code_from_defining_set(ctx, A).dual_code()
    assert min_distance(dual).exact == 4


def test_exact_dual_distance_absent_not_weakened():
    # no subgroup coset inside: must return absent, never a bound
    ctx = cyc_context(32, 33)
    A = ctx.exponent_set([0, 14, 15, 16, 17, 18, 19])
    assert exact_dual_distance(A) is None


def test_exact_dual_distance_vs_oracle_symmetric_set():
    # symmetric anchor over a quadratic ambient field, checked by the oracle
    ctx = cyc_context(23, 24)
    A = ctx.exponent_set([0, 1, 2, 3, 4, 20, 21, 22, 23, 9, 15])
    val = exact_dual_distance(A)
    assert val == 6
    ext = code_from_defining_set(ctx, A, base="extension")
    assert min_distance(ext.dual_code()).exact == 6


def test_exact_dual_distance_vs_oracle_two_block_set():
    # symmetric run-plus-center anchor over a quadratic ambient: the
    # criterion fires through the order-4 subgroup and matches the oracle
    ctx = cyc_context(11, 12)
    A = ctx.exponent_set([0, 3, 4, 5, 6, 7, 8, 9])
    val = exact_dual_distance(A)
    assert val == 3
    ext = code_from_defining_set(ctx, A, base="extension")
    oracle = min_distance(ext.dual_code()).exact
    assert oracle == min_distance(ext.complement_code()).exact == val
