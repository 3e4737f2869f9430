import numpy as np
import pytest

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
from cyclrc.cyclic import all_cyclotomic_cosets, code_from_defining_set, cyc_context, min_distance


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
