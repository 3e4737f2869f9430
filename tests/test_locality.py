import itertools

import numpy as np
import pytest

from cyclrc import linalg
from cyclrc.constructions import ConstructionRequest, build
from cyclrc.cyclic import all_cyclotomic_cosets, code_from_defining_set, cyc_context, min_distance, product_set
from cyclrc.locality import (
    BudgetExceededInconclusive,
    DistanceOrderingViolated,
    ProductNotContained,
    check_delta_independence,
    check_locality_record,
    locality_from_product,
    punctured_distance_at_least,
    rederive_locality,
    run_code_distance,
    verify_locality_exhaustive,
)
from cyclrc.selfcheck import closed_sets


def test_check_delta_independence_cases():
    F = cyc_context(19, 18).field
    M = np.array([[1, 2, 0, 4]], dtype=np.int64)
    assert not check_delta_independence(F, M, 2)  # zero column breaks delta=2
    assert check_delta_independence(F, M[:, [0, 1, 3]], 2)
    # repeated column with delta=3
    M2 = np.array([[1, 1, 2], [3, 3, 5]], dtype=np.int64)
    assert not check_delta_independence(F, M2, 3)
    # distinct-root rows stay independent in small windows
    ctx = cyc_context(19, 18)
    V = ctx.root_powers([0, 1, 2], range(6))
    assert check_delta_independence(ctx.field, V, 4)


def repair_groups_from_subgroup(n, s):
    # partition of the n coordinates into n/s residue classes of size s
    if s < 1 or n % s != 0:
        raise ValueError(f"group size {s} does not divide n={n}")
    return [list(range(c, n, n // s)) for c in range(n // s)]


def record_holds(code, cert):
    lines = check_locality_record(code, cert)
    return [line for line in lines if line[1] != "agree"] == []


def test_repair_groups_from_subgroup():
    # an anchor holding a subgroup coset yields its residue classes as groups
    ctx = cyc_context(19, 18)
    assert repair_groups_from_subgroup(18, 18) == [list(range(18))]
    groups = repair_groups_from_subgroup(18, 9)
    assert len(groups) == 2 and all(len(g) == 9 for g in groups)
    assert groups[0] == list(range(0, 18, 2))
    with pytest.raises(ValueError):
        repair_groups_from_subgroup(18, 5)
    anchor = ctx.exponent_set([0, 1, 5, 9])  # holds the order-2 coset {0, 9}
    run = ctx.exponent_set([0, 1, 2])
    cert = locality_from_product(anchor, run, code_from_defining_set(ctx, product_set(anchor, run)))
    assert cert["groups"] == groups and cert["evidence"]["group_mode"] == "subgroup_partition"


def test_subgroup_partition_punctured_distance():
    # divisible case over GF(23): four classes of six, each tolerant of
    # three erasures at delta = 4
    ctx = cyc_context(23, 24)
    anchor = ctx.exponent_set([0, 1, 2, 3, 4, 20, 21, 22, 23, 9, 15])
    run = ctx.exponent_set([-1, 0, 1])
    code = code_from_defining_set(ctx, product_set(anchor, run))
    groups = repair_groups_from_subgroup(24, 6)
    assert len(groups) == 4 and all(len(g) == 6 for g in groups)
    for g in groups:
        assert punctured_distance_at_least(code, g, 4)


def test_classical_single_run_certificate():
    # run set {0}: every cyclic code tolerates one erasure in groups cut from
    # a dual word, the classical locality of cyclic codes
    ctx = cyc_context(2, 31)
    anchor = ctx.exponent_set([0, 1, 2, 4, 8, 16])
    run = ctx.exponent_set([0])
    code = code_from_defining_set(ctx, anchor)
    cert = locality_from_product(anchor, run, code)
    assert cert["delta"] == 2 and cert["r"] == cert["dA_perp"] - 1 == 14
    assert record_holds(code, cert)


def test_product_not_contained():
    ctx = cyc_context(2, 31)
    anchor = ctx.exponent_set([0, 1, 2, 4, 8, 16])
    run = ctx.exponent_set([5, 9, 10, 18, 20])
    small = code_from_defining_set(ctx, anchor)
    with pytest.raises(ProductNotContained):
        locality_from_product(anchor, run, small)


def test_distance_ordering_violated():
    # a dense anchor (the even exponents) has dual distance 2, below the
    # run distance 3; the product route must refuse
    ctx = cyc_context(19, 18)
    anchor = ctx.exponent_set(range(0, 18, 2))
    run = ctx.exponent_set([0, 1])
    target = code_from_defining_set(ctx, ctx.exponent_set(range(18)))
    with pytest.raises(DistanceOrderingViolated):
        locality_from_product(anchor, run, target)

def test_shift_cover_covers_and_sizes():
    ctx = cyc_context(19, 18)
    anchor = ctx.exponent_set([1, 2, 3, 4, 5, 9])
    run = ctx.exponent_set([0, 1, 2])
    code = code_from_defining_set(ctx, product_set(anchor, run))
    cert = locality_from_product(anchor, run, code)
    covered = set()
    for g in cert["groups"]:
        assert len(g) <= cert["r"] + cert["delta"] - 1
        covered.update(g)
    assert covered == set(range(18))
    assert cert["evidence"]["independence_checked"] is True


def test_certificate_shift_covariance():
    # all rows produced from one dual word share its support
    ctx = cyc_context(2, 31)
    anchor = ctx.exponent_set([0, 1, 2, 4, 8, 16])
    run = ctx.exponent_set([5, 9, 10, 18, 20])
    code = code_from_defining_set(ctx, product_set(anchor, run))
    cert = locality_from_product(anchor, run, code)
    ev = cert["evidence"]
    assert set(ev["h0_support"]) == {i for i, v in enumerate(ev["h0_word"]) if v}
    assert len(ev["h0_support"]) == cert["dA_perp"]


def test_verify_locality_exhaustive_true_and_false():
    ctx = cyc_context(19, 18)
    anchor = ctx.exponent_set([0, 1, 5, 9])
    run = ctx.exponent_set([0, 1, 2])
    code = code_from_defining_set(ctx, product_set(anchor, run))
    assert verify_locality_exhaustive(code, 6, 4, hint_groups=None)
    # a definitively false claim on a short single-parity code
    ctx7 = cyc_context(8, 7)
    sparse = code_from_defining_set(ctx7, ctx7.exponent_set([0]))  # [7,6,2]
    assert verify_locality_exhaustive(sparse, 6, 2)  # the full-support dual word
    assert verify_locality_exhaustive(sparse, 1, 2) is False


def test_verify_locality_rejects_delta_one():
    ctx = cyc_context(8, 7)
    code = code_from_defining_set(ctx, ctx.exponent_set([0]))
    with pytest.raises(ValueError):
        verify_locality_exhaustive(code, 2, 1)


def test_subfield_code_inherits_ambient_certificate():
    # groups certified over the ambient field also pass on the base-field
    # code with the same defining set
    ctx = cyc_context(16, 17)
    anchor = ctx.exponent_set([14, 15, 16, 0, 1, 2, 8])
    run = ctx.exponent_set([0, 1])
    ab = product_set(anchor, run)
    ext = code_from_defining_set(ctx, ab, base="extension")
    sub = code_from_defining_set(ctx, ab, base="subfield")
    cert = locality_from_product(anchor, run, ext)
    assert (cert["r"], cert["delta"]) == (7, 3)
    assert record_holds(sub, cert)
    assert verify_locality_exhaustive(sub, cert["r"], cert["delta"], hint_groups=cert["groups"])


def test_product_route_not_better_than_exhaustive_best():
    # the certified r is achievable, and no smaller r can beat a full search
    ctx = cyc_context(2, 15)
    anchor = ctx.exponent_set([0, 1, 2, 4, 8])
    run = ctx.exponent_set([0])
    code = code_from_defining_set(ctx, anchor)
    cert = locality_from_product(anchor, run, code)
    assert verify_locality_exhaustive(code, cert["r"], cert["delta"], hint_groups=cert["groups"])
    best = None
    for r_try in range(1, cert["r"] + 1):
        try:
            if verify_locality_exhaustive(code, r_try, cert["delta"]):
                best = r_try
                break
        except BudgetExceededInconclusive:
            continue
    assert best is not None and cert["r"] >= best


def test_product_route_achievable_over_small_sweep():
    # every classical-route certificate on the n=7 closed sets verifies, and
    # never claims a smaller r than the full search can realize
    from cyclrc.cyclic import all_cyclotomic_cosets

    ctx = cyc_context(2, 7)
    cosets = all_cyclotomic_cosets(ctx)
    run = ctx.exponent_set([0])
    for mask in range(1, 1 << len(cosets)):
        exps = []
        for i, c in enumerate(cosets):
            if mask >> i & 1:
                exps.extend(c.exps)
        anchor = ctx.exponent_set(exps)
        if len(anchor) == 7:
            continue
        code = code_from_defining_set(ctx, anchor)
        cert = locality_from_product(anchor, run, code)
        assert verify_locality_exhaustive(code, cert["r"], cert["delta"], hint_groups=cert["groups"])
        for r_try in range(1, cert["r"]):
            try:
                better = verify_locality_exhaustive(code, r_try, cert["delta"])
            except BudgetExceededInconclusive:
                continue
            if better:
                break  # a better r existing is fine: the route is achievable,
                       # not maximal; claiming below the best would not be


def closed_codes(q, n):
    """Every base-field code of length n over GF(q) whose defining set is a
    proper nonempty union of cyclotomic cosets."""
    ctx = cyc_context(q, n)
    cosets = all_cyclotomic_cosets(ctx)
    for mask in range(1, (1 << len(cosets)) - 1):
        exps = [e for i, c in enumerate(cosets) if mask >> i & 1 for e in c.exps]
        yield code_from_defining_set(ctx, ctx.exponent_set(exps))


def definition_verdicts(code, deltas):
    """{(r, delta): verdict} straight from the definition: every coordinate i
    lies in a group S of at most r+delta-1 coordinates on which the nonzero
    restrictions of the enumerated codewords weigh at least delta."""
    n, k = code.n, code.k
    messages = np.array(list(itertools.product(code.base_elements, repeat=k)), dtype=np.int64)
    nonzero = linalg.mat_mul(code.field, messages, code.generator_matrix()) != 0
    groups = [S for size in range(1, n + 1) for S in itertools.combinations(range(n), size)]
    dist = {}
    for S in groups:
        w = nonzero[:, list(S)].sum(axis=1)
        dist[S] = int(w[w > 0].min()) if (w > 0).any() else n + 1  # the zero code tolerates anything
    return {(r, delta): all(any(i in S and len(S) <= r + delta - 1 and dist[S] >= delta for S in groups)
                            for i in range(n))
            for delta in deltas for r in range(1, n - delta + 2)}


@pytest.mark.parametrize("q,n", [(2, 7), (3, 8), (4, 5), (5, 6)])
def test_verify_locality_exhaustive_matches_the_definition(q, n):
    # the verifier against a brute-force reading of the definition, on every
    # r and delta, so no verdict turns False as r grows
    for code in closed_codes(q, n):
        want = definition_verdicts(code, (2, 3))
        got = {key: verify_locality_exhaustive(code, *key) for key in want}
        assert got == want, (code.defining.exps, {key for key in want if got[key] != want[key]})
        for r, delta in got:
            assert not got[r, delta] or got.get((r + 1, delta), True), (code.defining.exps, r, delta)


def test_verify_locality_exhaustive_tries_smaller_groups():
    # the [7,4] Hamming code: no 5 coordinates tolerate one erasure (the one
    # dual word inside them misses a coordinate), but the 4-coordinate
    # support of a weight-4 dual word does, so (4, 2) holds as (3, 2) does
    ctx = cyc_context(2, 7)
    hamming = code_from_defining_set(ctx, ctx.exponent_set([1, 2, 4]))
    assert hamming.k == 4
    assert not punctured_distance_at_least(hamming, range(5), 2)
    assert verify_locality_exhaustive(hamming, 3, 2)
    assert verify_locality_exhaustive(hamming, 4, 2)


def test_verify_locality_exhaustive_single_hint():
    # one hinted group that holds serves every coordinate through its shifts
    ctx = cyc_context(19, 18)
    anchor = ctx.exponent_set([0, 1, 5, 9])
    run = ctx.exponent_set([0, 1, 2])
    code = code_from_defining_set(ctx, product_set(anchor, run))
    hint = list(range(0, 18, 2))
    assert punctured_distance_at_least(code, hint, 4)
    assert verify_locality_exhaustive(code, 7, 4, hint_groups=[hint])


@pytest.mark.parametrize("q,n", [(2, 15), (2, 21), (4, 15), (3, 13), (2, 31)])
def test_translate_row_check_implies_the_punctured_distance(q, n):
    # differential: the shared locality check against the punctured
    # parity-check scan on h0's support, on random dual words of anchor
    # codes and q-closed runs, the consecutive {0} and random unions of
    # cosets on at most n/3 exponents; whenever h0 is no lighter than the
    # run distance, both hold
    rng = np.random.default_rng(q * 1000 + n)
    ctx = cyc_context(q, n)
    F = ctx.field
    proper = list(closed_sets(ctx))[1:-1]
    short = [S for S in proper if len(S) <= n // 3]
    checked = 0
    for anchor in (proper[i] for i in rng.choice(len(proper), 10, replace=False)):
        dual = code_from_defining_set(ctx, anchor, base="extension").dual_code()
        G = dual.generator_matrix()
        for run in [ctx.exponent_set([0]), *(short[i] for i in rng.choice(len(short), 3))]:
            code = code_from_defining_set(ctx, product_set(anchor, run))
            for nonzero in (1, 2, dual.k):
                picked = rng.choice(dual.k, size=min(nonzero, dual.k), replace=False)
                msg = np.zeros(dual.k, dtype=np.int64)
                msg[picked] = rng.integers(1, F.q, size=len(picked))
                word = [int(x) for x in linalg.mat_mul(F, msg[None, :], G)[0]]
                if not any(word):
                    continue
                found, record = rederive_locality(code, anchor, run, word, True)
                statuses = {claim: status for claim, status, _ in found}
                if record["dA_perp"] < record["delta"]:
                    assert statuses["locality r and delta"] == "disagree"
                    continue
                assert set(statuses.values()) == {"agree"}, found
                support = record["evidence"]["h0_support"]
                assert punctured_distance_at_least(code, support, record["delta"]), (anchor.exps, run.exps, word)
                checked += 1
    assert checked >= 20


def test_independence_scan_priced_against_the_budget():
    # C44 q=19 n=18: the scan on h0's 10 coordinates costs C(10, 3) * 3 * 3 * 3
    # = 3240 ops, and the run code closes at its sandwich, so a budget above
    # n^2 = 324 but below that leaves only the punctured distances open
    res = build(ConstructionRequest(family="C44", q=19, n=18, delta=4, t=1, m=5, tails=(8,)))
    code, cert = res.code, res.certificate["locality"]
    anchor, run = (code.ctx.exponent_set(cert["evidence"][key]) for key in ("anchor_exponents", "run_exponents"))
    assert linalg.column_scan_cost(cert["dA_perp"], len(run), cert["delta"] - 1) == 3240
    lines = {claim: status for claim, status, _ in check_locality_record(code, cert, 3239)}
    assert lines.pop("punctured distances") == "inconclusive"
    assert set(lines.values()) == {"agree"}
    assert record_holds(code, cert)
    with pytest.raises(BudgetExceededInconclusive, match="independence scan"):
        locality_from_product(anchor, run, code, 3239)


def test_run_distance_at_a_budget_does_not_depend_on_history():
    # README's product route: budget 2000 leaves the run code's distance
    # open, in a fresh context and after a default-budget call settled it
    def route():
        ctx = cyc_context(2, 31)
        anchor, run = ctx.exponent_set([0, 1, 2, 4, 8, 16]), ctx.exponent_set([5, 9, 10, 18, 20])
        return anchor, run, code_from_defining_set(ctx, product_set(anchor, run))

    cert = locality_from_product(*route())
    reports = []
    for warm in (False, True):
        cyc_context.cache_clear()
        anchor, run, code = route()
        if warm:
            assert run_code_distance(run) == cert["delta"]
        reports.append(check_locality_record(code, cert, 2000))
        with pytest.raises(BudgetExceededInconclusive, match="run-code distance not settled"):
            locality_from_product(anchor, run, code, 2000)
    assert reports[0] == reports[1]
    lines = {claim: (status, detail) for claim, status, detail in reports[0]}
    assert lines["locality r and delta"] == ("inconclusive", "run-code distance not settled within budget")
