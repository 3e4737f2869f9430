import numpy as np
import pytest

from cyclrc.cyclic import code_from_defining_set, cyc_context, min_distance, product_set
from cyclrc.locality import (
    BudgetExceededInconclusive,
    DistanceOrderingViolated,
    ProductNotContained,
    check_delta_independence,
    check_locality_record,
    locality_from_product,
    punctured_distance_at_least,
    verify_locality_exhaustive,
)


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
