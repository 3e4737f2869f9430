import json
import subprocess
import sys

import numpy as np
import pytest

from cyclrc.bounds import singleton_like
from cyclrc.constructions import (
    ConstructionRequest,
    HypothesisViolated,
    _anchor_exponents,
    _run_set,
    build,
    validate,
)
from cyclrc.cyclic import cyc_context, product_set


def _ab_exponents(req):
    ctx = cyc_context(req.q, req.n)
    anchor = ctx.exponent_set(_anchor_exponents(req))
    return set(product_set(anchor, _run_set(ctx, req)).exps)


def test_validate_clean_requests():
    assert validate(ConstructionRequest(family="C44", q=19, n=18, delta=4, t=1, m=5, tails=(8,))) == []
    assert validate(ConstructionRequest(family="C52", q=23, n=24, delta=4, r=3, i=1, ell=1, case=1)) == []


@pytest.mark.parametrize(
    "req,clause",
    [
        (dict(family="C42", q=29, n=28, delta=2, r=3, i=3, ell=1), "0 <= i <= r-1"),
        (dict(family="C42", q=29, n=28, delta=2, r=3, i=1, ell=6, j=1),
         "(0 <= ell <= nu-3 and 0 <= j <= i) or (ell = nu-2 and j = i)"),
        (dict(family="C52", q=64, n=65, delta=4, r=2, i=1, ell=3, case=1), "0 <= i <= floor((r-1)/2)"),
        (dict(family="C52", q=64, n=65, delta=3, r=3, i=0, ell=0, case=1), "delta even"),
        (dict(family="C59", q=64, n=65, delta=4, r=2, i=0, ell=0, case=1), "delta odd"),
        (dict(family="C44", q=19, n=18, delta=4, t=1, m=5, tails=(4,)), "m-1+delta <= ell <= n-delta"),
        (dict(family="T41", q=19, n=18, delta=4, t=1, m=5, tails=(8, 10)), "i_{l+1} - i_l >= delta"),
        (dict(family="C56", q=32, n=33, delta=4, m=5), "m even, m >= 2"),
        (dict(family="C56", q=31, n=33, delta=4, m=6), "n | q+1"),
        (dict(family="P410", q=19, n=18, delta=3), "n = 4*delta+2"),
        # these anchors ignore t, so a shifted request would name the unshifted code
        (dict(family="C511", q=16, n=17, delta=3, t=1, m=6), "t = 0"),
        (dict(family="C52", q=23, n=24, delta=4, t=2, r=3, i=1, ell=1, case=1), "t = 0"),
    ],
)
def test_validate_named_clauses(req, clause):
    v = validate(ConstructionRequest(**req))
    assert clause in v, v


def test_build_raises_on_violation():
    with pytest.raises(HypothesisViolated) as ei:
        build(ConstructionRequest(family="C52", q=64, n=65, delta=4, r=2, i=1, ell=3, case=1))
    assert "floor((r-1)/2)" in str(ei.value)


def test_t41_dimension_formula_random():
    # |product set| always matches m - 1 + (s+1)(delta-1) + 1
    rng = np.random.default_rng(4)
    ctx = cyc_context(19, 18)
    tries = 0
    while tries < 300:
        delta = int(rng.integers(2, 5))
        m = int(rng.integers(1, 5))
        s = int(rng.integers(1, 3))
        t = int(rng.integers(0, 18))
        tails = []
        nxt = m - 1 + delta + int(rng.integers(0, 3))
        for _ in range(s):
            tails.append(nxt)
            nxt += delta + int(rng.integers(0, 3))
        req = ConstructionRequest(family="T41", q=19, n=18, delta=delta, t=t, m=m, tails=tuple(tails))
        if validate(req):
            tries += 1
            continue
        ab = _ab_exponents(req)
        # n - k with k = n - m + 1 - (s+1)(delta-1)
        assert len(ab) == m - 1 + (len(tails) + 1) * (delta - 1)
        tries += 1


def test_c42_reproduces_divisible_family_point():
    res = build(ConstructionRequest(family="C42", q=29, n=28, delta=2, r=3, i=1, ell=1, j=0))
    o = res.optimality
    assert (o.n, o.k, o.d_exact) == (28, 17, 7)
    assert o.optimal and o.singleton_like_value == 7
    assert res.locality.dual_distance == 4  # r + delta - 1


def test_c42_d_at_origin_is_delta():
    res = build(ConstructionRequest(family="C42", q=29, n=28, delta=2, r=3, i=0, ell=0, j=0))
    assert res.optimality.d_exact == 2


def test_optimality_sandwich_invariant():
    # every optimal build satisfies lower bound = bound value exactly
    reqs = [
        ConstructionRequest(family="C44", q=19, n=18, delta=3, t=1, m=5, tails=(8,)),
        ConstructionRequest(family="C52", q=23, n=24, delta=4, r=3, i=1, ell=0, case=2),
        ConstructionRequest(family="C59", q=125, n=42, delta=3, r=5, i=1, ell=0, case=1),
        ConstructionRequest(family="P410", q=19, n=18, delta=4),
    ]
    for req in reqs:
        res = build(req)
        o = res.optimality
        assert o.optimal
        assert o.d_exact == o.singleton_like_value == o.d_claim
        assert o.d_lower == o.d_exact
        assert singleton_like(o.n, o.k, o.r, o.delta) == o.singleton_like_value


def test_nonoptimal_point_returned_with_flag_down():
    res = build(ConstructionRequest(family="T48", q=31, n=30, delta=2, t=0, b=1, m=2))
    o = res.optimality
    assert not o.optimal
    assert any("ceil(k/r)" in note for note in o.notes)
    assert o.d_lower >= 6  # the run-blocks witness value survives


def test_request_json_roundtrip():
    req = ConstructionRequest(family="C52", q=49, n=50, delta=6, r=5, i=1, ell=1, case=3)
    d = json.loads(json.dumps(req.to_dict()))
    assert ConstructionRequest.from_dict(d) == req
    req2 = ConstructionRequest(family="T41", q=19, n=18, delta=4, t=1, m=5, tails=(8,))
    assert ConstructionRequest.from_dict(req2.to_dict()) == req2
    with pytest.raises(HypothesisViolated):
        ConstructionRequest.from_dict({"family": "T41", "q": 19, "n": 18, "delta": 4, "bogus": 1})


def test_certificate_determinism():
    # identical requests produce byte-identical JSON certificates
    req = ConstructionRequest(family="C44", q=19, n=18, delta=4, t=1, m=5, tails=(8,))
    a = json.dumps(build(req).to_json_dict(), sort_keys=True)
    b = json.dumps(build(req).to_json_dict(), sort_keys=True)
    assert a == b


def test_certificate_independent_of_earlier_budgets():
    # at budget 1e6 the anchor dual word of this build falls back to an
    # inexact subgroup witness; a default-budget build later in the same
    # process must not reuse it, so it matches a build in a fresh process
    probe = (
        "import json, sys\n"
        "from cyclrc.constructions import ConstructionRequest, build\n"
        "req = ConstructionRequest(family='C56', q=32, n=33, delta=2, m=6)\n"
        "if sys.argv[1] == 'mixed':\n    build(req, 10**6)\n"
        "print(json.dumps(build(req).to_json_dict(), sort_keys=True))\n"
    )
    procs = [
        subprocess.Popen([sys.executable, "-c", probe, mode], stdout=subprocess.PIPE, text=True)
        for mode in ("mixed", "fresh")
    ]
    mixed, fresh = (p.communicate()[0] for p in procs)
    assert [p.returncode for p in procs] == [0, 0]
    cert = json.loads(fresh)
    assert cert["locality"]["r"] == 22 and cert["optimality"]["optimal"] is True
    assert mixed == fresh


def test_every_product_defining_set_is_closed():
    # base-field builds demand closure; spot the q+1 families explicitly
    for req in [
        ConstructionRequest(family="C56", q=32, n=33, delta=4, m=6),
        ConstructionRequest(family="C59", q=64, n=65, delta=5, r=9, i=1, ell=1, case=1),
        ConstructionRequest(family="C52", q=23, n=24, delta=4, r=3, i=1, ell=1, case=1),
    ]:
        from cyclrc.cyclic import is_q_closed

        res = build(req)
        assert is_q_closed(res.code.defining)


# --- specialization identities ------------------------------------------------


def class_union_plus_run_set(n, r, delta, b, t, mu):
    """The union-of-classes-plus-run defining set of the older divisible
    construction, in exponent form."""
    g = r + delta - 1
    l1 = t % g
    ls = [l1 + j * b for j in range(delta - 1)]
    assert all(0 <= l <= g - 2 or True for l in ls) and ls[-1] <= g - 1
    out = set()
    for l in ls:
        out.update(range(l % g, n, g))
    e_max = n - mu * g + delta - 2
    out.update((t + e * b) % n for e in range(e_max + 1))
    return out


def test_divisible_family_specialization_identity():
    # i = j = 0 and ell = nu - mu reproduces the older construction's set
    for (r, delta, mu, t, b) in [(4, 3, 2, 0, 1), (7, 3, 2, 0, 1), (4, 3, 2, 6, 1)]:
        n, q = 18, 19
        g = r + delta - 1
        nu = n // g
        ell = nu - mu
        req = ConstructionRequest(family="C42", q=q, n=n, delta=delta, r=r, i=0, j=0, ell=ell, t=t, b=b)
        assert validate(req) == [], validate(req)
        ab = _ab_exponents(req)
        assert ab == class_union_plus_run_set(n, r, delta, b, t, mu)


def test_even_delta_specialization_identity():
    # case 1 with i = 0, ell = (nu-mu)/2 collapses to blocks around the
    # subgroup plus one symmetric run (q = 23, n = 24)
    q, n, r, delta, mu = 23, 24, 3, 4, 2
    g = r + delta - 1
    nu = n // g
    ell = (nu - mu) // 2
    req = ConstructionRequest(family="C52", q=q, n=n, delta=delta, r=r, i=0, ell=ell, case=1)
    assert validate(req) == []
    ab = _ab_exponents(req)
    half = (delta - 2) // 2
    rhs = set()
    for j in range(1, mu):
        base = (ell + j) * g
        rhs.update((base + e) % n for e in range(-half, half + 1))
    width = ell * g + half
    rhs.update(e % n for e in range(-width, width + 1))
    assert ab == rhs


def test_odd_delta_specialization_identity_odd_length():
    # odd length: the doubled (step-2) construction matches the block form
    q, n, r, delta, mu = 64, 65, 9, 5, 4
    g = r + delta - 1
    nu = n // g
    ell = (nu - mu - 1) // 2
    req = ConstructionRequest(family="C59", q=q, n=n, delta=delta, r=r, i=0, ell=ell, case=1, b=2)
    assert validate(req) == []
    ab = _ab_exponents(req)
    b2 = [e * 2 for e in range(-(delta - 3) // 2, (delta - 1) // 2 + 1)]
    rhs = set()
    for j in range(1, mu):
        base = (r + delta - 2) + (nu - mu - 1 + 2 * j) * g
        rhs.update((base + e) % n for e in b2)
    width = (nu - mu) * g + delta - 2
    rhs.update(e % n for e in range(-width, width + 1, 2))
    assert ab == rhs


def test_odd_delta_specialization_identity_even_length():
    # even length: halved block positions, unit-step run
    q, n, r, delta, mu = 23, 24, 1, 3, 3
    g = r + delta - 1
    nu = n // g
    ell = (nu - mu - 1) // 2
    req = ConstructionRequest(family="C59", q=q, n=n, delta=delta, r=r, i=0, ell=ell, case=1, b=1)
    assert validate(req) == []
    ab = _ab_exponents(req)
    brun = [e for e in range(-(delta - 3) // 2, (delta - 1) // 2 + 1)]
    rhs = set()
    for j in range(1, mu):
        base = ((r + delta - 2) + (nu - mu - 1 + 2 * j) * g) // 2
        rhs.update((base + e) % n for e in brun)
    width = ((nu - mu) * g + delta - 2) // 2
    rhs.update(e % n for e in range(-width, width + 1))
    assert ab == rhs


def test_t58_generic_route_matches_specialization():
    # the odd-delta generic route rebuilds the n=17 family point exactly
    req = ConstructionRequest(family="T58", q=16, n=17, delta=3, t=14, b=1, m=6, tails=(11,))
    res = build(req)
    o = res.optimality
    assert (o.n, o.k, o.d_exact, o.r, o.delta, o.optimal) == (17, 8, 8, 7, 3, True)
    spec = build(ConstructionRequest(family="C511", q=16, n=17, delta=3, m=6))
    assert res.code.defining.exps == spec.code.defining.exps
    assert res.code.gen == spec.code.gen


def test_t51_rejects_open_product_closure():
    # an asymmetric tail makes the product set escape closure under q
    from cyclrc.cyclic import NotQClosed

    req = ConstructionRequest(family="T51", q=23, n=24, delta=4, t=0, b=1, m=6, tails=(9,))
    with pytest.raises(NotQClosed):
        build(req)
