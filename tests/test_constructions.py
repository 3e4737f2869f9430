import json
import random
import subprocess
import sys
from collections import Counter
from dataclasses import replace
from functools import cache
from itertools import product
from math import gcd

import numpy as np
import pytest

from cyclrc.bounds import singleton_like, units_mod
from cyclrc.constructions import (
    _FAMILIES,
    FAMILY_NAMES,
    ConstructionRequest,
    HypothesisViolated,
    _anchor_exponents,
    _paper_values,
    _run_and_tails,
    _run_exponents,
    _tail_clauses,
    _with_defaults,
    build,
    validate,
    verify_certificate,
)
from cyclrc.cyclic import BudgetTooSmall, cyc_context, product_set


def _ab_exponents(req):
    ctx = cyc_context(req.q, req.n)
    anchor = ctx.exponent_set(_anchor_exponents(req))
    return set(product_set(anchor, ctx.exponent_set(_run_exponents(req))).exps)


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
        (dict(family="C42", q=11, n=-10, delta=2, r=4, ell=-4), "n >= 1"),
        (dict(family="C42", q=11, n=0, delta=2, r=4), "n >= 1"),
        # r+delta-1 = 0 names delta instead of dividing by zero
        (dict(family="C42", q=11, n=10, delta=0, r=1), "delta >= 2"),
        (dict(family="T51", q=23, n=24, delta=3, m=2, tails=(6,)), "delta even"),
        (dict(family="T58", q=23, n=24, delta=4, m=2, tails=(7,)), "delta odd"),
        (dict(family="C56", q=32, n=33, delta=3, m=6), "delta even"),
        (dict(family="C511", q=16, n=17, delta=4, m=6), "delta odd"),
        (dict(family="C59", q=64, n=65, delta=3, t=1, r=3, i=0, ell=0, case=1), "t = 0"),
        (dict(family="C56", q=32, n=33, delta=4, t=2, m=6), "t = 0"),
        # 20 divides q+1 = 20 but not q-1 = 18
        (dict(family="T41", q=19, n=20, delta=3, m=2, tails=(5,)), "n | q-1"),
    ],
)
def test_validate_named_clauses(req, clause):
    v = validate(ConstructionRequest(**req))
    assert clause in v, v


def test_build_refuses_k_other_than_mu_r():
    # the fields hold, but the dimension k = 7*3 is not mu*r = 15: validate
    # names the clause, so an empty list still means buildable
    req = ConstructionRequest(family="C42", q=29, n=28, delta=2, r=3, mu=5)
    assert validate(req) == ["k = mu*r"]
    assert validate(replace(req, mu=7)) == []
    with pytest.raises(HypothesisViolated, match=r"k = mu\*r"):
        build(req)


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
    o = res.certificate["optimality"]
    assert (o["n"], o["k"], o["d_exact"]) == (28, 17, 7)
    assert o["optimal"] and o["singleton_like_value"] == 7
    assert res.certificate["locality"]["dA_perp"] == 4  # r + delta - 1


def test_c42_d_at_origin_is_delta():
    res = build(ConstructionRequest(family="C42", q=29, n=28, delta=2, r=3, i=0, ell=0, j=0))
    assert res.certificate["optimality"]["d_exact"] == 2


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
        o = res.certificate["optimality"]
        assert o["optimal"]
        assert o["d_exact"] == o["singleton_like_value"] == o["d_claim"]
        assert o["d_lower"] == o["d_exact"]
        assert singleton_like(o["n"], o["k"], o["r"], o["delta"]) == o["singleton_like_value"]


def test_nonoptimal_point_returned_with_flag_down():
    res = build(ConstructionRequest(family="T48", q=31, n=30, delta=2, t=0, b=1, m=2))
    o = res.certificate["optimality"]
    assert not o["optimal"]
    assert any("ceil(k/r)" in note for note in o["notes"])
    assert o["d_lower"] >= 6  # the run-blocks witness value survives


@pytest.mark.parametrize("req,optimal", [
    (ConstructionRequest(family="T41", q=127, n=126, delta=5, t=1, m=2, tails=(7,)), True),
    (ConstructionRequest(family="T48", q=89, n=88, delta=5, m=3), False),
    (ConstructionRequest(family="P49", q=121, n=40, delta=10), True),
    (ConstructionRequest(family="P410", q=127, n=42, delta=10, t=1), True),
    (ConstructionRequest(family="T51", q=128, n=129, delta=6, t=61, m=8, tails=(68,)), False),
    (ConstructionRequest(family="C56", q=128, n=43, delta=6, m=8), False),
    (ConstructionRequest(family="T58", q=128, n=43, delta=7, t=-3, m=6, tails=(24,)), False),
    (ConstructionRequest(family="C511", q=32, n=33, delta=7, m=8), False),
], ids=lambda x: getattr(x, "family", None))
def test_erasure_tolerance_costs_no_budget(req, optimal):
    # the run code's distance proves each group's erasure tolerance, so a
    # request whose column scan on h0's support would cost over 10^8 ops
    # builds at the default budget and verifies after a JSON round trip
    cert = json.loads(json.dumps(build(req).certificate))
    assert {status for _, status, _ in verify_certificate(cert)} == {"agree"}
    assert cert["optimality"]["optimal"] is optimal


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
    a = json.dumps(build(req).certificate, sort_keys=True)
    b = json.dumps(build(req).certificate, sort_keys=True)
    assert a == b


def test_verify_budget_below_bound_scan_is_not_malformed():
    # the shared assembly refuses a budget below n^2 before any context is
    # built, so neither the locality record nor the distance's O(n^2) bound
    # scan is reached
    req = ConstructionRequest(family="C44", q=19, n=18, delta=2, t=1, m=5, tails=(8,))
    cert = build(req).certificate
    with pytest.raises(BudgetTooSmall):  # MalformedCertificate is no BudgetTooSmall
        verify_certificate(cert, 18 * 18 - 1)
    assert all(status == "agree" for _, status, _ in verify_certificate(cert))


def test_certificate_independent_of_earlier_budgets():
    # at budget 1e6 the anchor dual word of this build falls back to an
    # inexact subgroup witness; a default-budget build later in the same
    # process must not reuse it, so it matches a build in a fresh process
    probe = (
        "import json, sys\n"
        "from cyclrc.constructions import ConstructionRequest, build\n"
        "req = ConstructionRequest(family='C56', q=32, n=33, delta=2, m=6)\n"
        "if sys.argv[1] == 'mixed':\n    build(req, 10**6)\n"
        "print(json.dumps(build(req).certificate, sort_keys=True))\n"
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
    o = res.certificate["optimality"]
    assert [o[key] for key in ("n", "k", "d_exact", "r", "delta", "optimal")] == [17, 8, 8, 7, 3, True]
    spec = build(ConstructionRequest(family="C511", q=16, n=17, delta=3, m=6))
    assert res.code.defining.exps == spec.code.defining.exps
    assert res.code.gen == spec.code.gen


def test_t51_rejects_open_product_closure():
    # an asymmetric tail makes the product set escape closure under q, a
    # clause `validate` names, so the request is refused before any build
    req = ConstructionRequest(family="T51", q=23, n=24, delta=4, t=0, b=1, m=6, tails=(9,))
    assert validate(req) == ["anchor x run closed under multiplication by q mod n"]
    with pytest.raises(HypothesisViolated, match="closed under multiplication by q"):
        build(req)


# --- the family formulas, against the ladders they replaced -------------------
# `_paper_values` replaced four per-family ladders (dimension, distance, pinned
# anchor dual distance, target block count) and a fifth that recounted the
# anchor list; `_run_and_tails` replaced one anchor assembly per family.  They
# are kept here, as they stood, as the reference.


def _ref_anchor_exponents(req):
    fam, n, b, t, delta = req.family, req.n, req.b, req.t, req.delta
    r, i, ell, j, m = req.r, req.i, req.ell, req.j, req.m
    if fam in ("T41", "T51", "T58"):
        return [t + e * b for e in range(m)] + [t + e * b for e in req.tails]
    if fam == "C42":
        g = r + delta - 1
        nu = n // g
        main = [t + e * b for e in range(ell * g + i + 1)]
        tails = [t + ((ell + u) * g + j) * b for u in range(1, nu - ell)]
        return main + tails
    if fam in ("C44", "C46"):
        return [t + e * b for e in range(m)] + [t + req.tails[0] * b]
    if fam in ("T48", "P49", "P410"):
        main = [t + e * b for e in range((m - 1) * delta + 2)]
        tails = [t + ((m + u) * delta + 1) * b for u in range(m + 1)]
        return main + tails
    if fam == "C52":
        g = r + delta - 1
        nu = n // g
        if req.case == 1:
            main = [e * b for e in range(-(ell * g + i), ell * g + i + 1)]
            tails = [u * g * b for u in range(ell + 1, nu - ell)]
        elif req.case == 2:
            h = g // 2
            w = (2 * ell + 1) * h + i
            main = [e * b for e in range(-w, w + 1)]
            tails = [(2 * u + 1) * h * b for u in range(ell + 1, nu - ell - 1)]
        else:
            lo = ((nu - 1) // 2 - ell) * g - i
            hi = ((nu + 1) // 2 + ell) * g + i
            main = [e * b for e in range(lo, hi + 1)]
            tails = [u * g * b for u in range((nu + 1) // 2 + ell + 1, (3 * nu - 1) // 2 - ell)]
        return main + tails
    if fam == "C59":
        g = r + delta - 1
        nu = n // g
        if req.case == 1:
            lo = -((r + delta) // 2 + ell * g + i)
            hi = (r + delta - 2) // 2 + ell * g + i
            main = [e * b for e in range(lo, hi + 1)]
            tails = [((r + delta - 2) // 2 + u * g) * b for u in range(ell + 1, nu - ell - 1)]
        else:
            c = (n - 1) // 2
            main = [(c + e) * b for e in range(-(ell * g + i), ell * g + i + 1)]
            tails = [(c + u * g) * b for u in range(ell + 1, nu - ell)]
        return main + tails
    if fam == "C56":
        out = [0]
        for u in range((n + 1) // 2, (n + m - 1) // 2 + 1):
            out += [u * b, -u * b]
        return out
    if fam == "C511":
        return [e * b for e in range(-m // 2, (m - 2) // 2 + 1)] + [(n - 1) // 2 * b]
    raise AssertionError(fam)


def _ref_anchor_size(req):
    fam = req.family
    delta, r, i, ell, m, n = req.delta, req.r, req.i, req.ell, req.m, req.n
    if fam in ("T41", "T51", "T58"):
        return m + len(req.tails)
    if fam == "C42":
        nu = n // (r + delta - 1)
        return ell * (r + delta - 1) + i + 1 + (nu - 1 - ell)
    if fam in ("C44", "C46"):
        return m + 1
    if fam in ("T48", "P49", "P410"):
        m_ = req.m if fam == "T48" else 1
        return (m_ - 1) * delta + 2 + (m_ + 1)
    if fam == "C52":
        g = r + delta - 1
        nu = n // g
        if req.case == 1:
            return 2 * (ell * g + i) + 1 + (nu - 2 * ell - 1)
        if req.case == 2:
            return 2 * ((2 * ell + 1) * (g // 2) + i) + 1 + (nu - 2 * ell - 2)
        return 2 * ell * g + g + 2 * i + 1 + (nu - 2 * ell - 2)
    if fam == "C59":
        g = r + delta - 1
        nu = n // g
        if req.case == 1:
            return (2 * ell + 1) * g + 2 * i + 1 + (nu - 2 * ell - 2)
        return 2 * (ell * g + i) + 1 + (nu - 2 * ell - 1)
    if fam in ("C56", "C511"):
        return req.m + 1
    raise AssertionError(fam)


def _ref_formula_k(req):
    fam, n, delta = req.family, req.n, req.delta
    r, i, ell, m = req.r, req.i, req.ell, req.m
    if fam in ("T41", "T51", "T58"):
        return n - m + 1 - (len(req.tails) + 1) * (delta - 1)
    if fam == "C42":
        nu = n // (r + delta - 1)
        return (nu - ell) * r - i
    if fam in ("C44", "C46", "C56", "C511"):
        return n - m - 2 * delta + 3
    if fam in ("T48", "P49", "P410"):
        m_ = req.m if fam == "T48" else 1
        return n - m_ * delta - (m_ + 1) * (delta - 1)
    if fam == "C52":
        nu = n // (r + delta - 1)
        if req.case == 1:
            return (nu - 2 * ell) * r - 2 * i
        return (nu - 2 * ell - 1) * r - 2 * i
    if fam == "C59":
        nu = n // (r + delta - 1)
        if req.case == 1:
            return (nu - 2 * ell - 1) * r - 2 * i
        return (nu - 2 * ell) * r - 2 * i
    raise AssertionError(fam)


def _ref_claimed_distance(req):
    fam, delta = req.family, req.delta
    r, i, ell, m = req.r, req.i, req.ell, req.m
    if fam in ("T41", "T51", "T58", "C44", "C46", "C56", "C511"):
        return (m if m is not None else 0) + delta - 1
    if fam == "C42":
        return delta + i + ell * (r + delta - 1)
    if fam in ("T48", "P49", "P410"):
        m_ = req.m if fam == "T48" else 1
        return (m_ + 1) * delta
    g = r + delta - 1
    if fam == "C52":
        if req.case == 1:
            return delta + 2 * i + 2 * ell * g
        return delta + 2 * i + (2 * ell + 1) * g
    if fam == "C59":
        if req.case == 1:
            return delta + 2 * i + (2 * ell + 1) * g
        return delta + 2 * i + 2 * ell * g
    raise AssertionError(fam)


def _ref_claimed_dual_distance(req):
    if req.family in ("C42", "C52", "C59"):
        return req.r + req.delta - 1
    if req.family == "P410":
        return 2 * req.delta + 1
    return None


def _ref_block_target(req):
    """The `want` ladder of the optimality conditions."""
    fam = req.family
    if fam in ("T41", "T51", "T58"):
        return len(req.tails) + 1
    if fam in ("T48", "P49", "P410"):
        return (req.m if fam == "T48" else 1) + 1
    if fam == "C42":
        return req.n // (req.r + req.delta - 1) - req.ell
    if fam == "C52":
        nu = req.n // (req.r + req.delta - 1)
        return nu - 2 * req.ell if req.case == 1 else nu - 2 * req.ell - 1
    if fam == "C59":
        nu = req.n // (req.r + req.delta - 1)
        return nu - 2 * req.ell - 1 if req.case == 1 else nu - 2 * req.ell
    return None


def _ref_run_exps(req):
    """The three-branch run ladder."""
    delta, b, fam = req.delta, req.b, req.family
    if fam in Q_MINUS_1:
        return [e * b for e in range(delta - 1)]
    if fam in ("T51", "C52", "C56"):
        half = (delta - 2) // 2
        return [e * b for e in range(-half, half + 1)]
    lo = -(delta - 3) // 2
    return [e * b for e in range(lo, (delta - 1) // 2 + 1)]


PRIME_POWERS = (4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31, 32, 37, 41, 43, 47, 49, 53,
                59, 61, 64, 67, 71, 73, 79, 81, 83, 89, 97, 101, 103, 107, 109, 113, 121, 125, 127, 128)
Q_MINUS_1 = ("T41", "C42", "C44", "C46", "T48", "P49", "P410")


def _family_points(fam):
    """Candidate request fields of one family on every admissible (q, n),
    and for T51 and T58 their corollaries' theorem requests.  The compared
    values do not depend on b or t."""
    side = -1 if fam in Q_MINUS_1 else 1
    for q in PRIME_POWERS:
        for n in range(3, q + side + 1):
            if (q + side) % n or gcd(n, q) != 1:
                continue
            base = dict(family=fam, q=q, n=n)
            if fam in ("T41", "T51", "T58"):
                for delta, m in product(range(2, 6), range(1, 4)):
                    lo = m - 1 + delta
                    for tails in ((lo + 1,), (lo, lo + delta + 2)):
                        yield dict(base, delta=delta, m=m, t=1, tails=tails)
            elif fam == "C42":
                for delta, r in product(range(2, 5), range(1, 6)):
                    if n % (r + delta - 1) == 0:
                        for i, ell in product(range(r), range(4)):
                            for j in range(i + 1):
                                yield dict(base, delta=delta, r=r, i=i, ell=ell, j=j)
            elif fam in ("C44", "C46"):
                for delta, m in product(range(2, 5), range(1, 5)):
                    for tail in range(m + 1, n - 1, 7):
                        yield dict(base, delta=delta, m=m, t=1, tails=(tail,))
            elif fam == "T48":
                for delta, m, t in product(range(2, 6), range(1, 4), range(2)):
                    yield dict(base, delta=delta, m=m, t=t)
            elif fam in ("P49", "P410"):
                for delta, t in product(range(2, 12), range(3)):
                    yield dict(base, delta=delta, t=t)
            elif fam in ("C52", "C59"):
                # C52 takes even delta, C59 odd
                for delta, r, case in product(range(2 + (fam == "C59"), 8, 2), range(1, 8), (1, 2, 3)):
                    if n % (r + delta - 1) == 0:
                        for i, ell in product(range(3), range(4)):
                            yield dict(base, delta=delta, r=r, i=i, ell=ell, case=case)
            else:
                for delta, m in product(range(2, 8), range(2, 9, 2)):
                    yield dict(base, delta=delta, m=m)
    if fam in ("T51", "T58"):
        # few points above keep anchor x run closed under q = -1, which
        # validation requires; each corollary's theorem request does
        for corollary in ("C52", "C56") if fam == "T51" else ("C59", "C511"):
            for req in _validated_requests(corollary):
                t, m, tails = _run_and_tails(req)
                yield dict(family=fam, q=req.q, n=req.n, delta=req.delta, t=t, m=m, tails=tails)


@cache
def _validated_requests(fam, cap=200):
    """Up to `cap` validated requests of `fam`, spread evenly over the enumeration."""
    reqs = [r for r in (ConstructionRequest(**d) for d in _family_points(fam)) if not validate(r)]
    return tuple(_with_defaults(r) for r in reqs[::max(1, len(reqs) // cap)])


def test_paper_values_match_the_reference_ladders():
    for fam in FAMILY_NAMES:
        reqs = _validated_requests(fam)
        assert len(reqs) >= 50, (fam, len(reqs))
        for req in reqs:
            want = (_ref_formula_k(req), _ref_claimed_distance(req),
                    _ref_claimed_dual_distance(req), _ref_block_target(req))
            assert _paper_values(req) == want, req
            assert len(_anchor_exponents(req)) == _ref_anchor_size(req), req
            assert _run_exponents(req) == _ref_run_exps(req), req


def _shifted_requests(fam):
    """The validated requests of `fam`, each with a step b drawn from the units
    mod n and, where the family takes the shift, with t = 0, 1 and n-1."""
    rng = random.Random(fam)
    for req in _validated_requests(fam):
        for t in (0, 1, req.n - 1) if _FAMILIES[fam].shifted else (0,):
            yield replace(req, b=rng.choice(units_mod(req.n)), t=t)


def test_anchor_assembly_matches_the_reference():
    for fam in FAMILY_NAMES:
        for req in _shifted_requests(fam):
            got, want = (Counter(e % req.n for e in f(req)) for f in (_anchor_exponents, _ref_anchor_exponents))
            assert got == want, req


# each corollary's theorem; P49 and P410 are T48 at m = 1
THEOREM_OF = {"C42": "T41", "C44": "T41", "C46": "T41", "C52": "T51", "C56": "T51", "C59": "T58", "C511": "T58",
              "P49": "T48", "P410": "T48"}


def test_every_corollary_is_a_request_of_its_theorem():
    # the paper's inclusion claim: each corollary's anchor is a valid request
    # of its theorem, with the theorem's dimension and distance
    for fam, theorem in THEOREM_OF.items():
        for req in _shifted_requests(fam):
            t, m, tails = _run_and_tails(req)
            if theorem == "T48":
                thm = ConstructionRequest(family="T48", q=req.q, n=req.n, delta=req.delta, b=req.b, t=t, m=1)
            else:
                thm = ConstructionRequest(family=theorem, q=req.q, n=req.n, delta=req.delta, b=req.b, t=t, m=m,
                                          tails=tails)
                assert _tail_clauses(thm) == [], req
            assert validate(thm) == [], req
            thm = _with_defaults(thm)
            assert _anchor_exponents(thm) == _anchor_exponents(req), req
            assert _paper_values(thm)[:2] == _paper_values(req)[:2], req
