"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to watch the verdict lines;
the same checks back the packaged `cyclrc selftest`.
"""

import json
import time
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

from cyclrc import selfcheck
from cyclrc.cli import main as cli_main
from cyclrc.constructions import ConstructionRequest, build, validate
from cyclrc.cyclic import CycContext, code_from_defining_set, cyc_context, cyclotomic_coset, product_set
from cyclrc.field import field_create
from cyclrc.golden import run_corpus
from cyclrc.poly import Polynomial

GRID = str(resources.files("cyclrc").joinpath("golden/search_nondividing.json"))


def _report(num: int, title: str, ok: bool, detail: str = ""):
    line = f"ACCEPTANCE {num} [{title}]: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, detail


@pytest.fixture(scope="module")
def golden_results():
    t0 = time.time()
    results = run_corpus()
    return results, time.time() - t0


def test_criterion_1_golden_reproduction(golden_results):
    results, elapsed = golden_results
    fails = [r.line() for r in results if not r.ok]
    ok = not fails and elapsed < 300
    _report(1, "golden-example reproduction", ok,
            f"{len(results)} checks in {elapsed:.1f}s" + ("; " + "; ".join(fails) if fails else ""))


def test_golden_output_is_the_recorded_selftest(golden_results):
    # `cyclrc selftest --golden-only` prints these lines and then the tally
    results, _ = golden_results
    lines = [r.line() for r in results]
    lines.append(f"{len(results)} checks, {sum(not r.ok for r in results)} failures")
    recorded = (Path(__file__).parent / "data" / "selftest_golden.txt").read_text(encoding="utf-8")
    assert lines == recorded.splitlines()


def test_criterion_2_nondividing_search(capsys):
    code = cli_main(["search", "--grid", GRID])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.strip().splitlines()
    header = lines[0].split(",")
    rows = [dict(zip(header, ln.split(","))) for ln in lines[1:]]
    nondiv = [r for r in rows if r["optimal"] == "True" and r["divides"] == "False"]
    want_a = {"family": "C44", "q": "19", "n": "18", "r": "9", "delta": "2",
              "k": "12", "d": "6", "optimal": "True", "divides": "False"}
    want_b = {"family": "C511", "q": "16", "n": "17", "r": "7", "delta": "3",
              "k": "8", "d": "8", "optimal": "True", "divides": "False"}
    ok = len(nondiv) >= 5 and want_a in rows and want_b in rows
    with capsys.disabled():
        _report(2, "non-divisibility headline", ok,
                f"{len(nondiv)} optimal codes with (r+delta-1) not dividing n")


@pytest.fixture(scope="module")
def sweep_results():
    # the walk's results, its time, and the number of distances it settled
    calls = []

    def counting(*args, real=selfcheck.min_distance, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(selfcheck, "min_distance", counting)
        t0 = time.time()
        results = selfcheck.run_sweeps()
        elapsed = time.time() - t0
    return results, elapsed, len(calls)


def _sweep_fails(results, prefix):
    """The failure lines among one identity's results, which hold a summary
    for each sweep pair."""
    entries = [r for r in results if r.entry.startswith(prefix)]
    assert sum(r.ok for r in entries) >= len(selfcheck.SWEEP_PAIRS), f"no summary for each pair in {prefix}"
    return [r.line() for r in entries if not r.ok]


def test_criterion_3_dual_complement_sweep(sweep_results):
    results, elapsed, _ = sweep_results
    fails = _sweep_fails(results, "dual_complement")
    _report(3, "dual equals complement-set distance", not fails and elapsed < 120,
            f"whole walk in {elapsed:.1f}s" + ("; " + "; ".join(fails) if fails else ""))


def test_criterion_4_field_jump_sweep(sweep_results):
    results, elapsed, _ = sweep_results
    fails = _sweep_fails(results, "field_jump")
    _report(4, "base field and ambient field share one distance", not fails,
            f"whole walk in {elapsed:.1f}s" + ("; " + "; ".join(fails) if fails else ""))


def test_criterion_5_bound_soundness_sweep(sweep_results):
    results, elapsed, _ = sweep_results
    fails = _sweep_fails(results, ("bounds", "random_subgroup_sets"))
    _report(5, "bounds sound, dual criterion matches oracle", not fails,
            f"whole walk in {elapsed:.1f}s" + ("; " + "; ".join(fails) if fails else ""))


def test_sweep_output_is_the_recorded_selftest(sweep_results):
    # `cyclrc selftest` prints these lines after the golden corpus's
    results, _, _ = sweep_results
    recorded = (Path(__file__).parent / "data" / "selftest_sweeps.txt").read_text(encoding="utf-8")
    assert [r.line() for r in results] == recorded.splitlines()


def test_sweep_settles_each_distance_once(sweep_results):
    # four distances for each of the 680 closed sets, and one ambient dual
    # for each of the 244 + 105 firings of the dual criterion
    _, _, calls = sweep_results
    assert calls == 4 * 680 + 244 + 105


def test_criterion_6_locality_soundness(golden_results):
    results, _ = golden_results
    loc_checks = [r for r in results if r.check in ("verify punctured distances", "locality verified")]
    fails = [r.line() for r in loc_checks if not r.ok]
    ok = len(loc_checks) >= 2 * 21 and not fails
    _report(6, "certificates pass the definition-level verifier", ok,
            f"{len(loc_checks)} group/coverage verifications")


def test_criterion_7_specialization_identities():
    from test_constructions import (
        test_divisible_family_specialization_identity as ident_a,
        test_even_delta_specialization_identity as ident_b,
        test_odd_delta_specialization_identity_odd_length as ident_c,
        test_odd_delta_specialization_identity_even_length as ident_d,
    )

    ident_a()
    ident_b()
    ident_c()
    ident_d()
    _report(7, "specialization identities", True,
            "older divisible construction and both parity block forms match")


def test_criterion_8_property_battery():
    cases = 0

    # field laws on random triples
    for p, m in ((2, 5), (3, 2), (19, 1), (5, 3)):
        F = field_create(p, m)
        rng = np.random.default_rng(100 * p + m)
        a, b, c = (rng.integers(0, F.q, 1200) for _ in range(3))
        assert np.array_equal(F.vadd(F.vadd(a, b), c), F.vadd(a, F.vadd(b, c)))
        assert np.array_equal(F.vmul(a, F.vadd(b, c)), F.vadd(F.vmul(a, b), F.vmul(a, c)))
        cases += 1200

    # polynomial division round-trips
    F = field_create(19, 1)
    rng = np.random.default_rng(81)
    for _ in range(1000):
        a = Polynomial.make(F, [int(x) for x in rng.integers(0, 19, 9)])
        b = Polynomial.make(F, [int(x) for x in rng.integers(0, 19, 5)])
        if b.is_zero():
            continue
        q, r = divmod(a, b)
        assert q * b + r == a and (r.is_zero() or r.degree < b.degree)
        cases += 1

    # coset closure
    pairs = [(2, 7), (2, 15), (3, 8), (3, 13), (4, 15), (5, 8)]
    for i in range(1000):
        q, n = pairs[i % len(pairs)]
        ctx = cyc_context(q, n)
        s = int(rng.integers(0, n))
        coset = cyclotomic_coset(s, ctx)
        assert {(e * q) % n for e in coset.exps} == set(coset.exps)
        cases += 1

    # cyclic shift closure of encoded words
    ctx = cyc_context(19, 18)
    codeA = code_from_defining_set(ctx, ctx.exponent_set([1, 2, 3, 4, 5, 9]))
    M = ctx.root_powers(codeA.defining.exps, range(18))  # parity checks over the ambient field
    sub = codeA.base_elements
    from cyclrc import linalg

    for _ in range(1000):
        msg = sub[rng.integers(0, len(sub), codeA.k)]
        cw = np.roll(codeA.encode(msg), int(rng.integers(0, 18)))
        assert not linalg.mat_vec(ctx.field, M, cw).any()
        cases += 1

    # determinism: fresh contexts rebuild identical codes
    for i in range(1000):
        q, n = pairs[i % len(pairs)]
        c1 = CycContext(q, n)
        c2 = CycContext(q, n)
        s = int(rng.integers(0, n))
        S1 = cyclotomic_coset(s, c1)
        S2 = cyclotomic_coset(s, c2)
        d1 = code_from_defining_set(c1, S1).to_dict()
        d2 = code_from_defining_set(c2, S2).to_dict()
        assert d1 == d2
        cases += 1

    # certificate determinism with cleared caches
    for req in (
        ConstructionRequest(family="C44", q=19, n=18, delta=4, t=1, m=5, tails=(8,)),
        ConstructionRequest(family="P49", q=19, n=18, delta=4),
        ConstructionRequest(family="C52", q=23, n=24, delta=4, r=3, i=1, ell=0, case=2),
    ):
        first = json.dumps(build(req).certificate, sort_keys=True)
        cyc_context.cache_clear()
        second = json.dumps(build(req).certificate, sort_keys=True)
        assert first == second
        cases += 1

    _report(8, "randomized property battery", cases >= 5 * 1000,
            f"{cases} randomized cases")
