"""Locality certification for cyclic codes.

The constructive route: when the defining set of a code contains the product
of two root sets, shifted copies of one low-weight dual codeword h0 of the
anchor code yield concrete repair groups, and a short consecutive run in the
second set forces enough column independence inside each group to tolerate
delta-1 erasures.  Certificates carry the dual word and every repair group.

`rederive_locality` is the one list of locality checks: the product route
runs it on the word it found and raises on the first failure, `verify` on a
certificate's word.  Its dual-word checks read orthogonality off each
code's generator polynomial (`CyclicCode.is_orthogonal`), so neither route
forms a k x n generator matrix.  `locality_record` is the one assembly of
the record from that word; `compare` holds a claimed record against the
re-derived one, types included.

The definition-level verifier is the independent oracle: it knows nothing of
the construction and simply checks punctured distances of candidate groups
of at most r+delta-1 coordinates over the code's own base field.  A cyclic
shift maps the code onto itself, so it decides on one group through
coordinate 0, whose shifts serve every coordinate.
"""

from __future__ import annotations

import itertools
import json
from math import comb

import numpy as np

from . import bounds, linalg
from .cyclic import (
    BudgetExceededInconclusive,
    CyclicCode,
    DEFAULT_BUDGET,
    ExponentSet,
    InvariantViolated,
    code_from_defining_set,
    min_distance,
    min_weight_word,
    product_set,
    support_orbit,
)


class ProductNotContained(ValueError):
    pass


class DistanceOrderingViolated(ValueError):
    pass


class IndependenceCheckFailed(RuntimeError):
    pass


def check_delta_independence(F, M, delta: int) -> bool:
    """True iff every delta-1 columns of M are linearly independent."""
    M = np.asarray(M, dtype=np.int64)
    t = delta - 1
    if t == 0:
        return True
    if M.shape[1] < t:
        return False
    return linalg.first_dependent_columns(F, M, t) is None


def _subgroup_word(ctx, ell: int, t: int) -> np.ndarray:
    """Dual word from summing the rows of the order-ell coset matrix."""
    n = ctx.n
    scal = ell % ctx.p  # the element ell * 1 is the constant ell mod p, whose index is ell mod p
    if scal == 0:  # impossible: gcd(ell, p) = 1 because ell | n and gcd(n, q) = 1
        raise InvariantViolated(f"coset order {ell} is divisible by the characteristic {ctx.p}")
    word = np.zeros(n, dtype=np.int64)
    word[::ell] = ctx.field.vmul(scal, ctx.root_powers([t], range(0, n, ell))[0])
    return word


def anchor_dual_word(anchor: ExponentSet, budget: int = DEFAULT_BUDGET):
    """Low-weight dual codeword of the anchor's ambient code, as (word,
    support, weight, exact).  exact=True: the weight is the exact dual
    distance (subgroup-run criterion or an affordable exact oracle), the
    support lexicographically canonical; exact=False: the subgroup-coset word
    is only an upper witness."""
    ctx = anchor.ctx
    # the fallback depends on the budget, so the budget is part of the key
    key = (anchor.exps, budget)
    if key in ctx._dual_word_cache:
        return ctx._dual_word_cache[key]
    n = ctx.n
    exact_val = bounds.exact_dual_distance(anchor)
    cosets = bounds.subgroup_coset_in(anchor)
    exact = True
    if exact_val is not None:
        # the criterion's value is n/ell for one of these cosets
        word = _subgroup_word(ctx, *next((e, t) for e, t in cosets if n // e == exact_val))
    else:
        dual = code_from_defining_set(ctx, anchor, base="extension").dual_code()
        try:
            word = min_weight_word(dual, budget)[1]
        except BudgetExceededInconclusive:
            if not cosets:
                raise BudgetExceededInconclusive(
                    f"no affordable dual-distance oracle and no subgroup witness for n={n}"
                )
            word, exact = _subgroup_word(ctx, *cosets[0]), False  # largest order = lightest witness word
    support = tuple(int(i) for i in np.flatnonzero(word))
    result = ctx._dual_word_cache[key] = (word, support, len(support), exact)
    return result


def run_code_distance(run: ExponentSet, budget: int = DEFAULT_BUDGET) -> int:
    """The exact distance of the run's ambient code, settled within `budget`
    on every call, so the answer depends on the budget alone."""
    res = min_distance(code_from_defining_set(run.ctx, run, base="extension"), budget)
    if res.exact is None:
        raise BudgetExceededInconclusive("run-code distance not settled within budget")
    return res.exact


def locality_from_product(
    anchor: ExponentSet,
    run: ExponentSet,
    target: CyclicCode,
    budget: int = DEFAULT_BUDGET,
) -> dict:
    """The locality record (see `locality_record`) certifying that `target`
    tolerates delta-1 erasures in groups of r+delta-1 coordinates.

    The checks of `rederive_locality` run on the word `anchor_dual_word`
    finds; the first that fails raises ProductNotContained (product set),
    DistanceOrderingViolated (weight), BudgetExceededInconclusive (a check
    over budget) or else IndependenceCheckFailed (an implementation bug: a
    silently downgraded certificate would be worthless).
    """
    ctx = anchor.ctx
    if run.ctx is not ctx or target.ctx is not ctx:
        raise ValueError("anchor, run and target must share one context")
    word, _, _, dual_exact = anchor_dual_word(anchor, budget)
    found, record = rederive_locality(target, anchor, run, [int(x) for x in word], dual_exact, budget)
    for claim, status, detail in found:
        if status == "inconclusive":
            raise BudgetExceededInconclusive(detail)
        if status == "disagree":
            raise _FAILURES.get(claim, IndependenceCheckFailed)(detail)
    return record


def locality_record(anchor: ExponentSet, run: ExponentSet, word, dual_exact: bool, d_run: int) -> dict:
    """The certificate's `locality` record of a dual word h0 of the anchor
    code and the run code distance d_run, the one assembly of that record:
    r = w(h0) - d_run + 1, delta = dB = d_run, dA_perp = w(h0), the groups
    (the distinct cyclic shifts of h0's support; `group_mode` says whether
    they partition the coordinates) and their evidence.  dual_lower is a
    certified lower bound on the anchor dual distance: w(h0) when dual_exact
    says that w(h0) is that distance, else the anchor dual's run bound."""
    support = [i for i, x in enumerate(word) if x]
    w, n = len(support), anchor.ctx.n
    # the anchor dual's defining set is -(Z_n minus A), so no code is built
    lower = w if dual_exact else min(bounds.bch_lower(anchor.complement().negate())[0], w)
    groups = [list(g) for _, g in support_orbit(support, n)]
    return {"r": w - d_run + 1, "delta": d_run, "dA_perp": w, "dB": d_run, "groups": groups, "evidence": {
        "h0_support": support, "h0_word": [int(x) for x in word], "independence_checked": True,
        "dual_exact": dual_exact, "dual_lower": lower, "anchor_exponents": list(anchor.exps),
        "run_exponents": list(run.exps),
        "group_mode": "subgroup_partition" if len(groups) * w == n else "shift_cover"}}


# ---------------------------------------------------------------------------
# Definition-level verifier (independent oracle).


def punctured_distance_at_least(code: CyclicCode, group, delta: int, budget: int = DEFAULT_BUDGET) -> bool:
    """Decide d(C|_group) >= delta by scanning the punctured parity columns."""
    F = code.field
    group = sorted({int(i) for i in group})
    H = linalg.nullspace(F, code.generator_matrix()[:, group])  # punctured parity checks
    if H.shape[0] == len(group):
        return True  # zero punctured code, vacuously tolerant
    if delta <= 1:
        return True
    if len(group) < delta:
        return False  # nonzero code on fewer than delta coordinates
    if H.shape[0] == 0:
        return False  # punctured code is the full space, distance 1
    t = delta - 1
    cost = linalg.column_scan_cost(len(group), H.shape[0], t)
    if cost > budget:
        raise BudgetExceededInconclusive(f"punctured scan needs ~{cost:.2e} ops")
    return linalg.first_dependent_columns(F, H, t) is None


def verify_locality_exhaustive(
    code: CyclicCode,
    r: int,
    delta: int,
    budget: int = DEFAULT_BUDGET,
    hint_groups=None,
) -> bool:
    """Definition-level check: every coordinate sits in some group of at most
    r+delta-1 coordinates whose punctured code has distance >= delta.

    A cyclic shift maps the code onto itself, so that holds exactly when one
    group through coordinate 0 does: its shifts serve every coordinate.
    Tries the hinted groups, then the unit-step windows through 0, then
    (small lengths only) every group through 0 of each size from r+delta-1
    down to delta, and stops at the first group that holds.  Distinguishes a
    definitive False from running out of budget.
    """
    if delta < 2:
        raise ValueError("locality needs delta >= 2")
    n = code.n
    size = r + delta - 1
    if size > n:
        raise ValueError("group size exceeds the code length")
    tested: dict[tuple[int, ...], bool] = {}

    def holds(g) -> bool:
        g = {int(x) % n for x in g}
        if not g or len(g) > size:
            return False
        # a group shares its verdict with each of its shifts: memo on the lex-first one
        key = support_orbit(g, n)[0][1]
        if key not in tested:
            tested[key] = punctured_distance_at_least(code, key, delta, budget)
        return tested[key]

    windows = ([i * b % n for i in range(size)] for b in bounds.units_mod(n))
    if any(holds(g) for g in itertools.chain(hint_groups or (), windows)):
        return True
    subsets = sum(comb(n - 1, s - 1) for s in range(delta, size + 1))
    if subsets > 200000:
        raise BudgetExceededInconclusive(f"full search over {subsets} groups through 0 too large")
    return any(holds((0,) + rest) for s in range(size, delta - 1, -1)
               for rest in itertools.combinations(range(1, n), s - 1))


# the report line of each leaf of a locality record, by its path in the record
LOCALITY_CLAIMS = {
    "locality evidence": ("groups", "evidence.h0_word", "evidence.h0_support", "evidence.group_mode"),
    "product set": ("evidence.anchor_exponents", "evidence.run_exponents"),
    "anchor dual bounds": ("evidence.dual_exact", "evidence.dual_lower"),
    "locality r and delta": ("r", "delta", "dA_perp", "dB"),
    "punctured distances": ("evidence.independence_checked",),
}
# the error `locality_from_product` raises on a failed claim, IndependenceCheckFailed where none is named
_FAILURES = {"product set": ProductNotContained, "locality r and delta": DistanceOrderingViolated}


def _text(x) -> str:
    return json.dumps(x, sort_keys=True)


def mismatches(claimed, rebuilt, path=()):
    """(path, claimed node, rebuilt node) for each place where a claimed JSON
    document differs from the rebuilt one: two dicts with different key
    sets, or two leaves, nodes of different types or lists of different
    lengths.  Two JSON values have the same text exactly when they have the
    same key set at every level and the same type and value at every leaf
    (18.0 is not 18, true is not 1); equal subtrees are skipped on their
    text and a list is descended at its first differing entry, so the cost
    is linear in the document."""
    if _text(claimed) == _text(rebuilt):
        return
    if isinstance(claimed, dict) and isinstance(rebuilt, dict):
        if claimed.keys() != rebuilt.keys():
            yield path, claimed, rebuilt
        for key in sorted(claimed.keys() & rebuilt.keys()):
            yield from mismatches(claimed[key], rebuilt[key], path + (key,))
    elif isinstance(claimed, list) and isinstance(rebuilt, list) and len(claimed) == len(rebuilt):
        i = next(i for i, (a, b) in enumerate(zip(claimed, rebuilt)) if _text(a) != _text(b))
        yield from mismatches(claimed[i], rebuilt[i], path + (i,))
    else:
        yield path, claimed, rebuilt


def compare(claimed, rebuilt, claims: dict) -> list:
    """A disagree finding for each mismatch of a claimed document against the
    rebuilt one: a differing key set on the schema line, any other mismatch
    on the claim that `claims` gives the longest prefix of its path."""
    claim_of = {path: claim for claim, paths in claims.items() for path in paths}
    found = []
    for path, a, b in mismatches(claimed, rebuilt):
        where = ".".join(map(str, path))
        if isinstance(a, dict) and isinstance(b, dict):
            found.append(("schema", "disagree", f"{where or 'the document'}: unknown keys "
                          f"{sorted(a.keys() - b.keys())}, missing keys {sorted(b.keys() - a.keys())}"))
        else:
            prefixes = (".".join(map(str, path[:i])) for i in range(len(path), 0, -1))
            claim = next((claim_of[p] for p in prefixes if p in claim_of), "schema")
            found.append((claim, "disagree", f"{where}: claimed {_text(a)[:60]}, recomputed {_text(b)[:60]}"))
    return found


def report(claims, findings) -> list:
    """One (claim, status, detail) line per claim, in the order of `claims`
    and then of the findings: disagree when a finding on the claim disagrees,
    else inconclusive when one is, else agree; the detail joins the details
    of the findings with that status."""
    lines = []
    for claim in dict.fromkeys([*claims, *(c for c, _, _ in findings)]):
        own = [(status, detail) for c, status, detail in findings if c == claim]
        status = min((s for s, _ in own), key=("disagree", "inconclusive", "agree").index, default="agree")
        lines.append((claim, status, "; ".join(d for s, d in own if s == status and d)))
    return lines


def rederive_locality(code: CyclicCode, anchor: ExponentSet, run: ExponentSet, h0_word, dual_exact,
                      budget: int = DEFAULT_BUDGET) -> tuple[list, dict | None]:
    """The findings of the locality checks on h0 = h0_word for `code`, in
    order, and the record `locality_record` derives from h0_word and
    dual_exact, or None where they admit none: (1) anchor x run lies in the
    defining set; (2) h0 is a nonzero vector, a dual word of the anchor
    code; (3) w(h0) >= d_run, the run code distance (inconclusive, with the
    checks after it, when the budget leaves d_run open); (4) the translates
    alpha^(j*e) * h0_j (e in run) are dual words of the code; (5) any
    d_run-1 of their columns on the support S of h0 are independent.
    Passing rows are a proof in themselves: supported on S (a nonzero entry
    times a root power is nonzero), they make the code punctured to S
    tolerate d_run-1 erasures, and a cyclic shift maps the code to itself,
    which covers every group.  (1) and (2) imply (4), and (5) holds as the
    columns are scaled columns of the run code's parity checks.  (2) and
    (4) correlate the words with the generator polynomial of the anchor
    code and of the code, in O(n * |A|) and O(|run| * n * (n-k)) work.  The
    anchor dual distance is not recomputed."""
    ctx, F, n = code.ctx, code.field, code.n
    missing = sorted(set(product_set(anchor, run).exps) - set(code.defining.exps))
    found = [("product set", "disagree" if missing else "agree", f"anchor x run exponents {missing} outside the "
              "defining set" if missing else "anchor x run lies in the defining set")]

    def stop(claim, status, detail, record=None):
        # the checks after a failed one rest on it
        rest = [(c, "inconclusive", "not checked") for c in LOCALITY_CLAIMS if c not in (claim, "product set")]
        return found + [(claim, status, detail)] + rest, record

    if type(dual_exact) is not bool:
        return stop("anchor dual bounds", "disagree", f"dual_exact {dual_exact!r} is not a bool")
    if type(h0_word) is not list or len(h0_word) != n or not all(type(x) is int and 0 <= x < F.q for x in h0_word):
        return stop("locality evidence", "disagree", f"h0_word is not a vector of length {n} over GF({F.q})")
    if not any(h0_word):
        return stop("locality evidence", "disagree", "h0_word is zero")
    try:
        d_run = run_code_distance(run, budget)  # a family's run code is MDS: its sandwich closes at once
    except BudgetExceededInconclusive as exc:
        return stop("locality r and delta", "inconclusive", str(exc))
    record = locality_record(anchor, run, h0_word, dual_exact, d_run)
    if not code_from_defining_set(ctx, anchor, base="extension").is_orthogonal([h0_word]):
        return stop("locality evidence", "disagree", "h0_word is not orthogonal to the anchor code", record)
    if record["dA_perp"] < d_run:
        return stop("locality r and delta", "disagree", f"h0 weight {record['dA_perp']} below the run distance",
                    record)
    rows = F.vmul(ctx.root_powers(run.exps, range(n)), np.array([h0_word], dtype=np.int64))
    if not code.is_orthogonal(rows):
        return found + [("punctured distances", "disagree", "a translate row of h0 leaves the dual code")], record
    cost = linalg.column_scan_cost(record["dA_perp"], len(rows), d_run - 1)
    if cost > budget:
        return found + [("punctured distances", "inconclusive", f"independence scan needs ~{cost:.2e} ops")], record
    ok = check_delta_independence(F, rows[:, np.flatnonzero(h0_word)], d_run)
    return found + [("punctured distances", "agree" if ok else "disagree",
                     f"{len(record['groups'])} shifts of h0_support tolerate {d_run - 1} erasures: {ok}")], record


def check_locality_record(code: CyclicCode, record: dict, budget: int = DEFAULT_BUDGET) -> list:
    """Re-derive a locality record (the one `locality_from_product` returns)
    for `code` from its anchor and run exponents, h0_word and dual_exact:
    one (claim, status, detail) line per claim of `LOCALITY_CLAIMS`."""
    ev = record["evidence"]
    anchor, run = code.ctx.exponent_set(ev["anchor_exponents"]), code.ctx.exponent_set(ev["run_exponents"])
    found, rebuilt = rederive_locality(code, anchor, run, ev["h0_word"], ev["dual_exact"], budget)
    return report(LOCALITY_CLAIMS, found + compare(record, rebuilt or record, LOCALITY_CLAIMS))
