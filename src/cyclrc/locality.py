"""Locality certification for cyclic codes.

The constructive route: when the defining set of a code contains the product
of two root sets, shifted copies of one low-weight dual codeword of the
anchor code yield concrete repair groups, and a short consecutive run in the
second set forces enough column independence inside each group to tolerate
delta-1 erasures.  Certificates carry the dual word and every repair group.

The definition-level verifier is the independent oracle: it knows nothing of
the construction and simply checks punctured distances of candidate groups
of at most r+delta-1 coordinates over the code's own base field.  A cyclic
shift maps the code onto itself, so it decides on one group through
coordinate 0, whose shifts serve every coordinate.  `check_locality_record`
re-derives a certificate's locality record from its evidence, with one
punctured check for all the groups, which are one orbit under cyclic shifts.
"""

from __future__ import annotations

import itertools
from math import comb

import numpy as np

from . import bounds, linalg
from .cyclic import (
    CombinatorialBudgetExceeded,
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


class BudgetExceededInconclusive(RuntimeError):
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
    """Low-weight dual codeword of the anchor's ambient code.

    Returns (word, support, weight, exact, lower):
    * exact=True: weight is the exact dual distance (subgroup-run criterion
      or an affordable exact oracle), support lexicographically canonical;
    * exact=False: the subgroup-coset word is only an upper witness and
      `lower` carries the certified run lower bound on the dual distance.
    """
    ctx = anchor.ctx
    # the fallback depends on the budget, so the budget is part of the key
    key = (anchor.exps, budget)
    if key in ctx._dual_word_cache:
        return ctx._dual_word_cache[key]
    n = ctx.n
    exact_val = bounds.exact_dual_distance(anchor)
    cosets = bounds.subgroup_coset_in(anchor)
    if exact_val is not None:
        # the criterion's value is n/ell for one of these cosets
        ell, t = next((e, t) for e, t in cosets if n // e == exact_val)
        word = _subgroup_word(ctx, ell, t)
        support = tuple(int(i) for i in np.nonzero(word)[0])
        result = (word, support, exact_val, True, exact_val)
    else:
        ca = code_from_defining_set(ctx, anchor, base="extension")
        dual = ca.dual_code()
        try:
            d, word, support = min_weight_word(dual, budget)
            result = (word, support, d, True, d)
        except CombinatorialBudgetExceeded:
            lower, _ = bounds.bch_lower(dual.defining)
            if not cosets:
                raise BudgetExceededInconclusive(
                    f"no affordable dual-distance oracle and no subgroup witness for n={n}"
                )
            ell, t = cosets[0]  # largest order = lightest witness word
            word = _subgroup_word(ctx, ell, t)
            support = tuple(int(i) for i in np.nonzero(word)[0])
            result = (word, support, n // ell, False, min(lower, n // ell))
    ctx._dual_word_cache[key] = result
    return result


def run_code_distance(run: ExponentSet, budget: int = DEFAULT_BUDGET) -> int:
    ctx = run.ctx
    # only exact distances are stored, and they do not depend on the budget
    if run.exps not in ctx._run_dist_cache:
        cb = code_from_defining_set(ctx, run, base="extension")
        res = min_distance(cb, budget)
        if res.exact is None:
            raise BudgetExceededInconclusive("run-code distance not settled within budget")
        ctx._run_dist_cache[run.exps] = res.exact
    return ctx._run_dist_cache[run.exps]


def locality_from_product(
    anchor: ExponentSet,
    run: ExponentSet,
    target: CyclicCode,
    budget: int = DEFAULT_BUDGET,
) -> dict:
    """The locality record certifying that `target` tolerates delta-1
    erasures in groups of r+delta-1 coordinates, where r = w(h0) - d_run + 1:
    r, delta, the anchor dual word weight dA_perp, the run distance dB, the
    groups and their evidence, as the certificate's `locality` JSON record.
    The evidence's dual_exact says whether dA_perp is the exact anchor dual
    distance, and dual_lower is a certified lower bound on that distance.

    The defining set of `target` must contain the product of the two sets.
    Every group is materialized, and the independence condition is checked
    once, on h0, for all of them; an independence failure aborts (it would
    mean an implementation bug, and a silently downgraded certificate would
    be worthless).
    """
    ctx = anchor.ctx
    if run.ctx is not ctx or target.ctx is not ctx:
        raise ValueError("anchor, run and target must share one context")
    ab = product_set(anchor, run)
    if not ab.is_subset(target.defining):
        raise ProductNotContained(
            f"product exponents {sorted(set(ab.exps) - set(target.defining.exps))} "
            "missing from the target defining set"
        )
    d_run = run_code_distance(run, budget)
    word, support, w, dual_exact, dual_lower = anchor_dual_word(anchor, budget)
    if w < d_run:
        raise DistanceOrderingViolated(f"dual word weight {w} below run distance {d_run}")
    F = ctx.field
    groups, group_mode = repair_groups(support, ctx.n)
    if set().union(*groups) != set(range(ctx.n)):
        raise InvariantViolated("repair groups fail to cover all coordinates")

    # h0 itself is only a dual word of the anchor code; the rows entering the
    # certificate are its run-exponent translates, which land in the dual of
    # any code whose defining set contains the product set.  One check on h0
    # covers every group: shifting h0 by s shifts its translate rows and
    # scales row e by alpha^(s*e), which keeps each row's support, its
    # orthogonality to the cyclic target and the independence of its columns.
    rows = _local_parity_rows(ctx, word, np.array(run.exps, dtype=np.int64))
    sup = np.nonzero(word)[0]
    if any(set(np.nonzero(row)[0]) != set(sup) for row in rows):
        raise IndependenceCheckFailed("translate rows do not share the support of h0")
    if linalg.mat_mul(F, target.generator_matrix(), rows.T).any():
        raise IndependenceCheckFailed("local parity row leaves the dual code")
    if not check_delta_independence(F, rows[:, sup], d_run):
        raise IndependenceCheckFailed(f"{d_run - 1} columns of a local parity block are dependent")

    return {
        "r": w - d_run + 1,
        "delta": d_run,
        "dA_perp": w,
        "dB": d_run,
        "groups": groups,
        "evidence": {
            "h0_support": [int(x) for x in support],
            "h0_word": [int(x) for x in word],
            "independence_checked": True,
            "dual_exact": dual_exact,
            "dual_lower": dual_lower,
            "anchor_exponents": list(anchor.exps),
            "run_exponents": list(run.exps),
            "group_mode": group_mode,
        },
    }


def repair_groups(support, n: int) -> tuple[list[list[int]], str]:
    """The distinct cyclic shifts of `support`, sorted, and their mode:
    'subgroup_partition' when they partition the n coordinates, else
    'shift_cover'."""
    groups = [list(g) for _, g in support_orbit(support, n)]
    return groups, "subgroup_partition" if len(groups) * len(support) == n else "shift_cover"


def _local_parity_rows(ctx, word: np.ndarray, run_exps: np.ndarray) -> np.ndarray:
    """Rows alpha^(j*e) * word_j for each run exponent e."""
    n = ctx.n
    F = ctx.field
    powers = ctx.root_powers(run_exps, range(n))  # (v, n)
    return F.vmul(powers, word[None, :])


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


def claim_line(claim: str, ok: bool, detail: str = "") -> tuple[str, str, str]:
    """One verifier report line: (claim, 'agree' or 'disagree', detail)."""
    return claim, "agree" if ok else "disagree", detail


def check_locality_record(code: CyclicCode, record: dict, budget: int = DEFAULT_BUDGET) -> list:
    """Re-derive a locality record (the one `locality_from_product` returns)
    for `code`: one (claim, status, detail) line per claim, with status agree,
    disagree or inconclusive.

    h0_word must be a nonzero dual word of the anchor code whose support's
    distinct cyclic shifts are the groups; dA_perp is its weight, dB the run
    code's distance, and r, delta follow from them.  A cyclic shift is an
    automorphism of the code, so one punctured check on the support covers
    every group.  The anchor dual distance is not recomputed: exactness is
    only checked against the recorded lower bound.
    """
    ctx, F, n = code.ctx, code.field, code.n
    ev = record["evidence"]
    anchor, run = ctx.exponent_set(ev["anchor_exponents"]), ctx.exponent_set(ev["run_exponents"])
    anchor_code = code_from_defining_set(ctx, anchor, base="extension")
    word = ev["h0_word"]
    support = [i for i, x in enumerate(word) if x]
    problem = ""
    if len(word) != n or not all(type(x) is int and 0 <= x < F.q for x in word):
        problem = f"h0_word is not a vector of length {n} over GF({F.q})"
    elif not support:
        problem = "h0_word is zero"
    elif ev["h0_support"] != support:
        problem = f"h0_support {ev['h0_support']} is not the support {support} of h0_word"
    elif linalg.mat_mul(F, anchor_code.generator_matrix(), [[x] for x in word]).any():
        problem = "h0_word is not orthogonal to the anchor code"
    else:
        groups, mode = repair_groups(support, n)
        if record["groups"] != groups:
            problem = "groups are not the distinct cyclic shifts of h0_support"
        elif ev["group_mode"] != mode:
            problem = f"the groups make a {mode}, not a {ev['group_mode']}"
    lines = [claim_line("locality evidence", not problem, problem)]

    missing = sorted(set(product_set(anchor, run).exps) - set(code.defining.exps))
    lines.append(claim_line("product set", not missing, f"anchor x run exponents {missing} outside the defining set"
                            if missing else "anchor x run lies in the defining set"))

    w, lower, exact = len(support), ev["dual_lower"], ev["dual_exact"]
    # an inexact lower bound is the anchor dual's run bound, capped below the weight
    ok = lower == w if exact else lower == min(bounds.bch_lower(anchor_code.dual_code().defining)[0], w) < w
    lines.append(claim_line("anchor dual bounds", ok, f"weight {w}, claimed lower bound {lower}, exact {exact}"))

    try:
        d_run = run_code_distance(run, budget)
    except BudgetExceededInconclusive as exc:
        return lines + [("locality r and delta", "inconclusive", str(exc)),
                        ("punctured distances", "inconclusive", "run distance not settled")]
    want = {"dA_perp": w, "dB": d_run, "r": w - d_run + 1, "delta": d_run}
    got = {key: record[key] for key in want}
    lines.append(claim_line("locality r and delta", got == want and w >= d_run, f"recomputed {want}, claimed {got}"))

    if problem:
        return lines + [("punctured distances", "disagree", "not checked: the locality evidence does not hold")]
    try:
        tolerant = punctured_distance_at_least(code, support, d_run, budget)
    except BudgetExceededInconclusive as exc:
        return lines + [("punctured distances", "inconclusive", str(exc))]
    return lines + [claim_line("punctured distances", tolerant and ev["independence_checked"] is True,
                               f"{len(groups)} shifts of h0_support tolerate {d_run - 1} erasures: {tolerant}; "
                               f"independence_checked: {ev['independence_checked']}")]
