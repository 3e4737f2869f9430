"""Exhaustive small-length sweep backing the structural identities.

One walk visits every union of cyclotomic cosets for a fixed list of (q, n)
pairs, settles the distances of each set's codes with exact oracles, and
confirms that

* the dual distance equals the distance of the complement-set code,
* the base-field code and the ambient-field code with the same defining set
  share one distance,
* the run bounds never exceed the true distance, and the subgroup-run dual
  criterion, whenever it fires, matches the oracle exactly.

These identities carry the whole construction pipeline, so the sweep runs in
the packaged selftest as well as the test suite.
"""

from __future__ import annotations

from itertools import islice

import numpy as np

from . import bounds
from .bounds import BettiSalaWitness
from .cyclic import (
    DEFAULT_BUDGET,
    CycContext,
    all_cyclotomic_cosets,
    code_from_defining_set,
    cyc_context,
    min_distance,
)
from .golden import CheckResult

SWEEP_PAIRS = ((2, 7), (2, 15), (3, 8), (3, 13), (4, 15), (5, 8))


def closed_sets(ctx: CycContext):
    """All unions of cyclotomic cosets, the empty and full set included."""
    cosets = all_cyclotomic_cosets(ctx)
    for mask in range(1 << len(cosets)):
        exps: list[int] = []
        for i, c in enumerate(cosets):
            if mask >> i & 1:
                exps.extend(c.exps)
        yield ctx.exponent_set(exps)


def _exact(code, budget: int):
    res = min_distance(code, budget)
    if res.undefined:
        return None
    if res.exact is None:
        raise AssertionError(f"sweep code [{code.n},{code.k}] not settled exactly")
    return res.exact


def _enumerate_bs_witnesses(exps: frozenset, n: int):
    units = bounds.units_mod(n)
    for m, dw in ((1, 2), (1, 3), (2, 2)):
        if m * dw + (m + 1) * (dw - 1) > len(exps):
            continue
        witnesses = (BettiSalaWitness(u=u, b=b, m=m, delta=dw) for b in units for u in range(n))
        # the first contained witness only: the bound (m+1)*delta depends on the pattern alone
        yield from islice((w for w in witnesses if all(e in exps for e in w.exponents(n))), 1)


def _random_subgroup_sets(budget: int, seed: int = 20240817) -> list[CheckResult]:
    """Random coset-plus-noise sets with n <= 24 for the dual criterion."""
    rng = np.random.default_rng(seed)
    out = []
    fired = total = 0
    for q, n in ((19, 18), (25, 24), (16, 15), (23, 22)):
        ctx = cyc_context(q, n)
        divisors = [d for d in range(2, n + 1) if n % d == 0]
        for _ in range(40):
            ell = int(rng.choice(divisors))
            s = n // ell
            t = int(rng.integers(0, s))
            exps = {(t + i * s) % n for i in range(ell)}
            extra = int(rng.integers(0, 4))
            exps.update(int(x) for x in rng.integers(0, n, extra))
            if len(exps) > 10:
                continue  # keep the oracle affordable
            A = ctx.exponent_set(exps)
            val = bounds.exact_dual_distance(A)
            total += 1
            if val is None:
                continue
            fired += 1
            ext = code_from_defining_set(ctx, A, base="extension")
            oracle = _exact(ext.dual_code(), budget)
            if oracle != val:
                out.append(CheckResult("random_subgroup_sets", f"q={q} n={n} set {sorted(exps)}",
                                       False, f"criterion {val} vs oracle {oracle}"))
    out.append(CheckResult("random_subgroup_sets",
                           f"{total} sampled, dual criterion fired {fired}x and matched", True))
    return out


def run_sweeps(budget: int = DEFAULT_BUDGET) -> list[CheckResult]:
    """The walk over each pair's closed sets, then the random sets.  A set's
    dual, complement, base-field, ambient-field and, when the criterion fires,
    ambient dual distance are read off its codes; the dual of one set's code
    is the complement code of another set, and each code keeps its distance,
    so every distinct code is settled once across the whole walk.  The lines
    of the three identities come out one identity after another."""
    dual_complement, field_jump, sound = [], [], []
    for q, n in SWEEP_PAIRS:
        ctx = cyc_context(q, n)
        pair = f"q={q} n={n}"
        total = fired = 0
        for S in closed_sets(ctx):
            total += 1
            code = code_from_defining_set(ctx, S)
            ext = code_from_defining_set(ctx, S, base="extension")
            d_dual, d_comp = _exact(code.dual_code(), budget), _exact(code.complement_code(), budget)
            d, d_ext = _exact(code, budget), _exact(ext, budget)
            if d_dual != d_comp:
                dual_complement.append(CheckResult(f"dual_complement {pair}", f"set {list(S.exps)}", False,
                                                   f"dual {d_dual} vs complement {d_comp}"))
            if d != d_ext:
                field_jump.append(CheckResult(f"field_jump {pair}", f"set {list(S.exps)}", False,
                                              f"base field {d} vs ambient {d_ext}"))
            if len(S) == n:
                continue  # zero code has no distance to bound
            lo, _ = bounds.bch_lower(S)
            if lo > d:
                sound.append(CheckResult(f"bounds {pair}", f"run bound set {list(S.exps)}", False,
                                         f"bound {lo} exceeds distance {d}"))
            for w in _enumerate_bs_witnesses(frozenset(S.exps), n):
                bs = bounds.betti_sala_lower(S, w)
                if bs > d:
                    sound.append(CheckResult(f"bounds {pair}", f"blocks bound set {list(S.exps)}", False,
                                             f"witness {w} gives {bs} above {d}"))
                    break
            # dual criterion against the oracle, over the ambient field
            val = bounds.exact_dual_distance(S)
            if val is not None:
                fired += 1
                oracle = _exact(ext.dual_code(), budget)
                if oracle != val:
                    sound.append(CheckResult(f"bounds {pair}", f"dual criterion set {list(S.exps)}", False,
                                             f"criterion {val} vs oracle {oracle}"))
        dual_complement.append(CheckResult(f"dual_complement {pair}", f"{total} defining sets agree", True))
        field_jump.append(CheckResult(f"field_jump {pair}", f"{total} defining sets agree", True))
        # the bounds skip the full set, the last of closed_sets
        sound.append(CheckResult(f"bounds {pair}", f"{total - 1} sets sound, dual criterion fired {fired}x", True))
    return dual_complement + field_jump + sound + _random_subgroup_sets(budget)
