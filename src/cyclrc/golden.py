"""Golden corpus: recorded example codes rebuilt and re-certified bit-exactly.

Each entry pins the inputs and the certified outputs of one worked example.
The runner reconstructs everything from the inputs alone and compares: set
algebra and generator coefficients exactly, distances through whichever
independent oracle fits the budget (enumeration, support scan, zero-core) or
through a closed bound sandwich, and locality through the definition-level
verifier.  Each family certificate also passes, serialised to JSON and back,
through `verify_certificate`, the check `cyclrc verify` runs.  Any
oracle/expectation mismatch is a failure, never a warning.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources
from typing import Optional

from .constructions import ConstructionRequest, build, verify_certificate
from .cyclic import (
    BudgetExceededInconclusive,
    DEFAULT_BUDGET,
    code_from_defining_set,
    cyc_context,
    exhaustive_min_weight,
    has_weight_at_most,
    min_distance,
    product_set,
)
from .locality import check_locality_record, locality_from_product, verify_locality_exhaustive
from .poly import pretty


@dataclass
class CheckResult:
    entry: str
    check: str
    ok: bool
    detail: str = ""

    def line(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        msg = f"{status}  {self.entry}: {self.check}"
        if self.detail:
            msg += f" ({self.detail})"
        return msg


def load_corpus(path=None) -> dict:
    if path is None:
        path = resources.files("cyclrc").joinpath("golden/corpus.json")
        label = "golden/corpus.json"
        text = path.read_text()
    else:
        label = str(path)
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{label}: not valid JSON ({exc})") from exc
    if not isinstance(data, dict) or data.get("schema") != 1 or "entries" not in data:
        raise ValueError(f"{label}: unrecognized layout")
    seen = set()
    for e in data["entries"]:
        if not isinstance(e, dict):
            raise ValueError(f"{label}: entry is not an object: {e!r}")
        for key in ("name", "kind", "expect"):
            if key not in e:
                raise ValueError(f"{label}: entry missing {key!r}: {e}")
        if e["name"] in seen:
            raise ValueError(f"{label}: duplicate entry {e['name']}")
        seen.add(e["name"])
    return data


def crosscheck_distance(code, d: int, budget: int) -> Optional[str]:
    """Re-derive an exact distance through an enumeration oracle if one fits.

    Returns the oracle name used, or None when every oracle exceeds the
    budget (the bound sandwich then stands on its own).  Raises AssertionError
    on disagreement.
    """
    n, k = code.n, code.k
    qb = code.base_q
    # priced at q_b^k * n, as `_settle` prices it, though the enumeration
    # weighs one message per scalar class
    if qb**k * n <= min(budget, 10**8):
        got = exhaustive_min_weight(code)
        if got != d:
            raise AssertionError(f"exhaustive oracle found {got}, expected {d}")
        return "exhaustive"
    try:
        if d > 1 and has_weight_at_most(code, d - 1, budget):
            raise AssertionError(f"support scan found weight below {d}")
        if d <= n - k and not has_weight_at_most(code, d, budget):
            raise AssertionError(f"support scan found no weight-{d} word")
        return "support_scan"
    except BudgetExceededInconclusive:
        return None


def _verifier_checks(report):
    """One check per verifier line, passing when the line agrees."""
    for claim, status, detail in report:
        yield f"verify {claim}", status == "agree", f"{status}: {detail}" if detail else status


def _check_family(entry: dict, budget: int):
    exp = entry["expect"]
    res = build(ConstructionRequest.from_dict(entry["request"]), budget)
    o, loc, code = res.certificate["optimality"], res.certificate["locality"], res.code

    for check, key in (("length", "n"), ("dimension", "k"), ("locality r", "r"), ("locality delta", "delta"),
                       ("optimal flag", "optimal"), ("divisibility flag", "divides")):
        yield check, o[key] == exp[key], f"{o[key]} vs {exp[key]}"
    if "anchor_dual" in exp:
        yield "anchor dual distance", loc["dA_perp"] == exp["anchor_dual"], f"{loc['dA_perp']} vs {exp['anchor_dual']}"
        exact = loc["evidence"]["dual_exact"]
        yield "anchor dual exactness", exact == exp.get("anchor_dual_exact", True), f"exact={exact}"

    if exp.get("d_exact_known", True):
        ok = o["d_exact"] == exp["d"]
        yield "distance", ok, f"exact {o['d_exact']} vs {exp['d']}"
        if ok:
            method = crosscheck_distance(code, o["d_exact"], budget)
            yield "distance cross-check", True, method or "bound sandwich stands alone"
    else:
        yield "distance lower bound", o["d_lower"] == exp["d"], f"{o['d_lower']} vs {exp['d']}"
        yield "distance upper bound", o["d_upper"] == exp["d_upper"], f"{o['d_upper']} vs {exp['d_upper']}"
        yield "distance left open", o["d_exact"] is None, f"exact={o['d_exact']}"

    # the certificate as a user receives it, through the verifier `cyclrc verify` runs
    yield from _verifier_checks(verify_certificate(json.loads(json.dumps(res.certificate)), budget))
    yield "locality verified", verify_locality_exhaustive(code, o["r"], o["delta"], budget, hint_groups=loc["groups"])


def _check_product(entry: dict, budget: int):
    exp = entry["expect"]
    ctx = cyc_context(entry["q"], entry["n"])
    anchor = ctx.exponent_set(entry["anchor"])
    run = ctx.exponent_set(entry["run"])
    ab = product_set(anchor, run)
    yield "product set", list(ab.exps) == exp["ab"], f"{list(ab.exps)}"
    code = code_from_defining_set(ctx, ab)
    yield "dimension", code.k == exp["k"], f"{code.k} vs {exp['k']}"
    if "generator" in exp:
        yield "generator coefficients", list(code.gen) == exp["generator"], pretty(code.gen)
    loc = locality_from_product(anchor, run, code, budget)
    for check, key, want in (("anchor dual distance", "dA_perp", "anchor_dual"), ("run distance", "dB", "run_distance"),
                             ("locality r", "r", "r"), ("locality delta", "delta", "delta")):
        yield check, loc[key] == exp[want], f"{loc[key]} vs {exp[want]}"
    if "code_distance" in exp:
        res = min_distance(code, budget)
        yield ("code distance", res.exact == exp["code_distance"],
               f"{res.exact} vs {exp['code_distance']} [{res.method}]")
    yield from _verifier_checks(check_locality_record(code, loc, budget))
    yield "locality verified", verify_locality_exhaustive(code, loc["r"], loc["delta"], budget,
                                                          hint_groups=loc["groups"])


def _check_dual_pair(entry: dict, budget: int):
    exp = entry["expect"]
    ctx = cyc_context(entry["q"], entry["n"])
    S = ctx.exponent_set(entry["defining"])
    code = code_from_defining_set(ctx, S)
    d_dual = min_distance(code.dual_code(), budget)
    d_comp = min_distance(code.complement_code(), budget)
    yield "dual vs complement", d_dual.exact == d_comp.exact, f"{d_dual.exact} vs {d_comp.exact}"
    yield "recorded value", d_dual.exact == exp["value"], f"{d_dual.exact} vs {exp['value']}"
    for label, c in (("dual", code.dual_code()), ("complement", code.complement_code())):
        method = crosscheck_distance(c, exp["value"], budget)
        yield f"{label} distance cross-check", True, method or "bound sandwich stands alone"


# each checker yields (check, ok, detail) for the checks of one entry
_CHECKERS = {
    "family": _check_family,
    "product": _check_product,
    "dual_pair": _check_dual_pair,
}


def run_entry(entry: dict, budget: int = DEFAULT_BUDGET) -> list[CheckResult]:
    kind = entry["kind"]
    if kind not in _CHECKERS:
        return [CheckResult(entry.get("name", "?"), "known kind", False, f"unknown kind {kind!r}")]
    try:
        return [CheckResult(entry["name"], *check) for check in _CHECKERS[kind](entry, budget)]
    except Exception as exc:  # a crash is a failed entry, not a crashed run
        return [CheckResult(entry["name"], "rebuild", False, f"{type(exc).__name__}: {exc}")]


def run_corpus(budget: int = DEFAULT_BUDGET, path=None) -> list[CheckResult]:
    try:
        data = load_corpus(path)
    except ValueError as exc:
        return [CheckResult("corpus", "well-formed golden data", False, str(exc))]
    results: list[CheckResult] = []
    for entry in data["entries"]:
        results.extend(run_entry(entry, budget))
    return results
