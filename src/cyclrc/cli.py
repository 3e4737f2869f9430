"""Command-line front end: construct, verify, search, table, selftest.

Certificates are the only interchange format: `construct` emits a JSON
document carrying the field, the code, the locality evidence and the
optimality record, and `verify` re-derives every claim in it from nothing
but (q, n, defining exponents, claims).  `search` expands a parameter grid
deterministically into one row per constructed code.  Exit codes follow the
scripting contract: 0 fully verified/optimal, 2 constructed but not optimal
(or verified with gaps), 1 errors or disagreements.
"""

from __future__ import annotations

import argparse
import csv
import io
import itertools
import json
import sys

from . import bounds, linalg
from .constructions import (
    CERTIFICATE_SCHEMA,
    FAMILY_NAMES,
    BuildResult,
    ConstructionInternalError,
    ConstructionRequest,
    HypothesisViolated,
    build,
)
from .cyclic import (
    DEFAULT_BUDGET,
    cyc_context,
    code_from_defining_set,
    min_distance,
)
from .field import FieldError
from .locality import punctured_distance_at_least, BudgetExceededInconclusive

CSV_HEADER = ["family", "q", "n", "r", "delta", "k", "d", "optimal", "divides"]
MIN_BUDGET = 10**6


def _budget(value: str) -> int:
    b = int(float(value))
    if b < MIN_BUDGET:
        raise argparse.ArgumentTypeError(f"budget must be at least {MIN_BUDGET}")
    return b


def _field_size(value: str) -> int:
    """Field sizes as plain integers or p^m strings (e.g. 5^3)."""
    if "^" in value:
        p, m = value.split("^", 1)
        return int(p) ** int(m)
    return int(value)


def _default_format(explicit: str | None) -> str:
    if explicit:
        return explicit
    return "pretty" if sys.stdout.isatty() else "json"


def _emit(text: str, output: str | None) -> None:
    if output and output != "-":
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _result_row(res: BuildResult) -> dict:
    o = res.optimality
    d = o.d_exact if o.d_exact is not None else o.d_lower
    return {
        "family": o.family,
        "q": res.code.ctx.q,
        "n": o.n,
        "r": o.r,
        "delta": o.delta,
        "k": o.k,
        "d": d,
        "optimal": o.optimal,
        "divides": o.divides,
    }


def _pretty_build(res: BuildResult) -> str:
    o = res.optimality
    cert = res.locality
    d_str = str(o.d_exact) if o.d_exact is not None else f">={o.d_lower} (<= {o.d_upper})"
    lines = [
        f"[{o.n}, {o.k}, {d_str}] over GF({res.code.ctx.q}), "
        f"({o.r}, {o.delta})-locality, {'optimal' if o.optimal else 'not optimal'}",
        f"family {o.family}, distance method {o.distance_method}, "
        f"bound value {o.singleton_like_value}, (r+delta-1) {'|' if o.divides else 'does not divide'} n",
        f"defining exponents: {list(res.code.defining.exps)}",
        f"generator: {res.code.gen.pretty()}",
        f"repair groups ({len(cert.groups)}, {cert.group_mode}): sizes <= {cert.group_size_bound}",
    ]
    for note in o.notes:
        lines.append(f"note: {note}")
    return "\n".join(lines) + "\n"


def _request_from_flags(args) -> ConstructionRequest:
    fields = {
        "family": args.family,
        "q": args.q,
        "n": args.n,
        "delta": args.delta,
        "b": args.b,
        "t": args.t,
    }
    for name in ("r", "m", "i", "ell", "j", "case", "mu"):
        v = getattr(args, name)
        if v is not None:
            fields[name] = v
    if args.tail:
        fields["tails"] = tuple(args.tail)
    return ConstructionRequest(**fields)


def cmd_construct(args) -> int:
    try:
        req = _request_from_flags(args)
        res = build(req, args.budget)
    except HypothesisViolated as exc:
        print(f"hypothesis violated: {exc}", file=sys.stderr)
        return 1
    except (FieldError, BudgetExceededInconclusive, ConstructionInternalError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    fmt = _default_format(args.format)
    if fmt == "json":
        _emit(json.dumps(res.to_json_dict(), indent=2, sort_keys=True) + "\n", args.output)
    elif fmt == "csv":
        buf = io.StringIO()
        w = csv.DictWriter(buf, fieldnames=CSV_HEADER)
        w.writeheader()
        w.writerow(_result_row(res))
        _emit(buf.getvalue(), args.output)
    else:
        _emit(_pretty_build(res), args.output)
    return 0 if res.optimality.optimal else 2


def _verify_claim(report: list, name: str, status: str, detail: str = "") -> None:
    report.append((name, status, detail))


def cmd_verify(args) -> int:
    try:
        with open(args.certificate, encoding="utf-8") as fh:
            cert = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"malformed certificate: {exc}", file=sys.stderr)
        return 1
    report: list[tuple[str, str, str]] = []
    try:
        return _verify_body(cert, args, report)
    except (KeyError, TypeError, ValueError) as exc:
        print(f"malformed certificate: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


def _verify_body(cert: dict, args, report) -> int:
    codeinfo = cert["code"]
    opt = cert["optimality"]
    loc = cert["locality"]
    q, n = codeinfo["q"], codeinfo["n"]
    ctx = cyc_context(q, n)
    S = ctx.exponent_set(codeinfo["defining_exponents"])
    code = code_from_defining_set(ctx, S)

    _verify_claim(report, "schema", "agree" if cert["schema"] == CERTIFICATE_SCHEMA else "disagree",
                  f"claimed {cert['schema']!r}, supported {CERTIFICATE_SCHEMA}")
    _verify_claim(report, "field", "agree" if cert["field"] == ctx.to_dict() else "disagree",
                  f"recomputed {ctx.to_dict()}, claimed {cert['field']}")

    _verify_claim(report, "dimension",
                  "agree" if code.k == codeinfo["k"] else "disagree",
                  f"recomputed {code.k}, claimed {codeinfo['k']}")
    gen_ok = list(code.gen.coeffs) == list(codeinfo["generator_coeffs"])
    _verify_claim(report, "generator polynomial", "agree" if gen_ok else "disagree")

    # distance: recompute under budget and compare with the claim
    r_claim, delta_claim = opt["r"], opt["delta"]
    hints = []
    if 1 <= r_claim <= code.k and delta_claim >= 2:
        hints.append(bounds.singleton_like(n, code.k, r_claim, delta_claim))
    res = min_distance(code, args.budget, upper_hints=tuple(hints))
    if opt.get("d_exact") is not None:
        d_claim = opt["d_exact"]
        if res.exact is not None:
            _verify_claim(report, "distance", "agree" if res.exact == d_claim else "disagree",
                          f"recomputed {res.exact}, claimed {d_claim}")
        elif res.lower <= d_claim <= res.upper:
            _verify_claim(report, "distance", "inconclusive",
                          f"claimed {d_claim} inside recomputed sandwich [{res.lower},{res.upper}]")
        else:
            _verify_claim(report, "distance", "disagree",
                          f"claimed {d_claim} outside [{res.lower},{res.upper}]")
    else:
        lo, hi = opt["d_lower"], opt["d_upper"]
        if res.exact is not None:
            ok = lo <= res.exact <= hi
        else:
            ok = max(res.lower, lo) <= min(res.upper, hi)
        _verify_claim(report, "distance sandwich",
                      "agree" if ok else "disagree",
                      f"recomputed [{res.lower},{res.upper}], claimed [{lo},{hi}]")

    # locality: group sizes, coverage, punctured distances
    groups = [tuple(g) for g in loc["groups"]]
    size_cap = r_claim + delta_claim - 1
    sizes_ok = all(len(g) <= size_cap for g in groups)
    covered = set()
    for g in groups:
        covered.update(g)
    coverage_ok = covered == set(range(n))
    _verify_claim(report, "group sizes", "agree" if sizes_ok else "disagree")
    _verify_claim(report, "group coverage", "agree" if coverage_ok else "disagree")
    problem = _evidence_problem(ctx, loc["evidence"], groups)
    _verify_claim(report, "locality evidence", "disagree" if problem else "agree", problem)
    punct = "agree"
    detail = ""
    try:
        for g in groups:
            if not punctured_distance_at_least(code, g, delta_claim, args.budget):
                punct = "disagree"
                detail = f"group {list(g)} tolerates fewer than {delta_claim - 1} erasures"
                break
    except BudgetExceededInconclusive as exc:
        punct, detail = "inconclusive", str(exc)
    _verify_claim(report, "punctured distances", punct, detail)

    # optimality flag
    if opt.get("singleton_like_value") is not None and res.exact is not None:
        recomputed = res.exact == opt["singleton_like_value"]
        _verify_claim(report, "optimal flag",
                      "agree" if recomputed == opt["optimal"] else "disagree",
                      f"bound {opt['singleton_like_value']}, distance {res.exact}")
    elif opt["optimal"]:
        _verify_claim(report, "optimal flag", "inconclusive", "distance not settled under budget")
    else:
        _verify_claim(report, "optimal flag", "agree", "flag is down and nothing contradicts it")

    # exit contract: 0 everything agrees, 2 inconclusive gaps, 1 disagreement
    worst = 0
    for name, status, detail in report:
        print(f"{status:12s} {name}" + (f": {detail}" if detail else ""))
        if status == "disagree":
            worst = max(worst, 2)
        elif status == "inconclusive":
            worst = max(worst, 1)
    return {0: 0, 1: 2, 2: 1}[worst]


def _evidence_problem(ctx, evidence: dict, groups: list) -> str:
    """Why the locality evidence fails, or "" when it holds: h0_word must be a
    nonzero dual word of the anchor code with support h0_support, and the
    groups must be the distinct cyclic shifts of that support."""
    n, F = ctx.n, ctx.field
    word = evidence["h0_word"]
    if len(word) != n or not all(0 <= x < F.q for x in word):
        return f"h0_word is not a vector of length {n} over GF({F.q})"
    support = [i for i, x in enumerate(word) if x]
    if not support:
        return "h0_word is zero"
    if list(evidence["h0_support"]) != support:
        return f"h0_support {evidence['h0_support']} is not the support {support} of h0_word"
    anchor = code_from_defining_set(ctx, ctx.exponent_set(evidence["anchor_exponents"]), base="extension")
    if linalg.mat_mul(F, anchor.generator_matrix(), [[x] for x in word]).any():
        return "h0_word is not orthogonal to the anchor code"
    shifts = sorted({tuple(sorted((i + s) % n for i in support)) for s in range(n)})
    if groups != shifts:
        return "groups are not the distinct cyclic shifts of h0_support"
    return ""


def _expand_grid(grid: dict):
    """Deterministic cartesian expansion of one grid block."""
    fixed = {"family": grid["family"]}
    axes = []
    for key in ("q", "n", "delta", "r", "b", "t", "m", "i", "ell", "j", "case", "mu", "tail"):
        if key not in grid:
            continue
        val = grid[key]
        if isinstance(val, list):
            axes.append((key, val))
        else:
            fixed[key] = val
    names = [a[0] for a in axes]
    for combo in itertools.product(*(a[1] for a in axes)):
        d = dict(fixed)
        d.update(zip(names, combo))
        tail = d.pop("tail", None)
        if tail is not None:
            d["tails"] = (tail,) if not isinstance(tail, list) else tuple(tail)
        d.setdefault("b", 1)
        d.setdefault("t", 0)
        yield d


def cmd_search(args) -> int:
    try:
        with open(args.grid, encoding="utf-8") as fh:
            config = json.load(fh)
        blocks = config["grids"]
    except (OSError, json.JSONDecodeError, KeyError, TypeError) as exc:
        print(f"invalid grid config: {exc!r}", file=sys.stderr)
        return 1
    rows = []
    skipped = 0
    failed = 0
    for block in blocks:
        for reqdict in _expand_grid(block):
            try:
                req = ConstructionRequest.from_dict(reqdict)
                res = build(req, args.budget)
            except HypothesisViolated:
                skipped += 1
                continue
            except (FieldError, BudgetExceededInconclusive, ConstructionInternalError) as exc:
                print(f"{type(exc).__name__}: {exc} at {json.dumps(reqdict, sort_keys=True)}",
                      file=sys.stderr)
                failed += 1
                continue
            rows.append(_result_row(res))
    fmt = args.format or "csv"
    if fmt == "json":
        _emit(json.dumps(rows, indent=2, sort_keys=True) + "\n", args.output)
    else:
        buf = io.StringIO()
        w = csv.DictWriter(buf, fieldnames=CSV_HEADER)
        w.writeheader()
        w.writerows(rows)
        _emit(buf.getvalue(), args.output)
    if skipped:
        print(f"skipped {skipped} grid points with violated hypotheses", file=sys.stderr)
    return 1 if failed else 0


def cmd_table(args) -> int:
    try:
        with open(args.results, encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"cannot read results: {exc}", file=sys.stderr)
        return 1
    if isinstance(data, dict):
        data = [data]
    rows = []
    for item in data:
        if "optimality" in item:  # full certificate
            o = item["optimality"]
            rows.append({
                "family": o["family"], "q": item["code"]["q"], "n": o["n"],
                "r": o["r"], "delta": o["delta"], "k": o["k"],
                "d": o["d_exact"] if o["d_exact"] is not None else o["d_lower"],
                "optimal": o["optimal"], "divides": o["divides"],
            })
        else:
            rows.append({key: item.get(key, "") for key in CSV_HEADER})
    widths = {key: max(len(key), *(len(str(r[key])) for r in rows)) if rows else len(key)
              for key in CSV_HEADER}
    out = ["  ".join(key.ljust(widths[key]) for key in CSV_HEADER)]
    for r in rows:
        out.append("  ".join(str(r[key]).ljust(widths[key]) for key in CSV_HEADER))
    _emit("\n".join(out) + "\n", args.output)
    return 0


def cmd_selftest(args) -> int:
    from .golden import run_corpus
    from .selfcheck import run_sweeps

    results = run_corpus(args.budget)
    if not args.golden_only:
        results += run_sweeps(args.budget)
    failures = 0
    for r in results:
        print(r.line())
        failures += 0 if r.ok else 1
    print(f"{len(results)} checks, {failures} failures")
    return 0 if failures == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="cyclrc",
        description="Construct and certify cyclic locally repairable codes from structured zero sets.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    c = sub.add_parser("construct", help="build one family request and emit its certificate")
    c.add_argument("--family", required=True, choices=FAMILY_NAMES)
    c.add_argument("--q", required=True, type=_field_size, help="field size, 125 or 5^3")
    c.add_argument("--n", required=True, type=int)
    c.add_argument("--delta", required=True, type=int)
    c.add_argument("--r", type=int)
    c.add_argument("--b", type=int, default=1)
    c.add_argument("--t", type=int, default=0)
    c.add_argument("--m", type=int)
    c.add_argument("--tail", type=int, action="append", help="tail exponent (repeatable)")
    c.add_argument("--i", type=int)
    c.add_argument("--ell", type=int)
    c.add_argument("--j", type=int)
    c.add_argument("--case", type=int)
    c.add_argument("--mu", type=int)
    c.add_argument("--budget", type=_budget, default=DEFAULT_BUDGET)
    c.add_argument("--format", choices=("json", "csv", "pretty"))
    c.add_argument("--output", "-o")
    c.set_defaults(func=cmd_construct)

    v = sub.add_parser("verify", help="re-derive every claim in a certificate")
    v.add_argument("certificate")
    v.add_argument("--budget", type=_budget, default=DEFAULT_BUDGET)
    v.set_defaults(func=cmd_verify)

    s = sub.add_parser("search", help="expand a parameter grid into one row per constructed code")
    s.add_argument("--grid", required=True, help="JSON grid config")
    s.add_argument("--budget", type=_budget, default=DEFAULT_BUDGET)
    s.add_argument("--format", choices=("json", "csv"))
    s.add_argument("--output", "-o")
    s.set_defaults(func=cmd_search)

    t = sub.add_parser("table", help="render search rows or certificates as an aligned table")
    t.add_argument("results")
    t.add_argument("--output", "-o")
    t.set_defaults(func=cmd_table)

    st = sub.add_parser("selftest", help="golden corpus plus the structural sweeps")
    st.add_argument("--budget", type=_budget, default=DEFAULT_BUDGET)
    st.add_argument("--golden-only", action="store_true")
    st.set_defaults(func=cmd_selftest)
    return ap


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad flags; the scripting contract reserves 2
        # for constructed-but-not-optimal, so parse failures become 1
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args)
    except BrokenPipeError:
        return 1


if __name__ == "__main__":
    sys.exit(main())
