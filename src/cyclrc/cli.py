"""Command-line front end: construct, verify, search, table, selftest.

Certificates are the only interchange format: `construct` emits a JSON
document carrying the field, the code, the locality evidence and the
optimality record.  `verify` loads one and prints the report of
`constructions.verify_certificate`, which rebuilds the code from the
recorded request and re-derives every claim; the CLI holds no checks of its
own.  `search` expands a parameter grid deterministically into one row per
constructed code.  Exit codes follow the scripting contract: `construct`
0 optimal, 2 not optimal; `verify` 0 every claim agrees, 2 some claim
inconclusive within the budget; 1 errors, disagreements and malformed input.
Each subcommand's arguments are declared once, in `OPTIONS`.  A well-formed
call is read off that table without importing argparse; help, abbreviated or
`--flag=value` options, values starting with "-" and every usage error go to
the argparse parser built from the same table, which prints all their text.
"""

from __future__ import annotations

import io
import itertools
import json
import math
import sys
from dataclasses import MISSING, fields
from types import SimpleNamespace

from .constructions import (
    FAMILY_NAMES,
    BuildResult,
    ConstructionInternalError,
    ConstructionRequest,
    HypothesisViolated,
    MalformedCertificate,
    build,
    verify_certificate,
)
from .cyclic import DEFAULT_BUDGET, BudgetExceededInconclusive, BudgetTooSmall
from .field import SIZE_CAP, FieldError

CSV_HEADER = ["family", "q", "n", "r", "delta", "k", "d", "optimal", "divides"]
MIN_BUDGET = 10**6
# errors a well-formed request or certificate can still end in; each is
# printed as `<ErrorName>: <message>` with exit 1
NAMED_ERRORS = (FieldError, BudgetExceededInconclusive, BudgetTooSmall, ConstructionInternalError)
# a grid block names the request fields, with one tail exponent per `tail` value
GRID_KEYS = tuple("tail" if f.name == "tails" else f.name for f in fields(ConstructionRequest))
# the request fields without a default, which every grid block must name
REQUIRED_GRID_KEYS = tuple(f.name for f in fields(ConstructionRequest) if f.default is MISSING)


def _type_error(message: str) -> Exception:
    """The error a type function raises for argparse to print as
    `argument --flag: <message>`."""
    import argparse

    return argparse.ArgumentTypeError(message)


def _budget(value: str) -> int:
    try:
        b = float(value)
    except ValueError:
        raise _type_error(f"{value}: not a number") from None
    if not MIN_BUDGET <= b < math.inf:
        raise _type_error(f"budget must be finite and at least {MIN_BUDGET}")
    return int(b)


def _field_size(value: str) -> int:
    """Field sizes as plain integers or p^m strings (e.g. 5^3) with p >= 2,
    m >= 1 and p^m at most the field size cap."""
    try:
        if "^" not in value:
            return int(value)
        p, m = (int(part) for part in value.split("^", 1))
    except ValueError:
        raise _type_error(f"{value}: need an integer or p^m") from None
    # p >= 2 bounds m by log2 of the cap, so the power stays small
    if not (2 <= p <= SIZE_CAP and 1 <= m < SIZE_CAP.bit_length()) or p**m > SIZE_CAP:
        raise _type_error(f"{value}: need p >= 2, m >= 1 and p^m <= {SIZE_CAP}")
    return p**m


def _default_format(explicit: str | None) -> str:
    if explicit:
        return explicit
    return "pretty" if sys.stdout.isatty() else "json"


class OutputUnwritable(Exception):
    """The `--output` path cannot be written."""


def _emit(text: str, output: str | None) -> None:
    """Write a command's output to the `--output` path, or to stdout when it
    is unset or `-`.  Raises OutputUnwritable, which `main` reports."""
    if output and output != "-":
        try:
            with open(output, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise OutputUnwritable(f"cannot write output: {exc}") from exc
    else:
        sys.stdout.write(text)


def _read_json(path: str):
    """The JSON document at `path`.  Raises OSError, UnicodeDecodeError, or
    JSONDecodeError, also for nesting too deep for the decoder."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    try:
        return json.loads(text)
    except RecursionError:
        raise json.JSONDecodeError("nesting too deep to decode", text, 0) from None


def _csv_text(rows: list[dict]) -> str:
    """The rows as CSV text under CSV_HEADER."""
    import csv

    buf = io.StringIO()
    w = csv.DictWriter(buf, fieldnames=CSV_HEADER)
    w.writeheader()
    w.writerows(rows)
    return buf.getvalue()


def _result_row(cert: dict) -> dict:
    """The CSV row of a certificate's JSON document."""
    o = cert["optimality"]
    return {
        "family": o["family"],
        "q": cert["code"]["q"],
        "n": o["n"],
        "r": o["r"],
        "delta": o["delta"],
        "k": o["k"],
        "d": o["d_exact"] if o["d_exact"] is not None else o["d_lower"],
        "optimal": o["optimal"],
        "divides": o["divides"],
    }


def _pretty_build(res: BuildResult) -> str:
    o, loc = res.certificate["optimality"], res.certificate["locality"]
    d_str = str(o["d_exact"]) if o["d_exact"] is not None else f">={o['d_lower']} (<= {o['d_upper']})"
    lines = [
        f"[{o['n']}, {o['k']}, {d_str}] over GF({res.code.ctx.q}), "
        f"({o['r']}, {o['delta']})-locality, {'optimal' if o['optimal'] else 'not optimal'}",
        f"family {o['family']}, distance method {o['distance_method']}, "
        f"bound value {o['singleton_like_value']}, (r+delta-1) {'|' if o['divides'] else 'does not divide'} n",
        f"defining exponents: {list(res.code.defining.exps)}",
        f"generator: {res.code.gen.pretty()}",
        f"repair groups ({len(loc['groups'])}, {loc['evidence']['group_mode']}): "
        f"sizes <= {loc['r'] + loc['delta'] - 1}",
    ]
    for note in o["notes"]:
        lines.append(f"note: {note}")
    return "\n".join(lines) + "\n"


def _request_from_flags(args) -> ConstructionRequest:
    # each flag is named after its grid key; an unset optional flag is None,
    # which `from_dict` takes as the field's default
    flags = {f.name: getattr(args, key) for f, key in zip(fields(ConstructionRequest), GRID_KEYS)}
    return ConstructionRequest.from_dict(flags)


def cmd_construct(args) -> int:
    try:
        req = _request_from_flags(args)
        res = build(req, args.budget)
    except HypothesisViolated as exc:
        print(f"hypothesis violated: {exc}", file=sys.stderr)
        return 1
    except NAMED_ERRORS as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    fmt = _default_format(args.format)
    if fmt == "json":
        _emit(json.dumps(res.certificate, indent=2, sort_keys=True) + "\n", args.output)
    elif fmt == "csv":
        _emit(_csv_text([_result_row(res.certificate)]), args.output)
    else:
        _emit(_pretty_build(res), args.output)
    return 0 if res.certificate["optimality"]["optimal"] else 2


def cmd_verify(args) -> int:
    try:
        report = verify_certificate(_read_json(args.certificate), args.budget)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError, MalformedCertificate) as exc:
        print(f"malformed certificate: {exc}", file=sys.stderr)
        return 1
    except NAMED_ERRORS as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    for claim, status, detail in report:
        print(f"{status:12s} {claim}" + (f": {detail}" if detail else ""))
    statuses = {status for _, status, _ in report}
    return 1 if "disagree" in statuses else 2 if "inconclusive" in statuses else 0


def _grid_axes(block) -> list[tuple[str, list]]:
    """The (key, values) axes of one grid block, `family` first.  A scalar is
    an axis of one value.  Raises ValueError unless `family` is a string,
    every request field without a default is named, and every other key is a
    request field whose values are integers; a `tail` value may also be a
    list of integers, giving several tail exponents."""
    if not isinstance(block, dict) or not isinstance(block.get("family"), str):
        raise ValueError(f"grid block without a string family: {block!r}")
    unknown = sorted(set(block) - set(GRID_KEYS))
    if unknown:
        raise ValueError(f"unknown grid keys {unknown} in {block!r}")
    missing = [key for key in REQUIRED_GRID_KEYS if key not in block]
    if missing:
        raise ValueError(f"missing grid keys {missing} in {block!r}")
    axes = []
    for key in GRID_KEYS:
        if key not in block:
            continue
        values = block[key] if isinstance(block[key], list) else [block[key]]
        if key != "family" and not all(
            type(v) is int or (key == "tail" and isinstance(v, list) and all(type(e) is int for e in v))
            for v in values
        ):
            raise ValueError(f"{key} must be an integer or a list of integers in {block!r}")
        axes.append((key, values))
    return axes


def _expand_grid(axes: list[tuple[str, list]]):
    """Deterministic cartesian expansion of one block's axes into request dicts."""
    names = [key for key, _ in axes]
    for combo in itertools.product(*(values for _, values in axes)):
        d = dict(zip(names, combo))
        tail = d.pop("tail", None)
        if tail is not None:
            d["tails"] = (tail,) if not isinstance(tail, list) else tuple(tail)
        yield d


def cmd_search(args) -> int:
    try:
        config = _read_json(args.grid)
        if not isinstance(config, dict) or not isinstance(config.get("grids"), list):
            raise ValueError('expected an object with a "grids" list')
        # every block is checked before the first build
        blocks = [_grid_axes(block) for block in config["grids"]]
    except (OSError, ValueError) as exc:
        print(f"invalid grid config: {exc}", file=sys.stderr)
        return 1
    rows = []
    skipped = 0
    failed = 0
    for axes in blocks:
        for reqdict in _expand_grid(axes):
            try:
                req = ConstructionRequest.from_dict(reqdict)
                res = build(req, args.budget)
            except HypothesisViolated:
                skipped += 1
                continue
            except NAMED_ERRORS as exc:
                print(f"{type(exc).__name__}: {exc} at {json.dumps(reqdict, sort_keys=True)}",
                      file=sys.stderr)
                failed += 1
                continue
            rows.append(_result_row(res.certificate))
    fmt = args.format or "csv"
    if fmt == "json":
        _emit(json.dumps(rows, indent=2, sort_keys=True) + "\n", args.output)
    else:
        _emit(_csv_text(rows), args.output)
    if skipped:
        print(f"skipped {skipped} grid points with violated hypotheses", file=sys.stderr)
    return 1 if failed else 0


def cmd_table(args) -> int:
    try:
        data = _read_json(args.results)
        # certificates and search rows, alone or in a list
        rows = [_result_row(item) if "optimality" in item else {key: item.get(key, "") for key in CSV_HEADER}
                for item in ([data] if isinstance(data, dict) else data)]
    except (OSError, ValueError, TypeError, KeyError, AttributeError) as exc:
        print(f"cannot read results: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
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


_BUDGET = (("--budget",), dict(type=_budget, default=DEFAULT_BUDGET))
_OUTPUT = (("--output", "-o"), {})
# Each subcommand's help line and arguments, in usage order.  An argument is
# (option strings, `add_argument` keywords); a name without a leading "-" is a
# positional.
OPTIONS = {
    "construct": ("build one family request and emit its certificate", (
        (("--family",), dict(required=True, choices=FAMILY_NAMES)),
        (("--q",), dict(required=True, type=_field_size, help="field size, 125 or 5^3")),
        (("--n",), dict(required=True, type=int)),
        (("--delta",), dict(required=True, type=int)),
        (("--r",), dict(type=int)),
        (("--b",), dict(type=int, default=1)),
        (("--t",), dict(type=int, default=0)),
        (("--m",), dict(type=int)),
        (("--tail",), dict(type=int, action="append", help="tail exponent (repeatable)")),
        (("--i",), dict(type=int)),
        (("--ell",), dict(type=int)),
        (("--j",), dict(type=int)),
        (("--case",), dict(type=int)),
        (("--mu",), dict(type=int)),
        _BUDGET,
        (("--format",), dict(choices=("json", "csv", "pretty"))),
        _OUTPUT,
    )),
    "verify": ("re-derive every claim in a certificate", (
        (("certificate",), {}),
        _BUDGET,
    )),
    "search": ("expand a parameter grid into one row per constructed code", (
        (("--grid",), dict(required=True, help="JSON grid config")),
        _BUDGET,
        (("--format",), dict(choices=("json", "csv"))),
        _OUTPUT,
    )),
    "table": ("render search rows or certificates as an aligned table", (
        (("results",), {}),
        _OUTPUT,
    )),
    "selftest": ("golden corpus plus the structural sweeps", (
        _BUDGET,
        (("--golden-only",), dict(action="store_true")),
    )),
}
# the subcommands, in the order of the parser's usage line
COMMANDS = tuple(OPTIONS)


def _handler(command: str):
    """The subcommand's handler, read off the module when called, so that a
    wrapper set on the module attribute sees the call."""
    return {"construct": cmd_construct, "verify": cmd_verify, "search": cmd_search,
            "table": cmd_table, "selftest": cmd_selftest}[command]


def _dest(names: tuple[str, ...]) -> str:
    """argparse's attribute name for an argument: its first name without
    leading dashes, with "-" as "_"."""
    return names[0].lstrip("-").replace("-", "_")


def _match(argv: list[str]) -> SimpleNamespace | None:
    """The namespace argparse gives `argv`, read off `OPTIONS`, or None when
    argparse must parse it.  Accepts only a subcommand followed by its exact
    option strings and values not starting with "-", where every value
    converts and passes its choices, every required argument is present and
    no positional is left over or missing."""
    if not argv or argv[0] not in OPTIONS:
        return None
    arguments = OPTIONS[argv[0]][1]
    options = {name: (names, kw) for names, kw in arguments for name in names if name[0] == "-"}
    positionals = [(names, kw) for names, kw in arguments if names[0][0] != "-"]
    values = {_dest(names): kw.get("default", False if kw.get("action") == "store_true" else None)
              for names, kw in arguments}
    seen = set()
    tokens = iter(argv[1:])
    for token in tokens:
        if token in options:
            names, kw = options[token]
            if kw.get("action") == "store_true":
                values[_dest(names)] = True
                continue
            token = next(tokens, "-")  # a flag without its value defers too
        elif positionals:
            names, kw = positionals.pop(0)
        else:
            return None
        if token[:1] == "-":
            return None
        try:
            value = kw.get("type", str)(token)
        except Exception:  # argparse calls it again and reports the error
            return None
        if "choices" in kw and value not in kw["choices"]:
            return None
        dest = _dest(names)
        values[dest] = [*(values[dest] or ()), value] if kw.get("action") == "append" else value
        seen.add(names)
    if positionals or any(kw.get("required") and names not in seen for names, kw in arguments):
        return None
    return SimpleNamespace(command=argv[0], **values, func=_handler(argv[0]))


def build_parser():
    """The argparse parser of `OPTIONS`, with every subcommand."""
    import argparse

    ap = argparse.ArgumentParser(
        prog="cyclrc",
        description="Construct and certify cyclic locally repairable codes from structured zero sets.",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    for command, (help_text, arguments) in OPTIONS.items():
        p = sub.add_parser(command, help=help_text)
        for names, kw in arguments:
            p.add_argument(*names, **kw)
        p.set_defaults(func=_handler(command))
    return ap


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _match(argv)
    if args is None:
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
    except OutputUnwritable as exc:
        print(exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
