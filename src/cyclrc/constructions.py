"""Parameterized factories for the optimal-LRC families.

Each family builds two exponent sets: an anchor set whose dual distance
fixes the repair-group size, and a consecutive run whose length fixes the
per-group erasure tolerance.  The code is the cyclic code defined by their
product.  Builders validate the family hypotheses by name, certify locality
through the product route, settle the distance through the bound sandwich or
an exact oracle, and only then decide the optimality flag.

Each family's shared hypotheses (the side n | q-1 or n | q+1, the delta
parity, whether the anchor takes the shift t, the optional fields read) are
one row of `_FAMILIES`.  Its theorem values (dimension, distance, pinned
anchor dual distance, target block count) come from one dispatch,
`_paper_values`, and are cross-checked against the constructed sets and
oracles; a disagreement raises instead of emitting a bad certificate.
`build` returns the code with its certificate, the JSON document (schema,
field, code, locality record, optimality record) that `verify_certificate`
reads; the two share one optimality decision, `_optimality`.
Optimality side conditions that fail (the ceiling condition, or the
dual-distance inequality of the single-tail families) return the code with
the flag down and a note, since parameter searches need those points.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields, replace
from math import ceil, gcd
from typing import NamedTuple, Optional

from . import bounds
from .bounds import BettiSalaWitness
from .cyclic import (
    CycContext,
    CyclicCode,
    DEFAULT_BUDGET,
    ExponentSet,
    cyc_context,
    code_from_defining_set,
    min_distance,
    product_set,
)
from .locality import check_locality_record, claim_line, locality_from_product

CERTIFICATE_SCHEMA = 1


class HypothesisViolated(ValueError):
    def __init__(self, clauses):
        self.clauses = list(clauses)
        super().__init__("; ".join(self.clauses))


class ConstructionInternalError(RuntimeError):
    """A formula disagreed with an oracle; certificates must never ship this."""


@dataclass(frozen=True)
class ConstructionRequest:
    family: str
    q: int
    n: int
    delta: int
    r: Optional[int] = None
    b: int = 1
    t: int = 0
    m: Optional[int] = None
    tails: tuple[int, ...] = ()
    i: Optional[int] = None
    ell: Optional[int] = None
    j: Optional[int] = None
    case: Optional[int] = None
    mu: Optional[int] = None

    def to_dict(self) -> dict:
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out["tails"] = list(self.tails)
        return {name: v for name, v in out.items() if name not in OPTIONAL_FIELDS or v not in (None, [])}

    @staticmethod
    def from_dict(d: dict) -> "ConstructionRequest":
        d = dict(d)
        tails = tuple(d.pop("tails", ()) or ())
        extra = set(d) - {f.name for f in fields(ConstructionRequest)}
        if extra:
            raise HypothesisViolated([f"unknown request fields {sorted(extra)}"])
        return ConstructionRequest(tails=tails, **d)


# the request fields a family may leave unset; an unset one is left out of
# the certificate's request
OPTIONAL_FIELDS = tuple(f.name for f in fields(ConstructionRequest) if f.default in (None, ()))


class _Family(NamedTuple):
    side: str  # "q-1" or "q+1": the length divides q-1 or q+1
    parity: Optional[int]  # the delta % 2 the family requires, if any
    shifted: bool  # the anchor takes the shift t; the others are fixed sets
    reads: tuple[str, ...]  # the optional request fields the family reads


# one row per family; setting an optional field the family does not read is
# refused, since the certificate carries the request as given
_FAMILIES = {
    "T41": _Family("q-1", None, True, ("m", "tails")),
    "C42": _Family("q-1", None, True, ("r", "i", "ell", "j", "mu")),
    "C44": _Family("q-1", None, True, ("m", "tails")),
    "C46": _Family("q-1", None, True, ("m", "tails")),
    "T48": _Family("q-1", None, True, ("m",)),
    "P49": _Family("q-1", None, True, ()),
    "P410": _Family("q-1", None, True, ()),
    "T51": _Family("q+1", 0, True, ("m", "tails")),
    "C52": _Family("q+1", 0, False, ("r", "i", "ell", "case", "mu")),
    "C56": _Family("q+1", 0, False, ("m",)),
    "T58": _Family("q+1", 1, True, ("m", "tails")),
    "C59": _Family("q+1", 1, False, ("r", "i", "ell", "case", "mu")),
    "C511": _Family("q+1", 1, False, ("m",)),
}
FAMILY_NAMES = tuple(_FAMILIES)


class BuildResult(NamedTuple):
    code: CyclicCode
    certificate: dict  # the JSON document `verify_certificate` reads


# ---------------------------------------------------------------------------
# Validation.  Each check appends a named clause when violated.


def _common_clauses(req: ConstructionRequest, side: str) -> list[str]:
    v = []
    if req.n < 1:
        v.append("n >= 1")
    if req.delta < 2:
        v.append("delta >= 2")
    if gcd(req.b, req.n) != 1:
        v.append("gcd(b, n) = 1")
    if gcd(req.n, req.q) != 1:
        v.append("gcd(n, q) = 1")
    if req.n >= 1 and (req.q - 1 if side == "q-1" else req.q + 1) % req.n != 0:
        v.append(f"n | {side}")
    return v


def _tail_clauses(req: ConstructionRequest) -> list[str]:
    v = []
    m, delta, n = req.m, req.delta, req.n
    if m is None or m < 1:
        v.append("m >= 1")
        return v
    if not req.tails:
        v.append("s >= 1")
        return v
    tails = req.tails
    if list(tails) != sorted(set(tails)):
        v.append("i_1 < i_2 < ... < i_s")
    if tails[0] < m - 1 + delta:
        v.append("m-1+delta <= i_1")
    if tails[-1] > n - delta:
        v.append("i_s <= n-delta")
    for a, b2 in zip(tails, tails[1:]):
        if b2 - a < delta:
            v.append("i_{l+1} - i_l >= delta")
            break
    return v


def _with_defaults(req: ConstructionRequest) -> ConstructionRequest:
    """The request with its optional indices filled in: i = 0, ell = 0, j = i,
    and m = 1 for P49 and P410, whose run-plus-blocks pattern is T48's at m = 1."""
    i = req.i if req.i is not None else 0
    m = 1 if req.family in ("P49", "P410") else req.m
    return replace(req, i=i, ell=req.ell if req.ell is not None else 0, j=req.j if req.j is not None else i, m=m)


def _block_count(req: ConstructionRequest, v: list[str]) -> Optional[int]:
    """nu = n/(r+delta-1) for C42, C52 and C59, or None after appending the
    clause that fails to `v`."""
    r = req.r
    if r is None or r < 1:
        v.append("r >= 1")
    elif r + req.delta - 1 < 1:
        pass  # only when delta < 2, a clause already named
    elif req.n % (r + req.delta - 1) != 0:
        v.append("(r+delta-1) | n")
    else:
        return req.n // (r + req.delta - 1)
    return None


def validate(req: ConstructionRequest) -> list[str]:
    """Named hypothesis violations; empty list means buildable."""
    fam = req.family
    if fam not in _FAMILIES:
        return [f"unknown family {fam!r}"]
    side, parity, shifted, reads = _FAMILIES[fam]
    unread = [name for name in OPTIONAL_FIELDS if getattr(req, name) not in (None, ()) and name not in reads]
    req = _with_defaults(req)
    n, delta = req.n, req.delta
    v = _common_clauses(req, side)
    if unread:
        v.append(f"{fam} reads no {', '.join(unread)}")
    if not shifted and req.t != 0:
        v.append("t = 0")
    if parity is not None and delta % 2 != parity:
        v.append("delta odd" if parity else "delta even")

    if fam in ("T41", "T51", "T58"):
        v += _tail_clauses(req)
    elif fam == "C42":
        r, nu = req.r, _block_count(req, v)
        if nu is not None:
            i, ell, j = req.i, req.ell, req.j
            if not 0 <= i <= r - 1:
                v.append("0 <= i <= r-1")
            ok1 = 0 <= ell <= nu - 3 and 0 <= j <= i
            ok2 = ell == nu - 2 and j == i
            if not (ok1 or ok2):
                v.append("(0 <= ell <= nu-3 and 0 <= j <= i) or (ell = nu-2 and j = i)")
    elif fam in ("C44", "C46"):
        m = req.m
        if fam == "C46" and delta != 2:
            v.append("delta = 2")
        if m is None or m < 1:
            v.append("m >= 1")
        elif len(req.tails) != 1:
            v.append("exactly one tail exponent")
        else:
            ell = req.tails[0]
            if fam == "C44" and not (m - 1 + delta <= ell <= n - delta):
                v.append("m-1+delta <= ell <= n-delta")
            if fam == "C46" and not (m + 1 <= ell <= n - 2):
                v.append("m+1 <= ell <= n-2")
    elif fam in ("T48", "P49", "P410"):
        m = req.m
        if fam == "P410" and n != 4 * delta + 2:
            v.append("n = 4*delta+2")
        if m is None or m < 1:
            v.append("m >= 1")
        elif n < (2 * m + 1) * delta:
            # the run-plus-blocks pattern must stay distinct mod n
            v.append("n >= (2m+1)*delta")
    elif fam in ("C52", "C59"):
        r, case = req.r, req.case
        nu = _block_count(req, v)
        if nu is not None:
            i, ell = req.i, req.ell
            if not 0 <= i <= (r - 1) // 2:
                v.append("0 <= i <= floor((r-1)/2)")
            if fam == "C52":
                if case not in (1, 2, 3):
                    v.append("case in {1,2,3}")
                elif case == 1 and not 0 <= ell <= (nu - 2) // 2:
                    v.append("0 <= ell <= floor((nu-2)/2)")
                elif case == 2:
                    if (r + delta - 1) % 2 != 0:
                        v.append("r+delta-1 even")
                    if not 0 <= ell <= (nu - 3) // 2:
                        v.append("0 <= ell <= floor((nu-3)/2)")
                elif case == 3:
                    if nu % 2 != 1:
                        v.append("nu odd")
                    elif not 1 <= ell <= (nu - 3) // 2:
                        v.append("1 <= ell <= (nu-3)/2")
            else:
                if case not in (1, 2):
                    v.append("case in {1,2}")
                else:
                    if (r + delta - 1) % 2 != 1:
                        v.append("r+delta-1 odd")
                    if case == 1 and not 0 <= ell <= (nu - 3) // 2:
                        v.append("0 <= ell <= floor((nu-3)/2)")
                    if case == 2:
                        if nu % 2 != 1:
                            v.append("nu odd")
                        elif not 1 <= ell <= (nu - 3) // 2:
                            v.append("1 <= ell <= (nu-3)/2")
    elif fam in ("C56", "C511"):
        m = req.m
        if n % 2 != 1:
            v.append("n odd")
        if m is None or m < 2 or m % 2 != 0:
            v.append("m even, m >= 2")
        if m is not None and not 2 <= delta <= (n - m + 1) // 2:
            v.append("2 <= delta <= (n-m+1)/2")
    return v


# ---------------------------------------------------------------------------
# Exponent-set assembly per family, on requests with `_with_defaults` applied.


def _run_set(ctx: CycContext, req: ConstructionRequest) -> ExponentSet:
    """The run set: delta-1 consecutive b-steps, from 0 when n | q-1.  When
    n | q+1 the defining set must be closed under q = -1, so the run is
    centred on 0 for even delta and on 1/2 for odd delta."""
    delta = req.delta
    if _FAMILIES[req.family].side == "q-1":
        steps = range(delta - 1)
    else:
        steps = range(-(delta - 3) // 2, (delta - 1) // 2 + 1)
    return ctx.exponent_set([e * req.b for e in steps])


def _anchor_exponents(req: ConstructionRequest) -> list[int]:
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


def _paper_values(req: ConstructionRequest) -> tuple[int, int, Optional[int], Optional[int]]:
    """The family theorem's values on a request with `_with_defaults` applied:
    the dimension k, the distance d, the pinned anchor dual distance, and the
    target block count ceil(k/r); None where the theorem fixes no value."""
    fam, n, delta, m = req.family, req.n, req.delta, req.m
    if fam in ("T41", "T51", "T58"):
        s = len(req.tails)
        return n - m + 1 - (s + 1) * (delta - 1), m + delta - 1, None, s + 1
    if fam in ("C44", "C46", "C56", "C511"):
        return n - m - 2 * delta + 3, m + delta - 1, None, None
    if fam in ("T48", "P49", "P410"):
        pinned = 2 * delta + 1 if fam == "P410" else None
        return n - m * delta - (m + 1) * (delta - 1), (m + 1) * delta, pinned, m + 1
    # C42, C52, C59: n splits into n/g blocks of g = r+delta-1 positions.  The
    # anchor's main run takes w whole blocks and c*i further exponents (c = 2
    # for the symmetric runs of C52 and C59); each taken block adds g to the
    # distance and each further exponent adds one to it and costs a dimension,
    # while every block left keeps r dimensions.  w is odd for C52 cases 2 and
    # 3 and for C59 case 1.
    g = req.r + delta - 1
    if fam == "C42":
        c, w = 1, req.ell
    else:
        c, w = 2, 2 * req.ell + ((fam == "C52") != (req.case == 1))
    blocks = n // g - w
    return blocks * req.r - c * req.i, delta + c * req.i + w * g, g, blocks


def _optimality(code: CyclicCode, req: ConstructionRequest, loc: dict, budget: int):
    """The optimality decision `build` and `verify_certificate` share, for a
    request with `_with_defaults` applied, its code and the code's locality
    record `loc` (the certificate's `locality` dict).

    The distance is settled with the family's witness and, when 1 <= r <= k,
    the Singleton-like bound as hint.  The side conditions are the target
    block count ceil(k/r) and, for C44, C56 and C511, an inequality on the
    anchor dual word weight.  Returns (distance result, bound value, distance
    claim, side conditions hold, optimal flag, certificate notes).
    """
    fam, n, k, r, dual = req.family, req.n, code.k, loc["r"], loc["dA_perp"]
    _, d_formula, _, blocks = _paper_values(req)
    notes = []
    if not loc["evidence"]["dual_exact"]:
        notes.append(
            f"anchor dual distance certified as <= {dual} by a subgroup "
            f"witness (run lower bound {loc['evidence']['dual_lower']}); repair groups remain sound"
        )
    cond = blocks is None or ceil(k / r) == blocks
    if not cond:
        notes.append(f"ceil(k/r) = {ceil(k / r)} differs from the target block count {blocks}")
    if fam in ("C44", "C56", "C511") and not req.delta - 2 < n - req.m - dual:
        # the inequality quantifies over the true dual distance; the witness
        # weight upper-bounds it, so a strict bound through the witness holds
        cond = False
        notes.append(f"delta-2 = {req.delta - 2} not below n-m-dual = {n - req.m - dual}")
    if fam == "P49" and not dual < n - 2 * req.delta + 1:
        notes.append(f"dual distance {dual} not below n-2*delta+1 = {n - 2 * req.delta + 1}")
    if not cond:
        notes.append(f"distance formula value {d_formula} retained as a claim, not certified optimal")

    singleton = bounds.singleton_like(n, k, r, loc["delta"]) if 1 <= r <= k else None
    res = min_distance(code, budget, witness=_witness(req)[0], upper=singleton)
    # C46 has two branches: its claim is whichever of m+1, m+2 the oracle certifies
    d_claim = res.exact if fam == "C46" else d_formula
    optimal = cond and singleton is not None and res.exact == singleton
    return res, singleton, d_claim, cond, optimal, notes


def _witness(req: ConstructionRequest) -> tuple[Optional[BettiSalaWitness], Optional[dict]]:
    """The run-plus-blocks lower-bound witness of the T48, P49 and P410 sets,
    and its certificate record."""
    if req.family not in ("T48", "P49", "P410"):
        return None, None
    w = BettiSalaWitness(u=req.t % req.n, b=req.b, m=req.m, delta=req.delta)
    return w, {"kind": "run_blocks", **asdict(w)}


def _assemble(req: ConstructionRequest) -> tuple[ConstructionRequest, ExponentSet, ExponentSet]:
    """Validate a request; return it with defaults filled in, and its anchor
    and run sets.  Raises HypothesisViolated."""
    clauses = validate(req)
    if clauses:
        raise HypothesisViolated(clauses)
    req = _with_defaults(req)
    ctx = cyc_context(req.q, req.n)
    exps = _anchor_exponents(req)
    anchor = ctx.exponent_set(exps)
    if len(anchor) != len(exps):
        raise HypothesisViolated(["anchor exponents collide mod n"])
    # mu is read only by C42, C52 and C59, whose validation requires r
    if req.mu is not None and _paper_values(req)[0] != req.mu * req.r:
        raise HypothesisViolated(["k = mu*r"])
    return req, anchor, _run_set(ctx, req)


def build(req: ConstructionRequest, budget: int = DEFAULT_BUDGET) -> BuildResult:
    """Build a family request end to end and certify it."""
    request = req.to_dict()
    req, anchor, run = _assemble(req)
    code = code_from_defining_set(anchor.ctx, product_set(anchor, run), base="subfield")
    k, _, pinned_dual, _ = _paper_values(req)
    if code.k != k:
        raise ConstructionInternalError(
            f"dimension formula gives {k} but the product set leaves {code.k}"
        )

    loc = locality_from_product(anchor, run, code, budget)
    if loc["dB"] != req.delta:
        raise ConstructionInternalError(f"run code distance {loc['dB']} differs from delta={req.delta}")
    if pinned_dual is not None and loc["dA_perp"] != pinned_dual:
        raise ConstructionInternalError(f"anchor dual distance {loc['dA_perp']} differs from the pinned {pinned_dual}")
    res, singleton_val, d_claim, cond, optimal, notes = _optimality(code, req, loc, budget)
    if cond and res.exact is not None and res.exact != d_claim:
        raise ConstructionInternalError(
            f"certified distance {res.exact} disagrees with the formula value {d_claim}"
        )
    if req.family == "C46":
        # optimality is guaranteed by the statement, so verify it
        if res.exact not in (req.m + 1, req.m + 2):
            raise ConstructionInternalError(
                f"distance {res.exact} outside the expected branch values "
                f"{{{req.m + 1}, {req.m + 2}}}"
            )
        if not optimal:
            raise ConstructionInternalError(
                "single-root-tail family failed its guaranteed optimality check"
            )

    r, delta = loc["r"], loc["delta"]
    opt = {
        "n": req.n,
        "k": k,
        "d_exact": res.exact,
        "d_lower": res.lower,
        "d_upper": res.upper,
        "d_claim": d_claim,
        "singleton_like_value": singleton_val,
        "r": r,
        "delta": delta,
        "optimal": optimal,
        "family": req.family,
        "request": request,
        "distance_method": res.method,
        "witness": _witness(req)[1],
        "divides": req.n % (r + delta - 1) == 0,
        "notes": notes,
    }
    return BuildResult(code, {"schema": CERTIFICATE_SCHEMA, "field": code.ctx.to_dict(), "code": code.to_dict(),
                              "locality": loc, "optimality": opt})


class MalformedCertificate(ValueError):
    """A document that does not have the shape of a certificate."""


def verify_certificate(cert: dict, budget: int = DEFAULT_BUDGET) -> list[tuple[str, str, str]]:
    """Re-derive every claim of a parsed JSON certificate: one (claim,
    status, detail) line per claim, with status agree, disagree or
    inconclusive (not settled within `budget`).

    The request is rebuilt through the assembly `build` uses; the locality
    record is re-derived by `check_locality_record`; the distance is
    recomputed with the request's witness and, once the locality holds, the
    Singleton-like bound; the bound, divisibility, optimal flag, distance
    claim and notes follow from those.  Raises MalformedCertificate.
    """
    try:
        return _verify(cert, budget)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise MalformedCertificate(f"{type(exc).__name__}: {exc}") from exc


def _verify(cert: dict, budget: int) -> list[tuple[str, str, str]]:
    info, loc, opt = cert["code"], cert["locality"], cert["optimality"]
    lines = [claim_line("schema", cert["schema"] == CERTIFICATE_SCHEMA,
                        f"claimed {cert['schema']!r}, supported {CERTIFICATE_SCHEMA}")]
    try:
        if [opt["request"]["q"], opt["request"]["n"]] != [info["q"], info["n"]]:
            raise HypothesisViolated(["request q and n are the code's q and n"])
        req, anchor, run = _assemble(ConstructionRequest.from_dict(opt["request"]))
    except HypothesisViolated as exc:
        return lines + [("request", "disagree", f"hypothesis violated: {exc}")]
    ctx, n = anchor.ctx, req.n
    code = code_from_defining_set(ctx, product_set(anchor, run), base="subfield")
    ev = loc["evidence"]
    rebuilt = [list(code.defining.exps), list(anchor.exps), list(run.exps), req.family, n]
    lines += [
        claim_line("field", cert["field"] == ctx.to_dict(), f"recomputed {ctx.to_dict()}, claimed {cert['field']}"),
        claim_line("request", [info["defining_exponents"], ev["anchor_exponents"], ev["run_exponents"],
                               opt["family"], opt["n"]] == rebuilt,
                   "rebuilt defining, anchor and run exponents, family and n"),
        claim_line("dimension", info["k"] == opt["k"] == code.k, f"recomputed {code.k}, claimed {info['k']}"),
        claim_line("generator polynomial", info["generator_coeffs"] == list(code.gen.coeffs)),
    ]

    loc_lines = check_locality_record(code, loc, budget)
    lines += loc_lines
    holds = all(status == "agree" for _, status, _ in loc_lines)  # loc's r, delta, dA_perp are re-derived
    r, delta = loc["r"], loc["delta"]
    lines.append(claim_line("locality copies", [opt["r"], opt["delta"]] == [r, delta],
                            f"optimality ({opt['r']}, {opt['delta']}), locality ({r}, {delta})"))

    witness, record = _witness(req)
    # betti_sala_lower raises unless the witness pattern lies in the defining set
    lower = None if witness is None else bounds.betti_sala_lower(code.defining, witness)
    lines.append(claim_line("witness", opt["witness"] == record, f"rebuilt {record}, lower bound {lower}"))
    if not holds:
        status = "inconclusive" if all(s != "disagree" for _, s, _ in loc_lines) else "disagree"
        return lines + [("optimality", status, "the distance sandwich, bound, flag and notes rest on the locality record")]
    res, singleton, d_claim, _, optimal, notes = _optimality(code, req, loc, budget)
    d = res.exact
    return lines + [
        _distance_line(opt, res),
        ("distance claim", "inconclusive", "distance not settled") if d_claim is None
        else claim_line("distance claim", opt["d_claim"] == d_claim, f"recomputed {d_claim}, claimed {opt['d_claim']}"),
        claim_line("singleton-like bound", opt["singleton_like_value"] == singleton, f"recomputed {singleton}"),
        claim_line("divides", opt["divides"] == (n % (r + delta - 1) == 0), f"(r+delta-1) = {r + delta - 1}, n = {n}"),
        ("optimal flag", "inconclusive", "distance not settled") if d is None and opt["optimal"] and opt["d_exact"] is not None
        else claim_line("optimal flag", opt["optimal"] == optimal, f"bound {singleton}, distance {d}"),
        claim_line("notes", opt["notes"] == notes, f"rebuilt {notes}"),
    ]


def _distance_line(opt: dict, res) -> tuple[str, str, str]:
    """Agree when the recomputed sandwich, distance and method are the
    recorded ones.  The upper bound does not depend on the budget, nor does
    the lower one once the distance is settled; where this budget leaves the
    distance open on either side, or settles it by another method, a
    consistent record is inconclusive."""
    claimed = [opt["d_lower"], opt["d_upper"], opt["d_exact"], opt["distance_method"]]
    got = [res.lower, res.upper, res.exact, res.method]
    detail = "recomputed [{},{}] exact {} ({}), claimed [{},{}] exact {} ({})".format(*got, *claimed)
    if claimed == got:
        return "distance", "agree", detail
    if None in (claimed[2], res.exact):
        a = [claimed[2]] * 2 if claimed[2] is not None else claimed[:2]
        b = [res.exact] * 2 if res.exact is not None else got[:2]
        consistent = claimed[1] == res.upper and max(a[0], b[0]) <= min(a[1], b[1])
    else:
        consistent = claimed[:3] == got[:3]
    return "distance", "inconclusive" if consistent else "disagree", detail
