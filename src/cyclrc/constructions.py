"""Parameterized factories for the optimal-LRC families.

Each family builds two exponent sets: an anchor set whose dual distance
fixes the repair-group size, and a consecutive run whose length fixes the
per-group erasure tolerance.  The code is the cyclic code defined by their
product.  Builders validate the family hypotheses by name, certify locality
through the product route, settle the distance through the bound sandwich or
an exact oracle, and only then decide the optimality flag.

Each family's shared hypotheses (the side n | q-1 or n | q+1, the delta
parity, whether the anchor takes the shift t, the optional fields read) are
one row of `_FAMILIES`.  Every anchor is one run plus tails, each corollary's
as the request of its theorem (`_run_and_tails`), and the theorem values
come from `_paper_values`, one formula per theorem.  They are cross-checked
against the constructed sets and oracles; a disagreement raises instead of
emitting a bad certificate.
`build` returns the code with its certificate, the JSON document (schema,
field, code, locality record, optimality record) that `verify_certificate`
reads; the two share one assembly (`_optimality`, `_certificate`).
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
    BudgetTooSmall,
    CyclicCode,
    DEFAULT_BUDGET,
    ExponentSet,
    check_budget,
    cyc_context,
    code_from_defining_set,
    min_distance,
    product_set,
)
from .locality import LOCALITY_CLAIMS, compare, locality_from_product, rederive_locality, report

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
        """The request of a JSON object: family a string, tails a list of
        ints, every other field an int, or null where the field defaults to
        None.  Raises HypothesisViolated on an unknown or mistyped field."""
        d = dict(d)
        tails = d.pop("tails", None)
        extra = set(d) - {f.name for f in fields(ConstructionRequest)}
        if extra:
            raise HypothesisViolated([f"unknown request fields {sorted(extra)}"])
        mistyped = [f.name for f in fields(ConstructionRequest) if f.name in d and not (
            type(d[f.name]) is (str if f.name == "family" else int) or (d[f.name] is None and f.default is None))]
        if tails is not None and (type(tails) not in (list, tuple) or not all(type(e) is int for e in tails)):
            mistyped.append("tails")
        if mistyped:
            raise HypothesisViolated([f"request fields {mistyped} are not of their types"])
        return ConstructionRequest(tails=tuple(tails or ()), **d)


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
    """Named hypothesis violations; empty list means buildable.  Once every
    other clause holds, anchor x run must be closed under multiplication by
    q mod n, checked on integers, so no context is built."""
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
    if not v:
        # the code's defining set, once the fields that fix it hold
        product = {(a + e) % n for a in _anchor_exponents(req) for e in _run_exponents(req)}
        if any(e * req.q % n not in product for e in product):
            v.append("anchor x run closed under multiplication by q mod n")
    return v


# ---------------------------------------------------------------------------
# Exponent-set assembly per family, on requests with `_with_defaults` applied.


def _run_exponents(req: ConstructionRequest) -> list[int]:
    """The run: delta-1 consecutive b-steps, from 0 when n | q-1.  When
    n | q+1 the defining set must be closed under q = -1, so the run is
    centred on 0 for even delta and on 1/2 for odd delta."""
    delta = req.delta
    if _FAMILIES[req.family].side == "q-1":
        steps = range(delta - 1)
    else:
        steps = range(-(delta - 3) // 2, (delta - 1) // 2 + 1)
    return [e * req.b for e in steps]


def _run_and_tails(req: ConstructionRequest) -> tuple[int, int, tuple[int, ...]]:
    """The anchor as its theorem's request (t, m, tails): the exponents t + e*b
    for 0 <= e < m and for e in tails.  C44 and C46 are T41 with one tail,
    C42 is T41 with a tail per block of r+delta-1; C52 and C56 are T51 and
    C59 and C511 T58, placed so the defining set stays closed under q = -1;
    T48's m+1 blocks are its tails.  Each branch gives the run lo..hi and the
    tails in b-steps from 0, before the request's shift t."""
    fam, n, delta, m = req.family, req.n, req.delta, req.m
    if fam in ("T48", "P49", "P410"):
        lo, hi, tails = 0, (m - 1) * delta + 1, [(m + u) * delta + 1 for u in range(m + 1)]
    elif fam in ("C56", "C511"):
        # a run of m centred on n/2 with a tail at n, or on -1/2 with a tail at (n-1)/2
        lo, tail = ((n - m + 1) // 2, n) if fam == "C56" else (-(m // 2), (n - 1) // 2)
        hi, tails = lo + m - 1, [tail]
    elif fam in ("C42", "C52", "C59"):
        r, i, ell = req.r, req.i, req.ell
        g = r + delta - 1
        nu = n // g
        if fam == "C42":
            lo, hi = 0, ell * g + i
            tails = [(ell + u) * g + req.j for u in range(1, nu - ell)]
        elif (fam, req.case) in (("C52", 1), ("C59", 2)):
            c = 0 if fam == "C52" else (n - 1) // 2
            lo, hi = c - (ell * g + i), c + ell * g + i
            tails = [c + u * g for u in range(ell + 1, nu - ell)]
        elif (fam, req.case) == ("C52", 2):
            h = g // 2
            lo, hi = -((2 * ell + 1) * h + i), (2 * ell + 1) * h + i
            tails = [(2 * u + 1) * h for u in range(ell + 1, nu - ell - 1)]
        elif fam == "C52":  # case 3
            lo, hi = ((nu - 1) // 2 - ell) * g - i, ((nu + 1) // 2 + ell) * g + i
            tails = [u * g for u in range((nu + 1) // 2 + ell + 1, (3 * nu - 1) // 2 - ell)]
        else:  # C59 case 1
            lo, hi = -((r + delta) // 2 + ell * g + i), (r + delta - 2) // 2 + ell * g + i
            tails = [(r + delta - 2) // 2 + u * g for u in range(ell + 1, nu - ell - 1)]
    else:
        lo, hi, tails = 0, m - 1, req.tails
    return req.t + lo * req.b, hi - lo + 1, tuple(e - lo for e in tails)


def _anchor_exponents(req: ConstructionRequest) -> list[int]:
    t, m, tails = _run_and_tails(req)
    return [t + e * req.b for e in (*range(m), *tails)]


def _paper_values(req: ConstructionRequest) -> tuple[int, int, Optional[int], Optional[int]]:
    """The family theorem's values on a request with `_with_defaults` applied:
    the dimension k, the distance d, the pinned anchor dual distance, and the
    target block count ceil(k/r); None where the theorem fixes no value.  A
    run of m with s tails has k = n-m+1-(s+1)(delta-1), d = m+delta-1 and
    s+1 target blocks; C44, C46, C56 and C511 fix no block count."""
    fam, n, delta, m = req.family, req.n, req.delta, req.m
    pinned = req.r + delta - 1 if fam in ("C42", "C52", "C59") else 2 * delta + 1 if fam == "P410" else None
    if fam in ("T48", "P49", "P410"):
        return n - m * delta - (m + 1) * (delta - 1), (m + 1) * delta, pinned, m + 1
    _, m, tails = _run_and_tails(req)
    s = len(tails)
    blocks = None if fam in ("C44", "C46", "C56", "C511") else s + 1
    return n - m + 1 - (s + 1) * (delta - 1), m + delta - 1, pinned, blocks


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


def _assemble(req: ConstructionRequest,
              budget: int = DEFAULT_BUDGET) -> tuple[ConstructionRequest, ExponentSet, ExponentSet]:
    """Validate a request; return it with defaults filled in, and its anchor
    and run sets.  Raises HypothesisViolated, and then BudgetTooSmall for a
    budget below n^2, before any context is built."""
    clauses = validate(req)
    if clauses:
        raise HypothesisViolated(clauses)
    req = _with_defaults(req)
    exps = _anchor_exponents(req)
    if len({e % req.n for e in exps}) != len(exps):
        raise HypothesisViolated(["anchor exponents collide mod n"])
    # mu is read only by C42, C52 and C59, whose validation requires r
    if req.mu is not None and _paper_values(req)[0] != req.mu * req.r:
        raise HypothesisViolated(["k = mu*r"])
    check_budget(req.n, budget)
    ctx = cyc_context(req.q, req.n)
    return req, ctx.exponent_set(exps), ctx.exponent_set(_run_exponents(req))


def build(req: ConstructionRequest, budget: int = DEFAULT_BUDGET) -> BuildResult:
    """Build a family request end to end and certify it."""
    request = req
    req, anchor, run = _assemble(req, budget)
    code = code_from_defining_set(anchor.ctx, product_set(anchor, run), base="subfield")
    loc = locality_from_product(anchor, run, code, budget)
    cert, broken = _certificate(request, req, code, loc, _optimality(code, req, loc, budget))
    if broken:
        raise ConstructionInternalError(broken[0][2])
    return BuildResult(code, cert)


def _certificate(request: ConstructionRequest, req: ConstructionRequest, code: CyclicCode, loc: dict,
                 decision) -> tuple[dict, list]:
    """The one assembly of the certificate, from the request (and `req`, with
    defaults), its code, locality record and `_optimality` decision (None
    leaves the optimality record out); and a finding for each formula they
    break, on which `build` raises and which `verify_certificate` reports."""
    k, _, pinned, _ = _paper_values(req)
    found = [(claim, "disagree", detail) for ok, claim, detail in (
        (code.k == k, "dimension", f"dimension formula gives {k} but the product set leaves {code.k}"),
        (loc["dB"] == req.delta, "locality r and delta",
         f"run code distance {loc['dB']} differs from delta={req.delta}"),
        (pinned in (None, loc["dA_perp"]), "anchor dual bounds",
         f"anchor dual distance {loc['dA_perp']} differs from the pinned {pinned}"),
    ) if not ok]
    cert = {"schema": CERTIFICATE_SCHEMA, "field": code.ctx.to_dict(), "code": code.to_dict(), "locality": loc,
            "optimality": None}
    if decision is None:
        return cert, found
    res, singleton, d_claim, cond, optimal, notes = decision
    if cond and res.exact not in (None, d_claim):
        found.append(("distance claim", "disagree",
                      f"certified distance {res.exact} disagrees with the formula value {d_claim}"))
    if req.family == "C46" and not (optimal and res.exact in (req.m + 1, req.m + 2)):
        # optimality is guaranteed by the statement, so verify it; a distance
        # this budget leaves open is only inconclusive
        found.append(("optimal flag", "disagree" if res.exact is not None else "inconclusive",
                      f"single-root-tail family not certified optimal at distance {res.exact} "
                      f"(expected {req.m + 1} or {req.m + 2})"))
    r, delta = loc["r"], loc["delta"]
    cert["optimality"] = {
        "n": req.n, "k": code.k, "d_exact": res.exact, "d_lower": res.lower, "d_upper": res.upper,
        "d_claim": d_claim, "singleton_like_value": singleton, "r": r, "delta": delta, "optimal": optimal,
        "family": req.family, "request": request.to_dict(), "distance_method": res.method,
        "witness": _witness(req)[1], "divides": req.n % (r + delta - 1) == 0, "notes": notes,
    }
    return cert, found


class MalformedCertificate(ValueError):
    """A document that does not have the shape of a certificate."""


# the report line of each certificate leaf, by its path in the certificate
CLAIMS = {
    "schema": ("schema",), "field": ("field",),
    "request": ("code.q", "code.n", "code.defining_exponents", "optimality.request", "optimality.family",
                "optimality.n"),
    "dimension": ("code.k", "optimality.k"), "generator polynomial": ("code.generator_coeffs",),
    **{claim: tuple(f"locality.{path}" for path in paths) for claim, paths in LOCALITY_CLAIMS.items()},
    **{claim: tuple(f"optimality.{key}" for key in keys.split()) for claim, keys in (
        ("locality copies", "r delta"), ("witness", "witness"), ("distance", "d_lower d_upper d_exact distance_method"),
        ("distance claim", "d_claim"), ("singleton-like bound", "singleton_like_value"), ("divides", "divides"),
        ("optimal flag", "optimal"), ("notes", "notes"))},
}


def verify_certificate(cert: dict, budget: int = DEFAULT_BUDGET) -> list[tuple[str, str, str]]:
    """Re-derive every claim of a parsed JSON certificate: one (claim,
    status, detail) line per claim of `CLAIMS`, with status agree, disagree
    or inconclusive (not settled within `budget`).

    Only the request, h0_word and dual_exact are read; the rest is rebuilt
    from them through `build`'s assembly, after the oracle checks of
    `rederive_locality`, and compared with the certificate, types included.
    Raises MalformedCertificate, or BudgetTooSmall when `budget` cannot
    cover the distance bound scan.
    """
    try:
        return _verify(cert, budget)
    except BudgetTooSmall:
        raise
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise MalformedCertificate(f"{type(exc).__name__}: {exc}") from exc


def _verify(cert: dict, budget: int) -> list[tuple[str, str, str]]:
    claimed_loc, claimed_opt = cert["locality"], cert["optimality"]
    try:
        request = ConstructionRequest.from_dict(claimed_opt["request"])
        req, anchor, run = _assemble(request, budget)
    except HypothesisViolated as exc:
        return [("request", "disagree", f"hypothesis violated: {exc}")]
    code = code_from_defining_set(anchor.ctx, product_set(anchor, run), base="subfield")
    evidence = claimed_loc["evidence"]
    found, loc = rederive_locality(code, anchor, run, evidence["h0_word"], evidence["dual_exact"], budget)
    holds = all(status == "agree" for _, status, _ in found)
    decision = _optimality(code, req, loc, budget) if holds else None
    rebuilt, broken = _certificate(request, req, code, loc or claimed_loc, decision)
    if decision is None:
        found += [(claim, "inconclusive", "not checked: rests on the locality record")
                  for claim, paths in CLAIMS.items() if all(p.startswith("optimality.") for p in paths)]
        rebuilt["optimality"] = claimed_opt
    else:
        found += _budget_findings(claimed_opt, rebuilt["optimality"])
    return report(CLAIMS, found + broken + compare(cert, rebuilt, CLAIMS))


_DISTANCE_LEAVES = ("d_lower", "d_upper", "d_exact", "distance_method")


def _budget_findings(claimed: dict, rebuilt: dict) -> list:
    """The distance finding, inconclusive where this budget leaves the
    distance open on either side, or settles it by another method,
    consistently with the claim; then the C46 distance claim and the optimal
    flag, which rest on the distance, are inconclusive too.  Each leaf so
    explained is copied into `rebuilt`, so the comparison passes it."""
    got = [rebuilt[key] for key in _DISTANCE_LEAVES]
    claim = [claimed.get(key) for key in _DISTANCE_LEAVES]
    detail = "recomputed [{},{}] exact {} ({}), claimed [{},{}] exact {} ({})".format(*got, *claim)
    found = [("distance", "agree", detail)]
    typed = type(claim[0]) is type(claim[1]) is int and type(claim[2]) in (int, type(None)) and type(claim[3]) is str
    if not typed or claim == got:
        return found
    (a0, a1), (b0, b1) = ([v[2]] * 2 if v[2] is not None else v[:2] for v in (claim, got))
    # the upper bound does not depend on the budget, nor the lower one once the distance is settled
    if claim[1] != got[1] or max(a0, b0) > min(a1, b1) or None not in (claim[2], got[2]) and claim[0] != got[0]:
        return found
    found.append(("distance", "inconclusive", detail))
    rebuilt.update(zip(_DISTANCE_LEAVES, claim))
    if rebuilt["d_claim"] is None and type(claimed.get("d_claim")) is int:
        found.append(("distance claim", "inconclusive", "distance not settled"))
        rebuilt["d_claim"] = claimed["d_claim"]
    if got[2] is None and claimed.get("optimal") is True and claim[2] is not None:
        found.append(("optimal flag", "inconclusive", "distance not settled"))
        rebuilt["optimal"] = True
    return found
