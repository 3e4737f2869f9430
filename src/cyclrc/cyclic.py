"""Cyclic codes over GF(q) given by exponent sets of roots of unity.

A CycContext fixes the base field size q, the length n with gcd(n, q) = 1,
and the ambient field GF(q^d) (d the order of q mod n) containing all n-th
roots of unity.  Exponent sets live in Z_n; codes carry their generator
polynomial over the ambient field with coefficients verified to lie in the
base field when the code is declared over it.

Minimum distances and minimum-weight words come from one dispatcher,
`_settle`, which runs the exact strategies in order of estimated cost:

* message-space enumeration (dimension small), with no product in its loop:
  every multiple of every generator row is formed once, one block holds
  every combination of the last rows, and each step weighs the block plus
  an offset word, kept by one subtraction and one addition per changed
  digit, by comparing the block with the negated offset;
  the order of enumeration cannot change a certificate, because
  minimum-weight words with one support are proportional,
* zero-core enumeration for codes over the ambient field: every codeword is
  an evaluation of a polynomial supported on the nonzero exponents, and any
  minimum-weight word, after a cyclic shift, vanishes on k-1 points that
  include 0 and whose evaluation rows have rank k-1; so the kernel vectors
  of those (k-1)-subsets hit every word.  They are read off in pencils: a
  lex-ordered prefix walk eliminates each prefix, 0 and k-3 more points,
  once, one pivot step from its parent's rows, and leaves two evaluation
  rows vanishing on it; their combination that vanishes at a last point t
  vanishes exactly at the common zeros and where t's ratio of the two
  evaluations recurs, so one sort of those ratios counts every last point
  at once,
* a support climb that tests parity-check columns for dependence, one weight
  at a time from the lower bound up to the upper bound, on the same prefix
  walk; a cyclic shift takes every dependent set through coordinate 0, so
  only those supports are tried.

Both scans over the walk start from the smallest gap: z points mod n have
two cyclically consecutive ones at most n // z apart, and the shift that
moves the first of them to 0 puts the next point at or below n // z, so the
walk's first point past 0 stays within that bound.

One cost model ranks them: the enumerations by their whole cost, which must
fit the budget, and the climb by its whole cost up to the upper bound, though
it is admitted when its first step fits.  The climb is cut where the budget
runs out and reports the lower bound it reached, so `min_distance` falls back
to a certified (lower, upper) sandwich, and `min_weight_word` raises.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb, gcd
from typing import Optional

import numpy as np

from . import bounds, linalg
from .field import FieldSpec, field_create, ord_mod, prime_power_split, primitive_nth_root
from .poly import Polynomial, product_from_roots

DEFAULT_BUDGET = 10**8


class NotQClosed(ValueError):
    pass


class CoefficientLeak(RuntimeError):
    pass


class BudgetTooSmall(ValueError):
    """Contractual: the bound computation itself never exceeds any sane budget."""


def check_budget(n: int, budget: int) -> None:
    """Refuse a budget below n^2, which cannot cover a length-n code's O(n^2)
    bound scan."""
    if budget < n * n:
        raise BudgetTooSmall(f"budget {budget} cannot cover the O(n^2) bound scan")


class BudgetExceededInconclusive(RuntimeError):
    """No exact oracle fits the work budget: the answer is inconclusive, not false."""


class InvariantViolated(RuntimeError):
    """An internal invariant failed; nothing built on it may be certified."""


class BoundInversion(InvariantViolated):
    """A lower bound on a distance exceeds its upper bound."""


@lru_cache(maxsize=None)
def cyc_context(q: int, n: int) -> "CycContext":
    return CycContext(q, n)


class CycContext:
    """Length-n cyclic code environment over GF(q) and its ambient field."""

    def __init__(self, q: int, n: int):
        p, m = prime_power_split(q)
        if n < 1 or gcd(n, q) != 1:
            raise ValueError(f"need gcd(n, q) = 1, got n={n}, q={q}")
        self.q = q
        self.n = n
        self.p = p
        self.m = m
        self.d = ord_mod(q, n)
        self.field = field_create(p, m * self.d)
        self.alpha = primitive_nth_root(self.field, n)
        self._alpha_log = int(self.field._log[self.alpha])
        # which ambient elements lie in GF(q), for the generator check
        self.in_base = np.zeros(self.field.q, dtype=bool)
        self.in_base[self.field.subfield_elements(q)] = True
        # per-context caches: codes by (exponents, base), run bounds by
        # exponents, anchor dual words by (exponents, budget), and the run
        # bound's unit steps and inverses
        self._code_cache: dict = {}
        self._bch_cache: dict = {}
        self._unit_steps: Optional[tuple[list[int], np.ndarray]] = None
        self._dual_word_cache: dict = {}

    def root_powers(self, exps, mults) -> np.ndarray:
        """Matrix alpha^(e*i) for e in exps (rows) and i in mults (cols)."""
        e = np.asarray(exps, dtype=np.int64).reshape(-1, 1)
        i = np.asarray(mults, dtype=np.int64).reshape(1, -1)
        return self.field.vpow_gen(self._alpha_log * (e * i % self.n))

    def exponent_set(self, exps) -> "ExponentSet":
        return ExponentSet.of(self, exps)

    def to_dict(self) -> dict:
        """The certificate's `field` record: base and ambient field, and the
        modulus that fixes the ambient field's element indices."""
        F = self.field
        return {"base": f"{self.p}^{self.m}", "ambient": f"{F.p}^{F.m}", "ambient_modulus": list(F.modulus)}

    def __repr__(self):
        return f"CycContext(q={self.q}, n={self.n}, ambient=GF({self.field.q}))"


@dataclass(frozen=True)
class ExponentSet:
    """Sorted distinct residues mod n standing for a set of n-th roots."""

    ctx: CycContext
    exps: tuple[int, ...]

    @staticmethod
    def of(ctx: CycContext, exps) -> "ExponentSet":
        return ExponentSet(ctx, tuple(sorted({int(e) % ctx.n for e in exps})))

    def __len__(self):
        return len(self.exps)

    def __iter__(self):
        return iter(self.exps)

    def complement(self) -> "ExponentSet":
        full = set(range(self.ctx.n))
        return ExponentSet.of(self.ctx, full - set(self.exps))

    def negate(self) -> "ExponentSet":
        return ExponentSet.of(self.ctx, [-e for e in self.exps])


def cyclotomic_coset(s: int, ctx: CycContext) -> ExponentSet:
    """Orbit of s under multiplication by q modulo n."""
    n, q = ctx.n, ctx.q
    s %= n
    out = [s]
    x = (s * q) % n
    while x != s:
        out.append(x)
        x = (x * q) % n
    return ExponentSet.of(ctx, out)


def all_cyclotomic_cosets(ctx: CycContext) -> list[ExponentSet]:
    seen: set[int] = set()
    out = []
    for s in range(ctx.n):
        if s not in seen:
            c = cyclotomic_coset(s, ctx)
            seen.update(c.exps)
            out.append(c)
    return out


def is_q_closed(S: ExponentSet) -> bool:
    n, q = S.ctx.n, S.ctx.q
    have = set(S.exps)
    return all((e * q) % n in have for e in have)


def product_set(A: ExponentSet, B: ExponentSet) -> ExponentSet:
    """Exponent-level sumset, equal to the root-level product set."""
    if A.ctx is not B.ctx:
        raise ValueError("product of exponent sets from different contexts")
    n = A.ctx.n
    return ExponentSet.of(A.ctx, [(a + b) % n for a in A.exps for b in B.exps])


def support_orbit(support, n: int) -> list[tuple[int, tuple[int, ...]]]:
    """The distinct cyclic shifts of a nonempty support mod n, as (shift,
    shifted support) pairs sorted by support; the first is the lex-first
    shift, and it contains 0.

    The shifts fixing a support are the multiples of its period p, the least
    divisor of n with support + p = support, so shifts 0..p-1 give the orbit.
    """
    sup = sorted({int(i) % n for i in support})
    if not sup:
        raise ValueError("an empty support has no shift orbit")
    members = set(sup)
    period = next(p for p in range(1, n + 1) if n % p == 0 and all((i + p) % n in members for i in sup))
    return sorted(((s, tuple(sorted((i + s) % n for i in sup))) for s in range(period)), key=lambda e: e[1])


@dataclass
class DistanceResult:
    lower: int
    upper: int
    exact: Optional[int]
    method: str
    undefined: bool = False

    def __post_init__(self):
        if not self.undefined and self.exact is not None:
            if not self.lower <= self.exact <= self.upper:
                raise BoundInversion(
                    f"exact distance {self.exact} outside [{self.lower}, {self.upper}] ({self.method})"
                )


class CyclicCode:
    """Cyclic code fixed by a complete defining set of root exponents."""

    def __init__(self, ctx: CycContext, defining: ExponentSet, base_q: int, gen: Polynomial):
        self.ctx = ctx
        self.defining = defining
        self.base_q = base_q
        self.gen = gen
        self.k = ctx.n - len(defining)
        self._dual: Optional[CyclicCode] = None
        self._gen_matrix: Optional[np.ndarray] = None

    # -- basic structure ----------------------------------------------------

    @property
    def n(self) -> int:
        return self.ctx.n

    @property
    def field(self) -> FieldSpec:
        return self.ctx.field

    @property
    def base_elements(self) -> np.ndarray:
        return self.field.subfield_elements(self.base_q)

    def generator_matrix(self) -> np.ndarray:
        if self._gen_matrix is None:
            n, k = self.n, self.k
            G = np.zeros((k, n), dtype=np.int64)
            cs = np.array(self.gen.coeffs, dtype=np.int64)
            for i in range(k):
                G[i, i : i + len(cs)] = cs
            self._gen_matrix = G
        return self._gen_matrix

    def parity_check_matrix(self) -> np.ndarray:
        """Generator matrix of the dual; full rank n-k."""
        return self.dual_code().generator_matrix()

    def encode(self, msg) -> np.ndarray:
        msg = [int(x) for x in msg]
        if len(msg) != self.k:
            raise ValueError(f"message length {len(msg)} differs from k={self.k}")
        mp = Polynomial.make(self.field, msg)
        cw = mp * self.gen
        out = np.zeros(self.n, dtype=np.int64)
        out[: len(cw.coeffs)] = cw.coeffs
        return out

    def to_dict(self) -> dict:
        return {
            "q": self.base_q,
            "n": self.n,
            "defining_exponents": list(self.defining.exps),
            "generator_coeffs": list(self.gen.coeffs),
            "k": self.k,
        }

    def __repr__(self):
        return f"CyclicCode([{self.n},{self.k}] over GF({self.base_q}))"

    def is_orthogonal(self, rows) -> bool:
        """True iff every row of `rows` (length n each) is orthogonal to the
        code: its cyclic correlation with the coefficients of g, the sum over
        j of g_j * row_(i+j mod n), vanishes at every shift i.  The shifts of
        g span the code, so this is exactly orthogonality, in O(rows * n *
        deg g) work and O(rows * n) memory.  Window j of the doubled rows is
        the rows shifted by j; coefficient n of the zero code's g = x^n - 1
        wraps to 0, so that code passes every row."""
        F, n = self.field, self.n
        rows = np.asarray(rows, dtype=np.int64)
        doubled = np.concatenate([rows, rows], axis=1)
        acc = np.zeros(rows.shape, dtype=np.int64)
        for j, c in enumerate(self.gen.coeffs):
            if c:
                acc = F.vadd(acc, F.vmul(c, doubled[:, j : j + n]))
        return not acc.any()

    # -- derived codes ------------------------------------------------------

    def dual_code(self) -> "CyclicCode":
        """The code of defining set -(Z_n minus S), of dimension n-k; its
        generator, orthogonal to this code, proves it is the dual."""
        if self._dual is None:
            dual = code_from_defining_set(
                self.ctx, self.defining.complement().negate(),
                base="subfield" if self.base_q == self.ctx.q else "extension",
            )
            # the zero dual (k = n) has g = x^n - 1, which no length-n row holds
            if dual.k and not self.is_orthogonal([dual.gen._array(self.n)]):
                raise CoefficientLeak("dual generator is not orthogonal to the code")
            self._dual = dual
        return self._dual

    def complement_code(self) -> "CyclicCode":
        comp = self.defining.complement()
        return code_from_defining_set(
            self.ctx, comp, base="subfield" if self.base_q == self.ctx.q else "extension"
        )


def code_from_defining_set(ctx: CycContext, S: ExponentSet, base: str = "subfield") -> CyclicCode:
    """Build the cyclic code whose generator vanishes exactly on S's roots.

    Codes are immutable and cached per context, so repeated requests (duals,
    complements, sweep revisits) share one object and its lazy matrices.
    """
    if base not in ("subfield", "extension"):
        raise ValueError("base must be 'subfield' or 'extension'")
    cached = ctx._code_cache.get((S.exps, base))
    if cached is not None:
        return cached
    if base == "subfield" and not is_q_closed(S):
        bad = next(e for e in S.exps if (e * ctx.q) % ctx.n not in set(S.exps))
        coset = cyclotomic_coset(bad, ctx)
        raise NotQClosed(
            f"defining set is not closed under multiplication by {ctx.q} mod {ctx.n}: "
            f"exponent {bad} needs the full coset {list(coset.exps)}"
        )
    gen = product_from_roots(ctx.field, ctx.root_powers([1], S.exps)[0])
    base_q = ctx.q if base == "subfield" else ctx.field.q
    if base == "subfield":
        # one gather of the context's mask, where np.isin took ten times as long
        inside = ctx.in_base[np.array(gen.coeffs, dtype=np.int64)]
        if not inside.all():
            raise CoefficientLeak(
                f"generator coefficient {gen.coeffs[inside.argmin()]} escapes GF({ctx.q}) despite closed defining set"
            )
    code = CyclicCode(ctx, S, base_q, gen)
    ctx._code_cache[(S.exps, base)] = code
    return code


# ---------------------------------------------------------------------------
# Distance strategies.


def min_distance(code: CyclicCode, budget: int = DEFAULT_BUDGET, witness=None,
                 upper: Optional[int] = None) -> DistanceResult:
    n, k = code.n, code.k
    check_budget(n, budget)
    if k == 0:
        return DistanceResult(0, 0, None, "sandwich", undefined=True)
    bch_val, _w = bounds.bch_lower(code.defining)
    lower = bch_val
    lower_tag = "bch"
    if witness is not None:
        bs = bounds.betti_sala_lower(code.defining, witness)
        if bs > lower:
            lower = bs
            lower_tag = "betti_sala"
    # `upper` is a caller's proven bound, used where it beats Singleton's
    if upper is None or upper >= n - k + 1:
        upper, upper_tag = n - k + 1, "singleton"
    else:
        upper_tag = "singleton_like"
    if lower > upper:
        raise BoundInversion(f"bound inversion: {lower} ({lower_tag}) > {upper} ({upper_tag})")
    if lower == upper:
        return DistanceResult(lower, upper, lower, "sandwich")
    d, _, method, reached = _settle(code, lower, upper, budget, want_words=False)
    if d is not None:
        return DistanceResult(lower, upper, d, method)
    if reached == upper:
        return DistanceResult(reached, upper, upper, "sandwich")
    return DistanceResult(reached, upper, None, lower_tag if reached == lower else "low_weight")


def min_weight_word(code: CyclicCode, budget: int = DEFAULT_BUDGET):
    """Exact minimum weight plus a canonical achieving word.

    Returns (d, word, support) with the word scaled to leading coefficient 1
    and the support lexicographically smallest among all minimum-weight
    codewords (including cyclic shifts).  Raises if no exact strategy fits.
    """
    n, k = code.n, code.k
    if k == 0:
        raise ValueError("zero code has no nonzero codeword")
    bch_val, _ = bounds.bch_lower(code.defining)
    d, words, _, _ = _settle(code, bch_val, n - k + 1, budget, want_words=True)
    if d is None:
        raise BudgetExceededInconclusive(
            f"no exact minimum-weight strategy fits budget {budget} for [{n},{k}]"
        )
    sup, word = _canonical_word(code.field, words)
    return d, word, sup


def _canonical_word(F: FieldSpec, words):
    """(support, word) with the lexicographically smallest support among the
    words and all their cyclic shifts, the word scaled to leading coefficient 1.

    A shift that moves support point i to 0 lists the support as the partial
    sums of its cyclic gap sequence read from i, so shifted supports compare
    as those rotations do, and each word's lex-first shift starts at the
    least rotation, found in O(w) by `_least_rotation`.  The words have
    minimum weight, so two with one support are proportional and the scaled
    word does not depend on which word or shift reached it."""
    best = None
    for w in words:
        n, sup = len(w), np.flatnonzero(w)
        j = _least_rotation(np.diff(sup, append=sup[0] + n).tolist())
        shifted = tuple(np.roll((sup - sup[j]) % n, -j).tolist())
        if best is None or shifted < best[0]:
            best = shifted, w, -int(sup[j]) % n
    sup, word, shift = best
    return sup, _normalize_word(F, np.roll(word, shift))


def _least_rotation(seq: list[int]) -> int:
    """Start of the lexicographically least rotation of seq, by Booth's
    algorithm: one failure-function pass over seq + seq."""
    s = seq + seq
    fail = [-1] * len(s)
    k = 0  # start of the least rotation so far
    for j in range(1, len(s)):
        c = s[j]
        i = fail[j - k - 1]
        while i != -1 and c != s[k + i + 1]:
            if c < s[k + i + 1]:
                k = j - i - 1
            i = fail[i]
        if c != s[k + i + 1]:  # then i == -1
            if c < s[k]:
                k = j
            fail[j - k] = -1
        else:
            fail[j - k] = i + 1
    return k


def _settle(code: CyclicCode, lower: int, upper: int, budget: int, want_words: bool):
    """The one strategy dispatcher for a distance known to lie in [lower, upper].

    Strategies run in order of estimated cost, each only if it fits the
    budget.  The support climb is ranked by its whole cost up to `upper` but
    admitted when its first step fits: it usually stops far below the
    ceiling, and it is cut where the budget runs out.  Returns (d or None,
    minimum-weight words if `want_words`, method, lower bound reached).
    """
    n, k = code.n, code.k
    try:
        exhaustive = float(code.base_q**k) * n
    except OverflowError:
        exhaustive = float("inf")
    zero_core = float("inf")
    if code.base_q == code.ctx.field.q and k >= 2:
        zero_core = float(comb(n - 1, k - 2)) * (k * (k - 1) ** 2 + n * k)
    climb = sum(linalg.column_scan_cost(n, n - k, w) for w in range(lower, upper + 1))
    costs = {"exhaustive": exhaustive, "zero_core": zero_core, "low_weight": climb}
    entry = {**costs, "low_weight": linalg.column_scan_cost(n, n - k, lower)}
    for method in sorted(costs, key=costs.get):
        if entry[method] > budget:
            continue
        if method == "exhaustive":
            d, words = _exhaustive_scan(code, early_stop_at=lower, want_words=want_words)
        elif method == "zero_core":
            d, words = _zero_core_scan(code, want_words=want_words)
        else:
            d, word, reached = _support_climb(code, lower, upper, budget)
            if d is None:
                return None, [], method, reached
            words = [word]
        return d, words, method, lower
    return None, [], None, lower


def has_weight_at_most(code: CyclicCode, w: int, budget: int = DEFAULT_BUDGET) -> bool:
    """True iff a nonzero codeword of weight at most w exists.

    Decided by scanning size-w supports for dependent parity-check columns:
    any lighter word's support extends to such a dependent set.  The code is
    cyclic, so only supports through coordinate 0 whose second point is at
    most n // w are scanned (`_dependent_support`).
    """
    n, k = code.n, code.k
    if w < 0 or w > n:
        raise ValueError(f"weight {w} outside 0..{n}")
    if w == 0 or k == 0:
        return False
    if w > n - k:
        return True  # any n-k+1 columns of a rank n-k matrix are dependent
    return _dependent_support(code, w, budget) is not None


def _dependent_support(code: CyclicCode, w: int, budget: float):
    """One step of the support climb: the lex-first size-w support of
    dependent parity-check columns, or None; raises if the scan exceeds budget.

    Only supports through coordinate 0 whose second point is at most n // w
    are scanned.  Dependent column sets are closed under cyclic shifts (a
    shifted word's support is the shifted support), and the sets through 0
    come first in lex order.  The rows of H are shifts of the dual
    generator, so column 0 of H is h(0) e_0 with h(0) != 0, and {0} + T is
    dependent exactly when the columns T of H[1:] are.

    The cut loses nothing the climb reads.  If some word has weight below
    w, a shift of its support holds 0, and adding 1 and more points makes a
    dependent w-set through {0, 1}, which the cut scan reaches; so None
    still means no word of weight at most w.  At the first dependent weight
    w = d, the dependent w-sets are the minimum-weight supports; the w gaps
    of one sum to n, so a shift starts its smallest gap, at most n // d, at
    0, and the lex-first support through 0, whose second point is the least
    of all of them, lies in the cut.  The budget check still prices all
    C(n, w) supports on purpose, as `column_scan_cost` does, so the
    strategy ranking and the climb's budget stay as they were.
    """
    cost = linalg.column_scan_cost(code.n, code.n - code.k, w)
    if cost > budget:
        raise BudgetExceededInconclusive(
            f"support scan at weight {w} needs ~{cost:.2e} ops, budget {budget:.2e}"
        )
    H = code.parity_check_matrix()
    if len(H) == 0:  # k = n: no parity checks, so every column is zero
        return tuple(range(w))
    if H[0, 0] == 0 or H[1:, 0].any():
        raise InvariantViolated("parity-check column 0 is not a multiple of e_0")
    rest = linalg.first_dependent_columns(code.field, H[1:, 1:], w - 1, lead=code.n // w)
    return None if rest is None else (0, *(c + 1 for c in rest))


def _support_climb(code: CyclicCode, lower: int, upper: int, budget: int):
    """Climb weights from `lower` until a dependent support turns up or the
    budget runs out; returns (exact or None, word, lower bound reached)."""
    F = code.field
    n, k = code.n, code.k
    for w in range(lower, upper + 1):
        try:
            sup = _dependent_support(code, w, budget)
        except BudgetExceededInconclusive:
            return None, None, w
        budget -= linalg.column_scan_cost(n, n - k, w)
        if sup is not None:
            ker = linalg.nullspace(F, code.parity_check_matrix()[:, list(sup)])
            if ker.shape[0] == 0:
                raise InvariantViolated(f"dependent support {sup} has a trivial kernel")
            word = np.zeros(n, dtype=np.int64)
            word[list(sup)] = ker[0]
            return w, _normalize_word(F, word), w
    raise InvariantViolated(
        f"no dependent support up to certified upper bound {upper} ([{n},{k}])"
    )


def _normalize_word(F: FieldSpec, word: np.ndarray) -> np.ndarray:
    nz = np.nonzero(word)[0]
    if len(nz) == 0:
        return word
    lead = int(word[nz[0]])
    if lead != 1:
        word = F.vdiv_nz(word, lead)
    return word


def _exhaustive_scan(code: CyclicCode, early_stop_at: Optional[int] = None, want_words: bool = False,
                     chunk: int = 1 << 15):
    """Enumerate the message space; returns (min weight, words of that weight).

    The loop forms no product.  Every multiple of every generator row is
    formed once, as a (k, q_b, n) table.  One block holds every combination
    of the last j rows, j the most rows whose q_b^j words fit in `chunk` (at
    least one row).  A mixed-radix counter steps the first k-j rows: each
    changed digit swaps its row's multiple in the offset word by one vsub and
    one vadd.  Each step weighs block + offset without forming it: a word's
    weight is the number of coordinates where the block differs from
    -offset, one comparison per element, and only the rows of minimum weight
    are added to the offset.  The zero word is the block's first row at the
    first step, which skips it by its index.

    The order of enumeration cannot change a certificate: two minimum-weight
    words with one support are proportional (else a combination of them
    would be lighter), so `_canonical_word` picks the same word from any order.
    """
    F = code.field
    n, k = code.n, code.k
    if k == 0:
        return n + 1, []
    sub = code.base_elements  # sorted, so sub[0] = 0 and mult[i, 0] is zero
    qb = len(sub)
    mult = F.vmul(sub[None, :, None], code.generator_matrix()[:, None, :])
    j = 1
    while j < k and qb ** (j + 1) <= chunk:
        j += 1
    block = mult[k - 1]
    for i in range(k - 2, k - j - 1, -1):
        block = F.vadd(mult[i][:, None], block[None, :]).reshape(-1, n)
    digits = [0] * (k - j)
    offset = np.zeros(n, dtype=np.int64)
    best = n + 1
    best_words: list[np.ndarray] = []
    for step in range(qb ** (k - j)):
        if step:
            i = 0
            while digits[i] == qb - 1:  # carry: the row's multiple drops out
                offset = F.vsub(offset, mult[i, -1])
                digits[i] = 0
                i += 1
            offset = F.vadd(F.vsub(offset, mult[i, digits[i]]), mult[i, digits[i] + 1])
            digits[i] += 1
        wts = np.count_nonzero(block != F.vneg(offset), axis=1)
        if not step:
            wts[0] = n + 1  # the zero word
        mn = int(wts.min())
        if mn < best:
            best = mn
            best_words = []
        if want_words and mn == best:
            best_words.extend(_normalize_word(F, w) for w in F.vadd(block[wts == best], offset))
        if not want_words and early_stop_at is not None and best <= early_stop_at:
            return best, []
    return best, best_words


def exhaustive_min_weight(code: CyclicCode) -> int:
    """Exact min weight by enumerating the message space."""
    d, _ = _exhaustive_scan(code)
    return d


def _zero_core_scan(code: CyclicCode, want_words: bool = False, chunk: int = 1024):
    """Exact distance of an ambient-field code via zero-set cores.

    Codewords are evaluations over the roots of unity of polynomials on the
    nonzero exponents; every word of weight <= n-k+1 vanishes on >= k-1
    points, and some cyclic shift of it vanishes at 0, so sweeping the
    (k-1)-subsets containing 0 visits every minimum-weight orbit.  Cores of
    rank k-1 suffice: were a minimum-weight word's zero rows of lower rank, a
    second kernel vector could cancel it at one more point, a lighter word.

    The cores are read off in pencils.  `linalg.prefix_walk` over the
    evaluation rows that vanish at 0 eliminates each prefix once: a prefix P,
    {0} and k-3 more points, of rank k-2 leaves two evaluation rows E1, E2
    spanning the words that vanish on P.  For each point t off their common
    zeros (E1 = E2 = 0) the core P + {t} has rank k-1 and its word is
    E2[t]*E1 - E1[t]*E2, whose zeros are the common zeros and the points of
    t's ratio E1:E2.  Every rank-(k-1) core is its sorted prefix, whose
    points are independent, plus a larger point, so counting the ratio
    classes of each prefix that a larger point follows, one sort per batch
    of `chunk` prefixes, counts every such core.  A point's class is the
    field element E1/E2, or q where only E2 vanishes and q+1 at a common
    zero (`_ratio_classes`); the word of a winning class is formed from its
    first point.

    The walk starts from the smallest gap.  The points whose column of the
    rows vanishing at 0 is zero are zeros of every word that vanishes at 0;
    they form a subgroup H, the multiples of m = n/|H|, and every codeword
    takes one value on each coset of H.  So a word with z zeros vanishes on
    z/|H| residues mod m, two cyclically consecutive ones of which lie at
    most m*|H|/z = n/z apart.  A minimum-weight word has at least two residues, as for
    k >= 3 some word vanishes at 0, on H and at a point off H, on 2|H|
    points.  Its shift that moves the first residue of a smallest gap to 0
    vanishes at 0 and next at g <= n // z, off H, so g's column is nonzero;
    the lex-first basis of its zeros past 0 then starts at g, and that
    basis's first k-3 points are a prefix the walk reaches and counts the
    word at.  As z >= k-1, the root keeps the points up to n // (k-1), and
    the walk stops at the first batch that starts past n // best_zero: no
    later batch starts a word with best_zero zeros or more.  The words found
    reach every minimum-weight orbit, so the shifts that move one of their
    zeros to coordinate 0 are all the minimum-weight words that vanish
    there, and those are returned, normalised, sorted and distinct.
    """
    F, ctx = code.field, code.ctx
    n, k = code.n, code.k
    if code.base_q != F.q:
        raise InvariantViolated("zero-core scan requires an ambient-field code")
    nonzero_exps = list(code.defining.complement().exps)
    if len(nonzero_exps) != k:
        raise InvariantViolated(f"{len(nonzero_exps)} nonzero exponents for dimension {k}")
    rev = (-np.arange(n)) % n  # word[i] is the evaluation at alpha^(-i)
    # evaluation matrix over all points, columns = nonzero exponents
    V = ctx.root_powers(range(n), nonzero_exps)  # (n, k): V[t, j] = alpha^(t * N_j)
    if k <= 2:  # one core, {0} or nothing
        word = linalg.mat_mul(F, linalg.nullspace(F, V[: k - 1]), V.T)[0]
        return n - int((word == 0).sum()), ([_normalize_word(F, word[rev])] if want_words else [])
    q = F.q
    best_zero = k - 2
    best_words: list[np.ndarray] = []
    # the evaluation rows vanishing at point 0: V's row 0 is all ones, so the
    # pivot step on it subtracts the first row of V.T from the others
    at_zero = F.vsub(V.T[1:], V.T[0])
    for P, E in linalg.prefix_walk(F, at_zero, k - 2, chunk, n // (k - 1) + 1):
        if P.shape[1] and P[0, 0] > n // best_zero:
            break
        if P.shape[1] < k - 3:
            continue
        E1, E2 = E[:, 0], E[:, 1]
        cls = _ratio_classes(F, E1, E2)
        common = cls == q + 1
        srt = np.sort(cls, axis=1)
        new = np.c_[np.ones(len(srt), dtype=bool), srt[:, 1:] != srt[:, :-1]]
        starts = np.flatnonzero(new)  # runs of one class, never across rows
        rows, val = starts // n, srt.ravel()[starts]
        size = np.diff(np.r_[starts, srt.size])
        zeros = np.where(val == q + 1, -1, common.sum(axis=1)[rows] + size)
        mz = int(zeros.max())
        if mz > best_zero:
            best_zero = mz
            best_words = []
        if want_words and mz == best_zero:
            hit = zeros == best_zero
            b = rows[hit]
            t = (cls[b] == val[hit][:, None]).argmax(axis=1)  # the class's first point
            best_words.append(F.vsub(F.vmul(E2[b, t][:, None], E1[b]), F.vmul(E1[b, t][:, None], E2[b])))
    d = n - best_zero
    if not best_words:
        return d, []
    words = _distinct_words(F, np.concatenate(best_words)[:, rev])
    w, z = np.nonzero(words == 0)  # each word shifted by each of its zeros to 0
    return d, list(_distinct_words(F, words[w[:, None], (z[:, None] + np.arange(n)) % n]))


def _distinct_words(F: FieldSpec, words):
    """The distinct rows of `words` scaled to leading coefficient 1, sorted;
    np.unique would import numpy.ma, ~16 ms in a fresh process."""
    lead = words[np.arange(len(words)), (words != 0).argmax(axis=1)]
    words = F.vdiv_nz(words, lead[:, None])
    words = words[np.lexsort(words.T[::-1])]
    return words[np.r_[True, (words[1:] != words[:-1]).any(axis=1)]]


def _ratio_classes(F: FieldSpec, E1, E2):
    """Projective class of E1:E2 at each point: the field element E1/E2,
    or q where only E2 vanishes and q+1 where both do."""
    z2 = E2 == 0
    return np.where(z2, F.q + (z2 & (E1 == 0)), F.vdiv_nz(E1, E2))
