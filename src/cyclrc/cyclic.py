"""Cyclic codes over GF(q) given by exponent sets of roots of unity.

A CycContext fixes the base field size q, the length n with gcd(n, q) = 1,
and the ambient field GF(q^d) (d the order of q mod n) containing all n-th
roots of unity.  Exponent sets live in Z_n; codes carry their generator
polynomial over the ambient field with coefficients verified to lie in the
base field when the code is declared over it.

Minimum distances and minimum-weight words come from one dispatcher,
`_settle`, which runs the exact strategies in order of estimated cost:

* message-space enumeration (dimension small),
* zero-core enumeration for codes over the ambient field: every codeword is
  an evaluation of a polynomial supported on the nonzero exponents, and any
  minimum-weight word, after a cyclic shift, vanishes on k-1 points that
  include 0 and whose evaluation rows have rank k-1; so the kernel vectors
  of those (k-1)-subsets hit every word.  They are read off in pencils: one
  elimination per prefix, 0 and k-3 more points, leaves a 2-dim kernel; its
  member that vanishes at a last point t vanishes exactly at the common
  zeros and where t's ratio of the two basis evaluations recurs, so one sort
  of those ratios counts every last point at once,
* a support climb that tests parity-check columns for dependence, one weight
  at a time from the lower bound up to the upper bound.

One cost model ranks them: the enumerations by their whole cost, which must
fit the budget, and the climb by its whole cost up to the upper bound, though
it is admitted when its first step fits.  The climb is cut where the budget
runs out and reports the lower bound it reached, so `min_distance` falls back
to a certified (lower, upper) sandwich, and `min_weight_word` raises.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from math import comb, gcd
from typing import Optional

import numpy as np

from . import bounds, linalg
from .field import FieldSpec, field_create, is_in_subfield, ord_mod, prime_power_split, primitive_nth_root
from .poly import Polynomial, product_from_roots, reciprocal

DEFAULT_BUDGET = 10**8


class NotQClosed(ValueError):
    pass


class CoefficientLeak(RuntimeError):
    pass


class BudgetTooSmall(ValueError):
    """Contractual: the bound computation itself never exceeds any sane budget."""


class CombinatorialBudgetExceeded(RuntimeError):
    pass


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
        self.base_elements = self.field.subfield_elements(q)
        # per-context caches: codes by (exponents, base), exact run-code
        # distances by exponents, anchor dual words by (exponents, budget)
        self._code_cache: dict = {}
        self._run_dist_cache: dict = {}
        self._dual_word_cache: dict = {}

    def root(self, j: int) -> int:
        """Element index of the j-th power of the primitive n-th root."""
        return int(self.field.vpow_gen(self._alpha_log * (j % self.n)))

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

    def is_subset(self, other: "ExponentSet") -> bool:
        return set(self.exps) <= set(other.exps)


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

    # -- derived codes ------------------------------------------------------

    def dual_code(self) -> "CyclicCode":
        if self._dual is None:
            n, k = self.n, self.k
            nonzeros = self.defining.complement()
            dual_def = nonzeros.negate()
            dual = code_from_defining_set(
                self.ctx, dual_def, base="subfield" if self.base_q == self.ctx.q else "extension"
            )
            # cross-check against the reversed parity-check polynomial
            xn1 = Polynomial.x_pow_minus_one(self.field, n)
            h, rem = divmod(xn1, self.gen)
            if not rem.is_zero():
                raise CoefficientLeak("generator does not divide x^n - 1")
            hstar = reciprocal(h, k).monic()
            if hstar != dual.gen:
                raise CoefficientLeak("reciprocal parity polynomial disagrees with dual defining set")
            prod = linalg.mat_mul(self.field, self.generator_matrix(), dual.generator_matrix().T)
            if prod.any():
                raise CoefficientLeak("dual generator matrix fails orthogonality")
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
    roots = [ctx.root(j) for j in S.exps]
    gen = product_from_roots(ctx.field, roots)
    base_q = ctx.q if base == "subfield" else ctx.field.q
    if base == "subfield":
        for c in gen.coeffs:
            if not is_in_subfield(ctx.field, c, ctx.q):
                raise CoefficientLeak(
                    f"generator coefficient {c} escapes GF({ctx.q}) despite closed defining set"
                )
    code = CyclicCode(ctx, S, base_q, gen)
    ctx._code_cache[(S.exps, base)] = code
    return code


# ---------------------------------------------------------------------------
# Distance strategies.


def min_distance(code: CyclicCode, budget: int = DEFAULT_BUDGET, witness=None,
                 upper: Optional[int] = None) -> DistanceResult:
    n, k = code.n, code.k
    if budget < n * n:
        raise BudgetTooSmall(f"budget {budget} cannot cover the O(n^2) bound scan")
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
        raise CombinatorialBudgetExceeded(
            f"no exact minimum-weight strategy fits budget {budget} for [{n},{k}]"
        )
    sup, word = _canonical_word(code.field, words)
    return d, word, sup


def _canonical_word(F: FieldSpec, words):
    """(support, word) with the lexicographically smallest support among the
    words and all their cyclic shifts, the word scaled to leading coefficient 1."""
    best_sup = None
    best_word = None
    for w0 in words:
        n = len(w0)
        sup0 = np.nonzero(w0)[0]
        for s in range(n):
            sup = tuple(sorted((int(x) + s) % n for x in sup0))
            if best_sup is None or sup < best_sup:
                best_sup = sup
                best_word = _normalize_word(F, np.roll(w0, s))
    return best_sup, best_word


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

    Decided by scanning all size-w supports for dependent parity-check
    columns: any lighter word's support extends to such a dependent set.
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
    dependent parity-check columns, or None; raises if the scan exceeds budget."""
    cost = linalg.column_scan_cost(code.n, code.n - code.k, w)
    if cost > budget:
        raise CombinatorialBudgetExceeded(
            f"support scan at weight {w} needs ~{cost:.2e} ops, budget {budget:.2e}"
        )
    return linalg.first_dependent_columns(code.field, code.parity_check_matrix(), w)


def _support_climb(code: CyclicCode, lower: int, upper: int, budget: int):
    """Climb weights from `lower` until a dependent support turns up or the
    budget runs out; returns (exact or None, word, lower bound reached)."""
    F = code.field
    n, k = code.n, code.k
    for w in range(lower, upper + 1):
        try:
            sup = _dependent_support(code, w, budget)
        except CombinatorialBudgetExceeded:
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
    """Enumerate the message space; returns (min weight, words of that weight)."""
    F = code.field
    n, k = code.n, code.k
    sub = code.base_elements
    qb = len(sub)
    total = qb**k
    G = code.generator_matrix()
    best = n + 1
    best_words: list[np.ndarray] = []
    start = 1
    while start < total:
        stop = min(start + chunk, total)
        idx = np.arange(start, stop, dtype=np.int64)
        cw = np.zeros((len(idx), n), dtype=np.int64)
        v = idx.copy()
        for row in range(k):
            digit = v % qb
            v //= qb
            syms = sub[digit]
            cw = F.vadd(cw, F.vmul(syms[:, None], G[row][None, :]))
        wts = (cw != 0).sum(axis=1)
        mn = int(wts.min())
        if mn < best:
            best = mn
            best_words = []
        if want_words and mn == best:
            rows = np.nonzero(wts == best)[0]
            for r in rows:
                best_words.append(_normalize_word(F, cw[int(r)].copy()))
        if not want_words and early_stop_at is not None and best <= early_stop_at:
            return best, []
        start = stop
    return best, best_words


def exhaustive_min_weight(code: CyclicCode) -> int:
    """Exact min weight by enumerating the message space."""
    d, _ = _exhaustive_scan(code)
    return d


def _zero_core_scan(code: CyclicCode, want_words: bool = False, chunk: int = 2048):
    """Exact distance of an ambient-field code via zero-set cores.

    Codewords are evaluations over the roots of unity of polynomials on the
    nonzero exponents; every word of weight <= n-k+1 vanishes on >= k-1
    points, and some cyclic shift of it vanishes at 0, so sweeping all
    (k-1)-subsets containing 0 visits every minimum-weight orbit.  Cores of
    rank k-1 suffice: were a minimum-weight word's zero rows of lower rank, a
    second kernel vector could cancel it at one more point, a lighter word.

    The cores are read off in pencils.  A prefix P, {0} and k-3 more points,
    of rank k-2 has a 2-dim kernel {K1, K2} with evaluations E1, E2 over all
    points.  For each point t off the common zeros (E1 = E2 = 0) the core
    P + {t} has rank k-1 and its word is E2[t]*E1 - E1[t]*E2, whose zeros are
    the common zeros and the points of t's ratio E1:E2.  Every rank-(k-1)
    core is its sorted prefix plus its largest point, so counting the ratio
    classes of each prefix, one argsort per chunk, counts every such core.
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
    q1 = F.q - 1
    best_zero = k - 2
    best_words: list[np.ndarray] = []
    it = itertools.combinations(range(1, n), k - 3)
    while block := list(itertools.islice(it, chunk)):
        prefixes = np.zeros((len(block), k - 2), dtype=np.int64)
        prefixes[:, 1:] = np.array(block, dtype=np.int64).reshape(len(block), k - 3)
        R, rk, piv, _ = linalg.gauss_jordan(F, V[prefixes])
        full = rk == k - 2
        if not full.any():
            continue
        K = linalg.kernel_from_rref(F, R[full], piv[full])  # (B, 2, k)
        E = linalg.mat_mul(F, K.reshape(-1, k), V.T).reshape(-1, 2, n)
        E1, E2 = E[:, 0], E[:, 1]
        z1, z2 = E1 == 0, E2 == 0
        common = z1 & z2
        # ratio class of each point: log E1 - log E2, else 0, infinity or common
        cls = np.select([common, z1, z2], [q1 + 2, q1, q1 + 1], (F._log[E1] - F._log[E2]) % q1)
        order = np.argsort(cls, axis=1)
        srt = np.take_along_axis(cls, order, axis=1)
        new = np.c_[np.ones(len(srt), dtype=bool), srt[:, 1:] != srt[:, :-1]]
        starts = np.flatnonzero(new)  # runs of one class, never across rows
        rows = starts // n
        size = np.diff(np.r_[starts, srt.size])
        zeros = np.where(srt.ravel()[starts] == q1 + 2, -1, common.sum(axis=1)[rows] + size)
        mz = int(zeros.max())
        if mz > best_zero:
            best_zero = mz
            best_words = []
        if want_words and mz == best_zero:
            hit = zeros == best_zero
            b, t = rows[hit], order.ravel()[starts[hit]]
            best_words.append(F.vsub(F.vmul(E2[b, t][:, None], E1[b]), F.vmul(E1[b, t][:, None], E2[b])))
    d = n - best_zero
    if not best_words:
        return d, []
    words = np.concatenate(best_words)[:, rev]
    lead = words[np.arange(len(words)), (words != 0).argmax(axis=1)]
    return d, list(np.unique(F.vdiv_nz(words, lead[:, None]), axis=0))
