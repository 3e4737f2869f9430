"""Exact arithmetic in GF(p^m) with deterministic construction.

Elements are canonical integer indices in 0..q-1: the base-p digits of the
index are the polynomial-basis coordinates (constant term = least significant
digit).  Construction reads the reducing polynomial and the generator from a
constant table (a prime field finds its least generator by integer powers).
It forms the map "multiply by g" with one GF(p)[x] product per basis element,
and numpy builds the antilog table from it by doubling.  The table is not
trusted: the antilog table must hold q-1 distinct nonzero powers, which proves
the polynomial irreducible and the generator primitive.  Multiplication runs
on log/antilog tables.  Addition is XOR in characteristic 2, a sum mod p in
prime fields and, in odd extensions, the Zech-logarithm law
a + b = a * (1 + b/a), or, when q <= 1024, a gather from the q x q table of
digitwise sums mod p.  So everything vectorizes over numpy index arrays, and
there is one arithmetic: the scalar ops are the vector kernels applied to one
element.  Two calls with the same (p, m) always produce identical arithmetic:
the table records the first monic irreducible in index order and the smallest
index of full multiplicative order.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd

import numpy as np

SIZE_CAP = 1 << 20


class FieldError(ValueError):
    pass


class NonPrime(FieldError):
    pass


class SizeCapExceeded(FieldError):
    pass


class DivisionByZero(FieldError):
    pass


class NotASubfield(FieldError):
    pass


class OrderNotDividing(FieldError):
    pass


class NotCoprime(FieldError):
    pass


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def factorize(n: int) -> dict[int, int]:
    """Prime factorization by trial division (inputs stay below 2^20)."""
    out: dict[int, int] = {}
    f = 2
    while f * f <= n:
        while n % f == 0:
            out[f] = out.get(f, 0) + 1
            n //= f
        f += 1 if f == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def prime_power_split(q: int) -> tuple[int, int]:
    """Return (p, m) with q = p^m, or raise if q is not a prime power.  A q
    above the cap is refused before any trial division: every field holding
    GF(q) has at least q elements."""
    if q > SIZE_CAP:
        raise SizeCapExceeded(f"q = {q} exceeds the 2^20 element cap")
    fac = factorize(q)
    if len(fac) != 1:
        raise NonPrime(f"{q} is not a prime power")
    p, m = next(iter(fac.items()))
    return p, m


# ---------------------------------------------------------------------------
# GF(p) polynomial helpers that build the map "multiply by g".
# Polynomials are low-to-high coefficient lists over Z_p.


def _ptrim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _pmulmod(a: list[int], b: list[int], f: list[int], p: int) -> list[int]:
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    # reduce mod f (monic)
    df = len(f) - 1
    while len(out) > df:
        lead = out.pop()
        if lead:
            for j in range(df):
                out[-df + j] = (out[-df + j] - lead * f[j]) % p
    return _ptrim(out)


def _coeffs(idx: int, p: int, m: int) -> list[int]:
    """The m base-p digits of an element index, constant term first."""
    out = []
    for _ in range(m):
        out.append(idx % p)
        idx //= p
    return out


def _prime_generator(p: int) -> int:
    """The least generator of GF(p)*: no power a^((p-1)/r) for a prime r | p-1
    is 1.  GF(2)* is {1}."""
    primes = list(factorize(p - 1))
    return next((a for a in range(2, p) if all(pow(a, (p - 1) // r, p) != 1 for r in primes)), 1)


# (p, m) -> (modulus index, generator index) for every extension field under
# the cap: p prime, m >= 2, p^m <= SIZE_CAP.  The reducing polynomial is x^m
# plus the polynomial whose coefficients are the base-p digits of its index.
# Each entry is what a search finds: the first monic irreducible in index
# order and the smallest index of full multiplicative order.  FieldSpec
# proves every entry it reads (see its docstring).
_EXTENSIONS = {
    (2, 2): (3, 2), (2, 3): (3, 2), (2, 4): (3, 2), (2, 5): (5, 2), (2, 6): (3, 2), (2, 7): (3, 2), (2, 8): (27, 3),
    (2, 9): (3, 7), (2, 10): (9, 2), (2, 11): (5, 2), (2, 12): (9, 3), (2, 13): (27, 2), (2, 14): (33, 7),
    (2, 15): (3, 2), (2, 16): (43, 3), (2, 17): (9, 2), (2, 18): (9, 10), (2, 19): (39, 2), (2, 20): (9, 2),
    (3, 2): (1, 4), (3, 3): (7, 3), (3, 4): (5, 3), (3, 5): (7, 3), (3, 6): (5, 3), (3, 7): (11, 5), (3, 8): (11, 38),
    (3, 9): (64, 3), (3, 10): (19, 34), (3, 11): (11, 5), (3, 12): (11, 14), (5, 2): (2, 6), (5, 3): (6, 9),
    (5, 4): (2, 6), (5, 5): (21, 10), (5, 6): (7, 5), (5, 7): (6, 9), (5, 8): (2, 6), (7, 2): (1, 9), (7, 3): (2, 22),
    (7, 4): (8, 12), (7, 5): (10, 9), (7, 6): (2, 8), (7, 7): (43, 14), (11, 2): (1, 15), (11, 3): (15, 11),
    (11, 4): (13, 11), (11, 5): (2, 13), (13, 2): (2, 15), (13, 3): (2, 15), (13, 4): (2, 17), (13, 5): (54, 13),
    (17, 2): (3, 19), (17, 3): (20, 17), (17, 4): (3, 307), (19, 2): (1, 22), (19, 3): (2, 29), (19, 4): (27, 21),
    (23, 2): (1, 25), (23, 3): (26, 23), (23, 4): (25, 31), (29, 2): (2, 30), (29, 3): (33, 30), (29, 4): (2, 30),
    (31, 2): (1, 35), (31, 3): (3, 34), (31, 4): (32, 34), (37, 2): (2, 41), (37, 3): (2, 75), (41, 2): (3, 43),
    (41, 3): (42, 44), (43, 2): (1, 45), (43, 3): (3, 45), (47, 2): (1, 49), (47, 3): (51, 47), (53, 2): (2, 54),
    (53, 3): (58, 53), (59, 2): (1, 62), (59, 3): (60, 63), (61, 2): (2, 63), (61, 3): (2, 67), (67, 2): (1, 74),
    (67, 3): (2, 73), (71, 2): (1, 79), (71, 3): (72, 75), (73, 2): (5, 76), (73, 3): (2, 77), (79, 2): (1, 85),
    (79, 3): (2, 81), (83, 2): (1, 93), (83, 3): (88, 84), (89, 2): (3, 91), (89, 3): (93, 91), (97, 2): (5, 101),
    (97, 3): (2, 102), (101, 2): (2, 102), (101, 3): (102, 104), (103, 2): (1, 105), (107, 2): (1, 109),
    (109, 2): (2, 111), (113, 2): (3, 117), (127, 2): (1, 135), (131, 2): (1, 134), (137, 2): (3, 145),
    (139, 2): (1, 143), (149, 2): (2, 152), (151, 2): (1, 160), (157, 2): (2, 159), (163, 2): (1, 170),
    (167, 2): (1, 169), (173, 2): (2, 174), (179, 2): (1, 182), (181, 2): (2, 185), (191, 2): (1, 201),
    (193, 2): (5, 198), (197, 2): (2, 200), (199, 2): (1, 212), (211, 2): (1, 215), (223, 2): (1, 225),
    (227, 2): (1, 229), (229, 2): (2, 231), (233, 2): (3, 241), (239, 2): (1, 247), (241, 2): (7, 248),
    (251, 2): (1, 256), (257, 2): (3, 259), (263, 2): (1, 265), (269, 2): (2, 278), (271, 2): (1, 276),
    (277, 2): (2, 279), (281, 2): (3, 285), (283, 2): (1, 285), (293, 2): (2, 294), (307, 2): (1, 316),
    (311, 2): (1, 315), (313, 2): (5, 316), (317, 2): (2, 327), (331, 2): (1, 337), (337, 2): (5, 356),
    (347, 2): (1, 351), (349, 2): (2, 353), (353, 2): (3, 360), (359, 2): (1, 370), (367, 2): (1, 370),
    (373, 2): (2, 375), (379, 2): (1, 382), (383, 2): (1, 385), (389, 2): (2, 390), (397, 2): (2, 399),
    (401, 2): (3, 405), (409, 2): (7, 419), (419, 2): (1, 423), (421, 2): (2, 425), (431, 2): (1, 435),
    (433, 2): (5, 436), (439, 2): (1, 448), (443, 2): (1, 445), (449, 2): (3, 465), (457, 2): (5, 462),
    (461, 2): (2, 469), (463, 2): (1, 465), (467, 2): (1, 469), (479, 2): (1, 483), (487, 2): (1, 490),
    (491, 2): (1, 496), (499, 2): (1, 502), (503, 2): (1, 509), (509, 2): (2, 510), (521, 2): (3, 523),
    (523, 2): (1, 525), (541, 2): (2, 545), (547, 2): (1, 549), (557, 2): (2, 560), (563, 2): (1, 565),
    (569, 2): (3, 573), (571, 2): (1, 574), (577, 2): (5, 581), (587, 2): (1, 593), (593, 2): (3, 595),
    (599, 2): (1, 610), (601, 2): (7, 603), (607, 2): (1, 609), (613, 2): (2, 615), (617, 2): (3, 629),
    (619, 2): (1, 622), (631, 2): (1, 636), (641, 2): (3, 647), (643, 2): (1, 647), (647, 2): (1, 649),
    (653, 2): (2, 659), (659, 2): (1, 669), (661, 2): (2, 663), (673, 2): (5, 678), (677, 2): (2, 678),
    (683, 2): (1, 685), (691, 2): (1, 695), (701, 2): (2, 704), (709, 2): (2, 711), (719, 2): (1, 723),
    (727, 2): (1, 729), (733, 2): (2, 735), (739, 2): (1, 748), (743, 2): (1, 745), (751, 2): (1, 755),
    (757, 2): (2, 759), (761, 2): (3, 763), (769, 2): (7, 771), (773, 2): (2, 774), (787, 2): (1, 789),
    (797, 2): (2, 798), (809, 2): (3, 815), (811, 2): (1, 814), (821, 2): (2, 822), (823, 2): (1, 826),
    (827, 2): (1, 831), (829, 2): (2, 831), (839, 2): (1, 843), (853, 2): (2, 855), (857, 2): (3, 859),
    (859, 2): (1, 865), (863, 2): (1, 868), (877, 2): (2, 881), (881, 2): (3, 887), (883, 2): (1, 888),
    (887, 2): (1, 889), (907, 2): (1, 909), (911, 2): (1, 915), (919, 2): (1, 925), (929, 2): (3, 934),
    (937, 2): (5, 941), (941, 2): (2, 942), (947, 2): (1, 953), (953, 2): (3, 957), (967, 2): (1, 969),
    (971, 2): (1, 974), (977, 2): (3, 981), (983, 2): (1, 985), (991, 2): (1, 1004), (997, 2): (2, 1000),
    (1009, 2): (11, 1018), (1013, 2): (2, 1019), (1019, 2): (1, 1025), (1021, 2): (2, 1035),
}


class FieldSpec:
    """GF(p^m) with log/antilog multiplication and Zech-logarithm addition.

    Construction reads the reducing polynomial f and the generator g from
    `_EXTENSIONS` (m >= 2) or finds the least generator of GF(p)* (m = 1),
    then builds the antilog table and refuses to go on unless the powers
    g^0..g^(q-2) are q-1 distinct nonzero residues mod f.  That one check
    proves f irreducible and g primitive, so a wrong table entry raises
    FieldError and is never used.  Let R = GF(p)[x]/(f), with q elements.
    The q-1 powers are then all the nonzero elements of R.
    - If g is a unit, so is each of its powers: R has q-1 units and is a
      field, and g has order q-1 in its multiplicative group.
    - If g is not a unit, it is a zero divisor: g*y = 0 for some nonzero y.
      That y is a power g^j with j <= q-2, so g^(q-1) = 0 and g is
      nilpotent.  Its ideals gR > g^2R > ... shrink strictly until they
      reach 0 (g^k = g^(k+1) r gives g^k (1 - g r) = 0, and 1 - g r is a
      unit), each by at least one of the m dimensions, so g^m = 0.  For
      m >= 2, m <= q-2, so a zero would be among the powers: impossible.
      For m = 1, R = GF(p) is a field and g = 0 fails at once.

    Characteristic 2 adds by XOR and prime fields by a sum mod p.  Odd
    extensions add by a + b = a * (1 + b/a): one gather from the Zech table
    `_zech`, indexed by log b - log a + 2(q-1), then one from `_expx`.  When
    q <= 1024 the q x q table `_add_table` of digitwise sums mod p is built
    once, and addition is a single gather from it.  Negation gathers from
    `_neg_table`.  The
    kernels (`vadd`, `vsub`, `vneg`, `vmul`, `vdiv_nz`, `vpow_gen`) take
    numpy index arrays or plain ints alike; the scalar op `pow` calls one
    of them on one element and returns an int.

    Attributes
    ----------
    p, m, q : characteristic, extension degree, cardinality p^m
    modulus : monic reducing polynomial, low-to-high coefficients over GF(p)
    generator : index of the canonical multiplicative generator
    """

    def __init__(self, p: int, m: int):
        if not is_prime(p):
            raise NonPrime(f"p={p} is not prime")
        if m < 1:
            raise FieldError(f"extension degree must be >= 1, got {m}")
        q = p**m
        if q > SIZE_CAP:
            raise SizeCapExceeded(f"GF({p}^{m}) = {q} exceeds the 2^20 element cap")
        self.p = p
        self.m = m
        self.q = q
        if m == 1:
            self.modulus, self.generator = (0, 1), _prime_generator(p)
        else:
            f, self.generator = _EXTENSIONS[p, m]
            self.modulus = (*_coeffs(f, p, m), 1)
        self._build_mul_tables()
        self._build_add_tables()
        self._subfield_cache: dict[int, np.ndarray] = {}

    # -- construction ------------------------------------------------------

    def _build_mul_tables(self) -> None:
        p, m, q = self.p, self.m, self.q
        n1 = q - 1
        # Antilog table by doubling: once `digits` holds the digits of
        # g^0..g^(L-1) and `step` the GF(p)-linear map "multiply by g^L" (row
        # j = g^L x^j), digits @ step gives g^L..g^(2L-1), written in place.
        # The dtype is the narrowest that holds a row-times-column sum
        # m(p-1)^2 before the reduction.
        dt = next(t for t in (np.int8, np.int16, np.int32, np.int64) if m * (p - 1) ** 2 <= np.iinfo(t).max)
        g = _coeffs(self.generator, p, m)
        step = np.zeros((m, m), dtype=dt)
        for j in range(m):
            row = _pmulmod(g, [0] * j + [1], self.modulus, p)
            step[j, : len(row)] = row
        digits = np.zeros((n1, m), dtype=dt)
        digits[0, 0] = 1
        done = 1
        while done < n1:
            k = min(done, n1 - done)
            np.matmul(digits[:k], step, out=digits[done : done + k])
            digits[done : done + k] %= p
            step = step @ step % p
            done += k
        exp = np.zeros(n1, dtype=np.int64)
        for j in reversed(range(m)):
            exp *= p
            exp += digits[:, j]
        del digits
        log = np.zeros(q, dtype=np.int64)
        log[exp] = np.arange(n1)
        if not exp.all() or not np.array_equal(log[exp], np.arange(n1)):
            raise FieldError("the powers of the generator are not q-1 distinct nonzero elements")
        # Extended antilog: [0, 2(q-1)) wraps mod q-1, [2(q-1), 4(q-1)] is 0,
        # so products with a zero operand fall through without branching.
        expx = np.zeros(4 * n1 + 1, dtype=np.int64)
        expx[:n1] = exp
        expx[n1 : 2 * n1] = exp
        logx = log.copy()
        logx[0] = 2 * n1
        self._exp = exp
        self._log = log
        self._expx = expx
        self._logx = logx

    def _build_add_tables(self) -> None:
        p, q, n1 = self.p, self.q, self.q - 1
        self._zech = self._add_table = self._neg_table = None
        if p == 2 or self.m == 1:
            return
        exp, logx = self._exp, self._logx
        # _zech[log b - log a + 2(q-1)] for a != 0 is the Zech logarithm
        # log(1 + g^(log b - log a)); the index of 1 + x is x's index with its
        # constant digit stepped mod p.  With a = 0 the index is log b and the
        # entry log b - 2(q-1), so log a + entry = log b; with b = 0 the entry
        # is 0, giving a.
        zech = np.zeros(4 * n1 + 1, dtype=np.int64)
        zech[:n1] = np.arange(-2 * n1, -n1)
        zech[n1 : 2 * n1] = logx[exp + np.where(exp % p == p - 1, 1 - p, 1)]
        zech[2 * n1 : 3 * n1] = zech[n1 : 2 * n1]
        self._zech = zech
        self._neg_table = self._expx[logx + n1 // 2]  # -1 = g^((q-1)/2)
        if q <= 1024:
            # full addition table: vector addition is one look-up.  Indices
            # add digitwise mod p, so the table grows one digit at a time:
            # the sum of a*p^j + a' and b*p^j + b' (a', b' < p^j) is
            # digits[a, b]*p^j plus the low-digit table's entry at (a', b').
            digits = (np.arange(p)[:, None] + np.arange(p)) % p
            table = digits
            for j in range(1, self.m):
                low = p**j
                table = ((low * digits)[:, None, :, None] + table[None, :, None, :]).reshape(low * p, low * p)
            self._add_table = table

    # -- scalar ops: one element through a vector kernel ------------------

    def pow(self, a: int, e: int) -> int:
        if a == 0:
            if e > 0:
                return 0
            if e == 0:
                return 1
            raise DivisionByZero("negative power of zero")
        # Python ints, so a large exponent cannot overflow int64
        return int(self.vpow_gen(int(self._log[a]) * e % (self.q - 1)))

    # -- vector ops on numpy index arrays -----------------------------------

    def vadd(self, a, b):
        if self.p == 2:
            return np.bitwise_xor(a, b)
        if self.m == 1:
            return (np.asarray(a, dtype=np.int64) + b) % self.p
        if self._add_table is not None:
            return self._add_table[a, b]
        return self._zech_add(a, b)

    def _zech_add(self, a, b):
        """a + b = a * (1 + b/a) in an odd extension: log look-ups, then one
        gather from the Zech table and one from the extended antilog table."""
        la = self._logx[a]
        return self._expx[la + self._zech[self._logx[b] - la + 2 * (self.q - 1)]]

    def vneg(self, a):
        if self.p == 2:
            return np.asarray(a)
        if self.m == 1:
            return (-np.asarray(a, dtype=np.int64)) % self.p
        return self._neg_table[a]

    def vsub(self, a, b):
        if self.p == 2:
            return np.bitwise_xor(a, b)
        return self.vadd(a, self.vneg(b))

    def vmul(self, a, b):
        return self._expx[self._logx[a] + self._logx[b]]

    def vdiv_nz(self, a, b):
        """a / b elementwise where every b is nonzero.  A zero b reads as 1,
        giving a: the zero-core scan divides whole rows and masks those
        entries out afterwards, so this must stay an in-bounds gather."""
        return self._expx[self._logx[a] - self._log[b] + (self.q - 1)]

    def vpow_gen(self, e):
        """Generator powers g^e for an integer array e (any sign)."""
        return self._exp[np.asarray(e, dtype=np.int64) % (self.q - 1)]

    # -- subfields and roots of unity ---------------------------------------

    def subfield_elements(self, q0: int) -> np.ndarray:
        """Sorted indices of the subfield of size q0 (q0 = p^m0, m0 | m)."""
        if q0 not in self._subfield_cache:
            p0, m0 = prime_power_split(q0)
            if p0 != self.p or self.m % m0 != 0:
                raise NotASubfield(f"GF({q0}) is not a subfield of GF({self.q})")
            if q0 == self.q:
                els = np.arange(self.q, dtype=np.int64)
            else:
                step = (self.q - 1) // (q0 - 1)
                els = np.concatenate(
                    [[0], self._exp[np.arange(q0 - 1, dtype=np.int64) * step]]
                )
                els = np.sort(els)
            self._subfield_cache[q0] = els
        return self._subfield_cache[q0]

    def __repr__(self):
        return f"FieldSpec(GF({self.p}^{self.m}), modulus={list(self.modulus)})"

    def __hash__(self):
        return hash((self.p, self.m))

    def __eq__(self, other):
        return self is other


@lru_cache(maxsize=None)
def field_create(p: int, m: int) -> FieldSpec:
    """Deterministic GF(p^m); repeated calls share one instance."""
    return FieldSpec(p, m)


def primitive_nth_root(spec: FieldSpec, n: int) -> int:
    """The canonical primitive n-th root of unity g^((q-1)/n)."""
    if n < 1 or (spec.q - 1) % n != 0:
        raise OrderNotDividing(f"n={n} does not divide q-1={spec.q - 1}")
    return spec.pow(spec.generator, (spec.q - 1) // n)


def ord_mod(q: int, n: int) -> int:
    """Smallest d >= 1 with q^d = 1 (mod n)."""
    if n < 1 or gcd(q, n) != 1:
        raise NotCoprime(f"gcd({q}, {n}) != 1")
    if n == 1:
        return 1
    d = 1
    x = q % n
    while x != 1:
        x = (x * q) % n
        d += 1
    return d
