"""Exact arithmetic in GF(p^m) with deterministic construction.

Elements are canonical integer indices in 0..q-1: the base-p digits of the
index are the polynomial-basis coordinates (constant term = least significant
digit).  Construction has one GF(p)[x] product: it finds the reducing
polynomial and the generator, and gives the map "multiply by g" from which
numpy builds the antilog table by doubling.  Multiplication runs on log/antilog
tables.  Addition is XOR in characteristic 2, a sum mod p in prime fields and,
in odd extensions, the Zech-logarithm law a + b = a * (1 + b/a), or, when
q <= 1024, a gather from the q x q table of digitwise sums mod p.  So
everything vectorizes over numpy index arrays, and there is one arithmetic:
the scalar ops are the vector kernels applied to one element.  Two calls with the same (p, m) always
produce identical arithmetic: the reducing polynomial is the first monic
irreducible in index order and the generator is the smallest index of full
multiplicative order.
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


class MixedFields(FieldError):
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
# GF(p) polynomial helpers used only during field construction.
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


def _ppowmod(a: list[int], e: int, f: list[int], p: int) -> list[int]:
    result = [1]
    base = list(a)
    while e:
        if e & 1:
            result = _pmulmod(result, base, f, p)
        base = _pmulmod(base, base, f, p)
        e >>= 1
    return result


def _pmod(a: list[int], b: list[int], p: int) -> list[int]:
    """a mod b over GF(p); b nonzero."""
    a = _ptrim(list(a))
    db = len(b)
    inv_lead = pow(b[-1], p - 2, p)
    while len(a) >= db:
        lead = (a[-1] * inv_lead) % p
        if lead:
            off = len(a) - db
            for j in range(db):
                a[off + j] = (a[off + j] - lead * b[j]) % p
        a.pop()
        _ptrim(a)
    return a


def _pgcd(a: list[int], b: list[int], p: int) -> list[int]:
    a, b = _ptrim(list(a)), _ptrim(list(b))
    while b:
        a, b = b, _pmod(a, b, p)
    return a


def _is_irreducible(f: list[int], p: int) -> bool:
    """Rabin test: f (monic, degree m) irreducible over GF(p)."""
    m = len(f) - 1
    if m == 1:
        return True
    if f[0] == 0:
        return False
    x = [0, 1]
    xq = _ppowmod(x, p**m, f, p)
    # x^(p^m) == x mod f
    if _ptrim([(a - b) % p for a, b in _zip_pad(xq, x)]):
        return False
    for t in factorize(m):
        xs = _ppowmod(x, p ** (m // t), f, p)
        diff = _ptrim([(a - b) % p for a, b in _zip_pad(xs, x)])
        g = _pgcd(f, diff, p)
        if len(g) - 1 > 0:
            return False
    return True


def _zip_pad(a: list[int], b: list[int]):
    n = max(len(a), len(b))
    for i in range(n):
        yield (a[i] if i < len(a) else 0), (b[i] if i < len(b) else 0)


def _coeffs(idx: int, p: int, m: int) -> list[int]:
    """The m base-p digits of an element index, constant term first."""
    out = []
    for _ in range(m):
        out.append(idx % p)
        idx //= p
    return out


def _find_modulus(p: int, m: int) -> tuple[int, ...]:
    """First monic irreducible of degree m over GF(p) in index order."""
    if m == 1:
        return (0, 1)
    for idx in range(p**m):
        f = _coeffs(idx, p, m) + [1]
        if _is_irreducible(f, p):
            return tuple(f)
    raise FieldError(f"no irreducible polynomial of degree {m} over GF({p})")


class FieldSpec:
    """GF(p^m) with log/antilog multiplication and Zech-logarithm addition.

    Characteristic 2 adds by XOR and prime fields by a sum mod p.  Odd
    extensions add by a + b = a * (1 + b/a): one gather from the Zech table
    `_zech`, indexed by log b - log a + 2(q-1), then one from `_expx`.  When
    q <= 1024 the q x q table `_add_table` of digitwise sums mod p is built
    once, and addition is a single gather from it.  Negation gathers from
    `_neg_table`.  The
    kernels (`vadd`, `vsub`, `vneg`, `vmul`, `vdiv_nz`, `vpow_gen`) take
    numpy index arrays or plain ints alike; the scalar ops `inv` and `pow`
    call one of them on one element and return an int.

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
        self.modulus = _find_modulus(p, m)
        self.generator = self._find_generator()
        self._build_mul_tables()
        self._build_add_tables()
        self._subfield_cache: dict[int, np.ndarray] = {}

    # -- construction ------------------------------------------------------

    def _find_generator(self) -> int:
        order = self.q - 1
        if order == 1:
            return 1
        primes = list(factorize(order))
        for a in range(2, self.q):
            g = _coeffs(a, self.p, self.m)
            if all(_ppowmod(g, order // r, self.modulus, self.p) != [1] for r in primes):
                return a
        raise FieldError("no generator found (impossible for a field)")

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

    def inv(self, a: int) -> int:
        if a == 0:
            raise DivisionByZero("inverse of zero")
        return int(self.vdiv_nz(1, a))

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
