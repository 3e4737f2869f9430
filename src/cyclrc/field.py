"""Exact arithmetic in GF(p^m) with deterministic construction.

Elements are canonical integer indices in 0..q-1: the base-p digits of the
index are the polynomial-basis coordinates (constant term = least significant
digit).  Multiplication runs on log/antilog tables.  Addition is plain XOR in
characteristic 2 and a sum mod p in prime fields; odd-characteristic
extensions gather it from a q x q addition table for q <= 1024 and use digit
arithmetic above that, and negate by a gather from a q-entry table.  So
everything vectorizes over numpy index arrays.  Two calls with the same
(p, m) always produce identical arithmetic: the reducing polynomial is the
first monic irreducible in index order and the generator is the smallest
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
    """Return (p, m) with q = p^m, or raise if q is not a prime power."""
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


def _find_modulus(p: int, m: int) -> tuple[int, ...]:
    """First monic irreducible of degree m over GF(p) in index order."""
    if m == 1:
        return (0, 1)
    for idx in range(p**m):
        coeffs = []
        v = idx
        for _ in range(m):
            coeffs.append(v % p)
            v //= p
        f = coeffs + [1]
        if _is_irreducible(f, p):
            return tuple(f)
    raise FieldError(f"no irreducible polynomial of degree {m} over GF({p})")


class FieldSpec:
    """GF(p^m) with log/antilog multiplication and table or digit addition.

    Odd-characteristic extensions add by a gather from the q x q table
    `_add_table` when q <= 1024 and by digit arithmetic (`_digit_add`) above
    it; they negate by a gather from `_neg_table`.

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
        self._build_add_tables()
        self.generator = self._find_generator()
        self._build_mul_tables()
        self._subfield_cache: dict[int, np.ndarray] = {}

    # -- construction ------------------------------------------------------

    def _build_add_tables(self) -> None:
        p, m, q = self.p, self.m, self.q
        self._dig = None
        self._pv = None
        self._add_table = None
        self._neg_table = None
        if p == 2:
            self._mod_int = 0
            for j, c in enumerate(self.modulus):
                self._mod_int |= c << j
        elif m > 1:
            # p^2 <= q <= 2^20 keeps digit sums well inside int32
            idx = np.arange(q, dtype=np.int64)
            dig = np.empty((q, m), dtype=np.int32)
            v = idx.copy()
            for j in range(m):
                dig[:, j] = v % p
                v //= p
            self._dig = dig
            self._pv = (p ** np.arange(m, dtype=np.int64)).astype(np.int64)
            self._neg_table = ((-dig) % p).astype(np.int64) @ self._pv
            if q <= 1024:
                # full addition table: scalar and vector addition are look-ups
                self._add_table = (
                    ((dig[:, None, :] + dig[None, :, :]) % p).astype(np.int64) @ self._pv
                )

    def _mul_raw(self, a: int, b: int) -> int:
        """Table-free product of two element indices (construction only)."""
        p, m = self.p, self.m
        if p == 2:
            acc = 0
            mod_int = self._mod_int
            top = 1 << m
            while b:
                if b & 1:
                    acc ^= a
                b >>= 1
                a <<= 1
                if a & top:
                    a ^= mod_int
            return acc
        if m == 1:
            return (a * b) % p
        da = self._digits(a)
        db = self._digits(b)
        prod = [0] * (2 * m - 1)
        for i, ai in enumerate(da):
            if ai:
                for j, bj in enumerate(db):
                    prod[i + j] = (prod[i + j] + ai * bj) % p
        f = self.modulus
        for i in range(len(prod) - 1, m - 1, -1):
            lead = prod[i]
            if lead:
                prod[i] = 0
                for j in range(m):
                    prod[i - m + j] = (prod[i - m + j] - lead * f[j]) % p
        return self._undigits(prod[:m])

    def _digits(self, a: int) -> list[int]:
        out = []
        for _ in range(self.m):
            out.append(a % self.p)
            a //= self.p
        return out

    def _undigits(self, d: list[int]) -> int:
        out = 0
        for c in reversed(d):
            out = out * self.p + c
        return out

    def _pow_raw(self, a: int, e: int) -> int:
        out = 1
        while e:
            if e & 1:
                out = self._mul_raw(out, a)
            a = self._mul_raw(a, a)
            e >>= 1
        return out

    def _find_generator(self) -> int:
        order = self.q - 1
        if order == 1:
            return 1
        primes = list(factorize(order))
        for a in range(2, self.q):
            if all(self._pow_raw(a, order // r) != 1 for r in primes):
                return a
        raise FieldError("no generator found (impossible for a field)")

    def _build_mul_tables(self) -> None:
        q = self.q
        n1 = q - 1
        exp = np.zeros(n1, dtype=np.int64)
        log = np.zeros(q, dtype=np.int64)
        x = 1
        for i in range(n1):
            exp[i] = x
            log[x] = i
            x = self._mul_raw(x, self.generator)
        if x != 1:
            raise FieldError("generator order check failed")
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
        # plain-list mirrors make single-element arithmetic cheap
        if q <= 1 << 16:
            self._expx_l = expx.tolist()
            self._logx_l = logx.tolist()
            self._exp_l = exp.tolist()
            self._log_l = log.tolist()
        else:
            self._expx_l = self._logx_l = self._exp_l = self._log_l = None
        if self._add_table is not None:
            self._add_l = self._add_table.tolist()
        else:
            self._add_l = None
        if self._neg_table is not None:
            self._neg_l = self._neg_table.tolist()
        else:
            self._neg_l = None

    # -- scalar ops --------------------------------------------------------

    def add(self, a: int, b: int) -> int:
        if self.p == 2:
            return a ^ b
        if self.m == 1:
            return (a + b) % self.p
        if self._add_l is not None:
            return self._add_l[a][b]
        p = self.p
        out = 0
        shift = 1
        while a or b:
            out += ((a % p + b % p) % p) * shift
            a //= p
            b //= p
            shift *= p
        return out

    def neg(self, a: int) -> int:
        if self.p == 2:
            return a
        if self.m == 1:
            return (-a) % self.p
        return self._neg_l[a]

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if self._expx_l is not None:
            return self._expx_l[self._logx_l[a] + self._logx_l[b]]
        return int(self._expx[self._logx[a] + self._logx[b]])

    def inv(self, a: int) -> int:
        if a == 0:
            raise DivisionByZero("inverse of zero")
        return int(self._exp[(-self._log[a]) % (self.q - 1)])

    def pow(self, a: int, e: int) -> int:
        if a == 0:
            if e > 0:
                return 0
            if e == 0:
                return 1
            raise DivisionByZero("negative power of zero")
        if self._exp_l is not None:
            return self._exp_l[(self._log_l[a] * e) % (self.q - 1)]
        return int(self._exp[(self._log[a] * e) % (self.q - 1)])

    # -- vector ops on numpy index arrays -----------------------------------

    def vadd(self, a, b):
        if self.p == 2:
            return np.bitwise_xor(a, b)
        if self.m == 1:
            return (np.asarray(a, dtype=np.int64) + b) % self.p
        if self._add_table is not None:
            return self._add_table[a, b]
        return self._digit_add(a, b)

    def _digit_add(self, a, b):
        """Digit-wise addition mod p, for odd extensions without an add table."""
        return ((self._dig[a] + self._dig[b]) % self.p).astype(np.int64) @ self._pv

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
        """a / b elementwise where every b is nonzero."""
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


def is_in_subfield(spec: FieldSpec, x: int, q0: int) -> bool:
    """True iff element x lies in the subfield of size q0 (fixed by y -> y^q0)."""
    p0, m0 = prime_power_split(q0)
    if p0 != spec.p or spec.m % m0 != 0:
        raise NotASubfield(f"GF({q0}) is not a subfield of GF({spec.q})")
    return spec.pow(x, q0) == x


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
