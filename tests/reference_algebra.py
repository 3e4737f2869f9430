"""Reference algebra for the tests; nothing in `src` calls it.

* The polynomial searches that once built every field: the first monic
  irreducible of degree m in index order (a Rabin test per candidate) and the
  smallest index of full multiplicative order.  `cyclrc.field._EXTENSIONS`
  must record exactly what they find, and the prime fields' generator must
  agree with `find_generator`.  Polynomials here are low-to-high coefficient
  lists over Z_p.
* Polynomial ring arithmetic over a FieldSpec on the field's vector kernels
  (at most two kernel calls per row of a product or quotient step of a
  division), and the encoder of a cyclic code built on it.
"""

from __future__ import annotations

import numpy as np

from cyclrc.field import DivisionByZero, FieldError, _coeffs, _pmulmod, _ptrim, factorize
from cyclrc.poly import Polynomial

# ---------------------------------------------------------------------------
# the field searches


def ppowmod(a: list[int], e: int, f: list[int], p: int) -> list[int]:
    result = [1]
    base = list(a)
    while e:
        if e & 1:
            result = _pmulmod(result, base, f, p)
        base = _pmulmod(base, base, f, p)
        e >>= 1
    return result


def pmod(a: list[int], b: list[int], p: int) -> list[int]:
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


def pgcd(a: list[int], b: list[int], p: int) -> list[int]:
    a, b = _ptrim(list(a)), _ptrim(list(b))
    while b:
        a, b = b, pmod(a, b, p)
    return a


def zip_pad(a: list[int], b: list[int]):
    n = max(len(a), len(b))
    for i in range(n):
        yield (a[i] if i < len(a) else 0), (b[i] if i < len(b) else 0)


def is_irreducible(f: list[int], p: int) -> bool:
    """Rabin test: f (monic, degree m) irreducible over GF(p)."""
    m = len(f) - 1
    if m == 1:
        return True
    if f[0] == 0:
        return False
    x = [0, 1]
    xq = ppowmod(x, p**m, f, p)
    # x^(p^m) == x mod f
    if _ptrim([(a - b) % p for a, b in zip_pad(xq, x)]):
        return False
    for t in factorize(m):
        xs = ppowmod(x, p ** (m // t), f, p)
        diff = _ptrim([(a - b) % p for a, b in zip_pad(xs, x)])
        if len(pgcd(f, diff, p)) - 1 > 0:
            return False
    return True


def find_modulus(p: int, m: int) -> tuple[int, ...]:
    """First monic irreducible of degree m over GF(p) in index order."""
    if m == 1:
        return (0, 1)
    for idx in range(p**m):
        f = _coeffs(idx, p, m) + [1]
        if is_irreducible(f, p):
            return tuple(f)
    raise FieldError(f"no irreducible polynomial of degree {m} over GF({p})")


def find_generator(p: int, m: int, modulus) -> int:
    """Smallest index of full multiplicative order in GF(p)[x]/(modulus)."""
    order = p**m - 1
    if order == 1:
        return 1
    primes = list(factorize(order))
    for a in range(2, p**m):
        g = _coeffs(a, p, m)
        if all(ppowmod(g, order // r, list(modulus), p) != [1] for r in primes):
            return a
    raise FieldError("no generator found (impossible for a field)")


# ---------------------------------------------------------------------------
# polynomial ring arithmetic


class MixedFields(FieldError):
    pass


def check_same_field(a: Polynomial, b: Polynomial) -> None:
    if b.spec is not a.spec:
        raise MixedFields("polynomials live in different fields")


def poly_make(spec, coeffs) -> Polynomial:
    """The polynomial with these coefficients, trailing zeros dropped."""
    cs = np.asarray(coeffs, dtype=np.int64)
    nz = np.flatnonzero(cs)
    return Polynomial(spec, tuple(cs[: nz[-1] + 1].tolist()) if nz.size else ())


def poly_zero(spec) -> Polynomial:
    return Polynomial(spec, ())


def poly_add(a: Polynomial, b: Polynomial) -> Polynomial:
    check_same_field(a, b)
    n = max(len(a.coeffs), len(b.coeffs))
    return poly_make(a.spec, a.spec.vadd(a._array(n), b._array(n)))


def poly_neg(a: Polynomial) -> Polynomial:
    return Polynomial(a.spec, tuple(a.spec.vneg(a._array()).tolist()))


def poly_sub(a: Polynomial, b: Polynomial) -> Polynomial:
    return poly_add(a, poly_neg(b))


def poly_mul(a: Polynomial, b: Polynomial) -> Polynomial:
    check_same_field(a, b)
    F = a.spec
    if a.is_zero() or b.is_zero():
        return poly_zero(F)
    # one row of products per coefficient of the shorter factor, each
    # added into the output at its offset
    a, b = sorted((a, b), key=lambda f: len(f.coeffs))
    rows = F.vmul(a._array()[:, None], b._array()[None, :])
    out = np.zeros(len(a.coeffs) + len(b.coeffs) - 1, dtype=np.int64)
    width = len(b.coeffs)
    for i, c in enumerate(a.coeffs):
        if c:
            out[i : i + width] = F.vadd(out[i : i + width], rows[i])
    return poly_make(F, out)


def poly_divmod(a: Polynomial, b: Polynomial) -> tuple[Polynomial, Polynomial]:
    check_same_field(a, b)
    F = a.spec
    if b.is_zero():
        raise DivisionByZero("polynomial division by zero")
    # divide by the monic associate b / lead(b): each step's quotient
    # coefficient is then the remainder's top coefficient, and the true
    # quotient is that one scaled by 1 / lead(b)
    db = b.degree
    lead_inv = F.pow(b.coeffs[-1], -1)
    low = F.vmul(b._array()[:db], lead_inv)  # the monic divisor below x^db
    rem = a._array()
    quo = np.zeros(max(0, len(rem) - db), dtype=np.int64)
    for top in range(len(rem) - 1, db - 1, -1):
        c = int(rem[top])
        if c:
            quo[top - db] = c
            rem[top - db : top] = F.vsub(rem[top - db : top], F.vmul(c, low))
    return poly_make(F, F.vmul(quo, lead_inv)), poly_make(F, rem[:db])


def encode(code, msg) -> np.ndarray:
    """The codeword msg(x) * g(x) of a cyclic code, as n element indices."""
    msg = [int(x) for x in msg]
    if len(msg) != code.k:
        raise ValueError(f"message length {len(msg)} differs from k={code.k}")
    cw = poly_mul(poly_make(code.field, msg), code.gen)
    out = np.zeros(code.n, dtype=np.int64)
    out[: len(cw.coeffs)] = cw.coeffs
    return out
