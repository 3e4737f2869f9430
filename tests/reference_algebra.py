"""Reference algebra for the tests; nothing in `src` calls it.

* The polynomial searches that once built every field: the first monic
  irreducible of degree m in index order (a Rabin test per candidate) and the
  smallest index of full multiplicative order.  `cyclrc.field._EXTENSIONS`
  must record exactly what they find, and the prime fields' generator must
  agree with `find_generator`.  Polynomials here are low-to-high coefficient
  lists over Z_p.
* Polynomial ring arithmetic over a FieldSpec by scalar loops, one field
  operation per pair of coefficients on plain ints, and the encoder of a
  cyclic code built on it.  Polynomials there are tuples of element
  indices, low-to-high with no trailing zeros, as `cyclrc.poly` makes them.
"""

from __future__ import annotations

import numpy as np

from cyclrc.field import DivisionByZero, FieldError, _coeffs, factorize

# ---------------------------------------------------------------------------
# the field searches


def ptrim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def pmulmod(a: list[int], b: list[int], f: list[int], p: int) -> list[int]:
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
    return ptrim(out)


def ppowmod(a: list[int], e: int, f: list[int], p: int) -> list[int]:
    result = [1]
    base = list(a)
    while e:
        if e & 1:
            result = pmulmod(result, base, f, p)
        base = pmulmod(base, base, f, p)
        e >>= 1
    return result


def pmod(a: list[int], b: list[int], p: int) -> list[int]:
    """a mod b over GF(p); b nonzero."""
    a = ptrim(list(a))
    db = len(b)
    inv_lead = pow(b[-1], p - 2, p)
    while len(a) >= db:
        lead = (a[-1] * inv_lead) % p
        if lead:
            off = len(a) - db
            for j in range(db):
                a[off + j] = (a[off + j] - lead * b[j]) % p
        a.pop()
        ptrim(a)
    return a


def pgcd(a: list[int], b: list[int], p: int) -> list[int]:
    a, b = ptrim(list(a)), ptrim(list(b))
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
    if ptrim([(a - b) % p for a, b in zip_pad(xq, x)]):
        return False
    for t in factorize(m):
        xs = ppowmod(x, p ** (m // t), f, p)
        diff = ptrim([(a - b) % p for a, b in zip_pad(xs, x)])
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


def trim(coeffs) -> tuple[int, ...]:
    """The coefficients as a tuple of ints, trailing zeros dropped."""
    return tuple(ptrim([int(c) for c in coeffs]))


def poly_add(F, a, b) -> tuple[int, ...]:
    return trim(F.vadd(x, y) for x, y in zip_pad(a, b))


def poly_sub(F, a, b) -> tuple[int, ...]:
    return trim(F.vsub(x, y) for x, y in zip_pad(a, b))


def poly_mul(F, a, b) -> tuple[int, ...]:
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] = int(F.vadd(out[i + j], F.vmul(x, y)))
    return trim(out)


def poly_divmod(F, a, b) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(quotient, remainder) of a by b: each step clears the remainder's top
    coefficient with a multiple of b."""
    if not b:
        raise DivisionByZero("polynomial division by zero")
    db = len(b) - 1
    lead_inv = F.pow(b[-1], -1)
    rem = list(a)
    quo = [0] * max(0, len(rem) - db)
    for top in range(len(rem) - 1, db - 1, -1):
        c = int(F.vmul(rem[top], lead_inv))
        if c:
            quo[top - db] = c
            for j in range(db + 1):
                rem[top - db + j] = int(F.vsub(rem[top - db + j], F.vmul(c, b[j])))
    return trim(quo), trim(rem[:db])


def encode(code, msg) -> np.ndarray:
    """The codeword msg(x) * g(x) of a cyclic code, as n element indices."""
    msg = [int(x) for x in msg]
    if len(msg) != code.k:
        raise ValueError(f"message length {len(msg)} differs from k={code.k}")
    cw = poly_mul(code.field, trim(msg), code.gen)
    out = np.zeros(code.n, dtype=np.int64)
    out[: len(cw)] = cw
    return out
