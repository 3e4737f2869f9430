"""Dense univariate polynomial arithmetic over a FieldSpec.

Coefficient vectors run low-to-high with no trailing zeros; the zero
polynomial is the empty vector.  Lengths stay small (codes at desk scale),
so all loops are plain Python over integer element indices.
"""

from __future__ import annotations

from dataclasses import dataclass

from .field import DivisionByZero, FieldSpec, MixedFields


class DuplicateRoot(ValueError):
    pass


class DegreeExceedsK(ValueError):
    pass


@dataclass(frozen=True)
class Polynomial:
    spec: FieldSpec
    coeffs: tuple[int, ...]

    @staticmethod
    def make(spec: FieldSpec, coeffs) -> "Polynomial":
        cs = [int(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        return Polynomial(spec, tuple(cs))

    @staticmethod
    def zero(spec: FieldSpec) -> "Polynomial":
        return Polynomial(spec, ())

    @staticmethod
    def one(spec: FieldSpec) -> "Polynomial":
        return Polynomial(spec, (1,))

    @staticmethod
    def x_pow_minus_one(spec: FieldSpec, n: int) -> "Polynomial":
        """x^n - 1."""
        cs = [0] * (n + 1)
        cs[0] = spec.neg(1)
        cs[n] = 1
        return Polynomial(spec, tuple(cs))

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def _check(self, other: "Polynomial") -> None:
        if other.spec is not self.spec:
            raise MixedFields("polynomials live in different fields")

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        F = self.spec
        n = max(len(self.coeffs), len(other.coeffs))
        out = []
        for i in range(n):
            a = self.coeffs[i] if i < len(self.coeffs) else 0
            b = other.coeffs[i] if i < len(other.coeffs) else 0
            out.append(F.add(a, b))
        return Polynomial.make(F, out)

    def __neg__(self) -> "Polynomial":
        F = self.spec
        return Polynomial(F, tuple(F.neg(c) for c in self.coeffs))

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        F = self.spec
        if self.is_zero() or other.is_zero():
            return Polynomial.zero(F)
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    if b:
                        out[i + j] = F.add(out[i + j], F.mul(a, b))
        return Polynomial.make(F, out)

    def scale(self, c: int) -> "Polynomial":
        F = self.spec
        if c == 0:
            return Polynomial.zero(F)
        return Polynomial.make(F, [F.mul(a, c) for a in self.coeffs])

    def __divmod__(self, other: "Polynomial") -> tuple["Polynomial", "Polynomial"]:
        self._check(other)
        F = self.spec
        if other.is_zero():
            raise DivisionByZero("polynomial division by zero")
        rem = list(self.coeffs)
        db = other.degree
        lead_inv = F.inv(other.coeffs[-1])
        quo = [0] * max(0, len(rem) - db)
        while len(rem) - 1 >= db and rem:
            lead = F.mul(rem[-1], lead_inv)
            pos = len(rem) - 1 - db
            if lead:
                quo[pos] = lead
                for j in range(db + 1):
                    rem[pos + j] = F.sub(rem[pos + j], F.mul(lead, other.coeffs[j]))
            rem.pop()
            while rem and rem[-1] == 0:
                rem.pop()
        return Polynomial.make(F, quo), Polynomial.make(F, rem)

    def __floordiv__(self, other: "Polynomial") -> "Polynomial":
        return divmod(self, other)[0]

    def __mod__(self, other: "Polynomial") -> "Polynomial":
        return divmod(self, other)[1]

    def monic(self) -> "Polynomial":
        if self.is_zero() or self.is_monic():
            return self
        return self.scale(self.spec.inv(self.coeffs[-1]))

    def gcd(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        a, b = self, other
        while not b.is_zero():
            a, b = b, a % b
        return a.monic()

    def pretty(self, var: str = "x") -> str:
        """Human-readable high-to-low rendering, e.g. x^3 + 2*x + 1."""
        if self.is_zero():
            return "0"
        terms = []
        for i in range(self.degree, -1, -1):
            c = self.coeffs[i]
            if not c:
                continue
            if i == 0:
                terms.append(str(c))
            else:
                xpart = var if i == 1 else f"{var}^{i}"
                terms.append(xpart if c == 1 else f"{c}*{xpart}")
        return " + ".join(terms)


def product_from_roots(spec: FieldSpec, roots) -> Polynomial:
    """Monic polynomial with exactly the given distinct roots."""
    idx = [int(r) for r in roots]
    if len(set(idx)) != len(idx):
        raise DuplicateRoot("root list contains repeats")
    out = Polynomial.one(spec)
    for r in idx:
        out = out * Polynomial.make(spec, [spec.neg(r), 1])
    return out


def reciprocal(h: Polynomial, k: int) -> Polynomial:
    """Coefficient reversal over index range 0..k."""
    if h.degree > k:
        raise DegreeExceedsK(f"deg {h.degree} exceeds reversal range {k}")
    cs = list(h.coeffs) + [0] * (k + 1 - len(h.coeffs))
    return Polynomial.make(h.spec, cs[::-1])
