"""Dense univariate polynomial arithmetic over a FieldSpec.

Coefficient vectors run low-to-high with no trailing zeros; the zero
polynomial is the empty vector.  `coeffs` is a tuple of integer element
indices, so polynomials hash, compare and serialise as plain data.  The
arithmetic runs on the field's vector kernels: at most two kernel calls per
row of a product, per quotient step of a division and per root of a root
product, never one per pair of coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .field import DivisionByZero, FieldSpec, MixedFields


class DuplicateRoot(ValueError):
    pass


@dataclass(frozen=True)
class Polynomial:
    spec: FieldSpec
    coeffs: tuple[int, ...]

    @staticmethod
    def make(spec: FieldSpec, coeffs) -> "Polynomial":
        cs = np.asarray(coeffs, dtype=np.int64)
        nz = np.flatnonzero(cs)
        return Polynomial(spec, tuple(cs[: nz[-1] + 1].tolist()) if nz.size else ())

    @staticmethod
    def zero(spec: FieldSpec) -> "Polynomial":
        return Polynomial(spec, ())

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def _check(self, other: "Polynomial") -> None:
        if other.spec is not self.spec:
            raise MixedFields("polynomials live in different fields")

    def _array(self, length: int | None = None) -> np.ndarray:
        """The coefficients as an int64 array, zero-padded to `length`."""
        out = np.zeros(len(self.coeffs) if length is None else length, dtype=np.int64)
        out[: len(self.coeffs)] = self.coeffs
        return out

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return Polynomial.make(self.spec, self.spec.vadd(self._array(n), other._array(n)))

    def __neg__(self) -> "Polynomial":
        return Polynomial(self.spec, tuple(self.spec.vneg(self._array()).tolist()))

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        F = self.spec
        if self.is_zero() or other.is_zero():
            return Polynomial.zero(F)
        # one row of products per coefficient of the shorter factor, each
        # added into the output at its offset
        a, b = sorted((self, other), key=lambda f: len(f.coeffs))
        rows = F.vmul(a._array()[:, None], b._array()[None, :])
        out = np.zeros(len(a.coeffs) + len(b.coeffs) - 1, dtype=np.int64)
        width = len(b.coeffs)
        for i, c in enumerate(a.coeffs):
            if c:
                out[i : i + width] = F.vadd(out[i : i + width], rows[i])
        return Polynomial.make(F, out)

    def __divmod__(self, other: "Polynomial") -> tuple["Polynomial", "Polynomial"]:
        self._check(other)
        F = self.spec
        if other.is_zero():
            raise DivisionByZero("polynomial division by zero")
        # divide by the monic associate b / lead(b): each step's quotient
        # coefficient is then the remainder's top coefficient, and the true
        # quotient is that one scaled by 1 / lead(b)
        db = other.degree
        lead_inv = F.inv(other.coeffs[-1])
        low = F.vmul(other._array()[:db], lead_inv)  # the monic divisor below x^db
        rem = self._array()
        quo = np.zeros(max(0, len(rem) - db), dtype=np.int64)
        for top in range(len(rem) - 1, db - 1, -1):
            c = int(rem[top])
            if c:
                quo[top - db] = c
                rem[top - db : top] = F.vsub(rem[top - db : top], F.vmul(c, low))
        return Polynomial.make(F, F.vmul(quo, lead_inv)), Polynomial.make(F, rem[:db])

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
    # high-to-low coefficients: times (x - r), entry j becomes h[j] - r*h[j-1]
    h = np.zeros(len(idx) + 1, dtype=np.int64)
    h[0] = 1
    for d, r in enumerate(idx, start=1):
        h[1 : d + 1] = spec.vsub(h[1 : d + 1], spec.vmul(r, h[:d]))
    return Polynomial(spec, tuple(h[::-1].tolist()))
