"""Dense univariate polynomial arithmetic over a FieldSpec.

Coefficient vectors run low-to-high with no trailing zeros; the zero
polynomial is the empty vector.  `coeffs` is a tuple of integer element
indices, so polynomials hash, compare and serialise as plain data.  A root
product runs on the field's vector kernels, two kernel calls per root, never
one per pair of coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .field import FieldSpec


class DuplicateRoot(ValueError):
    pass


@dataclass(frozen=True)
class Polynomial:
    spec: FieldSpec
    coeffs: tuple[int, ...]

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def _array(self, length: int | None = None) -> np.ndarray:
        """The coefficients as an int64 array, zero-padded to `length`."""
        out = np.zeros(len(self.coeffs) if length is None else length, dtype=np.int64)
        out[: len(self.coeffs)] = self.coeffs
        return out

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
