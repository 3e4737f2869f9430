"""Dense univariate polynomials over a FieldSpec, as coefficient tuples.

A polynomial is a tuple of integer element indices running low-to-high with
no trailing zeros; the zero polynomial is the empty tuple.  So polynomials
hash, compare and serialise as plain data.  A root product runs on the
field's vector kernels, two kernel calls per root, never one per pair of
coefficients.
"""

from __future__ import annotations

import numpy as np

from .field import FieldSpec


class DuplicateRoot(ValueError):
    pass


def pretty(coeffs) -> str:
    """Human-readable high-to-low rendering, e.g. x^3 + 2*x + 1."""
    terms = []
    for i in range(len(coeffs) - 1, -1, -1):
        c = coeffs[i]
        if not c:
            continue
        if i == 0:
            terms.append(str(c))
        else:
            xpart = "x" if i == 1 else f"x^{i}"
            terms.append(xpart if c == 1 else f"{c}*{xpart}")
    return " + ".join(terms) or "0"


def product_from_roots(spec: FieldSpec, roots) -> tuple[int, ...]:
    """Low-to-high coefficients of the monic polynomial with exactly the
    given distinct roots."""
    idx = [int(r) for r in roots]
    if len(set(idx)) != len(idx):
        raise DuplicateRoot("root list contains repeats")
    # high-to-low coefficients: times (x - r), entry j becomes h[j] - r*h[j-1]
    h = np.zeros(len(idx) + 1, dtype=np.int64)
    h[0] = 1
    for d, r in enumerate(idx, start=1):
        h[1 : d + 1] = spec.vsub(h[1 : d + 1], spec.vmul(r, h[:d]))
    return tuple(h[::-1].tolist())
