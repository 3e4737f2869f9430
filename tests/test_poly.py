import numpy as np
import pytest

from cyclrc.field import DivisionByZero, field_create
from cyclrc.poly import DuplicateRoot, product_from_roots
from reference_algebra import poly_add, poly_divmod, poly_make, poly_mul, poly_neg, poly_sub, poly_zero


def x_pow_minus_one(F, n):
    return poly_make(F, [int(F.vneg(1))] + [0] * (n - 1) + [1])


def rand_poly(F, rng, max_deg=9):
    deg = int(rng.integers(0, max_deg + 1))
    return poly_make(F, [int(x) for x in rng.integers(0, F.q, deg + 1)])


@pytest.mark.parametrize("p,m", [(2, 1), (2, 5), (19, 1), (5, 3)])
def test_ring_identities(p, m):
    F = field_create(p, m)
    rng = np.random.default_rng(p + m)
    one = poly_make(F, [1])
    zero = poly_zero(F)
    for _ in range(300):
        a = rand_poly(F, rng)
        assert poly_mul(a, one) == a
        assert poly_add(a, zero) == a
        assert poly_sub(a, a) == zero


@pytest.mark.parametrize("p,m", [(2, 3), (3, 2), (19, 1), (5, 3)])
def test_divmod_roundtrip_randomized(p, m):
    # a = q*b + r with deg r < deg b, 1000 random pairs
    F = field_create(p, m)
    rng = np.random.default_rng(17 * p + m)
    for _ in range(1000):
        a = rand_poly(F, rng, 10)
        b = rand_poly(F, rng, 6)
        if b.is_zero():
            continue
        q, r = poly_divmod(a, b)
        assert poly_add(poly_mul(q, b), r) == a
        assert r.is_zero() or r.degree < b.degree


def test_divmod_by_zero():
    F = field_create(2, 3)
    with pytest.raises(DivisionByZero):
        poly_divmod(poly_make(F, [1]), poly_zero(F))


def test_divmod_known_value():
    F2 = field_create(2, 1)
    a = x_pow_minus_one(F2, 7)
    b = poly_make(F2, [1, 1, 0, 1])  # x^3 + x + 1
    q, r = poly_divmod(a, b)
    assert r.is_zero() and poly_mul(q, b) == a


def test_generator_divides_xn_minus_one():
    from cyclrc.cyclic import code_from_defining_set, cyc_context

    ctx = cyc_context(8, 7)
    code = code_from_defining_set(ctx, ctx.exponent_set([3, 4, 5]))
    q, r = poly_divmod(x_pow_minus_one(ctx.field, 7), code.gen)
    assert r.is_zero()


def eval_at(poly, x):
    # Horner evaluation at the element index x
    acc = 0
    for c in reversed(poly.coeffs):
        acc = poly.spec.vadd(poly.spec.vmul(acc, x), c)
    return acc


def test_product_from_roots():
    F = field_create(2, 5)
    assert product_from_roots(F, []) == poly_make(F, [1])
    assert product_from_roots(F, [1]) == poly_make(F, [int(F.vneg(1)), 1])
    with pytest.raises(DuplicateRoot):
        product_from_roots(F, [3, 3])
    rng = np.random.default_rng(0)
    for _ in range(100):
        roots = list({int(x) for x in rng.integers(1, F.q, 6)})
        pr = product_from_roots(F, roots)
        assert pr.coeffs[-1] == 1 and pr.degree == len(roots)
        for r in roots:
            assert eval_at(pr, r) == 0
        # nonzero away from the roots (spot enumeration)
        for x in range(F.q):
            if x not in roots:
                assert eval_at(pr, x) != 0


def test_product_from_closed_set_stays_in_subfield():
    from cyclrc.cyclic import cyc_context, cyclotomic_coset

    ctx = cyc_context(2, 15)
    coset = cyclotomic_coset(3, ctx)
    pr = product_from_roots(ctx.field, ctx.root_powers([1], coset.exps)[0])
    for c in pr.coeffs:
        assert ctx.field.pow(c, 2) == c  # fixed by the Frobenius of GF(2)


def test_pretty_matches_bracket_style():
    F2 = field_create(2, 1)
    g = poly_make(F2, [1, 1, 0, 1, 0, 1, 1, 1, 0, 0, 1, 0, 0, 1, 1, 1, 0, 1, 0, 1, 1])
    assert g.pretty() == (
        "x^20 + x^19 + x^17 + x^15 + x^14 + x^13 + x^10 + x^7 + x^6 + x^5 + x^3 + x + 1"
    )
    assert poly_zero(F2).pretty() == "0"


# The scalar loops that the row kernels replaced, kept as references: one
# field operation per pair of coefficients, each on plain ints.
def reference_mul(a, b):
    F = a.spec
    if a.is_zero() or b.is_zero():
        return poly_zero(F)
    out = [0] * (len(a.coeffs) + len(b.coeffs) - 1)
    for i, x in enumerate(a.coeffs):
        if x:
            for j, y in enumerate(b.coeffs):
                if y:
                    out[i + j] = int(F.vadd(out[i + j], F.vmul(x, y)))
    return poly_make(F, out)


def reference_divmod(a, b):
    F = a.spec
    rem = list(a.coeffs)
    db = b.degree
    lead_inv = F.pow(b.coeffs[-1], -1)
    quo = [0] * max(0, len(rem) - db)
    while len(rem) - 1 >= db and rem:
        lead = int(F.vmul(rem[-1], lead_inv))
        pos = len(rem) - 1 - db
        if lead:
            quo[pos] = lead
            for j in range(db + 1):
                rem[pos + j] = int(F.vsub(rem[pos + j], F.vmul(lead, b.coeffs[j])))
        rem.pop()
        while rem and rem[-1] == 0:
            rem.pop()
    return poly_make(F, quo), poly_make(F, rem)


def reference_product_from_roots(F, roots):
    out = poly_make(F, [1])
    for r in roots:
        out = reference_mul(out, poly_make(F, [int(F.vneg(r)), 1]))
    return out


# binary, prime, and odd extensions on both sides of the q <= 1024 add table
@pytest.mark.parametrize("p,m", [(2, 4), (2, 10), (19, 1), (5, 2), (23, 2), (5, 6)])
def test_kernel_arithmetic_matches_scalar_reference(p, m):
    F = field_create(p, m)
    rng = np.random.default_rng(1000 * p + m)
    polys = [poly_zero(F), poly_make(F, [1]), poly_make(F, [0, 0, 0, 2])]
    polys += [rand_poly(F, rng, 12) for _ in range(22)]
    for a in polys:
        for b in polys:
            assert poly_mul(a, b) == reference_mul(a, b)
            assert poly_add(a, b) == poly_make(F, [int(F.vadd(x, y)) for x, y in zip(a._array(30), b._array(30))])
            # divisors of higher degree than the dividend, and non-monic ones
            if not b.is_zero():
                assert poly_divmod(a, b) == reference_divmod(a, b)
        assert poly_neg(a) == poly_make(F, [int(F.vneg(x)) for x in a.coeffs])
    for size in (0, 1, 2, 17, 33):
        roots = rng.choice(F.q, size=min(size, F.q), replace=False)
        assert product_from_roots(F, roots) == reference_product_from_roots(F, roots.tolist())
