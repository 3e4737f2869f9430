import numpy as np
import pytest

from cyclrc.field import DivisionByZero, field_create
from cyclrc.poly import DuplicateRoot, pretty, product_from_roots
from reference_algebra import poly_add, poly_divmod, poly_mul, poly_sub, trim


def x_pow_minus_one(F, n):
    return (int(F.vneg(1)),) + (0,) * (n - 1) + (1,)


def rand_poly(F, rng, max_deg=9):
    deg = int(rng.integers(0, max_deg + 1))
    return trim(rng.integers(0, F.q, deg + 1))


@pytest.mark.parametrize("p,m", [(2, 1), (2, 5), (19, 1), (5, 3)])
def test_ring_identities(p, m):
    F = field_create(p, m)
    rng = np.random.default_rng(p + m)
    for _ in range(300):
        a = rand_poly(F, rng)
        assert poly_mul(F, a, (1,)) == a
        assert poly_add(F, a, ()) == a
        assert poly_sub(F, a, a) == ()


@pytest.mark.parametrize("p,m", [(2, 3), (3, 2), (19, 1), (5, 3)])
def test_divmod_roundtrip_randomized(p, m):
    # a = q*b + r with deg r < deg b, 1000 random pairs
    F = field_create(p, m)
    rng = np.random.default_rng(17 * p + m)
    for _ in range(1000):
        a = rand_poly(F, rng, 10)
        b = rand_poly(F, rng, 6)
        if not b:
            continue
        q, r = poly_divmod(F, a, b)
        assert poly_add(F, poly_mul(F, q, b), r) == a
        assert len(r) < len(b)


def test_divmod_by_zero():
    F = field_create(2, 3)
    with pytest.raises(DivisionByZero):
        poly_divmod(F, (1,), ())


def test_divmod_known_value():
    F2 = field_create(2, 1)
    a = x_pow_minus_one(F2, 7)
    b = (1, 1, 0, 1)  # x^3 + x + 1
    q, r = poly_divmod(F2, a, b)
    assert r == () and poly_mul(F2, q, b) == a


def test_generator_divides_xn_minus_one():
    from cyclrc.cyclic import code_from_defining_set, cyc_context

    ctx = cyc_context(8, 7)
    code = code_from_defining_set(ctx, ctx.exponent_set([3, 4, 5]))
    q, r = poly_divmod(ctx.field, x_pow_minus_one(ctx.field, 7), code.gen)
    assert r == ()


def eval_at(F, coeffs, x):
    # Horner evaluation at the element index x
    acc = 0
    for c in reversed(coeffs):
        acc = F.vadd(F.vmul(acc, x), c)
    return acc


def test_product_from_roots():
    F = field_create(2, 5)
    assert product_from_roots(F, []) == (1,)
    assert product_from_roots(F, [1]) == (int(F.vneg(1)), 1)
    with pytest.raises(DuplicateRoot):
        product_from_roots(F, [3, 3])
    rng = np.random.default_rng(0)
    for _ in range(100):
        roots = list({int(x) for x in rng.integers(1, F.q, 6)})
        pr = product_from_roots(F, roots)
        assert pr[-1] == 1 and len(pr) - 1 == len(roots)
        for r in roots:
            assert eval_at(F, pr, r) == 0
        # nonzero away from the roots (spot enumeration)
        for x in range(F.q):
            if x not in roots:
                assert eval_at(F, pr, x) != 0


def test_product_from_closed_set_stays_in_subfield():
    from cyclrc.cyclic import cyc_context, cyclotomic_coset

    ctx = cyc_context(2, 15)
    coset = cyclotomic_coset(3, ctx)
    pr = product_from_roots(ctx.field, ctx.root_powers([1], coset.exps)[0])
    for c in pr:
        assert ctx.field.pow(c, 2) == c  # fixed by the Frobenius of GF(2)


def test_pretty_matches_bracket_style():
    g = (1, 1, 0, 1, 0, 1, 1, 1, 0, 0, 1, 0, 0, 1, 1, 1, 0, 1, 0, 1, 1)
    assert pretty(g) == (
        "x^20 + x^19 + x^17 + x^15 + x^14 + x^13 + x^10 + x^7 + x^6 + x^5 + x^3 + x + 1"
    )
    assert pretty(()) == "0"


# the root product as one scalar-loop multiplication by (x - r) per root
def reference_product_from_roots(F, roots):
    out = (1,)
    for r in roots:
        out = poly_mul(F, out, (int(F.vneg(r)), 1))
    return out


# binary, prime, and odd extensions on both sides of the q <= 1024 add table
@pytest.mark.parametrize("p,m", [(2, 4), (2, 10), (19, 1), (5, 2), (23, 2), (5, 6)])
def test_kernel_arithmetic_matches_scalar_reference(p, m):
    F = field_create(p, m)
    rng = np.random.default_rng(1000 * p + m)
    for size in (0, 1, 2, 17, 33):
        roots = rng.choice(F.q, size=min(size, F.q), replace=False)
        assert product_from_roots(F, roots) == reference_product_from_roots(F, roots.tolist())
