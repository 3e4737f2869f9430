import numpy as np
import pytest

from cyclrc.field import DivisionByZero, field_create, is_in_subfield
from cyclrc.poly import DegreeExceedsK, DuplicateRoot, Polynomial, product_from_roots, reciprocal


def rand_poly(F, rng, max_deg=9):
    deg = int(rng.integers(0, max_deg + 1))
    return Polynomial.make(F, [int(x) for x in rng.integers(0, F.q, deg + 1)])


@pytest.mark.parametrize("p,m", [(2, 1), (2, 5), (19, 1), (5, 3)])
def test_ring_identities(p, m):
    F = field_create(p, m)
    rng = np.random.default_rng(p + m)
    one = Polynomial.one(F)
    zero = Polynomial.zero(F)
    for _ in range(300):
        a = rand_poly(F, rng)
        assert a * one == a
        assert a + zero == a
        assert a - a == zero


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
        q, r = divmod(a, b)
        assert q * b + r == a
        assert r.is_zero() or r.degree < b.degree


def test_divmod_by_zero():
    F = field_create(2, 3)
    with pytest.raises(DivisionByZero):
        divmod(Polynomial.one(F), Polynomial.zero(F))


def test_gcd_known_value():
    F2 = field_create(2, 1)
    a = Polynomial.x_pow_minus_one(F2, 7)
    b = Polynomial.make(F2, [1, 1, 0, 1])  # x^3 + x + 1
    assert a.gcd(b) == b
    q, r = divmod(a, b)
    assert r.is_zero() and q * b == a


def test_gcd_is_monic_common_divisor():
    F = field_create(5, 1)
    rng = np.random.default_rng(3)
    for _ in range(200):
        g = rand_poly(F, rng, 3)
        if g.is_zero():
            continue
        a = g * rand_poly(F, rng, 3)
        b = g * rand_poly(F, rng, 3)
        d = a.gcd(b)
        if a.is_zero() and b.is_zero():
            continue
        assert d.is_monic()
        assert (a % d).is_zero() and (b % d).is_zero()
        assert (d % g.monic()).is_zero()


def test_generator_divides_xn_minus_one():
    from cyclrc.cyclic import code_from_defining_set, cyc_context

    ctx = cyc_context(8, 7)
    code = code_from_defining_set(ctx, ctx.exponent_set([3, 4, 5]))
    q, r = divmod(Polynomial.x_pow_minus_one(ctx.field, 7), code.gen)
    assert r.is_zero()


def eval_at(poly, x):
    # Horner evaluation at the element index x
    acc = 0
    for c in reversed(poly.coeffs):
        acc = poly.spec.add(poly.spec.mul(acc, x), c)
    return acc


def test_product_from_roots():
    F = field_create(2, 5)
    assert product_from_roots(F, []) == Polynomial.one(F)
    assert product_from_roots(F, [1]) == Polynomial.make(F, [F.neg(1), 1])
    with pytest.raises(DuplicateRoot):
        product_from_roots(F, [3, 3])
    rng = np.random.default_rng(0)
    for _ in range(100):
        roots = list({int(x) for x in rng.integers(1, F.q, 6)})
        pr = product_from_roots(F, roots)
        assert pr.is_monic() and pr.degree == len(roots)
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
    pr = product_from_roots(ctx.field, [ctx.root(j) for j in coset.exps])
    for c in pr.coeffs:
        assert is_in_subfield(ctx.field, c, 2)


def test_reciprocal():
    F = field_create(19, 1)
    h = Polynomial.make(F, [3, 2, 1])
    assert reciprocal(h, 2) == Polynomial.make(F, [1, 2, 3])
    # palindromic fixed point
    pal = Polynomial.make(F, [1, 5, 1])
    assert reciprocal(pal, 2) == pal
    # involution over a padded range
    rng = np.random.default_rng(5)
    for _ in range(1000):
        h = rand_poly(F, rng, 6)
        k = h.degree + int(rng.integers(0, 3)) if not h.is_zero() else 3
        assert reciprocal(reciprocal(h, k), k) == h
    with pytest.raises(DegreeExceedsK):
        reciprocal(Polynomial.make(F, [1, 1, 1, 1]), 2)


def test_pretty_matches_bracket_style():
    F2 = field_create(2, 1)
    g = Polynomial.make(F2, [1, 1, 0, 1, 0, 1, 1, 1, 0, 0, 1, 0, 0, 1, 1, 1, 0, 1, 0, 1, 1])
    assert g.pretty() == (
        "x^20 + x^19 + x^17 + x^15 + x^14 + x^13 + x^10 + x^7 + x^6 + x^5 + x^3 + x + 1"
    )
    assert Polynomial.zero(F2).pretty() == "0"
