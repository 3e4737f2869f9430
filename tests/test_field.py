import numpy as np
import pytest

from cyclrc.field import (
    DivisionByZero,
    FieldSpec,
    MixedFields,
    NonPrime,
    NotASubfield,
    OrderNotDividing,
    SizeCapExceeded,
    field_create,
    is_in_subfield,
    ord_mod,
    primitive_nth_root,
)
from cyclrc.poly import Polynomial

def multiplicative_order(F, a):
    return next(e for e in range(1, F.q) if F.pow(a, e) == 1)


SAMPLE_FIELDS = [(2, 3), (2, 5), (2, 10), (3, 2), (5, 3), (7, 2), (19, 1), (23, 1)]


def test_create_basic_shapes():
    F = field_create(2, 3)
    assert F.q == 8
    assert len(F.modulus) == 4 and F.modulus[-1] == 1
    assert multiplicative_order(F, F.generator) == 7

    Fp = field_create(19, 1)
    assert Fp.q == 19 and len(Fp.modulus) == 2


def test_create_errors():
    with pytest.raises(NonPrime):
        field_create(6, 2)
    with pytest.raises(SizeCapExceeded):
        field_create(2, 21)


def test_deterministic_reconstruction():
    a = FieldSpec(5, 3)
    b = FieldSpec(5, 3)
    assert a.modulus == b.modulus
    assert a.generator == b.generator
    assert np.array_equal(a._exp, b._exp)


def test_gf125_for_length42():
    # the n=42 families need GF(5^3) and its quadratic extension
    F = field_create(5, 3)
    assert F.q == 125
    F2 = field_create(5, 6)
    assert 42 % 1 == 0 and (F2.q - 1) % 42 == 0


@pytest.mark.parametrize("p,m", SAMPLE_FIELDS)
def test_field_laws_randomized(p, m):
    # associativity, distributivity, inverses: 2000 random triples per field
    F = field_create(p, m)
    rng = np.random.default_rng(p * 100 + m)
    a, b, c = (rng.integers(0, F.q, 2000) for _ in range(3))
    lhs = F.vadd(F.vadd(a, b), c)
    rhs = F.vadd(a, F.vadd(b, c))
    assert np.array_equal(lhs, rhs)
    lhs = F.vmul(a, F.vadd(b, c))
    rhs = F.vadd(F.vmul(a, b), F.vmul(a, c))
    assert np.array_equal(lhs, rhs)
    lhs = F.vmul(F.vmul(a, b), c)
    rhs = F.vmul(a, F.vmul(b, c))
    assert np.array_equal(lhs, rhs)
    nz = a.copy()
    nz[nz == 0] = 1
    inv = np.array([F.inv(int(x)) for x in nz[:200]])
    assert np.all(F.vmul(nz[:200], inv) == 1)


@pytest.mark.parametrize("p,m", [(2, 4), (3, 2), (5, 2)])
def test_scalar_vector_agree(p, m):
    F = field_create(p, m)
    rng = np.random.default_rng(7)
    a = rng.integers(0, F.q, 300)
    b = rng.integers(0, F.q, 300)
    for x, y in zip(a.tolist(), b.tolist()):
        assert F.add(x, y) == int(F.vadd(np.array([x]), np.array([y]))[0])
        assert F.mul(x, y) == int(F.vmul(np.array([x]), np.array([y]))[0])
        assert F.sub(x, y) == int(F.vsub(np.array([x]), np.array([y]))[0])


@pytest.mark.parametrize("p,m", [(5, 2), (3, 3), (7, 2), (5, 3), (23, 2)])
def test_table_addition_matches_digit_addition(p, m):
    # odd extensions with q <= 1024 add by table gather: every pair, several shapes
    F = field_create(p, m)
    assert F._add_table is not None
    x = np.arange(F.q)
    digit_sum = F._digit_add(x[:, None], x[None, :])
    assert np.array_equal(F.vadd(x[:, None], x[None, :]), digit_sum)
    assert np.array_equal(F.vsub(x[:, None], x[None, :]), F._digit_add(x[:, None], F.vneg(x)[None, :]))
    assert not F._digit_add(x, F.vneg(x)).any()
    rng = np.random.default_rng(p * 100 + m)
    a = rng.integers(0, F.q, (3, 1, 7))
    b = rng.integers(0, F.q, (4, 7))
    assert F.vadd(a, b).shape == (3, 4, 7)
    assert np.array_equal(F.vadd(a, b), F._digit_add(a, b))
    s = int(rng.integers(0, F.q))
    assert np.array_equal(F.vadd(x, s), digit_sum[:, s])
    assert np.array_equal(F.vadd(s, x), digit_sum[s])
    assert F.vadd(x, x).dtype == np.int64


def test_digit_addition_above_table_size():
    F = field_create(3, 7)  # q = 2187 > 1024: no addition table
    assert F._add_table is None
    rng = np.random.default_rng(37)
    a = rng.integers(0, F.q, 300)
    b = rng.integers(0, F.q, 300)
    for x, y, z, w in zip(a.tolist(), b.tolist(), F.vadd(a, b).tolist(), F.vsub(a, b).tolist()):
        assert z == F.add(x, y)
        assert w == F.sub(x, y)


def test_identity_laws_all_elements():
    F = field_create(3, 2)
    for x in range(F.q):
        assert F.mul(x, 1) == x
        assert F.add(x, 0) == x
        assert F.add(x, F.neg(x)) == 0


def test_frobenius_is_additive_and_multiplicative():
    for p, m in [(2, 4), (3, 3), (5, 2)]:
        F = field_create(p, m)
        rng = np.random.default_rng(p)
        for _ in range(300):
            a, b = int(rng.integers(0, F.q)), int(rng.integers(0, F.q))
            assert F.pow(F.add(a, b), p) == F.add(F.pow(a, p), F.pow(b, p))
            assert F.pow(F.mul(a, b), p) == F.mul(F.pow(a, p), F.pow(b, p))


def test_element_ops_and_mixed_fields():
    F = field_create(2, 3)
    G = field_create(2, 4)
    x = 5
    assert F.mul(x, 1) == 5
    assert F.add(x, 0) == 5
    assert F.mul(x, F.inv(x)) == 1
    assert F.pow(x, 7) == 1  # multiplicative group order
    with pytest.raises(MixedFields):
        _ = Polynomial.make(F, [x]) + Polynomial.make(G, [1])
    with pytest.raises(DivisionByZero):
        F.inv(0)


def test_fermat_in_prime_field():
    F = field_create(19, 1)
    assert F.pow(2, 18) == 1
    # repeated multiplication oracle
    acc = 1
    for _ in range(18):
        acc = F.mul(acc, 2)
    assert acc == 1


def test_subfield_membership_counts():
    # exactly q0 elements pass the fixed-point test, full enumeration
    F = field_create(2, 10)
    for q0 in (2, 4, 32, 1024):
        count = sum(1 for x in range(F.q) if is_in_subfield(F, x, q0))
        assert count == q0
    with pytest.raises(NotASubfield):
        is_in_subfield(F, 1, 8)  # 3 does not divide 10


def test_subfield_elements_match_membership():
    for p, m in [(2, 6), (3, 4), (2, 12)]:
        F = field_create(p, m)
        for m0 in range(1, m + 1):
            if m % m0:
                continue
            q0 = p**m0
            listed = set(int(x) for x in F.subfield_elements(q0))
            if F.q <= 4096:
                direct = {x for x in range(F.q) if F.pow(x, q0) == x}
                assert listed == direct
            assert 0 in listed and 1 in listed and len(listed) == q0


def test_primitive_nth_root():
    F = field_create(2, 3)
    a = primitive_nth_root(F, 7)
    assert multiplicative_order(F, a) == 7
    for k in range(1, 7):
        assert F.pow(a, k) != 1
    assert F.pow(a, 7) == 1
    assert primitive_nth_root(F, 1) == 1
    F19 = field_create(19, 1)
    g = primitive_nth_root(F19, 18)
    assert multiplicative_order(F19, g) == 18
    with pytest.raises(OrderNotDividing):
        primitive_nth_root(F, 5)


def test_ord_mod():
    assert ord_mod(8, 7) == 1  # q = 1 mod n
    assert ord_mod(2, 31) == 5
    assert ord_mod(19, 18) == 1
    for q, n in [(23, 24), (49, 50), (64, 65), (125, 42), (32, 33), (16, 17)]:
        assert ord_mod(q, n) == 2  # n | q+1 and n > 2
    with pytest.raises(Exception):
        ord_mod(6, 9)
