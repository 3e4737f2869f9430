import hashlib
import json
from math import isqrt
from pathlib import Path

import numpy as np
import pytest

from cyclrc import field
from cyclrc.field import (
    SIZE_CAP,
    DivisionByZero,
    FieldError,
    FieldSpec,
    NonPrime,
    NotASubfield,
    OrderNotDividing,
    SizeCapExceeded,
    field_create,
    is_prime,
    ord_mod,
    primitive_nth_root,
)
from reference_algebra import MixedFields, find_generator, find_modulus, poly_add, poly_make

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
    inv = np.array([F.pow(int(x), -1) for x in nz[:200]])
    assert np.all(F.vmul(nz[:200], inv) == 1)


@pytest.mark.parametrize("p,m", [(2, 4), (3, 2), (5, 2)])
def test_scalar_vector_agree(p, m):
    # a scalar is a vector of one: the kernels give the same element for
    # plain ints as for one-element arrays, and the scalar ops return ints
    F = field_create(p, m)
    rng = np.random.default_rng(7)
    a = rng.integers(0, F.q, 300)
    b = rng.integers(0, F.q, 300)
    e = rng.integers(-3 * F.q, 3 * F.q, 300)
    for x, y, k in zip(a.tolist(), b.tolist(), e.tolist()):
        for kernel in (F.vadd, F.vsub, F.vmul):
            assert kernel(x, y) == kernel(np.array([x]), np.array([y]))[0]
        assert F.vneg(x) == F.vneg(np.array([x]))[0]
        if x:
            assert type(F.pow(x, -1)) is int and F.vmul(x, F.pow(x, -1)) == 1
            assert type(F.pow(x, k)) is int and F.vmul(F.pow(x, k), F.pow(x, -k)) == 1
            assert F.pow(x, k + 1) == F.vmul(F.pow(x, k), x)
            assert F.pow(x, k + 10**30 * (F.q - 1)) == F.pow(x, k)  # beyond int64


def digitwise(F, op, *xs):
    """Apply `op` to the base-p digits of the index arrays `xs`, mod p: the
    reference for addition, subtraction and negation in GF(p^m)."""
    xs = np.broadcast_arrays(*(np.asarray(x, dtype=np.int64) for x in xs))
    out = np.zeros(xs[0].shape, dtype=np.int64)
    for j in range(F.m):
        place = F.p**j
        out += (op(*(x // place % F.p for x in xs)) % F.p) * place
    return out


@pytest.mark.parametrize("p,m", [(5, 2), (3, 3), (7, 2), (5, 3), (23, 2), (3, 7), (7, 4), (5, 6)])
def test_table_addition_matches_digit_addition(p, m):
    # odd extensions on both sides of the q <= 1024 add-table rule against the
    # digit reference: every pair below it, zero operands and random pairs above
    F = field_create(p, m)
    assert (F._add_table is not None) == (F.q <= 1024)
    x = np.arange(F.q)
    rng = np.random.default_rng(p * 100 + m)
    if F.q <= 1024:
        a, b = x[:, None], x[None, :]
    else:
        a = np.concatenate([[0, 0, 1, 7], rng.integers(0, F.q, 20000)])
        b = np.concatenate([[0, 1, 0, int(F.vneg(7))], rng.integers(0, F.q, 20000)])
    assert np.array_equal(F.vadd(a, b), digitwise(F, np.add, a, b))
    assert np.array_equal(F.vsub(a, b), digitwise(F, np.subtract, a, b))
    assert np.array_equal(F.vneg(x), digitwise(F, np.negative, x))
    assert not F.vadd(x, F.vneg(x)).any()
    assert np.array_equal(F.vadd(x, 0), x) and np.array_equal(F.vadd(0, x), x)
    s = int(rng.integers(0, F.q))
    assert np.array_equal(F.vadd(x, s), digitwise(F, np.add, x, s))
    assert np.array_equal(F.vadd(s, x), digitwise(F, np.add, s, x))
    a3 = rng.integers(0, F.q, (3, 1, 7))
    b3 = rng.integers(0, F.q, (4, 7))
    assert F.vadd(a3, b3).shape == (3, 4, 7)
    assert np.array_equal(F.vadd(a3, b3), digitwise(F, np.add, a3, b3))
    assert F.vadd(x, x).dtype == np.int64
    pairs = rng.integers(0, F.q, (300, 2)).tolist() + [[0, 0], [0, 3], [3, 0], [3, int(F.vneg(3))]]
    for u, v in pairs:
        assert F.vadd(u, v) == int(digitwise(F, np.add, u, v))
        assert F.vsub(u, v) == int(digitwise(F, np.subtract, u, v))
        assert F.vneg(u) == int(digitwise(F, np.negative, u))


def table_digest(F):
    h = hashlib.sha256(repr((tuple(F.modulus), F.generator)).encode())
    h.update(F._exp.astype("<i8").tobytes())
    h.update(F._log.astype("<i8").tobytes())
    return h.hexdigest()


def test_field_tables_pinned():
    # every field the golden corpus, the sweeps and the tests build keeps its
    # reducing polynomial, generator and log/antilog tables byte for byte
    pinned = json.loads((Path(__file__).parent / "data" / "field_tables.json").read_text())
    for name, digest in pinned.items():
        p, m = map(int, name.split("^"))
        assert table_digest(field_create(p, m)) == digest, name


def test_extension_table_matches_reference_search():
    # each entry is what the polynomial searches find: the first monic
    # irreducible in index order and the smallest index of full order
    for (p, m), (f, g) in field._EXTENSIONS.items():
        modulus = find_modulus(p, m)
        assert (*field._coeffs(f, p, m), 1) == modulus, (p, m)
        assert g == find_generator(p, m, modulus), (p, m)


def test_extension_table_covers_every_field_under_cap():
    wanted = {(p, m) for p in range(2, isqrt(SIZE_CAP) + 1) if is_prime(p)
              for m in range(2, SIZE_CAP.bit_length()) if p**m <= SIZE_CAP}
    assert set(field._EXTENSIONS) == wanted and len(wanted) == 242


def test_prime_generator_matches_reference_search():
    primes = [p for p in range(2, 1 << 15) if is_prime(p)]
    for p in primes:
        assert field._prime_generator(p) == find_generator(p, 1, (0, 1)), p
    assert field._prime_generator(2) == 1


def test_tampered_table_entry_is_refused(monkeypatch):
    # FieldSpec directly: field_create would hand back its cached instance
    f, g = field._EXTENSIONS[2, 4]
    low = field_create(2, 4).pow(g, 3)  # order 5
    monkeypatch.setitem(field._EXTENSIONS, (2, 4), (1, g))  # x^4 + 1 = (x + 1)^4
    with pytest.raises(FieldError):
        FieldSpec(2, 4)
    monkeypatch.setitem(field._EXTENSIONS, (2, 4), (f, low))
    with pytest.raises(FieldError):
        FieldSpec(2, 4)
    monkeypatch.undo()
    assert FieldSpec(2, 4).generator == g


def test_identity_laws_all_elements():
    F = field_create(3, 2)
    for x in range(F.q):
        assert F.vmul(x, 1) == x
        assert F.vadd(x, 0) == x
        assert F.vadd(x, F.vneg(x)) == 0


def test_frobenius_is_additive_and_multiplicative():
    for p, m in [(2, 4), (3, 3), (5, 2)]:
        F = field_create(p, m)
        rng = np.random.default_rng(p)
        for _ in range(300):
            a, b = int(rng.integers(0, F.q)), int(rng.integers(0, F.q))
            assert F.pow(int(F.vadd(a, b)), p) == F.vadd(F.pow(a, p), F.pow(b, p))
            assert F.pow(int(F.vmul(a, b)), p) == F.vmul(F.pow(a, p), F.pow(b, p))


def test_element_ops_and_mixed_fields():
    F = field_create(2, 3)
    G = field_create(2, 4)
    x = 5
    assert F.vmul(x, 1) == 5
    assert F.vadd(x, 0) == 5
    assert F.vmul(x, F.pow(x, -1)) == 1
    assert F.pow(x, 7) == 1  # multiplicative group order
    with pytest.raises(MixedFields):
        poly_add(poly_make(F, [x]), poly_make(G, [1]))
    with pytest.raises(DivisionByZero):
        F.pow(0, -1)


def test_fermat_in_prime_field():
    F = field_create(19, 1)
    assert F.pow(2, 18) == 1
    # repeated multiplication oracle
    acc = 1
    for _ in range(18):
        acc = F.vmul(acc, 2)
    assert acc == 1


def test_subfield_membership_counts():
    # exactly q0 elements pass the fixed-point test, full enumeration
    F = field_create(2, 10)
    for q0 in (2, 4, 32, 1024):
        count = sum(1 for x in range(F.q) if F.pow(x, q0) == x)
        assert count == q0 == len(F.subfield_elements(q0))
    with pytest.raises(NotASubfield):
        F.subfield_elements(8)  # 3 does not divide 10


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
