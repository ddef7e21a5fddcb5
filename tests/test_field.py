import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convmacw import FieldSpec
from convmacw.field import _is_prime
from oracles import enumerate_vectors, vector_index


def trace(a):
    return a.field.trace(a)


def test_prime_field_basics(f2, f3):
    assert (f2.one + f2.one).code == 0
    assert (f3.element(2) + f3.element(2)).code == 1
    assert (f3.element(2) * f3.element(2)).code == 1
    assert f3.element(2).inverse().code == 2
    f5 = FieldSpec(5)
    assert f5.element(3).inverse().code == 2


def test_extension_field_basics(f4):
    w = f4.element(2)        # the generator class, digits (0, 1)
    w1 = f4.element(3)       # generator plus one
    assert w + w1 == f4.one
    assert w * w == w1
    assert w.inverse() == w1
    assert w.digits == (0, 1)
    assert f4.from_digits([1, 1]) == w1


def test_primality_matches_a_sieve():
    """Trial division agrees with the sieve of Eratosthenes on every
    characteristic FieldSpec can accept (p <= 2^16) and below 2."""
    bound = 2 ** 16
    sieve = [False, False] + [True] * (bound - 1)
    for i in range(2, 257):
        if sieve[i]:
            sieve[i * i::i] = [False] * len(range(i * i, bound + 1, i))
    assert [n for n in range(-3, bound + 1) if _is_prime(n)] == [
        n for n in range(bound + 1) if sieve[n]]


def test_field_validation():
    with pytest.raises(ValueError):
        FieldSpec(4)
    with pytest.raises(ValueError):
        FieldSpec(2, 2)  # missing modulus
    with pytest.raises(ValueError):
        FieldSpec(2, 2, [1, 0, 1])  # (x+1)^2, reducible
    with pytest.raises(ValueError):
        FieldSpec(2, 1, [1, 1])  # modulus not accepted for prime fields
    with pytest.raises(ValueError):
        FieldSpec(2, 2, [1, 1])  # wrong degree


def _monic(p, degree):
    """Every monic polynomial of the degree over Z/p, constant term first."""
    return [tail + (1,) for tail in itertools.product(range(p), repeat=degree)]


@pytest.mark.parametrize("p, s, irreducible", [
    (2, 2, 1), (2, 3, 2), (2, 4, 3), (3, 2, 3), (3, 3, 8), (5, 2, 10),
])
def test_every_small_modulus_is_classified(p, s, irreducible):
    """A monic modulus is accepted exactly when it is no product of two
    monic factors of positive degree; Gauss's count of the accepted ones.
    At (2, 4) this rejects x^4 + x^2 + 1 = (x^2 + x + 1)^2, which has no
    root."""
    products = set()
    for d in range(1, s):
        for a in _monic(p, d):
            for b in _monic(p, s - d):
                prod = [0] * (s + 1)
                for i, x in enumerate(a):
                    for j, y in enumerate(b):
                        prod[i + j] = (prod[i + j] + x * y) % p
                products.add(tuple(prod))
    accepted = []
    for mod in _monic(p, s):
        try:
            FieldSpec(p, s, mod)
        except ValueError:
            assert mod in products, mod
        else:
            assert mod not in products, mod
            accepted.append(mod)
    assert len(accepted) == irreducible


def test_mixed_field_operations_rejected(f2, f3):
    with pytest.raises(ValueError):
        f2.one + f3.one
    with pytest.raises(ZeroDivisionError):
        f3.zero.inverse()


def test_trace_prime_field_is_identity(f2, f3):
    assert trace(f2.one) == 1
    assert trace(f2.zero) == 0
    assert all(trace(a) == a.code for a in f3.elements)


def test_trace_quartic_field(f4):
    # w + w^2 = w + (w + 1) = 1 by direct evaluation
    w = f4.element(2)
    assert trace(w) == 1
    assert trace(f4.one) == 0  # 1 + 1^2 = 0 in characteristic 2


def test_trace_against_power_sum_oracle():
    f9 = FieldSpec(3, 2, [1, 0, 1])
    for a in f9.elements:
        brute = a + a ** 3  # independent brute-force power sum
        assert brute.digits[1] == 0
        assert trace(a) == brute.digits[0]


@pytest.mark.parametrize("spec", [
    (2, 1, None), (3, 1, None), (5, 1, None),
    (2, 2, [1, 1, 1]), (2, 3, [1, 1, 0, 1]),
    (3, 2, [1, 0, 1]), (5, 2, [2, 0, 1]),
])
def test_trace_linear_surjective_kernel(spec):
    p, s, mod = spec
    f = FieldSpec(p, s, mod)
    values = [trace(a) for a in f.elements]
    assert set(values) == set(range(p))
    assert values.count(0) == p ** (s - 1)
    for a in f.elements:
        for b in f.elements:
            assert trace(a + b) == (trace(a) + trace(b)) % p


@pytest.mark.parametrize("spec", [
    (2, 2, [1, 1, 1]), (3, 2, [1, 0, 1]),
    (2, 9, [1, 0, 0, 0, 1, 0, 0, 0, 0, 1]), (257, 1, None),
], ids=["q=4", "q=9", "q=512", "q=257"])
def test_trace_table_matches_trace(spec):
    f = FieldSpec(*spec)
    assert f.trace_table().tolist() == [f.trace(c) for c in range(f.q)]


_FIELDS = [FieldSpec(2), FieldSpec(3), FieldSpec(5), FieldSpec(2, 2, [1, 1, 1]),
           FieldSpec(2, 3, [1, 1, 0, 1]), FieldSpec(3, 2, [1, 0, 1]),
           FieldSpec(5, 2, [2, 0, 1])]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(0, len(_FIELDS) - 1), st.data())
def test_field_axioms(fi, data):
    f = _FIELDS[fi]
    a = f.element(data.draw(st.integers(0, f.q - 1)))
    b = f.element(data.draw(st.integers(0, f.q - 1)))
    c = f.element(data.draw(st.integers(0, f.q - 1)))
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a * b == b * a
    assert a + (-a) == f.zero
    if a:
        assert a * a.inverse() == f.one


def test_encoding_roundtrip():
    f9 = FieldSpec(3, 2, [1, 0, 1])
    for code in range(9):
        a = f9.element(code)
        assert a.code == code
        assert f9.from_digits(a.digits) == a


def test_enumerate_vectors_ordering(f2, f3):
    vecs = enumerate_vectors(f2, 3)
    as_codes = [tuple(a.code for a in v) for v in vecs]
    assert as_codes == [
        (0, 0, 0), (0, 0, 1), (0, 1, 0), (0, 1, 1),
        (1, 0, 0), (1, 0, 1), (1, 1, 0), (1, 1, 1),
    ]
    assert [vector_index(v) for v in vecs] == list(range(8))
    ones = enumerate_vectors(f3, 1)
    assert [v[0].code for v in ones] == [0, 1, 2]
    empty = enumerate_vectors(f3, 0)
    assert empty == ((),)


def test_element_rendering(f2, f4):
    assert str(f2.one) == "1"
    assert str(f4.element(2)) == "[0,1]"
    assert repr(f4.element(3)) == "F4([1,1])"


def _assert_tables_match_raw(field, pairs):
    for a, b in pairs:
        assert field._add_t[a][b] == field._add_raw(a, b), (a, b)
        assert field._mul_t[a][b] == field._mul_raw(a, b), (a, b)
    for a in {a for a, _ in pairs}:
        assert field._neg_t[a] == field._neg_raw(a)
        if a:
            assert field._mul_raw(a, field._inv_t[a]) == 1
    assert field._inv_t[0] is None


@pytest.mark.parametrize("spec", [(2, 5, [1, 0, 1, 0, 0, 1]), (3, 3, [1, 2, 0, 1])])
def test_tables_match_digit_arithmetic(spec):
    field = FieldSpec(*spec)
    _assert_tables_match_raw(field, [(a, b) for a in range(field.q) for b in range(field.q)])


def test_tables_match_digit_arithmetic_gf256_sample():
    field = FieldSpec(2, 8, [1, 1, 0, 1, 1, 0, 0, 0, 1])
    rng = random.Random(256)
    pairs = [(rng.randrange(256), rng.randrange(256)) for _ in range(2000)]
    _assert_tables_match_raw(field, pairs + [(0, 0), (255, 255), (1, 255)])
