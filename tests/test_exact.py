import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convmacw import FieldSpec, WePoly
from convmacw.duality import trace_exponents
from conftest import we
from oracles import (enumerate_vectors, macwilliams_transform, macwilliams_we,
                     padded, we_of_affine)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_root_powers_sum_to_zero(p):
    """Bucketed exponent counts c_e collapse to the rational c_0 - c_(p-1)
    because the p-th roots of unity sum to zero: each nonzero row of the
    GF(p) character grid holds every root power once and sums to 0, the
    zero row holds p copies of 1."""
    E = trace_exponents(FieldSpec(p), 1)
    counts = np.stack([np.count_nonzero(E == e, axis=1) for e in range(p)])
    assert (counts[1:] == counts[p - 1]).all()
    assert (counts[0] - counts[p - 1]).tolist() == [p] + [0] * (p - 1)


def test_wepoly_basics():
    w = WePoly((1, 0, 0, 1))
    assert str(w) == "1 + W^3"
    assert w.coeffs == (1, 0, 0, 1)
    assert w + WePoly((0, 1)) == WePoly((1, 1, 0, 1))
    assert 2 * WePoly((1, 1)) == WePoly((2, 2))
    assert WePoly((0, 0)) == WePoly.empty()
    assert str(WePoly.empty()) == "0"
    assert padded(WePoly((1, 2, 0, 0, 0, 1)), 5) == (1, 2, 0, 0, 0, 1)
    with pytest.raises(ValueError):
        padded(WePoly((1, 1, 1)), 1)


def test_we_of_affine_goldens(f2):
    v = tuple(f2.element(c) for c in (1, 1, 0, 1, 0))
    zero = tuple(f2.zero for _ in range(5))
    assert we_of_affine(f2, zero, [v]) == we("1+W^3")
    assert we_of_affine(f2, zero, []) == we("1")
    offset = tuple(f2.element(c) for c in (1, 1, 1, 0, 0))
    assert we_of_affine(f2, offset, [v]) == we("W^2+W^3")


def test_macwilliams_monomial_golden():
    assert macwilliams_transform((1,), 1, 2) == (1, 1)


def test_macwilliams_known_value():
    # transform of (1+W)^5 at q = 2 is the constant 32
    coeffs = (1, 5, 10, 10, 5, 1)
    assert macwilliams_transform(coeffs, 5, 2) == (32, 0, 0, 0, 0, 0)
    # so the wrapped codes identity 2^(2+3) * 1 = 32 holds for the
    # full-space/zero-space pair
    assert 2 ** 5 == 32


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.integers(2, 4), st.integers(0, 6), st.data())
def test_macwilliams_involution_and_linearity(q, n, data):
    f = tuple(data.draw(st.integers(-9, 9)) for _ in range(n + 1))
    g = tuple(data.draw(st.integers(-9, 9)) for _ in range(n + 1))
    hf = macwilliams_transform(f, n, q)
    hg = macwilliams_transform(g, n, q)
    hhf = macwilliams_transform(hf, n, q)
    assert hhf == tuple(q ** n * c for c in f)
    a = Fraction(data.draw(st.integers(-5, 5)), 1 + data.draw(st.integers(0, 4)))
    combo = tuple(a * x + y for x, y in zip(f, g))
    assert macwilliams_transform(combo, n, q) == tuple(
        a * x + y for x, y in zip(hf, hg))


def test_macwilliams_degree_guard():
    with pytest.raises(ValueError):
        macwilliams_transform((1, 2, 3), 1, 2)


def _brute_force_dual(field, rows, n):
    """All vectors orthogonal to every generator, by full enumeration."""
    out = []
    for v in enumerate_vectors(field, n):
        if all(sum((a * field.elements[b] for a, b in zip(v, g)), field.zero) == field.zero
               for g in rows):
            out.append(v)
    return out


@pytest.mark.parametrize("q", [2, 3, 4])
def test_block_macwilliams_against_brute_force(q):
    field = FieldSpec(2, 2, [1, 1, 1]) if q == 4 else FieldSpec(q)
    rng = random.Random(1000 + q)
    for _ in range(25):
        n = rng.randint(1, 6)
        k = rng.randint(0, n)
        rows = [tuple(field.element(rng.randrange(q)) for _ in range(n))
                for _ in range(k)]
        from convmacw.linalg import Subspace
        code = Subspace.from_rows(field, n, rows)
        code_we = we_of_affine(field, (0,) * n, code.basis)
        dual_vectors = _brute_force_dual(field, code.basis, n)
        counts = [0] * (n + 1)
        for v in dual_vectors:
            counts[sum(1 for a in v if a)] += 1
        dual_we = WePoly(counts)
        transformed = macwilliams_we(code_we, n, q)
        scale = q ** code.dim
        assert tuple(c * scale for c in padded(dual_we, n)) == padded(transformed, n)
