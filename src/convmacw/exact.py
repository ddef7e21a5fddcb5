"""Exact rational-cyclotomic numbers, weight enumerators, and the
MacWilliams transform on weight enumerators.

Numbers in Q(zeta_p) are stored on the basis {1, zeta, ..., zeta^(p-2)},
with zeta^(p-1) always rewritten as -(1 + zeta + ... + zeta^(p-2)), so the
representation is unique.  For p = 2 this degenerates to a single rational
(zeta = -1).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

import numpy as np

from .field import FieldSpec, span_blocks, vector_codes


class CycloNum:
    """Element of Q(zeta_p) for a fixed prime p."""

    __slots__ = ("p", "coeffs")

    def __init__(self, p: int, coeffs):
        self.p = p
        coeffs = tuple(Fraction(c) for c in coeffs)
        if len(coeffs) != p - 1:
            raise ValueError(f"need {p - 1} basis coefficients, got {len(coeffs)}")
        self.coeffs = coeffs

    @classmethod
    def rational(cls, p: int, value) -> "CycloNum":
        return cls(p, (value,) + (0,) * (p - 2))

    @classmethod
    def zero(cls, p: int) -> "CycloNum":
        return cls.rational(p, 0)

    @classmethod
    def from_power_counts(cls, p: int, counts) -> "CycloNum":
        """Reduce sum(counts[k] * zeta^k for k in range(p)) to the basis."""
        if len(counts) != p:
            raise ValueError(f"need {p} power counts")
        top = counts[p - 1]
        return cls(p, tuple(c - top for c in counts[: p - 1]))

    def _check(self, other):
        if not isinstance(other, CycloNum):
            return NotImplemented
        if other.p != self.p:
            raise ValueError(f"mixed cyclotomic orders {self.p} and {other.p}")
        return other

    def __add__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return other
        return CycloNum(self.p, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return other
        return CycloNum(self.p, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self):
        return CycloNum(self.p, tuple(-a for a in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return CycloNum(self.p, tuple(a * other for a in self.coeffs))
        other = self._check(other)
        if other is NotImplemented:
            return other
        p = self.p
        # convolve in the group algebra of Z/p, then eliminate zeta^(p-1)
        counts = [Fraction(0)] * p
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    if b:
                        counts[(i + j) % p] += a * b
        return CycloNum.from_power_counts(p, counts)

    __rmul__ = __mul__

    def is_rational(self) -> bool:
        return not any(self.coeffs[1:])

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self} is not rational")
        return self.coeffs[0]

    def __bool__(self):
        return any(self.coeffs)

    def __eq__(self, other):
        return (
            isinstance(other, CycloNum)
            and self.p == other.p
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.p, self.coeffs))

    def __repr__(self):
        if self.is_rational():
            return f"CycloNum({self.p}, {self.coeffs[0]})"
        terms = []
        for i, c in enumerate(self.coeffs):
            if c:
                terms.append(f"{c}" if i == 0 else f"{c}*z{self.p}^{i}")
        return f"CycloNum({self.p}: {' + '.join(terms)})"


def root_power(p: int, k: int) -> CycloNum:
    """Canonical representation of zeta_p^k."""
    k %= p
    counts = [0] * p
    counts[k] = 1
    return CycloNum.from_power_counts(p, counts)


class WePoly:
    """Weight enumerator: a polynomial in W with integer coefficients.

    Coefficients are stored trimmed, constant term first.  The zero
    polynomial (empty tuple) doubles as the enumerator of the empty set.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        coeffs = tuple(map(int, coeffs))
        n = len(coeffs)
        while n > 0 and coeffs[n - 1] == 0:
            n -= 1
        self.coeffs = coeffs[:n]

    @classmethod
    def empty(cls) -> "WePoly":
        return cls(())

    @classmethod
    def monomial(cls, degree: int, coeff: int = 1) -> "WePoly":
        return cls((0,) * degree + (coeff,))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def coefficient(self, j: int) -> int:
        return self.coeffs[j] if 0 <= j < len(self.coeffs) else 0

    def padded(self, n: int) -> tuple[int, ...]:
        if len(self.coeffs) > n + 1:
            raise ValueError(f"degree {self.degree} exceeds bound {n}")
        return self.coeffs + (0,) * (n + 1 - len(self.coeffs))

    def total(self) -> int:
        """Sum of coefficients: the cardinality of the enumerated set."""
        return sum(self.coeffs)

    def __add__(self, other):
        if not isinstance(other, WePoly):
            return NotImplemented
        m = max(len(self.coeffs), len(other.coeffs))
        return WePoly(tuple(self.coefficient(j) + other.coefficient(j) for j in range(m)))

    def __mul__(self, scalar: int):
        return WePoly(tuple(c * scalar for c in self.coeffs))

    __rmul__ = __mul__

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        return isinstance(other, WePoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for j, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if j == 0:
                parts.append(str(c))
            else:
                w = "W" if j == 1 else f"W^{j}"
                parts.append(w if c == 1 else f"{c}{w}")
        return " + ".join(parts)

    def __repr__(self):
        return f"WePoly({self})"


def weight_counts(field: FieldSpec, gen: np.ndarray, lo: int, hi: int,
                  group: int) -> np.ndarray:
    """Hamming-weight counts of the points c @ gen for every c with
    canonical index in [lo, hi), one row per run of ``group`` consecutive
    c: a ((hi - lo) // group, n + 1) array.  Weights are counted from the
    entry codes, never from an index in F^n, which can overflow int64."""
    out = np.zeros(((hi - lo) // group, gen.shape[1] + 1), dtype=np.int64)
    for start, block in span_blocks(field, gen, lo, hi):
        rows = (np.arange(start, start + len(block)) - lo) // group
        np.add.at(out, (rows, np.count_nonzero(block, axis=1)), 1)
    return out


def we_of_affine(offset, basis) -> WePoly:
    """Weight enumerator of the coset offset + span(basis) in F^n.

    The basis vectors must be linearly independent (the caller guarantees
    it).  The points are c @ [offset; basis] for every c whose leading
    coordinate is 1, i.e. the canonical indices [q^dim, 2 q^dim).
    """
    n = len(offset)
    for b in basis:
        if len(b) != n:
            raise ValueError("basis vector length does not match the offset")
    if not n:
        return WePoly((1,))
    field, size = offset[0].field, offset[0].field.q ** len(basis)
    gen = vector_codes([offset, *basis], n)
    return WePoly(weight_counts(field, gen, size, 2 * size, size)[0].tolist())


@lru_cache(maxsize=None)
def macwilliams_rows(n: int, q: int) -> tuple[tuple[int, ...], ...]:
    """Row j is the coefficient vector of (1-W)^j (1+(q-1)W)^(n-j)."""
    rows = []
    for j in range(n + 1):
        poly = [1]
        for _ in range(j):
            poly = [a - b for a, b in zip(poly + [0], [0] + poly)]
        for _ in range(n - j):
            poly = [a + (q - 1) * b for a, b in zip(poly + [0], [0] + poly)]
        rows.append(tuple(poly))
    return tuple(rows)


def macwilliams_transform(coeffs, n: int, q: int):
    """The substitution-and-scale transform on weight enumerators.

    Maps f to (1+(q-1)W)^n f((1-W)/(1+(q-1)W)), expanded exactly.  Input
    is a coefficient sequence of length at most n+1; output has length
    n+1 and the same numeric type (int stays int, Fraction stays
    Fraction).  The transform is linear and squares to q^n times the
    identity.
    """
    coeffs = tuple(coeffs)
    if len(coeffs) > n + 1:
        raise ValueError(f"polynomial degree {len(coeffs) - 1} exceeds bound {n}")
    rows = macwilliams_rows(n, q)
    out = [0] * (n + 1)
    for j, c in enumerate(coeffs):
        if c:
            row = rows[j]
            for t in range(n + 1):
                out[t] += c * row[t]
    return tuple(out)


def macwilliams_we(f: WePoly, n: int, q: int) -> WePoly:
    """:func:`macwilliams_transform` packaged for integer enumerators."""
    return WePoly(macwilliams_transform(f.padded(n), n, q))


class CycloPoly:
    """Polynomial in W with CycloNum coefficients and a tracked power of
    sqrt(q): the represented value is q^(scale_pow/2) times the stored
    polynomial.  Keeps character-matrix products exactly representable."""

    __slots__ = ("p", "coeffs", "scale_pow")

    def __init__(self, p: int, coeffs, scale_pow: int = 0):
        self.p = p
        self.coeffs = tuple(coeffs)
        for c in self.coeffs:
            if c.p != p:
                raise ValueError("mixed cyclotomic orders in one polynomial")
        self.scale_pow = scale_pow

    def is_rational(self) -> bool:
        return all(c.is_rational() for c in self.coeffs)

    def demote(self, q: int) -> tuple[Fraction, ...]:
        """Rational coefficient vector, with the scale folded in.

        Requires every coefficient rational and the scale an integer
        power of q (scale_pow even)."""
        if self.scale_pow % 2:
            raise ValueError("scale is an odd power of sqrt(q); not rational")
        if not self.is_rational():
            raise ValueError("cyclotomic coefficients did not collapse to rationals")
        scale = Fraction(q) ** (self.scale_pow // 2)
        return tuple(c.rational_value() * scale for c in self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, CycloPoly):
            return NotImplemented
        return (
            self.p == other.p
            and self.scale_pow == other.scale_pow
            and self.coeffs == other.coeffs
        )

    def __repr__(self):
        return f"CycloPoly(p={self.p}, scale_pow={self.scale_pow}, {list(self.coeffs)})"

