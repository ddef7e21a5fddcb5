"""Weight enumerators: the integer polynomial type, Hamming-weight counts
over spans, and the coefficient rows of the MacWilliams transform."""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .field import FieldSpec, span_blocks


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

    def coefficient(self, j: int) -> int:
        return self.coeffs[j] if 0 <= j < len(self.coeffs) else 0

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


def weight_counts(field: FieldSpec, gen: np.ndarray, group: int) -> np.ndarray:
    """Hamming-weight counts of the points c @ gen for every c, one row per
    run of ``group`` consecutive c in canonical order: a (q^dim // group,
    n + 1) array.  Weights are counted from the entry codes, never from an
    index in F^n, which can overflow int64."""
    width = gen.shape[1] + 1
    out = np.zeros((field.q ** len(gen) // group, width), dtype=np.int64)
    for start, block in span_blocks(field, gen):
        first = start // group
        rows = np.arange(start, start + len(block)) // group - first
        keys = rows * width + np.count_nonzero(block, axis=1)
        out[first:first + rows[-1] + 1] += np.bincount(
            keys, minlength=(rows[-1] + 1) * width).reshape(-1, width)
    return out


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
