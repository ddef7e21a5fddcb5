"""Matrices over F_q[z]: encoders, Smith normal form, basicness and
minimality tests, degree, and dual-code generators.

The polynomial string grammar accepted by :func:`parse_zpoly` is terms
"c", "c z", "c z^k" joined by "+", where c is an integer for prime
fields or a bracketed digit list like "[1,1]" for extension fields.
Whitespace is insignificant; the zero polynomial is "0".
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import InternalCheckError
from .field import FieldSpec
from .linalg import FMat, right_null_space

NEG_INF = float("-inf")
MAX_EXPONENT = 256  # largest power of z parse_zpoly accepts, and largest delta


class ZPoly:
    """Polynomial over a finite field: ``coeffs`` holds the trimmed entry
    codes, constant term first (FieldElement coefficients are taken too)."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: FieldSpec, coeffs=()):
        n = len(coeffs)
        while n > 0 and not coeffs[n - 1]:
            n -= 1
        self.field = field
        self.coeffs = field.codes(coeffs[:n])

    @classmethod
    def zero(cls, field: FieldSpec) -> "ZPoly":
        return cls(field, ())

    @classmethod
    def one(cls, field: FieldSpec) -> "ZPoly":
        return cls(field, (1,))

    @property
    def degree(self):
        """Degree, with the zero polynomial at -inf."""
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient(self, i: int) -> int:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    def _axpy(self, f, other: "ZPoly") -> "ZPoly":
        """self + f * other, for the coefficient codes f of a polynomial."""
        field, b = self.field, other.coeffs
        if not f or not b:
            return self
        out = list(self.coeffs)
        out += [0] * (len(f) + len(b) - 1 - len(out))
        for i, c in enumerate(f):
            if c:
                out[i:i + len(b)] = field.axpy(out[i:i + len(b)], c, b)
        return ZPoly(field, out)

    def __add__(self, other: "ZPoly") -> "ZPoly":
        return self._axpy((1,), other)

    def __sub__(self, other: "ZPoly") -> "ZPoly":
        return self._axpy((self.field.neg(1),), other)

    def __neg__(self) -> "ZPoly":
        return self.scale(self.field.neg(1))

    def __mul__(self, other: "ZPoly") -> "ZPoly":
        return ZPoly.zero(self.field)._axpy(self.coeffs, other)

    def scale(self, c: int) -> "ZPoly":
        return ZPoly(self.field, self.field.scale(c, self.coeffs))

    def shift(self, k: int) -> "ZPoly":
        """Multiply by z^k."""
        if not self.coeffs:
            return self
        return ZPoly(self.field, (0,) * k + self.coeffs)

    def __divmod__(self, other: "ZPoly"):
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        field, b = self.field, other.coeffs
        rem = list(self.coeffs)
        q = [0] * max(len(rem) - len(b) + 1, 0)
        inv = field.inv(b[-1])
        while True:
            while rem and not rem[-1]:
                rem.pop()
            shift = len(rem) - len(b)
            if shift < 0:
                break
            q[shift] = f = field.mul(rem[-1], inv)
            rem[shift:] = field.axpy(rem[shift:], field.neg(f), b)
            rem.pop()
        return ZPoly(field, q), ZPoly(field, rem)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __eq__(self, other):
        return (
            isinstance(other, ZPoly)
            and self.field == other.field
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash(self.coeffs)

    def __str__(self):
        return format_zpoly(self)

    def __repr__(self):
        return f"ZPoly({format_zpoly(self)})"


_TERM_RE = re.compile(r"^(?:(-?\d+)|(\[[0-9,\s-]*\]))?(z(?:\^(\d+))?)?$")


def parse_zpoly(text: str, field: FieldSpec) -> ZPoly:
    """Parse the polynomial grammar; raises ValueError with a column."""
    if not isinstance(text, str):
        raise ValueError(f"polynomial must be a string, got {type(text).__name__}")
    stripped = text.strip()
    if not stripped:
        raise ValueError("parse error at column 1: empty polynomial")
    result = ZPoly.zero(field)
    pos = 0
    for chunk in text.split("+"):
        col = pos + 1
        pos += len(chunk) + 1
        term = "".join(chunk.split())
        if not term:
            raise ValueError(f"parse error at column {col}: empty term")
        m = _TERM_RE.match(term)
        if not m or (m.group(1) is None and m.group(2) is None and m.group(3) is None):
            raise ValueError(f"parse error at column {col}: bad term {chunk.strip()!r}")
        int_c, list_c, zpart, exp = m.groups()
        if list_c is not None and field.s == 1:
            raise ValueError(
                f"parse error at column {col}: digit lists need an extension field"
            )
        try:
            if list_c is not None:
                coeff = field.from_digits(
                    [int(d) for d in list_c[1:-1].split(",") if d != ""])
            else:
                coeff = field.one if int_c is None else field.from_int(int(int_c))
            power = 0 if zpart is None else 1 if exp is None else int(exp)
        except ValueError as e:
            raise ValueError(f"parse error at column {col}: {e}") from None
        if power > MAX_EXPONENT:
            raise ValueError(f"parse error at column {col}: exponent {power} "
                             f"exceeds {MAX_EXPONENT}")
        result = result + ZPoly(field, (0,) * power + (coeff,))
    return result


def format_zpoly(p: ZPoly) -> str:
    if p.is_zero():
        return "0"
    parts = []
    for i, c in enumerate(p.coeffs):
        if not c:
            continue
        cs = str(p.field.elements[c])
        if i == 0:
            parts.append(cs)
        else:
            z = "z" if i == 1 else f"z^{i}"
            parts.append(z if c == 1 else f"{cs}{z}")
    return "+".join(parts)


class PolyMatrix:
    """k x n matrix over F_q[z]."""

    __slots__ = ("field", "nrows", "ncols", "rows", "_derived")

    def __init__(self, field: FieldSpec, nrows: int, ncols: int, rows):
        rows = tuple(tuple(r) for r in rows)
        if len(rows) != nrows or any(len(r) != ncols for r in rows):
            raise ValueError(f"rows do not form a {nrows}x{ncols} matrix")
        self.field = field
        self.nrows = nrows
        self.ncols = ncols
        self.rows = rows
        self._derived = {}   # the Smith form and minimality, computed once

    @classmethod
    def from_rows(cls, field: FieldSpec, rows, ncols: int | None = None) -> "PolyMatrix":
        rows = [tuple(r) for r in rows]
        if ncols is None:
            if not rows:
                raise ValueError("column count needed for an empty matrix")
            ncols = len(rows[0])
        return cls(field, len(rows), ncols, rows)

    @classmethod
    def from_strings(cls, field: FieldSpec, grid) -> "PolyMatrix":
        rows = []
        for i, row in enumerate(grid):
            try:
                rows.append([parse_zpoly(s, field) for s in row])
            except ValueError as e:
                raise ValueError(f"generator row {i + 1}: {e}") from None
        return cls.from_rows(field, rows)

    @classmethod
    def identity(cls, field: FieldSpec, m: int) -> "PolyMatrix":
        one, zero = ZPoly.one(field), ZPoly.zero(field)
        return cls(field, m, m,
                   [[one if i == j else zero for j in range(m)] for i in range(m)])

    def to_strings(self) -> list[list[str]]:
        return [[format_zpoly(p) for p in r] for r in self.rows]

    def entry(self, i: int, j: int) -> ZPoly:
        return self.rows[i][j]

    def transpose(self) -> "PolyMatrix":
        return PolyMatrix(self.field, self.ncols, self.nrows,
                          [[self.rows[i][j] for i in range(self.nrows)]
                           for j in range(self.ncols)])

    def __matmul__(self, other: "PolyMatrix") -> "PolyMatrix":
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch")
        zero = ZPoly.zero(self.field)
        out = []
        for r in self.rows:
            row = []
            for j in range(other.ncols):
                acc = zero
                for t, c in enumerate(r):
                    acc = acc._axpy(c.coeffs, other.rows[t][j])
                row.append(acc)
            out.append(row)
        return PolyMatrix(self.field, self.nrows, other.ncols, out)

    def is_zero(self) -> bool:
        return all(p.is_zero() for r in self.rows for p in r)

    def row_degrees(self) -> tuple:
        return tuple(max((p.degree for p in r), default=NEG_INF) for r in self.rows)

    def __eq__(self, other):
        return (
            isinstance(other, PolyMatrix)
            and self.field == other.field
            and self.rows == other.rows
            and self.ncols == other.ncols
        )

    def __hash__(self):
        return hash((self.ncols, self.rows))

    def __repr__(self):
        return f"PolyMatrix({self.to_strings()})"


def _swap_rows(m, i, j):
    m[i], m[j] = m[j], m[i]


def _swap_cols(m, i, j):
    for row in m:
        row[i], row[j] = row[j], row[i]


def _row_sub(m, i, t, f: ZPoly):
    """row_i -= f * row_t"""
    minus_f = (-f).coeffs
    m[i] = [a._axpy(minus_f, b) for a, b in zip(m[i], m[t])]


def _col_sub(m, j, t, f: ZPoly):
    """col_j -= f * col_t"""
    minus_f = (-f).coeffs
    for row in m:
        row[j] = row[j]._axpy(minus_f, row[t])


def smith_normal_form(M: PolyMatrix):
    """Diagonalization U @ M @ V = S with U, V unimodular over F_q[z].

    The diagonal of S is the chain of invariant factors (monic, each
    dividing the next).
    """
    field = M.field
    k, n = M.nrows, M.ncols
    S = [list(r) for r in M.rows]
    U = [list(r) for r in PolyMatrix.identity(field, k).rows]
    V = [list(r) for r in PolyMatrix.identity(field, n).rows]
    for t in range(min(k, n)):
        while True:
            best = None
            for i in range(t, k):
                for j in range(t, n):
                    if not S[i][j].is_zero():
                        if best is None or S[i][j].degree < S[best[0]][best[1]].degree:
                            best = (i, j)
            if best is None:
                break
            bi, bj = best
            if bi != t:
                _swap_rows(S, t, bi)
                _swap_rows(U, t, bi)
            if bj != t:
                _swap_cols(S, t, bj)
                _swap_cols(V, t, bj)
            pivot = S[t][t]
            dirty = False
            for i in range(t + 1, k):
                if not S[i][t].is_zero():
                    q = S[i][t] // pivot
                    _row_sub(S, i, t, q)
                    _row_sub(U, i, t, q)
                    if not S[i][t].is_zero():
                        dirty = True
            for j in range(t + 1, n):
                if not S[t][j].is_zero():
                    q = S[t][j] // pivot
                    _col_sub(S, j, t, q)
                    _col_sub(V, j, t, q)
                    if not S[t][j].is_zero():
                        dirty = True
            if dirty:
                continue
            # cross is clear; enforce that the pivot divides the rest (a
            # constant pivot divides everything)
            viol = next((i for i in range(t + 1, k) for j in range(t + 1, n)
                         if pivot.degree and not (S[i][j] % pivot).is_zero()), None)
            if viol is None:
                break
            S[t] = [a + b for a, b in zip(S[t], S[viol])]
            U[t] = [a + b for a, b in zip(U[t], U[viol])]
    # normalize the diagonal monic
    for t in range(min(k, n)):
        d = S[t][t]
        if not d.is_zero() and d.coeffs[-1] != 1:
            inv = field.inv(d.coeffs[-1])
            S[t] = [p.scale(inv) for p in S[t]]
            U[t] = [p.scale(inv) for p in U[t]]
    return (
        PolyMatrix(field, k, k, U),
        PolyMatrix(field, k, n, S),
        PolyMatrix(field, n, n, V),
    )


def _smith_form(M: PolyMatrix):
    """:func:`smith_normal_form` of M, once per (immutable) instance."""
    if "smith" not in M._derived:
        M._derived["smith"] = smith_normal_form(M)
    return M._derived["smith"]


def invariant_factors(M: PolyMatrix) -> tuple[ZPoly, ...]:
    _, S, _ = _smith_form(M)
    out = []
    for t in range(min(M.nrows, M.ncols)):
        if S.rows[t][t].is_zero():
            break
        out.append(S.rows[t][t])
    return tuple(out)


def is_basic(G: PolyMatrix) -> bool:
    """True iff all invariant factors equal 1, i.e. a polynomial right
    inverse exists (noncatastrophic and delay-free)."""
    return basic_diagnostic(G) is None


def basic_diagnostic(G: PolyMatrix) -> str | None:
    """None when basic, otherwise a human-readable reason."""
    facs = invariant_factors(G)
    if len(facs) < G.nrows:
        return f"rank {len(facs)} < {G.nrows}: rows are dependent over F_q(z)"
    bad = [format_zpoly(f) for f in facs if f.degree != 0]
    if bad:
        return "nontrivial invariant factors: " + ", ".join(bad)
    return None


def _leading_left_kernel(field: FieldSpec, rows, ncols: int):
    """Row degrees of a polynomial matrix and the left kernel of its
    highest-row-degree coefficient matrix.

    The matrix is row-reduced iff that kernel is zero (Forney, "Minimal
    bases of rational vector spaces", 1975); a zero row means the rows
    are dependent and raises ValueError.
    """
    degs = [max(p.degree for p in r) for r in rows]
    if NEG_INF in degs:
        raise ValueError("rank-deficient matrix has degree undefined")
    degs = [int(d) for d in degs]
    hdc = FMat(field, len(rows), ncols,
               [[p.coefficient(d) for p in r] for r, d in zip(rows, degs)])
    return degs, right_null_space(field, hdc.transpose())


def _row_reduce(M: PolyMatrix) -> PolyMatrix:
    """Unimodular row reduction of a full-rank matrix to a row-reduced one,
    rows ordered by descending degree; rank-deficient input raises."""
    field = M.field
    rows = [list(r) for r in M.rows]
    while True:
        degs, left_kernel = _leading_left_kernel(field, rows, M.ncols)
        if not left_kernel:
            break
        # cancel the leading terms of the highest-degree row in the support
        c = left_kernel[0]
        support = [i for i, ci in enumerate(c) if ci]
        j = min(i for i in support if degs[i] == max(degs[t] for t in support))
        new_row = [ZPoly.zero(field)] * M.ncols
        for i in support:
            shift = degs[j] - degs[i]
            for col in range(M.ncols):
                new_row[col] = new_row[col] + rows[i][col].scale(c[i]).shift(shift)
        rows[j] = new_row
    order = sorted(range(M.nrows), key=lambda i: -degs[i])
    return PolyMatrix(field, M.nrows, M.ncols, [rows[i] for i in order])


def code_degree(G: PolyMatrix) -> int:
    """Maximum degree over all k x k minors of G, read off as the row-degree
    sum of a row-reduced form (unimodular steps keep the minors up to a
    unit factor)."""
    if G.nrows > G.ncols:
        raise ValueError("more rows than columns; not an encoder")
    return sum(_row_reduce(G).row_degrees())


def is_minimal(G: PolyMatrix) -> tuple[bool, tuple[int, ...] | None]:
    """(minimal?, Forney indices sorted descending when minimal)."""
    if "minimal" not in G._derived:
        if not is_basic(G):
            raise ValueError("minimality is only defined for basic matrices")
        degs, left_kernel = _leading_left_kernel(G.field, G.rows, G.ncols)
        indices = None if left_kernel else tuple(sorted(degs, reverse=True))
        G._derived["minimal"] = (indices is not None, indices)
    return G._derived["minimal"]


def make_minimal_basic(G: PolyMatrix) -> PolyMatrix:
    """Row-reduce a basic matrix to a minimal one generating the same code.

    Rows of the result are ordered by descending degree.  Non-basic input
    is rejected.
    """
    if not is_basic(G):
        raise ValueError(
            "input does not generate a (noncatastrophic, delay-free) code: "
            + (basic_diagnostic(G) or "not basic")
        )
    return _row_reduce(G)


def dual_generator(G: PolyMatrix) -> PolyMatrix:
    """Minimal basic generator of all polynomial vectors orthogonal to the
    row module of G, built from a Smith-form kernel basis."""
    if not is_minimal(G)[0]:   # raises on a non-basic G
        raise ValueError("dual construction expects a basic minimal encoder")
    k, n = G.nrows, G.ncols
    _, _, V = _smith_form(G)
    # G w^t = 0 iff w^t lies in the span of V's last n-k columns; those
    # columns of the unimodular V form a basic matrix
    kernel_rows = [tuple(V.rows[i][j] for i in range(n)) for j in range(k, n)]
    H = _row_reduce(PolyMatrix.from_rows(G.field, kernel_rows, n))
    if not (H @ G.transpose()).is_zero():
        raise InternalCheckError("kernel construction lost orthogonality")
    if sum(H.row_degrees()) != sum(G.row_degrees()):
        raise InternalCheckError("dual code degree mismatch")
    # unimodular row reduction keeps H basic and leaves it row-reduced,
    # so H is minimal with its row degrees, already descending, as indices
    H._derived["minimal"] = (True, tuple(int(d) for d in H.row_degrees()))
    return H


@dataclass(frozen=True)
class CodeProfile:
    """Invariants of a code read off a minimal basic encoder."""

    n: int
    k: int
    delta: int
    forney_indices: tuple[int, ...]
    r: int

    @classmethod
    def from_encoder(cls, G: PolyMatrix) -> "CodeProfile":
        minimal, indices = is_minimal(G)
        if not minimal:
            raise ValueError("profile requires a minimal encoder")
        delta = sum(indices)
        return cls(
            n=G.ncols,
            k=G.nrows,
            delta=delta,
            forney_indices=indices,
            r=sum(1 for d in indices if d > 0),
        )
