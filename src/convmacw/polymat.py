"""Matrices over F_q[z]: encoders, Smith normal form, basicness and
minimality tests, degree, and dual-code generators.

The polynomial string grammar accepted by :func:`parse_zpoly` is terms
"c", "c z", "c z^k" joined by "+", where c is an integer for prime
fields or a bracketed digit list like "[1,1]" for extension fields.
Whitespace between tokens is insignificant, but never splits a number
("1 2" and "[1 1]" are errors); the zero polynomial is "0".

Entry codes are checked once, where they come in (the ZPoly
constructor, parse_zpoly); the Smith form, row reduction and products
run on code tuples and wrap only their results.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import InternalCheckError
from .field import FieldSpec, _addmul, _axpy, _divmod, _ptrim
from .linalg import FMat, right_null_space

NEG_INF = float("-inf")
MAX_EXPONENT = 256  # largest power of z parse_zpoly accepts, and largest delta


class ZPoly:
    """Polynomial over a finite field: ``coeffs`` holds the trimmed entry
    codes, constant term first (FieldElement coefficients are taken too)."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: FieldSpec, coeffs=()):
        self.field = field
        self.coeffs = _ptrim(field.codes(coeffs))

    @classmethod
    def _of(cls, field: FieldSpec, coeffs: tuple) -> "ZPoly":
        """Wrap trimmed codes built here, unchecked."""
        p = object.__new__(cls)
        p.field, p.coeffs = field, coeffs
        return p

    @property
    def degree(self):
        """Degree, with the zero polynomial at -inf."""
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient(self, i: int) -> int:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    def __add__(self, other: "ZPoly") -> "ZPoly":
        return ZPoly._of(self.field, _axpy(self.field, self.coeffs, (1,), other.coeffs))

    def __sub__(self, other: "ZPoly") -> "ZPoly":
        return self + -other

    def __neg__(self) -> "ZPoly":
        return ZPoly._of(self.field, tuple(self.field.scale(self.field.neg(1), self.coeffs)))

    def __mul__(self, other: "ZPoly") -> "ZPoly":
        return ZPoly._of(self.field, _axpy(self.field, (), self.coeffs, other.coeffs))

    def __divmod__(self, other: "ZPoly"):
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        quot, rem = _divmod(self.field, self.coeffs, other.coeffs)
        return ZPoly._of(self.field, quot), ZPoly._of(self.field, rem)

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


def _dot(field: FieldSpec, a, b) -> tuple:
    """The dot product of two rows of polynomial codes."""
    out = []
    for x, y in zip(a, b):
        if x and y:
            _addmul(field, out, x, y)
    return _ptrim(out)


_TERM_RE = re.compile(r"^(?:(-?\d+)|(\[[0-9,\s-]*\]))?(z(?:\^(\d+))?)?$")
_SPLIT_DIGITS = re.compile(r"\d\s+\d")   # "1 2" is an error, not 12


def parse_zpoly(text: str, field: FieldSpec) -> ZPoly:
    """Parse the polynomial grammar; raises ValueError with a column."""
    if not isinstance(text, str):
        raise ValueError(f"polynomial must be a string, got {type(text).__name__}")
    stripped = text.strip()
    if not stripped:
        raise ValueError("parse error at column 1: empty polynomial")
    coeffs = []   # each term's code added in at its power
    pos = 0
    for chunk in text.split("+"):
        col = pos + 1
        pos += len(chunk) + 1
        parts = chunk.split()
        term = "".join(parts)
        if not term:
            raise ValueError(f"parse error at column {col}: empty term")
        m = _TERM_RE.match(term)
        if (not m or len(parts) > 1 and _SPLIT_DIGITS.search(chunk)
                or (m.group(1) is None and m.group(2) is None and m.group(3) is None)):
            raise ValueError(f"parse error at column {col}: bad term {chunk.strip()!r}")
        int_c, list_c, zpart, exp = m.groups()
        if list_c is not None and field.s == 1:
            raise ValueError(
                f"parse error at column {col}: digit lists need an extension field"
            )
        if list_c is not None:   # "[]" has no digit, but no digit may be empty
            start = chunk.index("[") + 1
            digits = chunk[start:chunk.index("]")].split(",")
            empty = next((i for i, d in enumerate(digits) if not d.strip()), None)
            if len(digits) > 1 and empty is not None:
                at = col + start + sum(len(d) + 1 for d in digits[:empty])
                raise ValueError(f"parse error at column {at}: empty digit in {list_c!r}")
        try:
            if list_c is not None:
                coeff = field.from_digits([int(d) for d in digits if d.strip()])
            else:
                coeff = field.one if int_c is None else field.from_int(int(int_c))
            power = 0 if zpart is None else 1 if exp is None else int(exp)
        except ValueError as e:
            raise ValueError(f"parse error at column {col}: {e}") from None
        if power > MAX_EXPONENT:
            raise ValueError(f"parse error at column {col}: exponent {power} "
                             f"exceeds {MAX_EXPONENT}")
        coeffs += [0] * (power + 1 - len(coeffs))
        coeffs[power] = field.add(coeffs[power], coeff.code)
    return ZPoly._of(field, _ptrim(coeffs))


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

    def to_strings(self) -> list[list[str]]:
        return [[format_zpoly(p) for p in r] for r in self.rows]

    def transpose(self) -> "PolyMatrix":
        return PolyMatrix(self.field, self.ncols, self.nrows,
                          [[self.rows[i][j] for i in range(self.nrows)]
                           for j in range(self.ncols)])

    def __matmul__(self, other: "PolyMatrix") -> "PolyMatrix":
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch")
        cols = [[r[j].coeffs for r in other.rows] for j in range(other.ncols)]
        return _matrix(self.field, [[_dot(self.field, r, c) for c in cols]
                                    for r in _code_rows(self)], other.ncols)

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


def _code_rows(M: PolyMatrix) -> list[list[tuple]]:
    return [[p.coeffs for p in r] for r in M.rows]


def _matrix(field: FieldSpec, rows, ncols: int) -> PolyMatrix:
    return PolyMatrix(field, len(rows), ncols, [[ZPoly._of(field, c) for c in r] for r in rows])


def smith_normal_form(M: PolyMatrix):
    """Diagonalization U @ M @ V = S with U, V unimodular over F_q[z].

    The diagonal of S is the chain of invariant factors (monic, each
    dividing the next).
    """
    field = M.field
    k, n = M.nrows, M.ncols
    S = _code_rows(M)
    U = [[(1,) if i == j else () for j in range(k)] for i in range(k)]
    V = [[(1,) if i == j else () for j in range(n)] for i in range(n)]
    minus = field.neg(1)
    for t in range(min(k, n)):
        while True:
            best = min(((len(S[i][j]), i, j) for i in range(t, k) for j in range(t, n)
                        if S[i][j]), default=None)
            if best is None:
                break
            _, bi, bj = best
            S[t], S[bi] = S[bi], S[t]
            U[t], U[bi] = U[bi], U[t]
            for row in S + V:
                row[t], row[bj] = row[bj], row[t]
            pivot = S[t][t]
            dirty = False
            for i in range(t + 1, k):
                if S[i][t]:   # row_i -= (S_it // pivot) row_t
                    f = field.scale(minus, _divmod(field, S[i][t], pivot)[0])
                    for m in (S, U):
                        m[i] = [_axpy(field, a, f, b) for a, b in zip(m[i], m[t])]
                    dirty = dirty or bool(S[i][t])
            for j in range(t + 1, n):
                if S[t][j]:   # col_j -= q col_t
                    f = field.scale(minus, _divmod(field, S[t][j], pivot)[0])
                    for row in S + V:
                        if row[t]:
                            row[j] = _axpy(field, row[j], f, row[t])
                    dirty = dirty or bool(S[t][j])
            if dirty:
                continue
            # cross is clear; enforce that the pivot divides the rest (a
            # constant pivot divides everything)
            viol = next((i for i in range(t + 1, k) for j in range(t + 1, n)
                         if len(pivot) > 1 and _divmod(field, S[i][j], pivot)[1]), None)
            if viol is None:
                break
            for m in (S, U):
                m[t] = [_axpy(field, a, (1,), b) for a, b in zip(m[t], m[viol])]
    # normalize the diagonal monic
    for t in range(min(k, n)):
        d = S[t][t]
        if d and d[-1] != 1:
            inv = field.inv(d[-1])
            for m in (S, U):
                m[t] = [tuple(field.scale(inv, p)) for p in m[t]]
    return _matrix(field, U, k), _matrix(field, S, n), _matrix(field, V, n)


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
    """Row degrees of a matrix of polynomial codes and the left kernel of
    its highest-row-degree coefficient matrix.

    The matrix is row-reduced iff that kernel is zero (Forney, "Minimal
    bases of rational vector spaces", 1975); a zero row means the rows
    are dependent and raises ValueError.
    """
    degs = [max(map(len, r)) - 1 for r in rows]
    if -1 in degs:
        raise ValueError("rank-deficient matrix has degree undefined")
    lead = [[p[d] if len(p) > d else 0 for p in r] for r, d in zip(rows, degs)]
    return degs, right_null_space(field, FMat._of(field, ncols, len(rows),
                                                  tuple(zip(*lead)) or ((),) * ncols))


def _row_reduce(field: FieldSpec, rows, ncols: int):
    """Unimodular row reduction of a full-rank matrix of polynomial codes
    to a row-reduced one: its rows and their degrees, by descending
    degree; rank-deficient input raises."""
    rows = list(rows)
    while True:
        degs, left_kernel = _leading_left_kernel(field, rows, ncols)
        if not left_kernel:
            break
        # cancel the leading terms of the highest-degree row in the support
        c = left_kernel[0]
        support = [i for i, ci in enumerate(c) if ci]
        j = min(i for i in support if degs[i] == max(degs[t] for t in support))
        new_row = [[] for _ in range(ncols)]
        for i in support:   # add c_i z^(deg_j - deg_i) row_i
            f = (0,) * (degs[j] - degs[i]) + (c[i],)
            for out, b in zip(new_row, rows[i]):
                if b:
                    _addmul(field, out, f, b)
        rows[j] = [_ptrim(out) for out in new_row]
    order = sorted(range(len(rows)), key=lambda i: -degs[i])
    return [rows[i] for i in order], [degs[i] for i in order]


def code_degree(G: PolyMatrix) -> int:
    """Maximum degree over all k x k minors of G, read off as the row-degree
    sum of a row-reduced form (unimodular steps keep the minors up to a
    unit factor)."""
    if G.nrows > G.ncols:
        raise ValueError("more rows than columns; not an encoder")
    return sum(_row_reduce(G.field, _code_rows(G), G.ncols)[1])


def is_minimal(G: PolyMatrix) -> tuple[bool, tuple[int, ...] | None]:
    """(minimal?, Forney indices sorted descending when minimal)."""
    if "minimal" not in G._derived:
        if not is_basic(G):
            raise ValueError("minimality is only defined for basic matrices")
        degs, left_kernel = _leading_left_kernel(G.field, _code_rows(G), G.ncols)
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
    return _matrix(G.field, _row_reduce(G.field, _code_rows(G), G.ncols)[0], G.ncols)


def dual_generator(G: PolyMatrix) -> PolyMatrix:
    """Minimal basic generator of all polynomial vectors orthogonal to the
    row module of G, built from a Smith-form kernel basis."""
    if not is_minimal(G)[0]:   # raises on a non-basic G
        raise ValueError("dual construction expects a basic minimal encoder")
    field, k, n = G.field, G.nrows, G.ncols
    V = _code_rows(_smith_form(G)[2])
    # G w^t = 0 iff w^t lies in the span of V's last n-k columns; those
    # columns of the unimodular V form a basic matrix
    rows, degs = _row_reduce(field, [[V[i][j] for i in range(n)] for j in range(k, n)], n)
    g = _code_rows(G)
    if any(_dot(field, h, r) for h in rows for r in g):
        raise InternalCheckError("kernel construction lost orthogonality")
    if sum(degs) != sum(G.row_degrees()):
        raise InternalCheckError("dual code degree mismatch")
    H = _matrix(field, rows, n)
    # unimodular row reduction keeps H basic and leaves it row-reduced,
    # so H is minimal with its row degrees, already descending, as indices
    H._derived["minimal"] = (True, tuple(degs))
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
