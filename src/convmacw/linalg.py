"""Exact linear algebra over a finite field: shape-aware matrices,
reduced row echelon form, right null spaces, and subspaces with
canonical RREF bases, their sums and orthogonals.

Vectors are tuples of entry codes (see :mod:`convmacw.field`).  The
public entry points, the ``FMat`` and ``Subspace`` constructors,
``FMat.from_rows``, ``Subspace.from_rows``, ``Subspace.coordinates``,
``rref`` and ``vec_mat``, check what comes in and also take FieldElement
entries of its field, read as their codes: a code outside [0, q) or an
element of another field raises ``ValueError``, and the ``Subspace``
constructor checks row lengths and row-reduces its rows.  Whatever the
package builds from codes it already holds (products, sums, inverses,
RREF results, orthogonals) goes through the unchecked ``_of``
constructors and the codes-only ``_rref`` and ``_vec_mat``;
``right_null_space`` takes an ``FMat``, whose rows are codes.  Matrices
carry their shape explicitly so zero-dimensional edges (empty state
spaces, duals of full codes) work uniformly.
"""

from __future__ import annotations

import numpy as np

from .field import FieldSpec, span_indices, vector_codes

Vec = tuple  # tuple[int, ...] of entry codes


def unit_vec(m: int, i: int) -> Vec:
    return (0,) * i + (1,) + (0,) * (m - i - 1)


class FMat:
    """Immutable matrix over a finite field with explicit shape; ``rows``
    holds the entry codes."""

    __slots__ = ("field", "nrows", "ncols", "rows")

    def __init__(self, field: FieldSpec, nrows: int, ncols: int, rows):
        rows = tuple(map(field.codes, rows))
        if len(rows) != nrows or any(len(r) != ncols for r in rows):
            raise ValueError(f"rows do not form a {nrows}x{ncols} matrix")
        self.field = field
        self.nrows = nrows
        self.ncols = ncols
        self.rows = rows

    @classmethod
    def _of(cls, field: FieldSpec, nrows: int, ncols: int, rows: tuple) -> "FMat":
        """Wrap a tuple of code-tuple rows built here, unchecked."""
        m = object.__new__(cls)
        m.field, m.nrows, m.ncols, m.rows = field, nrows, ncols, rows
        return m

    @classmethod
    def from_rows(cls, field: FieldSpec, rows, ncols: int | None = None) -> "FMat":
        rows = [tuple(r) for r in rows]
        if ncols is None:
            if not rows:
                raise ValueError("column count needed for an empty matrix")
            ncols = len(rows[0])
        return cls(field, len(rows), ncols, rows)

    @classmethod
    def identity(cls, field: FieldSpec, m: int) -> "FMat":
        return cls._of(field, m, m, tuple(unit_vec(m, i) for i in range(m)))

    @classmethod
    def zero(cls, field: FieldSpec, nrows: int, ncols: int) -> "FMat":
        return cls._of(field, nrows, ncols, ((0,) * ncols,) * nrows)

    def transpose(self) -> "FMat":
        return FMat._of(self.field, self.ncols, self.nrows,
                        tuple(zip(*self.rows)) or ((),) * self.ncols)

    def __add__(self, other: "FMat") -> "FMat":
        self._same_shape(other)
        return FMat._of(self.field, self.nrows, self.ncols, tuple(
            tuple(self.field.axpy(a, 1, b)) for a, b in zip(self.rows, other.rows)))

    def __sub__(self, other: "FMat") -> "FMat":
        return self + (-other)

    def __neg__(self) -> "FMat":
        minus = self.field.neg(1)
        return FMat._of(self.field, self.nrows, self.ncols,
                        tuple(tuple(self.field.scale(minus, r)) for r in self.rows))

    def __matmul__(self, other: "FMat") -> "FMat":
        if self.ncols != other.nrows:
            raise ValueError(
                f"shape mismatch: {self.nrows}x{self.ncols} @ {other.nrows}x{other.ncols}"
            )
        return FMat._of(self.field, self.nrows, other.ncols,
                        tuple(_vec_mat(r, other) for r in self.rows))

    def _same_shape(self, other):
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("shape mismatch")

    def rank(self) -> int:
        return len(_rref(self.field, self.rows, self.ncols)[0])

    def inverse(self) -> "FMat":
        if self.nrows != self.ncols:
            raise ValueError("only square matrices can be inverted")
        m = self.nrows
        aug = [self.rows[i] + unit_vec(m, i) for i in range(m)]
        reduced, pivots = _rref(self.field, aug, 2 * m)
        if pivots[:m] != tuple(range(m)) or len(pivots) != m:
            raise ValueError("matrix is singular")
        return FMat._of(self.field, m, m, tuple(r[m:] for r in reduced))

    def is_invertible(self) -> bool:
        return self.nrows == self.ncols and self.rank() == self.nrows

    def __eq__(self, other):
        return (
            isinstance(other, FMat)
            and self.field == other.field
            and self.nrows == other.nrows
            and self.ncols == other.ncols
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.nrows, self.ncols, self.rows))

    def to_int_rows(self) -> list[list[int]]:
        return [list(r) for r in self.rows]

    def __repr__(self):
        elems = self.field.elements
        body = "; ".join(" ".join(str(elems[a]) for a in r) for r in self.rows)
        return f"FMat({self.nrows}x{self.ncols}: {body})"


def vec_mat(v: Vec, m: FMat) -> Vec:
    """Row vector times matrix."""
    if len(v) != m.nrows:
        raise ValueError(f"vector length {len(v)} does not match {m.nrows} rows")
    return _vec_mat(m.field.codes(v), m)


def _vec_mat(v: Vec, m: FMat) -> Vec:
    """Row vector of codes times matrix, unchecked."""
    out = (0,) * m.ncols
    for c, row in zip(v, m.rows):
        if c:
            out = m.field.axpy(out, c, row)
    return tuple(out)


def rref(field: FieldSpec, rows, ncols: int):
    """Reduced row echelon form of code rows; returns (nonzero rows, pivot
    columns)."""
    return _rref(field, map(field.codes, rows), ncols)


def _rref(field: FieldSpec, rows, ncols: int):
    """``rref`` of code rows, unchecked."""
    work = list(map(list, rows))
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(work)) if work[i][c]), None)
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        row = work[r]
        if row[c] != 1:
            row = work[r] = field.scale(field.inv(row[c]), row)
        for i, other in enumerate(work):
            if i != r and other[c]:
                work[i] = field.axpy(other, field.neg(other[c]), row)
        pivots.append(c)
        r += 1
        if r == len(work):
            break
    return tuple(map(tuple, work[:r])), tuple(pivots)


def right_null_space(field: FieldSpec, m: FMat) -> tuple[Vec, ...]:
    """RREF basis of {v : m @ v^t = 0}, i.e. the orthogonal of m's rows."""
    reduced, pivots = _rref(field, m.rows, m.ncols)
    free = [j for j in range(m.ncols) if j not in pivots]
    basis = []
    for j in free:
        v = [0] * m.ncols
        v[j] = 1
        for r, pc in zip(reduced, pivots):
            v[pc] = field.neg(r[j])
        basis.append(v)
    return _rref(field, basis, m.ncols)[0]


class Subspace:
    """Linear subspace of F^m with a canonical RREF basis of code rows.

    The basis is unique per subspace, so equality and hashing are plain
    data comparisons.
    """

    __slots__ = ("field", "ambient", "basis")

    def __init__(self, field: FieldSpec, ambient: int, basis):
        rows = [tuple(r) for r in basis]
        if any(len(r) != ambient for r in rows):
            raise ValueError(f"rows do not all lie in F^{ambient}")
        self.field = field
        self.ambient = ambient
        self.basis = rref(field, rows, ambient)[0]

    @classmethod
    def _of(cls, field: FieldSpec, ambient: int, basis: tuple) -> "Subspace":
        """Wrap an RREF tuple of code-tuple rows built here, unchecked."""
        space = object.__new__(cls)
        space.field, space.ambient, space.basis = field, ambient, basis
        return space

    @classmethod
    def from_rows(cls, field: FieldSpec, ambient: int, rows) -> "Subspace":
        return cls(field, ambient, rows)

    @classmethod
    def _span(cls, field: FieldSpec, ambient: int, rows) -> "Subspace":
        """The span of code rows built here, unchecked."""
        return cls._of(field, ambient, _rref(field, rows, ambient)[0])

    @property
    def dim(self) -> int:
        return len(self.basis)

    def matrix(self) -> FMat:
        return FMat._of(self.field, self.dim, self.ambient, self.basis)

    def coordinates(self, vec: Vec) -> Vec | None:
        """Coefficients of vec over the basis, or None if outside."""
        if len(vec) != self.ambient:
            raise ValueError("vector does not live in the ambient space")
        v = list(self.field.codes(vec))
        coords = []
        for row in self.basis:
            lead = next(j for j, x in enumerate(row) if x)
            c = v[lead]
            coords.append(c)
            if c:
                v = self.field.axpy(v, self.field.neg(c), row)
        if any(v):
            return None
        return tuple(coords)

    def __add__(self, other: "Subspace") -> "Subspace":
        self._compatible(other)
        return Subspace._span(self.field, self.ambient, self.basis + other.basis)

    def orth(self) -> "Subspace":
        """Orthogonal complement under the canonical bilinear form."""
        return Subspace._of(self.field, self.ambient,
                            right_null_space(self.field, self.matrix()))

    def codes(self) -> np.ndarray:
        """The basis as a (dim, ambient) array of entry codes."""
        return vector_codes(self.basis, self.ambient)

    def point_indices(self) -> np.ndarray:
        """Canonical ambient index of each of the q^dim points, in
        span-coefficient order."""
        return span_indices(self.field, self.codes())

    def _compatible(self, other):
        if self.ambient != other.ambient or self.field != other.field:
            raise ValueError("subspaces live in different ambient spaces")

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.field == other.field
            and self.ambient == other.ambient
            and self.basis == other.basis
        )

    def __hash__(self):
        return hash((self.ambient, self.basis))

    def __repr__(self):
        return f"Subspace(dim={self.dim}, ambient={self.ambient})"
