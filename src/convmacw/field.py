"""Exact arithmetic in the finite field GF(p^s).

An element is canonically encoded as the integer enc(a) = sum(digits[i] *
p**i), which induces the global ordering used for state enumeration
everywhere else in the package.  The package computes on these codes:
:class:`FieldSpec` adds and multiplies them through int tables for small
fields, and modulo p or digit-wise above that.  Interned
:class:`FieldElement` objects wrap codes at the API boundary; anything
that takes codes also takes elements of its field (:meth:`FieldSpec.codes`).
"""

from __future__ import annotations

import functools
import itertools
import math
from operator import index

import numpy as np

# Full multiplication/addition tables are only built below this size;
# larger fields fall back to digit-wise arithmetic per operation.
_TABLE_MAX = 256
_BLOCK_MAX = 64   # bound on p^h for the F_p^h addition table: at most 2^12 int64 entries


def _is_prime(n: int) -> bool:
    """Trial division; FieldSpec bounds n by 2^16 first."""
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


# -- polynomials as trimmed code tuples, constant term first: over GF(p)
# they build GF(p^s) from its modulus, over GF(q) they analyse encoders --

def _ptrim(c):
    i = len(c)
    while i > 0 and c[i - 1] == 0:
        i -= 1
    return tuple(c[:i])


def _addmul(field: FieldSpec, out: list, f, b) -> list:
    """Add f b into the code list out (grown, not trimmed): by the
    tables, past them (q > 256) by ``FieldSpec.axpy``'s raw operations."""
    add, mul = field._add_t, field._mul_t
    out += [0] * (len(f) + len(b) - 1 - len(out))
    for i, c in enumerate(f):
        if c and mul is None:
            out[i:i + len(b)] = field.axpy(out[i:i + len(b)], c, b)
        elif c:
            cb = mul[c]
            for j, y in enumerate(b, i):
                out[j] = add[out[j]][cb[y]]
    return out


def _axpy(field: FieldSpec, a: tuple, f, b) -> tuple:
    """The codes of a + f b."""
    return _ptrim(_addmul(field, list(a), f, b)) if f and b else a


def _divmod(field: FieldSpec, a: tuple, b: tuple):
    """The codes of the quotient and remainder of a by a nonzero b."""
    inv = field.inv(b[-1])
    if len(b) == 1:
        return tuple(field.scale(inv, a)), ()
    rem = list(a)
    quot = [0] * max(len(rem) - len(b) + 1, 0)
    while True:
        while rem and not rem[-1]:
            rem.pop()
        shift = len(rem) - len(b)
        if shift < 0:
            break
        quot[shift] = f = field.mul(rem[-1], inv)
        rem[shift:] = field.axpy(rem[shift:], field.neg(f), b)
        rem.pop()
    return tuple(quot), tuple(rem)


@functools.cache
def _prime_field(p: int) -> FieldSpec:
    """GF(p), whose polynomials build every GF(p^s)."""
    return FieldSpec(p)


@functools.cache
def _digit_sums(p: int) -> tuple[int, np.ndarray]:
    """(h, table) for the most base-p digits h with p^h <= _BLOCK_MAX: the
    (p^h, p^h) int64 table of the digit-wise sums mod p of two blocks of h
    digits, which is the addition table of F_p^h."""
    h = 1
    while p ** (h + 1) <= _BLOCK_MAX:
        h += 1
    # the digit-wise sum of codes x, y is p times that of x // p and y // p,
    # plus (x + y) % p
    digit = (np.arange(p)[:, None] + np.arange(p)) % p
    table = np.zeros((1, 1), dtype=np.int64)
    for _ in range(h):
        table = (p * table[:, None, :, None] + digit[:, None]).reshape(p * len(table), -1)
    return h, table


class FieldElement:
    """Immutable element of a :class:`FieldSpec`."""

    __slots__ = ("field", "code")

    def __init__(self, field: "FieldSpec", code: int):
        self.field = field
        self.code = code

    @property
    def digits(self) -> tuple[int, ...]:
        """Length-s residue digits, constant term first."""
        return tuple(self.field._digits(self.code))

    def _coerce(self, other):
        if not isinstance(other, FieldElement):
            return NotImplemented
        if other.field is not self.field and other.field != self.field:
            raise ValueError(
                f"elements of {self.field} and {other.field} cannot be combined"
            )
        return other

    def __index__(self):
        return self.code

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return other
        return self.field._elems[self.field.add(self.code, other.code)]

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return other
        f = self.field
        return f._elems[f.add(self.code, f.neg(other.code))]

    def __neg__(self):
        return self.field._elems[self.field.neg(self.code)]

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return other
        return self.field._elems[self.field.mul(self.code, other.code)]

    def inverse(self) -> "FieldElement":
        if self.code == 0:
            raise ZeroDivisionError("zero has no multiplicative inverse")
        return self.field._elems[self.field.inv(self.code)]

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return other
        return self * other.inverse()

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        return self.field._elems[self.field.power(self.code, n)]

    def __bool__(self):
        return self.code != 0

    def __eq__(self, other):
        return (
            isinstance(other, FieldElement)
            and self.code == other.code
            and (other.field is self.field or other.field == self.field)
        )

    def __hash__(self):
        return hash((self.code, self.field._key))

    def __str__(self):
        if self.field.s == 1:
            return str(self.code)
        return "[" + ",".join(str(d) for d in self.digits) + "]"

    def __repr__(self):
        return f"F{self.field.q}({self})"


class FieldSpec:
    """GF(p^s) with an explicit irreducible modulus when s > 1.

    The modulus is a length s+1 digit list over Z/p, constant term first,
    monic; it is validated for irreducibility by trial division.
    """

    __slots__ = ("p", "s", "q", "modulus", "_key", "_elems", "_add_t", "_add_np",
                 "_mul_t", "_mul_np", "_inv_t", "_neg_t", "_lift", "_traces")

    def __init__(self, p: int, s: int = 1, modulus=None):
        if s < 1:
            raise ValueError("extension degree must be >= 1")
        # size first, so a huge p or s costs no trial division or power
        if p > 2 ** 16 or s > 16 or (p > 1 and p ** s > 2 ** 16):
            raise ValueError("fields larger than 2^16 are not supported")
        if not _is_prime(p):
            raise ValueError(f"characteristic {p} is not prime")
        if s == 1:
            if modulus is not None:
                raise ValueError("a modulus is only accepted for s > 1")
            mod = None
        else:
            if modulus is None:
                raise ValueError(f"GF({p}^{s}) needs an explicit modulus")
            mod = tuple(int(c) % p for c in modulus)
            if len(mod) != s + 1 or mod[-1] != 1:
                raise ValueError(
                    f"modulus must be monic of degree {s} (got {list(modulus)})"
                )
            # trial division by every monic polynomial of degree <= s/2
            gfp = _prime_field(p)
            if any(not _divmod(gfp, mod, tail + (1,))[1]
                   for d in range(1, s // 2 + 1)
                   for tail in itertools.product(range(p), repeat=d)):
                raise ValueError(f"modulus {list(modulus)} is reducible over GF({p})")
        self.p = p
        self.s = s
        self.q = p ** s
        self.modulus = mod
        self._key = (p, s, mod)
        self._elems = tuple(FieldElement(self, c) for c in range(self.q))
        # multiplication by b is the s x s matrix over F_p whose row u holds
        # the digits of alpha^u * b; alpha^t has code p^t, so row t of
        # `_lift` holds those of alpha^u * alpha^t for every u
        self._lift = np.array([[self._digits(self._mul_raw(p ** t, p ** u)) for u in range(s)]
                               for t in range(s)], dtype=np.int64).reshape(s, s * s)
        self._lift.setflags(write=False)
        # the trace of a is that of multiplication by a, linear in its digits
        self._traces = np.trace(self._lift.reshape(s, s, s), axis1=1, axis2=2).tolist()
        self._add_t = self._add_np = self._mul_t = self._mul_np = self._inv_t = self._neg_t = None
        if 2 < p <= _BLOCK_MAX:
            # cached now, not amid a computation, where the table would keep
            # the heap from shrinking after it (about 0.1 MB of peak RSS)
            _digit_sums(p)
        if self.q <= _TABLE_MAX:
            # digit-wise sums, and products from the F_p lift of the kernel
            codes = np.arange(self.q, dtype=np.int64)
            powers = p ** np.arange(s, dtype=np.int64)
            digits = codes[:, None] // powers % p
            add = (digits[:, None] + digits[None]) % p @ powers
            mul = linear_map(self, codes.reshape(-1, 1, 1))(codes[:, None])[..., 0]
            inv = np.argmax(mul == 1, axis=1)
            self._add_t = add.tolist()
            if p > 2:   # the point kernel adds codes by table past XOR
                self._add_np = add
                add.setflags(write=False)
            self._mul_t = mul.tolist()
            self._mul_np = mul   # the point kernel's multiples of a basis row
            mul.setflags(write=False)
            self._neg_t = ((-digits) % p @ powers).tolist()
            self._inv_t = [None] + inv[1:].tolist()

    # raw code-level arithmetic (digit vectors packed in base p)
    def _digits(self, c):
        p = self.p
        out = []
        for _ in range(self.s):
            out.append(c % p)
            c //= p
        return out

    def _pack(self, digs):
        c = 0
        for d in reversed(digs):
            c = c * self.p + d
        return c

    def _add_raw(self, a, b):
        if self.s == 1:
            return (a + b) % self.p
        da, db = self._digits(a), self._digits(b)
        return self._pack([(x + y) % self.p for x, y in zip(da, db)])

    def _neg_raw(self, a):
        if self.s == 1:
            return (-a) % self.p
        return self._pack([(-x) % self.p for x in self._digits(a)])

    def _mul_raw(self, a, b):
        if self.s == 1:
            return (a * b) % self.p
        gfp = _prime_field(self.p)
        prod = _axpy(gfp, (), _ptrim(self._digits(a)), _ptrim(self._digits(b)))
        return self._pack(_divmod(gfp, prod, self.modulus)[1])

    # code arithmetic: the tables when built, else the raw operations
    def add(self, a: int, b: int) -> int:
        return self._add_t[a][b] if self._add_t is not None else self._add_raw(a, b)

    def neg(self, a: int) -> int:
        return self._neg_t[a] if self._neg_t is not None else self._neg_raw(a)

    def mul(self, a: int, b: int) -> int:
        return self._mul_t[a][b] if self._mul_t is not None else self._mul_raw(a, b)

    def inv(self, a: int) -> int:
        """Inverse of a nonzero code: a^(q-2) past the tables."""
        return self._inv_t[a] if self._inv_t is not None else self.power(a, self.q - 2)

    def power(self, a: int, n: int) -> int:
        """The code of a^n for n >= 0, by square-and-multiply."""
        out = 1
        while n:
            if n & 1:
                out = self.mul(out, a)
            a = self.mul(a, a)
            n >>= 1
        return out

    def axpy(self, x, c: int, y) -> list[int]:
        """The codes of x + c y for code sequences x, y of one length."""
        if self._mul_t is not None:
            add, cy = self._add_t, self._mul_t[c]
            return [add[a][cy[b]] for a, b in zip(x, y)]
        return [self._add_raw(a, self._mul_raw(c, b)) for a, b in zip(x, y)]

    def scale(self, c: int, x) -> list[int]:
        """The codes of c x for a code sequence x."""
        if self._mul_t is not None:
            cx = self._mul_t[c]
            return [cx[b] for b in x]
        return [self._mul_raw(c, b) for b in x]

    def codes(self, vec) -> tuple[int, ...]:
        """Entry codes of a sequence of codes or elements of this field; an
        element of another field is rejected, not read as its bare code,
        and so is a code outside [0, q)."""
        if FieldElement in map(type, vec):
            for x in vec:
                if isinstance(x, FieldElement) and x.field is not self and x.field != self:
                    raise ValueError(f"{x!r} is not an element of {self}")
        out = tuple(map(index, vec))
        if out and not (min(out) >= 0 and max(out) < self.q):
            bad = next(c for c in out if not 0 <= c < self.q)
            raise ValueError(f"code {bad} is out of range for {self} (0 to {self.q - 1})")
        return out

    # public surface
    @property
    def zero(self) -> FieldElement:
        return self._elems[0]

    @property
    def one(self) -> FieldElement:
        return self._elems[1]

    @property
    def elements(self) -> tuple[FieldElement, ...]:
        """All q elements in canonical encoding order."""
        return self._elems

    def element(self, code: int) -> FieldElement:
        return self._elems[self.codes((code,))[0]]

    def from_digits(self, digits) -> FieldElement:
        digs = [int(d) % self.p for d in digits]
        if len(digs) > self.s:
            if any(digs[self.s:]):
                raise ValueError(f"too many digits for {self}: {list(digits)}")
            digs = digs[: self.s]
        digs += [0] * (self.s - len(digs))
        return self._elems[self._pack(digs)]

    def from_int(self, value: int) -> FieldElement:
        """Integer reduced mod p, embedded in the prime subfield."""
        return self._elems[value % self.p]

    def trace(self, a) -> int:
        """Trace to GF(p) of a code or element: the power sum a + a^p + ...
        + a^(p^(s-1)), which is the trace of multiplication by a as an
        F_p-linear map, so a digit-weighted sum of the basis traces."""
        return sum(d * t for d, t in zip(self._digits(self.codes((a,))[0]), self._traces)) % self.p

    def trace_table(self) -> np.ndarray:
        """The trace of every code, in code order, without a per-code call."""
        digits = np.arange(self.q)[:, None] // self.p ** np.arange(self.s) % self.p
        return digits @ self._traces % self.p

    def __eq__(self, other):
        return isinstance(other, FieldSpec) and self._key == other._key

    def __hash__(self):
        return hash(self._key)

    def __str__(self):
        if self.s == 1:
            return f"GF({self.p})"
        return f"GF({self.p}^{self.s})"

    def __repr__(self):
        if self.s == 1:
            return f"FieldSpec({self.p})"
        return f"FieldSpec({self.p}, {self.s}, modulus={list(self.modulus)})"


_CHUNK = 2 ** 16   # digits per block of the point kernel


def linear_map(field: FieldSpec, matrices):
    """The map sending an (M, m) array of entry-code vectors v to the
    (M, N, k) entry codes of v P for every P of an (N, m, k) array of
    entry-code matrices.

    GF(p^s) is lifted to F_p once, so all images come from one matmul
    mod p, with no q x q table and one path for every field.  It builds a
    field's multiplication table, and gives ``multiples`` past q = 256,
    where there is no table to gather from.  The matmul
    runs in float64 (BLAS): its sums are at most m s (p - 1)^2 < 2^53 for
    every supported field (p < 2^16), so every integer in it is exact.
    """
    matrices = np.asarray(matrices, dtype=np.int64)
    count, m, k = matrices.shape
    p, s = field.p, field.s
    powers = p ** np.arange(s, dtype=np.int64)
    lift = (matrices[..., None] // powers % p @ field._lift % p).reshape(count, m, k, s, s)
    # lifted P has rows (i, u) and columns (j, v); lay all of them side by
    # side so the images under every matrix come from one 2-d matmul
    lift = lift.transpose(1, 3, 0, 2, 4).reshape(m * s, count * k * s).astype(np.float64)

    def apply(vectors) -> np.ndarray:
        digits = np.asarray(vectors, dtype=np.int64)[..., None] // powers % p
        images = digits.reshape(len(digits), m * s).astype(np.float64) @ lift
        images = (images.astype(np.int64) % p).reshape(len(digits), count, k, s)
        codes = images[..., 0]
        for v in range(1, s):
            codes = codes + images[..., v] * p ** v
        return codes

    return apply


def multiples(field: FieldSpec, rows: np.ndarray) -> np.ndarray:
    """(q, *rows.shape) entry codes of c times the code array ``rows`` for
    every c in canonical order: one gather on the multiplication table up
    to q = 256, the F_p lift of ``linear_map`` past it."""
    if field._mul_np is not None:
        return field._mul_np[:, rows]
    lift = linear_map(field, rows.reshape(-1, 1, 1))(np.arange(field.q).reshape(-1, 1))
    return lift.reshape(field.q, *rows.shape)


def span_blocks(field: FieldSpec, basis):
    """Yield ``(start, codes)`` blocks of the (count, ambient) entry codes
    of c @ basis for every c, in canonical order of c, from a (dim,
    ambient) basis; dim 0 gives the zero point.

    Points are built by field addition: the q^L points of the last L
    coordinates form one table, an iterated outer sum of each row's q
    multiples, and a block adds a few whole prefix points (the first
    dim - L coordinates) to all of it.  L is the most coordinates whose
    table fits in a block of about ``_CHUNK`` digits, 0 when one
    coordinate's q multiples do not, so memory stays flat."""
    basis = np.asarray(basis, dtype=np.int64)
    dim, ambient = basis.shape
    q = field.q
    step = max(1, _CHUNK // (ambient * field.s or 1))
    low = 0
    while low < dim and q ** (low + 1) <= step:
        low += 1
    mults = multiples(field, basis)   # mults[c, i] holds the codes of c times row i
    table = mults[:, dim - low] if low else np.zeros((1, ambient), dtype=np.int64)
    for i in range(dim - low + 1, dim):
        table = add_codes(field, table[:, None], mults[None, :, i]).reshape(len(table) * q, ambient)
    if low == dim:   # the table is the whole span
        yield 0, table
        return
    total, per = q ** (dim - low), step // len(table)
    for first in range(0, total, per):
        digits = index_codes(field, np.arange(first, min(first + per, total)), dim - low)
        prefixes = np.zeros((len(digits), ambient), dtype=np.int64)
        for i in range(dim - low):
            prefixes = add_codes(field, prefixes, mults[digits[:, i], i])
        block = add_codes(field, prefixes[:, None], table)
        yield first * len(table), block.reshape(len(prefixes) * len(table), ambient)


def span_indices(field: FieldSpec, basis) -> np.ndarray:
    """Canonical index of every point c @ basis, in canonical order of c."""
    return np.concatenate([code_index(field, b) for _, b in span_blocks(field, basis)])


def add_codes(field: FieldSpec, a, b, length: int = 1):
    """Field sums of broadcast int arrays: the entry codes of a + b, or,
    for ``length`` > 1, the canonical indices of the sums of vectors of
    F^length given by their indices.  Both are digit vectors over F_p,
    which addition adds digit by digit: XOR at p = 2, else a gather from
    the add table up to q = 256 (faster than a sum mod p), a sum mod p
    over a larger prime field, and otherwise one gather per block of h
    base-p digits from the addition table of F_p^h, or a sum mod p per digit
    past p = 64."""
    p = field.p
    if p == 2:
        return a ^ b
    if length == 1 and field._add_np is not None:
        return field._add_np[a, b]
    if length == 1 and field.s == 1:
        return (a + b) % p
    h, table = _digit_sums(p) if p <= _BLOCK_MAX else (1, None)
    base, out = p ** h, np.zeros(np.broadcast(a, b).shape, dtype=np.int64)
    for place in base ** np.arange(-(-length * field.s // h), dtype=np.int64):
        x, y = a // place % base, b // place % base
        out += table[x, y] * place if table is not None else (x + y) % p * place
    return out


def pair_indices(field: FieldSpec, matrix: np.ndarray) -> np.ndarray:
    """(q^d, q^d) grid of the index of (X, Y) @ matrix for all X, Y in F^d
    and a (2d, w) code matrix: the indices of X @ top and Y @ bottom,
    added as vectors of F^w."""
    x = span_indices(field, matrix[:len(matrix) // 2])[:, None]
    y = span_indices(field, matrix[len(matrix) // 2:])[None, :]
    return add_codes(field, x, y, matrix.shape[1])


def code_index(field: FieldSpec, codes: np.ndarray) -> np.ndarray:
    """Canonical index of each vector of entry codes along the last axis."""
    return codes @ field.q ** np.arange(codes.shape[-1] - 1, -1, -1, dtype=np.int64)


def index_codes(field: FieldSpec, indices, length: int) -> np.ndarray:
    """Entry codes of the vectors of F^length with the given canonical
    indices, along a new last axis; the inverse of :func:`code_index`."""
    place = field.q ** np.arange(length - 1, -1, -1, dtype=np.int64)
    return np.asarray(indices, dtype=np.int64)[..., None] // place % field.q


def vector_codes(vectors, length: int) -> np.ndarray:
    """(count, length) array of the entry codes of code vectors."""
    return np.array(vectors, dtype=np.int64).reshape(len(vectors), length)
