"""Controller canonical form of a minimal basic encoder, its two block
codes, and the connected state pairs with their orthogonal.

States live in F^delta; state pairs live in F^delta x F^delta, stored as
concatenated code vectors of length 2*delta.  A pair (X, Y) has the
representative output X C + Y B^t D, the product (X, Y) R with the output
map R of ``output_map``.  All subspaces come out with canonical RREF
bases; they and R are built once per controller form.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from functools import wraps

from .errors import GuardExceeded, InternalCheckError
from .field import FieldSpec
from .linalg import FMat, Subspace, unit_vec
from .polymat import MAX_EXPONENT, CodeProfile, PolyMatrix


@dataclass(frozen=True)
class ControllerForm:
    """State-space quadruple (A, B, C, D) realizing an encoder, plus the
    index sets marking where the shift blocks start and end."""

    field: FieldSpec
    n: int
    k: int
    delta: int
    A: FMat
    B: FMat
    C: FMat
    D: FMat
    BtD: FMat
    profile: CodeProfile
    block_starts: frozenset[int]
    block_ends: frozenset[int]
    row_order: tuple[int, ...]
    # subspaces derived from the form, by builder (see _per_form)
    _built: dict = dc_field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def r(self) -> int:
        return self.profile.r


def _per_form(build):
    """Run ``build(cf)`` once per controller form; the form is immutable."""
    @wraps(build)
    def once(cf: ControllerForm):
        if build not in cf._built:
            cf._built[build] = build(cf)
        return cf._built[build]
    return once


def degree_guard(delta: int):
    """Raise when the code degree passes MAX_EXPONENT."""
    if delta > MAX_EXPONENT:
        raise GuardExceeded(f"code degree delta = {delta} > limit {MAX_EXPONENT}")


def controller_form(G: PolyMatrix) -> ControllerForm:
    """Build the controller canonical form, reordering rows so that the
    nonzero row degrees come first (descending, stable); the applied row
    order is recorded.  A is delta x delta, so the cost is quadratic in
    delta, which is bounded by MAX_EXPONENT."""
    profile = CodeProfile.from_encoder(G)  # rejects non-basic/non-minimal
    degree_guard(profile.delta)
    field = G.field
    k, n = G.nrows, G.ncols
    degs = [int(d) for d in G.row_degrees()]
    order = sorted(range(k), key=lambda i: -degs[i])
    rows = [G.rows[i] for i in order]
    degs = [degs[i] for i in order]
    r = profile.r
    delta = profile.delta

    # block i holds states starts[i] .. ends[i], one per power z^1 .. z^deg_i
    starts = [sum(degs[:i]) for i in range(r)]
    ends = [s + d - 1 for s, d in zip(starts, degs)]
    zero = (0,) * delta
    # A shifts each block by one state; B feeds input i into its block's start
    a_rows = tuple(zero if t in ends else unit_vec(delta, t + 1) for t in range(delta))
    b_rows = tuple(unit_vec(delta, s) for s in starts) + (zero,) * (k - r)
    c_rows = tuple(tuple(p.coefficient(nu) for p in rows[i])
                   for i in range(r) for nu in range(1, degs[i] + 1))
    d_rows = tuple(tuple(p.coefficient(0) for p in row) for row in rows)

    A = FMat._of(field, delta, delta, a_rows)
    B = FMat._of(field, k, delta, b_rows)
    C = FMat._of(field, delta, n, c_rows)
    D = FMat._of(field, k, n, d_rows)
    return ControllerForm(
        field=field, n=n, k=k, delta=delta,
        A=A, B=B, C=C, D=D, BtD=B.transpose() @ D,
        profile=profile,
        block_starts=frozenset(starts),
        block_ends=frozenset(ends),
        row_order=tuple(order),
    )


@_per_form
def constant_code(cf: ControllerForm) -> Subspace:
    """Block code of constant codewords: the span of the degree-zero rows
    of the encoder, which the controller form puts after the first r."""
    return Subspace._span(cf.field, cf.n, cf.D.rows[cf.r:])


@_per_form
def coefficient_code(cf: ControllerForm) -> tuple[Subspace, int]:
    """Block code spanned by all coefficient rows of the encoder, and the
    count of nonzero dual Forney indices it determines."""
    span = Subspace._span(cf.field, cf.n, cf.C.rows + cf.D.rows)
    r_dual = span.dim - cf.k
    if not 0 <= r_dual <= cf.n - cf.k:
        raise InternalCheckError("coefficient code dimension out of range")
    return span, r_dual


@_per_form
def connected_pairs(cf: ControllerForm) -> Subspace:
    """Pairs (X, Y) some input can drive from state X to state Y."""
    field, delta = cf.field, cf.delta
    rows = [unit_vec(delta, i) + cf.A.rows[i] for i in range(delta)]
    rows += [(0,) * delta + cf.B.rows[j] for j in range(cf.k)]
    space = Subspace._span(field, 2 * delta, rows)
    if space.dim != delta + cf.r:
        raise InternalCheckError("connected pair space has the wrong dimension")
    return space


@_per_form
def connected_pairs_orth(cf: ControllerForm) -> Subspace:
    """Orthogonal of the connected pairs."""
    return connected_pairs(cf).orth()


@_per_form
def output_map(cf: ControllerForm) -> FMat:
    """The 2 delta x n matrix R with the rows of C, then those of B^t D:
    the pair (X, Y) has the representative output (X, Y) R = X C + Y B^t D."""
    return FMat._of(cf.field, 2 * cf.delta, cf.n, cf.C.rows + cf.BtD.rows)
