"""Duality engine: the trace exponents of the character grid, two-sided
character conjugation of adjacency matrices, the transformation sending a
code's adjacency matrix to its dual's, the weak identity through a map
of the state pairs onto F_q^m, one closed-form witness W and its
negative for codes where one side has all indices <= 1, the projective
witness search, and the unit-memory per-entry formulas.

Everything is exact: the transform is a (rows, map) table, integer rows
over the denominator q^(delta+k), one per point of F_q^m, and a (2 delta,
m) matrix L; entry (X, Y) is the row at the index of (X, Y) L.  A witness
multiplies L by its relabelling, and the weak identity builds its own
map; either is read through the point index a block at a time and
compared with the dual's own sparse counts times that denominator.  The
search prunes on entry hashes and checks each leaf that way.
Conjugation is a Fourier transform on the connected pairs, streamed over
the weight coefficients, exact in float64 (BLAS).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field as dc_field, fields
from functools import cached_property

import numpy as np

from .adjacency import AdjMatrix, adjacency_by_cosets, coset_guard
from .errors import GuardExceeded, InternalCheckError, power_text
from .exact import macwilliams_rows
from .field import (FieldSpec, add_codes, code_index, index_codes, multiples, pair_indices,
                    span_blocks, span_indices, vector_codes)
from .linalg import FMat, _rref, unit_vec
from .polymat import CodeProfile, PolyMatrix, dual_generator
from .statespace import (ControllerForm, connected_pairs, controller_form, degree_guard,
                         output_map)

GRID_LIMIT = 2 ** 20     # bound on q^(2*delta), the full pair grid
SEARCH_LIMIT = 2 ** 17   # bound on candidate row images the witness search examines
_BLOCK = 2 ** 12         # pairs a table comparison gathers at a time; points x
                         # coefficients a Fourier pass covers (one column at least)


def grid_guard(q: int, delta: int, limit: int = GRID_LIMIT, width: int = 1):
    """Raise when the state-pair count q^(2 delta) passes ``limit``; the
    message gives the bytes of one int64 grid of ``width`` values a pair."""
    if q ** (2 * delta) > limit:
        raise GuardExceeded(f"pair grid q^(2*delta) = {power_text(q, 2 * delta)} > limit {limit} "
                            f"({power_text(q, 2 * delta, 8 * width)} bytes per int64 grid of "
                            f"{width} values a pair)")


def trace_exponents(field: FieldSpec, dim: int) -> np.ndarray:
    """Read-only (q^dim, q^dim) int64 table of tr(x . y), states of F_q^dim
    in canonical order: the exponents of zeta in the character grid."""
    # point c of the walk over the states as one basis is c . x for every x
    states = index_codes(field, np.arange(field.q ** dim), dim)
    table = field.trace_table()[np.concatenate([b for _, b in span_blocks(field, states.T)])]
    table.flags.writeable = False
    return table


def fourier_transform(adj: AdjMatrix, cf: ControllerForm) -> tuple[np.ndarray, FMat]:
    """Two-sided character conjugation as a Fourier transform on F_q^m,
    exact over the denominator q^delta, as a (rows, map) table: entry
    (X, Y) has the integer coefficients of row (X, Y) B^t of ``rows``, one
    row per point of F_q^m, and the map is the (2 delta, m) matrix B^t.

    The support is the m-dim connected pairs with RREF basis B, so row c of
    the counts is lam(c) at pair c B: the index grows with c.  Entry (X, Y)
    is F(u) = sum_c zeta^tr(c . u) lam(c) at u = (X, Y) B^t.  F_p^* scaling
    keeps lam, so (p - 1) F = p S_0 - sum lam for S_0(u) the sum of lam over
    tr(c . u) = 0.  Split c in halves of ceil(m/2) and floor(m/2) entries:
    S_0 is sum_e M_e lam N_(-e) for the 0/1 masks M_e, N_e of trace e.  The
    trace is F_p-linear, so substituting e c for c turns the term e != 0
    into the term 1: S_0 = M_0 lam N_0 + (p - 1) M_1 lam N_(p-1), two float64
    products (BLAS) each, exact, as no sum passes max_t sum |lam[:, t]| <
    2^52.

    The weight coefficients t are independent, so the transform streams
    over them, max(1, _BLOCK // q^m) columns a pass, each written as a
    contiguous column of the buffer whose transpose is ``rows``: besides
    the counts and the output it holds the masks and a few columns of
    temporaries."""
    field, p, q, width = adj.field, adj.field.p, adj.field.q, adj.n + 1
    pairs, lam = connected_pairs(cf), adj.counts
    bound = sum(np.abs(lam[i:i + _BLOCK]).sum(axis=0) for i in range(0, len(lam), _BLOCK))
    if bound.max() >= 2 ** 52:
        raise GuardExceeded("character product bound max_t sum |lam[:, :, t]| >= 2^52 "
                            "(float64 headroom)")
    a, b = (pairs.dim + 1) // 2, pairs.dim // 2
    ea = trace_exponents(field, a)
    # M_e for e = 0 and, unless b = 0 (then N has exponent 0 only, so the
    # terms e != 0 are 0), 1 and p - 1: two masks at p = 2.  M_1 stands for
    # the p - 1 terms, a factor 1 at p = 2, where it is also N_(-1); the
    # first q^b states of F^a are (0, y), so N_e is a corner of M_e
    masks = {e: (ea == e) * float(p - 1 if e == 1 else 1) for e in ({0, 1, p - 1} if b else {0})}
    del ea   # freed before the passes

    def product(part, e):   # M_e lam N_(-e) with rows u1 and columns (t, u2)
        right = (part @ masks[-e % p][:q ** b, :q ** b]).reshape(q ** a, -1)
        return (masks[e] @ right).reshape(q ** a, -1, q ** b)

    total, step = lam.sum(axis=0), max(1, _BLOCK // len(lam))
    columns = np.empty((width, len(lam)), dtype=np.int64)
    for c in (slice(t, t + step) for t in range(0, width, step)):
        # rows (c1, t), columns c2, so both products are 2-d matmuls
        part = lam[:, c].reshape(q ** a, q ** b, -1).transpose(0, 2, 1)
        part = part.astype(np.float64, order="C").reshape(-1, q ** b)
        s0 = product(part, 0)
        if b:
            s0 += product(part, 1)
        # (p S_0 - sum lam) / (p - 1), with no term past the 2^52 bound, so
        # the integer quotient is exact in float64
        s0 -= (total[c, None] - s0) / (p - 1)
        columns.reshape(width, q ** a, q ** b)[c] = s0.transpose(1, 0, 2)
    return columns.T, pairs.matrix().transpose()


def macwilliams_image(field: FieldSpec, rows: np.ndarray, at: FMat) -> tuple[np.ndarray, FMat]:
    """Entrywise MacWilliams transform of the conjugation of the
    transposed adjacency matrix, scaled by q^(-k): the candidate for the
    dual adjacency matrix over q^(delta+k), from the conjugated ``rows``
    and map ``at`` of a code of dimension k, as a (rows, map) table.

    H runs once per row of ``rows``, in place, ``_BLOCK`` rows at a time,
    so no second copy of the rows is made: ``rows`` is consumed, and the
    returned table holds it.  Conjugating the transpose is a change of
    map: the (X, Y) entry of the de-conjugated transpose is the (-Y, X)
    entry of the two-sided conjugation, and (X, Y) J = (-Y, X) for J =
    [[0, I], [-I, 0]], so the map is J at, at's bottom half over its
    negated top half.

    The transform runs in int64.  No partial sum exceeds max|entry| times
    the largest column sum of |H|, so that bound is checked, in exact
    integers, before any row is overwritten.
    """
    n = rows.shape[1] - 1
    h = macwilliams_rows(n, field.q)
    colsum = max(sum(abs(r[t]) for r in h) for t in range(n + 1))
    bound = max(int(rows.max(initial=0)), -int(rows.min(initial=0))) * colsum
    if bound >= 2 ** 62:
        raise GuardExceeded(
            f"MacWilliams transform bound max|entry| * max column sum of |H| "
            f"= {bound} >= 2^62 (int64 headroom)"
        )
    h = np.array(h, dtype=np.int64)
    for i in range(0, len(rows), _BLOCK):
        rows[i:i + _BLOCK] = rows[i:i + _BLOCK] @ h
    d = at.nrows // 2
    top = FMat._of(field, d, at.ncols, at.rows[:d])
    return rows, FMat._of(field, at.nrows, at.ncols, at.rows[d:] + (-top).rows)


class DualPair:
    """A primal/dual encoder pair with cached derived structure.

    Checks the size guards, which need only (q, n, k, delta), then builds
    the controller forms; the adjacency matrices and the transformed table
    appear lazily.  Each large array is held once: the identity compares
    the transformed table with the dual's own counts times ``scale``, and
    the Fourier rows live only while the transform is built.  The
    state-pair subspaces are the statespace functions' own, cached once
    per controller form.
    """

    def __init__(self, G: PolyMatrix, G_dual: PolyMatrix | None = None,
                 grid_limit: int = GRID_LIMIT):
        self.G = G
        q, n, k = G.field.q, G.ncols, G.nrows
        delta = CodeProfile.from_encoder(G).delta
        # the size guards, in pipeline order, before any state-space work
        degree_guard(delta)
        coset_guard(q, delta, k)
        grid_guard(q, delta, grid_limit, n + 1)
        coset_guard(q, delta, n - k)
        self.cf = controller_form(G)
        self.G_dual = G_dual if G_dual is not None else dual_generator(G)
        self.cf_dual = controller_form(self.G_dual)
        if self.cf_dual.delta != self.cf.delta:
            raise InternalCheckError("dual code degree mismatch")
        self.field = G.field
        self.n = self.cf.n
        self.k = self.cf.k
        self.delta = self.cf.delta
        # the transform's denominator: it equals the dual adjacency matrix
        # times this scale
        self.scale = self.field.q ** (self.delta + self.k)

    geometry = property(lambda self: connected_pairs(self.cf))   # bench's duality.geometry

    @cached_property
    def adj(self) -> AdjMatrix:
        return adjacency_by_cosets(self.cf)

    @cached_property
    def adj_dual(self) -> AdjMatrix:
        return adjacency_by_cosets(self.cf_dual)

    r_dual = property(lambda self: self.cf_dual.r)   # r_hat, the dual's r

    @cached_property
    def transformed(self) -> tuple[np.ndarray, FMat]:
        """The entrywise transform's numerators over q^(delta+k), as a
        (rows, map) table; the Fourier rows it comes from are not kept."""
        return macwilliams_image(self.field, *fourier_transform(self.adj, self.cf))

    # names bench/worker.py's duality.fourier and duality.transform stages
    # warm: the Fourier rows, built afresh and not kept, and the dual the
    # identity compares with, its own counts
    fourier = property(lambda self: fourier_transform(self.adj, self.cf))
    dual_scaled = property(lambda self: self.adj_dual)

    @cached_property
    def pairing(self) -> FMat:
        """Gram matrix R_hat R^t of the two output maps: a dual pair v meets
        a primal pair w through the form of their outputs, v M w^t.  The
        D_hat D^t of its lower right block is the constant term of H G^t = 0."""
        return output_map(self.cf_dual) @ output_map(self.cf).transpose()

    @cached_property
    def closed_form(self) -> FMat:
        """W = (B_hat^t D_hat + A_hat^t C_hat) C^t, asserted invertible and
        checked entrywise once per pair: the first term of the witness built
        from the dual realization, and the whole of it when A or A_hat is 0.

        Row s_i + j of B_hat^t D_hat + A_hat^t C_hat is coefficient j of dual
        row i, H_(i,j).  If A_hat = 0 (r_hat = delta), W = B_hat^t D_hat C^t.
        If A = 0 (r = delta), entry (s_i + j, l) of W + C_hat (B^t D)^t is
        H_(i,j) . G_(l,1) + H_(i,j+1) . G_(l,0), the z^(j+1) coefficient of
        H_i G_l^t, which is 0.  Scaling every state by c in F_q^* leaves
        both the dual adjacency matrix and the transform unchanged, so c W
        is a witness whenever W is: one check covers W and -W."""
        d = self.cf_dual
        W = (d.BtD + d.A.transpose() @ d.C) @ self.cf.C.transpose()
        if not W.is_invertible():
            raise InternalCheckError("closed-form witness is singular")
        _require(self, _witness_moved(self, W), "closed-form witness")
        return W

    def profile_dicts(self) -> dict:
        def one(profile: CodeProfile, r_dual: int) -> dict:
            return {
                "n": profile.n, "k": profile.k, "delta": profile.delta,
                "forney_indices": list(profile.forney_indices),
                "r": profile.r, "r_hat": r_dual,
            }
        return {
            "code": one(self.cf.profile, self.r_dual),
            "dual": one(self.cf_dual.profile, self.cf.r),
        }


@dataclass
class WeakIdentityReport:
    entries_checked: int


def _units_off_pivots(field: FieldSpec, rows, ncols: int) -> tuple:
    """The unit vectors e_j of F^ncols off the pivot columns j of the
    RREF of ``rows``: they complete any basis of the rows' span."""
    _, pivots = _rref(field, rows, ncols)
    return tuple(unit_vec(ncols, j) for j in range(ncols) if j not in pivots)


def check_weak_identity(pair: DualPair) -> WeakIdentityReport:
    """Build a map Lambda of the pair space onto F_q^m and verify that the
    transform's rows read through it are the dual adjacency matrix at
    every entry.  The transform reads its rows through an onto map too,
    and two onto maps F^(2 delta) -> F^m differ by an invertible phi, so
    this proves the transform equals the dual after reordering the pairs.

    Lambda = S^-1 [B_hat M B^t; E]: B_hat and B are the RREF bases of the
    dual's and the code's connected pairs, M the pairing, S is B_hat
    completed by the unit vectors off its pivots and E the unit vectors of
    F^m off the pivots of B_hat M B^t.  So a dual connected pair v reads
    row v M B^t, the transform at (y, -x) for (x, y) = v M.  Lambda has
    2 delta rows, and is onto, iff B_hat M B^t has rank r + r_hat.
    """
    f, two_delta = pair.field, 2 * pair.delta
    dual_pairs = connected_pairs(pair.cf_dual).basis
    at = connected_pairs(pair.cf).matrix().transpose()
    images = FMat._of(f, len(dual_pairs), two_delta, dual_pairs) @ pair.pairing @ at
    completion = _units_off_pivots(f, images.rows, at.ncols)
    if len(dual_pairs) + len(completion) != two_delta:
        raise InternalCheckError(
            f"weak identity: B_hat M B^t has rank {at.ncols - len(completion)}, "
            f"but r + r_hat = {pair.cf.r + pair.r_dual}")
    S = FMat._of(f, two_delta, two_delta, dual_pairs + _units_off_pivots(f, dual_pairs, two_delta))
    L = S.inverse() @ FMat._of(f, two_delta, at.ncols, images.rows + completion)
    _require(pair, (pair.transformed[0], L), "reordered transform")
    return WeakIdentityReport(entries_checked=f.q ** two_delta)


def _mismatches(pair: DualPair, moved: tuple) -> np.ndarray:
    """The pairs (X, Y), in row-major order, where the (rows, map) table
    ``moved`` differs from the dual adjacency matrix times ``pair.scale``:
    the one exact comparison of a table with the dual.  The map is read
    through the point index a block of rows (about ``_BLOCK`` pairs) at a
    time, never as a whole int64 grid: each pair of the block with a
    nonzero row starts out differing, then its pairs on the dual's support
    (sorted, so a slice of the dual's counts) are compared with them."""
    (rows, L), field, adj, size = moved, pair.field, pair.adj_dual, pair.adj_dual.size
    codes = vector_codes(L.rows, L.ncols)
    x, y = span_indices(field, codes[:pair.delta]), span_indices(field, codes[pair.delta:])
    nonzero, step, bad = rows.any(axis=1), max(1, _BLOCK // size), np.empty(size * size, bool)
    lo = 0   # the dual's support entries before the block
    for X in range(0, size, step):
        i, at = X * size, add_codes(field, x[X:X + step, None], y, L.ncols).ravel()
        bad[i:i + len(at)] = nonzero[at]
        hi = lo + int(np.count_nonzero(adj.index[lo:lo + len(at)] < i + len(at)))
        support, dual = adj.index[lo:hi], adj.counts[lo:hi] * pair.scale
        bad[support] = (rows[at[support - i]] != dual).any(axis=1)
        lo = hi
    return np.argwhere(bad.reshape(size, size)) if bad.any() else np.empty((0, 2), np.int64)


def _require(pair: DualPair, moved: tuple, identity: str):
    """Raise, naming ``identity`` and its first mismatching pair, unless
    ``moved`` is the dual adjacency matrix times ``pair.scale``."""
    bad = _mismatches(pair, moved)
    if len(bad):
        raise InternalCheckError(f"{identity} does not match the dual at pair "
                                 f"(X, Y) = ({bad[0, 0]}, {bad[0, 1]})")


def _witness_moved(pair: DualPair, P: FMat) -> tuple:
    """The transform with both states relabelled by X -> X P: the right
    side of the identity for the witness P, as a (rows, map) table whose
    map is diag(P, P) L, P times each half of the transformed map L."""
    d, (rows, L) = pair.delta, pair.transformed
    top, bottom = (P @ FMat._of(pair.field, d, L.ncols, L.rows[i:i + d]) for i in (0, d))
    return rows, FMat._of(pair.field, L.nrows, L.ncols, top.rows + bottom.rows)


def closed_form_witness_dual(pair: DualPair) -> FMat:
    """Closed-form witness -W (see ``DualPair.closed_form``) when every
    dual Forney index is at most one; asserts its invertibility and the
    full entrywise identity.  The correction block relating it to the
    pairing matrix is a test oracle."""
    if pair.r_dual != pair.delta:
        raise ValueError(
            "closed-form dual witness needs every dual Forney index <= 1; "
            "try the primal form or the projective search"
        )
    return -pair.closed_form


def closed_form_witness_primal(pair: DualPair) -> FMat:
    """Closed-form witness W (see ``DualPair.closed_form``) when every
    primal Forney index is at most one; asserts its invertibility and the
    full entrywise identity."""
    if pair.cf.r != pair.delta:
        raise ValueError(
            "closed-form primal witness needs every Forney index <= 1; "
            "try the dual form or the projective search"
        )
    return pair.closed_form


@dataclass
class SearchResult:
    witness: FMat | None
    tested: int
    examined: int = 0   # candidate row images looked at, the guarded cost


def _mix(h: np.ndarray) -> np.ndarray:
    """splitmix64 finaliser; uint64 arithmetic wraps by definition."""
    h = (h ^ (h >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    h = (h ^ (h >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return h ^ (h >> np.uint64(31))


def _row_hashes(rows: np.ndarray, scale: int = 1) -> np.ndarray:
    """One hash per coefficient row of ``scale`` times ``rows``, the zero
    row hashing to 0.  The weighted sum wraps mod 2^64, so scaling it
    gives the hash of the scaled row: (c s) . w = s (c . w)."""
    weights = _mix(np.arange(1, rows.shape[1] + 1, dtype=np.uint64))
    return _mix(np.ascontiguousarray(rows, dtype=np.int64).view(np.uint64) @ weights
                * np.uint64(scale))


def _dual_hashes(pair: DualPair) -> np.ndarray:
    """The (q^delta, q^delta) entry hashes of the dual adjacency matrix
    times ``pair.scale``, from its own counts: 0 off its support."""
    adj = pair.adj_dual
    entry = np.zeros(adj.size * adj.size, dtype=np.uint64)
    entry[adj.index] = _row_hashes(adj.counts, pair.scale)
    return entry.reshape(adj.size, adj.size)


def _state_colours(entry: np.ndarray) -> np.ndarray:
    """Colour of every state from the (q^delta, q^delta) grid of entry
    hashes: a hash of its diagonal entry and of the sorted entries of its
    row and of its column.  A witness maps each state to one of the same
    colour, and equal entries hash equal, so a collision only weakens the
    pruning."""
    place = _mix(np.arange(1, len(entry) + 1, dtype=np.uint64))
    by_row = _mix(np.sort(entry, axis=1) @ place)
    by_col = _mix(np.sort(entry, axis=0).T @ place)
    # compared as int64, whose loops the pipeline has already loaded: uint64
    # comparisons touch about 0.16 MB of fresh pages in every process
    return _mix(_mix(entry.diagonal() + by_row) + by_col).view(np.int64)


def _candidate_position(field: FieldSpec, rows: list[int]) -> int:
    """1-based position of the matrix with these row state indices among
    the invertible matrices whose first nonzero entry is 1, in
    lexicographic order of the flattened entry codes: the number of valid
    smaller values of each row, given the rows before it, times the
    completions of the rows after it."""
    q, delta = field.q, len(rows)
    position = 1
    for i, w in enumerate(rows):
        if i == 0:   # nonzero, first nonzero digit 1: [q^m, 2 q^m) per m
            below = sum(min(max(w - q ** m, 0), q ** m) for m in range(delta))
        else:
            span = span_indices(field, index_codes(field, rows[:i], delta))
            below = w - int(np.count_nonzero(span < w))
        position += below * math.prod(q ** delta - q ** l for l in range(i + 1, delta))
    return position


def search_witness(pair: DualPair, limit: int = SEARCH_LIMIT) -> SearchResult:
    """First witness, in lexicographic order of its flattened entry codes
    among the invertible matrices whose first nonzero entry is 1 (one per
    projective class), satisfying the full entrywise identity; exhaustion
    is a first-class outcome, not an error.

    Depth-first over the rows of P: row i is the image of e_i, tried in
    increasing state index, so the order is the lexicographic one.  A row
    is admissible when its state has the colour of e_i and lies outside
    the span of the rows before it.  A node survives when the transform's
    entry hashes equal the dual's on the span of its rows: equal entries
    hash equal, so no prefix of a witness is pruned, and a collision only
    costs nodes.  At depth delta ``_mismatches`` checks the full identity
    exactly.  ``tested`` is the witness's 1-based position in that order,
    or the class count on exhaustion.  ``limit`` bounds the candidate row
    images examined, q^delta per expanded node."""
    field, delta = pair.field, pair.delta
    q, size = field.q, field.q ** delta
    dual = _dual_hashes(pair)
    want = _state_colours(dual)
    dual = dual[::q, ::q].copy()   # a prefix spans states at stride q^(delta - depth) >= q
    t_rows, t_map = pair.transformed
    t_hash = _row_hashes(t_rows)[pair_indices(field, vector_codes(t_map.rows, t_map.ncols))]
    have = _state_colours(t_hash)
    first = np.zeros(size, dtype=bool)
    for m in range(delta):
        first[q ** m:2 * q ** m] = True
    examined = 0

    def visit(rows: list[int], image: np.ndarray) -> tuple[list[int], FMat] | None:
        nonlocal examined
        depth = len(rows)
        if depth == delta:   # P's rows are the chosen states: check it exactly
            codes = index_codes(field, rows, delta).tolist()
            P = FMat._of(field, delta, delta, tuple(map(tuple, codes)))
            return None if len(_mismatches(pair, _witness_moved(pair, P))) else (rows, P)
        stride = q ** (delta - depth - 1)
        if (t_hash[image[:, None], image] != dual[::stride, ::stride]).any():
            return None
        if examined + size > limit:
            raise GuardExceeded(f"witness search would examine more than "
                                f"{limit} candidate row images")
        examined += size
        ok = have == want[stride]
        if depth == 0:
            ok &= first
        ok[image] = False
        children = np.flatnonzero(ok)
        # the span of rows + [w] is image + c w, c varying fastest
        steps = code_index(field, multiples(field, index_codes(field, children, delta)))
        images = add_codes(field, image[:, None, None], steps[None], delta).reshape(
            q ** (depth + 1), len(children))
        fits = (have[images] == want[np.arange(q ** (depth + 1)) * stride, None])
        for j in np.flatnonzero(fits.all(axis=0)).tolist():
            found = visit(rows + [int(children[j])], images[:, j])
            if found is not None:
                return found
        return None

    found = visit([], np.zeros(1, dtype=np.int64))
    if found is None:   # |GL(delta, q)| / (q - 1) classes, one for delta = 0
        total = math.prod(size - q ** l for l in range(delta)) // (q - 1) if delta else 1
        return SearchResult(witness=None, tested=total, examined=examined)
    return SearchResult(witness=found[1], tested=_candidate_position(field, found[0]),
                        examined=examined)


def check_witness(pair: DualPair, P: FMat) -> tuple[bool, int]:
    """Validate a supplied witness; returns (valid, mismatching pairs)."""
    if P.field != pair.field:
        raise ValueError(f"witness matrix is over {P.field}, but the code is over {pair.field}")
    if (P.nrows, P.ncols) != (pair.delta, pair.delta):
        raise ValueError(f"witness matrix is {P.nrows}x{P.ncols}, but delta = {pair.delta} "
                         f"needs {pair.delta}x{pair.delta}")
    if not P.is_invertible():
        raise ValueError("witness matrix is singular")
    count = len(_mismatches(pair, _witness_moved(pair, P)))
    return count == 0, count


def check_unit_memory(pair: DualPair) -> int:
    """For degree-one codes, verify the two-case per-entry formula: it
    gives the dual adjacency matrix times ``pair.scale`` from the code's
    own adjacency matrix.  Returns the entries checked."""
    if pair.delta != 1:
        raise ValueError("unit-memory formulas need delta = 1")
    q = pair.field.q
    lam = pair.adj.dense_coefficients()
    ht = np.array(macwilliams_rows(pair.n, q), dtype=np.int64)
    lam00, lam01, row1 = lam[0, 0], lam[0, 1], lam[1].sum(axis=0)
    inner = lam00 + q * lam - lam01 - row1
    inner[0, 0] = lam00 + (q - 1) * (lam01 + row1)
    table = (inner @ ht).reshape(q * q, -1), FMat.identity(pair.field, 2)
    _require(pair, table, "unit-memory formula")
    return q * q


@dataclass
class DualityReport:
    profiles: dict
    theorem_used: str
    witness: list[list[int]] | None
    verdict: str
    entry_mismatch_count: int
    elapsed_ms: int
    details: dict = dc_field(default_factory=dict)

    def to_json_dict(self) -> dict:
        # shallow, in declaration order: asdict deep-copies every leaf (~0.1 ms)
        return {f.name: getattr(self, f.name) for f in fields(self)}


def run_verification(G: PolyMatrix, mode: str = "auto",
                     witness: FMat | None = None, grid_limit: int = GRID_LIMIT,
                     search_limit: int = SEARCH_LIMIT) -> DualityReport:
    """Drive the duality pipeline for one encoder and produce a report.

    Mode ``auto`` picks the strongest applicable route: unit-memory for
    degree one, then a closed-form witness from whichever side has all
    indices <= 1, then the weak identity followed by the projective
    search.
    """
    start = time.perf_counter()
    pair = DualPair(G, grid_limit=grid_limit)
    details: dict = {"mode": mode}
    theorem_used = mode
    verdict = "verified"
    mismatches = 0
    wit: FMat | None = None
    search = witness is None and mode == "search"

    if witness is not None:
        ok, mismatches = check_witness(pair, witness)
        theorem_used = "witness-check"
        verdict = "verified" if ok else "not-verified"
        wit = witness
    elif mode == "auto":
        if pair.delta == 1:
            details["entries"] = check_unit_memory(pair)
            wit = closed_form_witness_dual(pair)
            details["primal_witness"] = closed_form_witness_primal(pair).to_int_rows()
            theorem_used = "delta=1"
        elif pair.r_dual == pair.delta:
            wit = closed_form_witness_dual(pair)
            theorem_used = "rhat=delta"
        elif pair.cf.r == pair.delta:
            wit = closed_form_witness_primal(pair)
            theorem_used = "r=delta"
        else:
            details["weak_entries"] = check_weak_identity(pair).entries_checked
            search = True
    elif mode == "weak":
        details["weak_entries"] = check_weak_identity(pair).entries_checked
        theorem_used = "multiset-only"
    elif mode == "theorem-q":
        wit = closed_form_witness_dual(pair)
        theorem_used = "rhat=delta"
    elif mode == "theorem-p":
        wit = closed_form_witness_primal(pair)
        theorem_used = "r=delta"
    elif mode == "unit-memory":
        details["entries"] = check_unit_memory(pair)
        theorem_used = "delta=1"
    elif mode != "search":
        raise ValueError(f"unknown verification mode {mode!r}")
    if search:
        result = search_witness(pair, search_limit)
        details["candidates_tested"] = result.tested
        if result.witness is not None:
            wit = result.witness
            theorem_used = "conjecture-search"
        else:
            theorem_used = "multiset-only"
            verdict = "counterexample-candidate"

    elapsed = int((time.perf_counter() - start) * 1000)
    return DualityReport(
        profiles=pair.profile_dicts(),
        theorem_used=theorem_used,
        witness=wit.to_int_rows() if wit is not None else None,
        verdict=verdict,
        entry_mismatch_count=mismatches,
        elapsed_ms=elapsed,
        details=details,
    )
