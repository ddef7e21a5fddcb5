"""Duality engine: the trace exponents of the character grid, two-sided
character conjugation of adjacency matrices, the transformation sending a
code's adjacency matrix to its dual's, the weak identity through an
explicit reordering of the state pairs, one closed-form witness W and
its negative for codes where one side has all indices <= 1, the
projective witness search, and the unit-memory per-entry formulas.

Everything is exact: the transform's side of the identity is a (rows,
grid) table, integer coefficient rows over the denominator q^(delta+k)
read through an index grid with one int per state pair, and it is
compared with the dual adjacency matrix's own sparse counts times that
denominator, a block of support pairs at a time.  Conjugation is a
Fourier transform on the connected pairs, streamed over the weight
coefficients, whose count sums run in float64 (BLAS) below 2^53.
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
from .field import FieldSpec, index_codes, pair_indices, span_indices, vector_codes
from .linalg import FMat, right_null_space, rref, unit_vec
from .polymat import CodeProfile, PolyMatrix, dual_generator
from .statespace import (ControllerForm, connected_pairs, connected_pairs_orth,
                         controller_form, degree_guard, output_map)

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
    states = index_codes(field, np.arange(field.q ** dim), dim)
    table = field.trace_table()[span_indices(field, states[:, :, None])]
    table.flags.writeable = False
    return table


def _orbit_labels(field: FieldSpec, a: int, b: int) -> tuple[np.ndarray, np.ndarray]:
    """Labels of the F_p^* orbits of the pairs u = (u1, u2) in F^a x F^b,
    a, b >= 1, as (q^a, q^b) grids at (u1, u2) and at (u1, -u2).  F_p
    scales every base-p digit of an index, so a label is the index of the
    multiple c u whose leading nonzero digit is 1 (0 for u = 0)."""
    p = field.p
    inverse = np.array([0] + [pow(d, -1, p) for d in range(1, p)])
    units, scaled = [], []
    for dim in (a, b):
        places = p ** np.arange(dim * field.s - 1, -1, -1)
        digits = np.arange(field.q ** dim)[:, None] // places % p
        units.append(inverse[digits[np.arange(len(digits)), np.argmax(digits != 0, axis=1)]])
        # scaled[c, u] is the index of c u, for every c in F_p
        scaled.append(np.arange(p)[:, None, None] * digits % p @ places)
    c = np.where(units[0][:, None] != 0, units[0][:, None], units[1])
    size_a, size_b = field.q ** a, field.q ** b
    label = scaled[0][c, np.arange(size_a)[:, None]] * size_b + scaled[1][c, np.arange(size_b)]
    return label, label[:, scaled[1][p - 1]]


def fourier_transform(adj: AdjMatrix, cf: ControllerForm) -> tuple[np.ndarray, np.ndarray]:
    """Two-sided character conjugation as a Fourier transform on F_q^m,
    exact over the denominator q^delta: entry (X, Y) has the integer
    coefficients ``rows[at[X, Y]]``, one row of ``rows`` per point of F_q^m,
    ``at`` the (q^delta, q^delta) index grid.

    The support is the m-dim connected pairs with RREF basis B, so row c of
    the counts is lam(c) at pair c B: the index grows with c.  Entry (X, Y)
    is F(u) = sum_c zeta^tr(c . u) lam(c) at u = (X, Y) B^t.  F_p^* scaling
    keeps lam, so (p - 1) F = p S_0 - sum lam for S_0(u) the sum of lam over
    tr(c . u) = 0.  Split c in halves of ceil(m/2) and floor(m/2) entries:
    S_0 is sum_e M_e lam N_(-e) for the 0/1 masks M_e, N_e of trace e.  The
    trace is F_p-linear, so for e != 0 M_e is M_1 with row u1 moved to
    e^-1 u1, and with R = M_1 lam N_1 the terms e != 0 sum R(c u1, -c u2)
    over c in F_p^*: R summed over the F_p^* orbit of (u1, -u2), one
    bincount over orbit labels.  Two float64 products (BLAS) and the
    bincount are exact, as no sum passes max_t sum |lam[:, t]| < 2^52.

    The weight coefficients t are independent, so the transform streams
    over them, max(1, _BLOCK // q^m) columns a pass, each written as a
    contiguous column of the buffer whose transpose is ``rows``: besides
    the counts and the output it holds the masks, the orbit labels and a
    few columns of temporaries."""
    field, p, q, width = adj.field, adj.field.p, adj.field.q, adj.n + 1
    pairs, lam = connected_pairs(cf), adj.counts
    bound = sum(np.abs(lam[i:i + _BLOCK]).sum(axis=0) for i in range(0, len(lam), _BLOCK))
    if bound.max() >= 2 ** 52:
        raise GuardExceeded("character product bound max_t sum |lam[:, :, t]| >= 2^52 "
                            "(float64 headroom)")
    at = pair_indices(field, pairs.codes().T)
    a, b = (pairs.dim + 1) // 2, pairs.dim // 2
    ea = trace_exponents(field, a)
    # M_e for e = 0 and, unless b = 0 (then N has exponent 0 only, so R =
    # 0), 1; the first q^b states of F^a are (0, y), so N_e is a corner of M_e
    masks = [(ea == e).astype(np.float64) for e in range(2 if b else 1)]
    del ea   # freed before the passes
    if b and p != 2:
        label, negated = _orbit_labels(field, a, b)

    def product(part, e):   # M_e lam N_e with rows u1 and columns (t, u2)
        right = (part @ masks[e][:q ** b, :q ** b]).reshape(q ** a, -1)
        return (masks[e] @ right).reshape(q ** a, -1, q ** b)

    total, step = lam.sum(axis=0), max(1, _BLOCK // len(lam))
    columns = np.empty((width, len(lam)), dtype=np.int64)
    for c in (slice(t, t + step) for t in range(0, width, step)):
        # rows (c1, t), columns c2, so both products are 2-d matmuls
        part = lam[:, c].reshape(q ** a, q ** b, -1).transpose(0, 2, 1)
        part = part.astype(np.float64, order="C").reshape(-1, q ** b)
        s0 = product(part, 0)
        if b and p == 2:   # F_2^* = {1} and -u2 = u2
            s0 += product(part, 1)
        elif b:
            r = product(part, 1)
            for t in range(r.shape[1]):
                s0[:, t] += np.bincount(label.ravel(), r[:, t].ravel(), label.size)[negated]
            del r   # freed before the last two temporaries
        # (p S_0 - sum lam) / (p - 1), with no term past the 2^52 bound, so
        # the integer quotient is exact in float64
        s0 -= (total[c, None] - s0) / (p - 1)
        columns.reshape(width, q ** a, q ** b)[c] = s0.transpose(1, 0, 2)
    return columns.T, at


def macwilliams_image(field: FieldSpec, rows: np.ndarray, at: np.ndarray,
                      neg_perm: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Entrywise MacWilliams transform of the conjugation of the
    transposed adjacency matrix, scaled by q^(-k): the candidate for the
    dual adjacency matrix over q^(delta+k), from the conjugated ``rows``
    and ``at`` of a code of dimension k, as a (rows, grid) table whose
    entry (X, Y) is ``rows[grid[X, Y]]``.

    H runs once per row of ``rows``; conjugating the transpose is index
    algebra on its index grid: the (X, Y) entry of the de-conjugated
    transpose is the (-Y, X) entry of the two-sided conjugation, because
    the grid squares to the negation permutation ``neg_perm``, the index
    of -X for every state X.

    The transform runs in int64.  No partial sum exceeds max|entry| times
    the largest column sum of |H|, so that bound is checked, in exact
    integers, before the product.
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
    return rows @ np.array(h, dtype=np.int64), at[neg_perm].T


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

    @cached_property
    def neg_perm(self) -> np.ndarray:   # the index of -X for every state X
        return span_indices(self.field, self.field.neg(1) * np.eye(self.delta, dtype=np.int64))

    geometry = property(lambda self: self.neg_perm)   # bench/worker.py's duality.geometry stage

    @cached_property
    def adj(self) -> AdjMatrix:
        return adjacency_by_cosets(self.cf)

    @cached_property
    def adj_dual(self) -> AdjMatrix:
        return adjacency_by_cosets(self.cf_dual)

    r_dual = property(lambda self: self.cf_dual.r)   # r_hat, the dual's r

    @cached_property
    def transformed(self) -> tuple[np.ndarray, np.ndarray]:
        """The entrywise transform's numerators over q^(delta+k), as a
        (rows, grid) table; the Fourier rows it comes from are not kept."""
        return macwilliams_image(self.field, *fourier_transform(self.adj, self.cf),
                                 self.neg_perm)

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


def _units_off_pivots(field: FieldSpec, rows, ncols: int) -> list[tuple]:
    """The unit vectors e_j of F^ncols off the pivot columns j of the
    RREF of ``rows``: they complete any basis of the rows' span."""
    _, pivots = rref(field, rows, ncols)
    return [unit_vec(ncols, j) for j in range(ncols) if j not in pivots]


def check_weak_identity(pair: DualPair) -> WeakIdentityReport:
    """Build an explicit reordering automorphism phi of the pair space and
    verify that it carries the entrywise transform onto the dual adjacency
    matrix: phi is invertible and every entry matches.

    Row i of the RREF basis B_hat of the dual's connected pairs goes to its
    pairing image B_hat_i M, plus the j-th basis row of the pair orthogonal
    when i is the pivot of the j-th row of the RREF basis of the
    combinations M kills.  So v phi - v M lies in the pair orthogonal, along
    which the transform is constant, and the corrected images are
    independent, as M's image meets the pair orthogonal only in 0.  Unit
    vectors off the pivots complete both sides to bases of the pair space.
    """
    f = pair.field
    two_delta = 2 * pair.delta
    pairs = connected_pairs(pair.cf_dual).basis
    images = FMat.from_rows(f, pairs, two_delta) @ pair.pairing
    killed = right_null_space(f, images.transpose())
    orth = connected_pairs_orth(pair.cf).basis
    if len(killed) != len(orth):
        raise InternalCheckError(
            f"weak identity: the pairing kills {len(killed)} dual pair directions, "
            f"but the pair orthogonal has dimension {len(orth)}")
    target = list(images.rows)
    for combination, w in zip(killed, orth):
        i = next(j for j, c in enumerate(combination) if c)
        target[i] = f.axpy(target[i], 1, w)
    S = FMat.from_rows(f, pairs + tuple(_units_off_pivots(f, pairs, two_delta)), two_delta)
    T = FMat.from_rows(f, target + _units_off_pivots(f, target, two_delta), two_delta)
    # S is invertible by construction, so phi = S^-1 T is invertible iff T is
    if not T.is_invertible():
        raise InternalCheckError("reordering map is singular")
    fmat = S.inverse() @ T

    size = f.q ** pair.delta
    # pair (X, Y) has index X * size + Y, its canonical index in F^(2 delta),
    # and the entrywise transform at (X, Y) is the transformed matrix at (Y, -X)
    x, y = np.divmod(pair_indices(f, vector_codes(fmat.rows, two_delta)), size)
    rows, grid = pair.transformed
    _require(pair, (rows, grid[y, pair.neg_perm[x]]), "reordered transform")
    return WeakIdentityReport(entries_checked=size * size)


def _differ(table: tuple, nonzero: np.ndarray, counts: np.ndarray, scale: int,
            support: np.ndarray, theirs: np.ndarray | None = None) -> np.ndarray | None:
    """The pairs where a (rows, grid) ``table`` differs from the dual, as a
    bool grid, or None where they agree.  The dual is given on its support
    S: the increasing flat positions ``support`` of its nonzero entries,
    which are ``scale`` times ``counts[theirs]``, or times ``counts`` itself
    when ``theirs`` is None; ``nonzero`` marks the nonzero rows of
    ``table``.  Two exact parts and no dense gather: the rows of ``table``
    on S, a block of pairs at a time, and its count of nonzero entries.
    Once the rows on S agree, all |S| of them are nonzero, so a count of |S|
    leaves no nonzero entry off S."""
    rows, grid = table
    flat, bad = grid.ravel(), nonzero[grid]
    blocks = [slice(i, i + _BLOCK) for i in range(0, len(support), _BLOCK)]

    def differs(b):   # whether each pair of block b differs from the dual
        dual = counts[b] if theirs is None else counts[theirs[b]]
        return (rows[flat[support[b]]] != dual * scale).any(axis=1)

    if np.count_nonzero(bad) == len(support) and not any(differs(b).any() for b in blocks):
        return None
    for b in blocks:
        bad.flat[support[b]] = differs(b)
    return bad


def _mismatches(pair: DualPair, moved: tuple) -> np.ndarray:
    """The pairs (X, Y), in row-major order, where the (rows, grid) table
    ``moved`` differs from the dual adjacency matrix times ``pair.scale``:
    the one entrywise comparison, a slice of the dual's counts at a time."""
    adj = pair.adj_dual
    bad = _differ(moved, moved[0].any(axis=1), adj.counts, pair.scale, adj.index)
    return np.empty((0, 2), dtype=np.int64) if bad is None else np.argwhere(bad)


def _require(pair: DualPair, moved: tuple, identity: str):
    """Raise, naming ``identity`` and its first mismatching pair, unless
    ``moved`` is the dual adjacency matrix times ``pair.scale``."""
    bad = _mismatches(pair, moved)
    if len(bad):
        raise InternalCheckError(f"{identity} does not match the dual at pair "
                                 f"(X, Y) = ({bad[0, 0]}, {bad[0, 1]})")


def _witness_moved(pair: DualPair, P: FMat) -> tuple:
    """The transform with both states relabelled by X -> X P: the right
    side of the identity for the witness P, as a (rows, grid) table."""
    perm = span_indices(pair.field, vector_codes(P.rows, pair.delta))
    rows, grid = pair.transformed
    return rows, grid[np.ix_(perm, perm)]


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
    the span of the rows before it; a node survives when the identity
    holds on the span of its rows, which at depth delta is the full check.
    ``tested`` is the witness's 1-based position in that order, or the
    class count on exhaustion.  ``limit`` bounds the candidate row images
    examined, q^delta per expanded node."""
    field, delta = pair.field, pair.delta
    q, size = field.q, field.q ** delta
    adj, (t_rows, t_grid) = pair.adj_dual, pair.transformed
    want = _state_colours(_dual_hashes(pair))
    have = _state_colours(_row_hashes(t_rows)[t_grid])
    nonzero = t_rows.any(axis=1)
    # the dual's side of the prefix check at each depth: its support on the
    # span of e_1, ..., e_depth, as positions in that block and in the
    # dual's counts; at depth delta the block is the whole grid
    dual_blocks = []
    for depth in range(delta):
        span = np.arange(q ** depth) * q ** (delta - depth)
        flat = (span[:, None] * size + span).ravel()
        pos = np.minimum(np.searchsorted(adj.index, flat), len(adj.index) - 1)
        hit = adj.index[pos] == flat
        dual_blocks.append((np.flatnonzero(hit), pos[hit]))
    dual_blocks.append((adj.index, None))
    first = np.zeros(size, dtype=bool)
    for m in range(delta):
        first[q ** m:2 * q ** m] = True
    examined = 0

    def visit(rows: list[int], image: np.ndarray) -> list[int] | None:
        nonlocal examined
        depth = len(rows)
        if _differ((t_rows, t_grid[image[:, None], image]), nonzero, adj.counts,
                   pair.scale, *dual_blocks[depth]) is not None:
            return None
        if depth == delta:
            return rows
        if examined + size > limit:
            raise GuardExceeded(f"witness search would examine more than "
                                f"{limit} candidate row images")
        examined += size
        ok = have == want[q ** (delta - depth - 1)]
        if depth == 0:
            ok &= first
        ok[image] = False
        children = np.flatnonzero(ok)
        prefixes = np.broadcast_to(np.array(rows, dtype=np.int64), (len(children), depth))
        images = span_indices(field, index_codes(
            field, np.column_stack([prefixes, children]), delta))
        fits = (have[images] == want[np.arange(q ** (depth + 1)) * q ** (delta - depth - 1), None])
        for j in np.flatnonzero(fits.all(axis=0)).tolist():
            found = visit(rows + [int(children[j])], images[:, j])
            if found is not None:
                return found
        return None

    rows = visit([], np.zeros(1, dtype=np.int64))
    if rows is None:   # |GL(delta, q)| / (q - 1) classes, one for delta = 0
        total = math.prod(size - q ** l for l in range(delta)) // (q - 1) if delta else 1
        return SearchResult(witness=None, tested=total, examined=examined)
    return SearchResult(witness=FMat(field, delta, delta,
                                     index_codes(field, rows, delta).tolist()),
                        tested=_candidate_position(field, rows), examined=examined)


def check_witness(pair: DualPair, P: FMat) -> tuple[bool, int]:
    """Validate a supplied witness; returns (valid, mismatching pairs)."""
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
    table = (inner @ ht).reshape(q * q, -1), np.arange(q * q).reshape(q, q)
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
