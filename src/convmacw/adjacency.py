"""Weight adjacency matrices of a controller canonical form.

The matrix is indexed by state pairs in the canonical state order; an
absent entry is the zero polynomial (disconnected pair).  Two builders
are provided: one straight from the transition definition, one through
output cosets of the constant code.  They must agree and the tests treat
the transition builder as the oracle.
"""

from __future__ import annotations

import numpy as np

from .errors import GuardExceeded, InternalCheckError
from .exact import WePoly, we_of_affine, weight_counts
from .field import code_index, span_blocks, span_indices, vector_codes
from .linalg import FMat, block_matrix
from .statespace import (ControllerForm, PairSplit, connected_pairs,
                         constant_code, coefficient_code, pair_output_rep,
                         pair_split)

TRANSITION_LIMIT = 2 ** 24   # bound on q^(2*delta) * q^k
PAIR_LIMIT = 2 ** 20         # bound on q^(delta+k) coset points


class AdjMatrix:
    """Sparse q^delta x q^delta matrix of weight enumerators: ``index``
    holds the sorted flat pair indices X * q^delta + Y of the support,
    ``counts`` their (support, n+1) coefficient rows, both read-only int64."""

    __slots__ = ("field", "n", "delta", "size", "index", "counts")

    def __init__(self, field, n: int, delta: int, index, counts):
        self.field = field
        self.n = n
        self.delta = delta
        self.size = field.q ** delta
        order = np.argsort(index, kind="stable")
        self.index = np.asarray(index, dtype=np.int64)[order]
        self.counts = np.asarray(counts, dtype=np.int64)[order]
        self.index.flags.writeable = self.counts.flags.writeable = False

    @property
    def entries(self) -> dict:
        """{(X, Y): WePoly} over the support, built for output."""
        xs, ys = np.divmod(self.index, self.size)
        return {(x, y): WePoly(c) for x, y, c in
                zip(xs.tolist(), ys.tolist(), self.counts.tolist())}

    def entry(self, i: int, j: int) -> WePoly:
        k = np.searchsorted(self.index, i * self.size + j)
        found = k < len(self.index) and self.index[k] == i * self.size + j
        return WePoly(self.counts[k].tolist() if found else ())

    def support_size(self) -> int:
        return len(self.index)

    def dense_coefficients(self) -> np.ndarray:
        """(size, size, n+1) int64 coefficient tensor."""
        out = np.zeros((self.size * self.size, self.n + 1), dtype=np.int64)
        out[self.index] = self.counts
        return out.reshape(self.size, self.size, self.n + 1)

    def __eq__(self, other):
        return (
            isinstance(other, AdjMatrix)
            and self.field == other.field
            and self.n == other.n
            and self.delta == other.delta
            and np.array_equal(self.index, other.index)
            and np.array_equal(self.counts, other.counts)
        )

    def to_json_dict(self) -> dict:
        xs, ys = np.divmod(self.index, self.size)
        items = [{"row": x, "col": y, "we": c} for x, y, c in
                 zip(xs.tolist(), ys.tolist(), self.counts.tolist())]
        return {
            "delta": self.delta,
            "q": self.field.q,
            "n": self.n,
            "ordering": "lex-enc",
            "entries": items,
        }

    def render_text(self) -> str:
        entries, zero = self.entries, WePoly.empty()
        cells = [[str(entries.get((i, j), zero)) for j in range(self.size)]
                 for i in range(self.size)]
        widths = [max(len(cells[i][j]) for i in range(self.size))
                  for j in range(self.size)]
        lines = []
        for row in cells:
            lines.append("  ".join(c.rjust(w) for c, w in zip(row, widths)))
        return "\n".join(lines)


def _check_invariants(adj: AdjMatrix, cf: ControllerForm):
    if adj.support_size() != cf.field.q ** (cf.delta + cf.r):
        raise InternalCheckError("adjacency support is not the connected pair count")
    if np.any(adj.counts.sum(axis=1) != cf.field.q ** (cf.k - cf.r)):
        raise InternalCheckError("entry does not enumerate a full coset")


def adjacency_by_transitions(cf: ControllerForm,
                             limit: int = TRANSITION_LIMIT) -> AdjMatrix:
    """Enumerate every (state, input) transition straight from the
    definition; this is the independent oracle for the coset builder."""
    q = cf.field.q
    cost = q ** (2 * cf.delta) * q ** cf.k
    if cost > limit:
        raise GuardExceeded(
            f"transition enumeration needs q^(2*delta+k) = {cost} > limit {limit}"
        )
    # (X, u) -> (X A + u B, X C + u D) as one linear map, X varying slowest
    gen = vector_codes(block_matrix(cf.field, [[cf.A, cf.C], [cf.B, cf.D]]).rows,
                       cf.delta + cf.n)
    width, blocks = cf.n + 1, []
    for start, block in span_blocks(cf.field, gen):
        xs = (start + np.arange(len(block))) // q ** cf.k
        keys = ((xs * q ** cf.delta + code_index(cf.field, block[:, :cf.delta]))
                * width + np.count_nonzero(block[:, cf.delta:], axis=1))
        blocks.append(np.unique(keys, return_counts=True))
    # one merge: a pair's transitions can straddle two blocks
    keys, hits = (np.concatenate(parts) for parts in zip(*blocks))
    index, rows = np.unique(keys // width, return_inverse=True)
    counts = np.zeros((len(index), width), dtype=np.int64)
    np.add.at(counts, (rows, keys % width), hits)
    adj = AdjMatrix(cf.field, cf.n, cf.delta, index, counts)
    _check_invariants(adj, cf)
    return adj


def adjacency_by_cosets(cf: ControllerForm, limit: int = PAIR_LIMIT) -> AdjMatrix:
    """Walk only the connected pairs; each entry is the weight enumerator
    of the coset (representative output + constant code)."""
    # q^(delta+r) connected pairs, each a coset of q^(k-r) points
    points = cf.field.q ** (cf.delta + cf.k)
    if points > limit:
        raise GuardExceeded(
            f"coset enumeration needs q^(delta+k) = {points} points > limit {limit}"
        )
    pairs, const = connected_pairs(cf), constant_code(cf)
    # output representatives are linear in the pair, so c @ [reps; const]
    # runs through the coset of each pair in turn, q^(k-r) points apiece
    reps = [pair_output_rep(cf, b) for b in pairs.basis]
    gen = vector_codes(reps + list(const.basis), cf.n)
    group = cf.field.q ** const.dim
    adj = AdjMatrix(cf.field, cf.n, cf.delta, pairs.point_indices(),
                    weight_counts(cf.field, gen, 0, points, group))
    _check_invariants(adj, cf)
    return adj


class StatePermutation:
    """Permutation of state indices induced by an invertible matrix acting
    on the state space by right multiplication."""

    __slots__ = ("size", "perm")

    def __init__(self, P: FMat, delta: int | None = None):
        codes = np.array(P.to_int_rows(), dtype=np.int64).reshape(1, P.nrows, P.ncols)
        images = span_indices(P.field, codes[0])
        # a square map is a bijection iff only the zero state maps to zero
        if (P.nrows != P.ncols or delta not in (None, P.nrows)
                or np.count_nonzero(images == 0) != 1):
            raise ValueError("state transformation matrix is singular or misshapen")
        self.size = len(images)
        self.perm = tuple(images.tolist())

    def matrix01(self) -> tuple[tuple[int, ...], ...]:
        """Dense 0/1 permutation matrix, rows indexed by source state."""
        return tuple(
            tuple(1 if self.perm[i] == j else 0 for j in range(self.size))
            for i in range(self.size)
        )


def conjugate(adj: AdjMatrix, P: FMat) -> AdjMatrix:
    """Relabel states by X -> X P: entry (X, Y) of the result is the old
    entry at (X P, Y P)."""
    inv = np.argsort(StatePermutation(P, adj.delta).perm)
    xs, ys = np.divmod(adj.index, adj.size)
    return AdjMatrix(adj.field, adj.n, adj.delta, inv[xs] * adj.size + inv[ys],
                     adj.counts)


def entry_sums(adj: AdjMatrix, cf: ControllerForm,
               split: PairSplit | None = None) -> tuple[WePoly, WePoly]:
    """(sum over the transversal, sum over everything); the first equals
    the coefficient-code enumerator, the second is q^(delta - r_dual)
    times it.  Both identities are asserted."""
    if split is None:
        split = pair_split(cf)
    on_transversal = np.isin(adj.index, split.transversal.point_indices())
    acc = WePoly(adj.counts[on_transversal].sum(axis=0).tolist())
    total = WePoly(adj.counts.sum(axis=0).tolist())
    coeff_code, r_dual = coefficient_code(cf)
    cc_we = we_of_affine((cf.field.zero,) * cf.n, coeff_code.basis)
    if acc != cc_we:
        raise InternalCheckError("transversal sum is not the coefficient-code enumerator")
    if total != cc_we * (cf.field.q ** (cf.delta - r_dual)):
        raise InternalCheckError("full entry sum identity failed")
    return acc, total
