"""Weight adjacency matrices of a controller canonical form.

The matrix is indexed by state pairs in the canonical state order; an
absent entry is the zero polynomial (disconnected pair).  Two builders
are provided: one straight from the transition definition, one through
output cosets of the constant code.  They must agree and the tests treat
the transition builder as the oracle.
"""

from __future__ import annotations

import numpy as np

from .errors import GuardExceeded, InternalCheckError, power_text
from .exact import WePoly, weight_counts
from .field import code_index, span_blocks, vector_codes
from .statespace import ControllerForm, connected_pairs, constant_code, output_map

TRANSITION_LIMIT = 2 ** 24   # bound on q^(2*delta) * q^k
PAIR_LIMIT = 2 ** 20         # bound on q^(delta+k) coset points


class AdjMatrix:
    """Sparse q^delta x q^delta matrix of weight enumerators: ``index``
    holds the increasing flat pair indices X * q^delta + Y of the support,
    ``counts`` their (support, n+1) coefficient rows, both read-only int64
    and kept as given: an unsorted ``index`` is a failed check."""

    __slots__ = ("field", "n", "delta", "size", "index", "counts")

    def __init__(self, field, n: int, delta: int, index, counts):
        self.field = field
        self.n = n
        self.delta = delta
        self.size = field.q ** delta
        self.index = np.asarray(index, dtype=np.int64)
        self.counts = np.asarray(counts, dtype=np.int64)
        if np.any(self.index[1:] <= self.index[:-1]):
            raise InternalCheckError("adjacency support index is not increasing")
        self.index.flags.writeable = self.counts.flags.writeable = False

    @property
    def entries(self) -> dict:
        """{(X, Y): WePoly} over the support, built for output."""
        xs, ys = np.divmod(self.index, self.size)
        return {(x, y): WePoly(c) for x, y, c in
                zip(xs.tolist(), ys.tolist(), self.counts.tolist())}

    def entry(self, i: int, j: int) -> WePoly:
        if not (0 <= i < self.size and 0 <= j < self.size):
            raise ValueError(f"pair ({i}, {j}) is out of range for q^delta = {self.size} states")
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
    if q ** (2 * cf.delta + cf.k) > limit:
        raise GuardExceeded(f"transition enumeration needs q^(2*delta+k) = "
                            f"{power_text(q, 2 * cf.delta + cf.k)} > limit {limit}")
    # (X, u) -> (X A + u B, X C + u D) as one linear map, X varying slowest
    gen = vector_codes([a + c for a, c in zip(cf.A.rows, cf.C.rows)]
                       + [b + d for b, d in zip(cf.B.rows, cf.D.rows)], cf.delta + cf.n)
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


def coset_guard(q: int, delta: int, k: int, limit: int = PAIR_LIMIT):
    """Raise when the coset point count q^(delta+k) of a code of dimension
    k passes ``limit``."""
    if q ** (delta + k) > limit:
        raise GuardExceeded(f"coset enumeration needs q^(delta+k) = "
                            f"{power_text(q, delta + k)} points > limit {limit}")


def adjacency_by_cosets(cf: ControllerForm, limit: int = PAIR_LIMIT) -> AdjMatrix:
    """Walk only the connected pairs; each entry is the weight enumerator
    of the coset (representative output + constant code)."""
    # q^(delta+r) connected pairs, each a coset of q^(k-r) points
    coset_guard(cf.field.q, cf.delta, cf.k, limit)
    pairs, const = connected_pairs(cf), constant_code(cf)
    # output representatives are linear in the pair, so c @ [reps; const]
    # runs through the coset of each pair in turn, q^(k-r) points apiece;
    # the span order of an RREF basis is increasing index order, so the
    # pairs come sorted
    reps = (pairs.matrix() @ output_map(cf)).rows
    gen = vector_codes(reps + const.basis, cf.n)
    group = cf.field.q ** const.dim
    adj = AdjMatrix(cf.field, cf.n, cf.delta, pairs.point_indices(),
                    weight_counts(cf.field, gen, group))
    _check_invariants(adj, cf)
    return adj

