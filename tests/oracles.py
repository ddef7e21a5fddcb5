"""Second routes kept for the tests: identity checks the production
pipeline does not need (among them the pairing lemma and the correction
block of the dual closed form: the production routes check only the full
identity), the two closed-form witness products of the paper, the dense
bucket product and the closed-form route to the conjugated matrix, the
block-wise representative output and pairing matrix, the pair split with
its output kernel, subspace intersection, the dense comparison and state
colours of (rows, map) and (rows, grid) tables, and FieldElement-level
helpers to compare its int-code kernels against.
A check raises InternalCheckError when its identity fails."""

import itertools
from collections import namedtuple
from fractions import Fraction

import numpy as np

from convmacw import (FMat, GuardExceeded, InternalCheckError, PolyMatrix,
                      Subspace, WePoly, ZPoly)
from convmacw.adjacency import AdjMatrix
from convmacw.duality import fourier_transform, trace_exponents
from convmacw.exact import macwilliams_rows, weight_counts
from convmacw.field import (code_index, index_codes, linear_map, pair_indices,
                            span_blocks, span_indices, vector_codes)
from convmacw.linalg import right_null_space, unit_vec, vec_mat
from convmacw.polymat import _smith_form, is_basic, is_minimal
from convmacw.statespace import (coefficient_code, connected_pairs,
                                 connected_pairs_orth, constant_code, output_map)

_CHUNK = 2 ** 18   # elements per transient array in the closed-form incidence sum


# -- vectors, matrices and subspaces ---------------------------------------

def vector_index(vec) -> int:
    """Canonical index of a nonempty FieldElement vector: its codes as
    digits in base q, the last coordinate varying fastest."""
    idx = 0
    for a in vec:
        idx = idx * a.field.q + a.code
    return idx


def enumerate_vectors(field, dim: int):
    """All q^dim vectors in canonical index order (last coordinate fastest)."""
    return tuple(itertools.product(field.elements, repeat=dim))


def vec_dot(a, b):
    """The canonical bilinear form sum(a_i * b_i) of two nonempty vectors."""
    acc = a[0].field.zero
    for x, y in zip(a, b, strict=True):
        acc = acc + x * y
    return acc


def int_matrix(field, rows) -> FMat:
    """Matrix of integers, reduced into the prime subfield."""
    return FMat.from_rows(field, [[field.from_int(v) for v in r] for r in rows])


def block_matrix(field, grid) -> FMat:
    """Assemble a matrix from a 2-d grid of FMat blocks with matching dims."""
    rows = []
    ncols = None
    for block_row in grid:
        height = block_row[0].nrows
        for b in block_row:
            if b.nrows != height:
                raise ValueError("inconsistent block heights")
        width = sum(b.ncols for b in block_row)
        if ncols is None:
            ncols = width
        elif ncols != width:
            raise ValueError("inconsistent block widths")
        for i in range(height):
            row = []
            for b in block_row:
                row.extend(b.rows[i])
            rows.append(tuple(row))
    return FMat(field, len(rows), ncols or 0, rows)


def span_blocks_reference(field, basis, lo: int = 0, hi: int | None = None, chunk: int = 2 ** 16):
    """The point kernel by lift and matmul: every block's coefficient
    vectors c are unpacked from their indices and mapped by one float64
    matmul mod p; same blocks of c @ basis as ``field.span_blocks``
    yields, but cut every ``chunk`` digits."""
    basis = np.asarray(basis, dtype=np.int64)
    dim, ambient = basis.shape
    hi = field.q ** dim if hi is None else hi
    step = max(1, chunk // ((dim + ambient) * field.s or 1))
    image = linear_map(field, basis[None])
    for start in range(lo, hi, step):
        yield start, image(index_codes(field, np.arange(start, min(start + step, hi)), dim))[:, 0]


def points(space: Subspace):
    """All q^dim points of a subspace, in span-coefficient order."""
    elems = space.field.elements
    return [tuple(elems[c] for c in row)
            for _, block in span_blocks(space.field, space.codes())
            for row in block.tolist()]


def intersect(u: Subspace, v: Subspace) -> Subspace:
    """Intersection of two subspaces of one ambient space: the orthogonal
    of the sum of their orthogonals."""
    if u.ambient != v.ambient or u.field != v.field:
        raise ValueError("subspaces live in different ambient spaces")
    return (u.orth() + v.orth()).orth()


def matrix01(perm) -> tuple[tuple[int, ...], ...]:
    """Dense 0/1 permutation matrix, rows indexed by source state."""
    return tuple(tuple(1 if perm[i] == j else 0 for j in range(len(perm)))
                 for i in range(len(perm)))


# -- polynomial codes -------------------------------------------------------

def max_degree(G: PolyMatrix) -> int:
    """Largest entry degree of G, 0 for the zero matrix."""
    return max((int(p.degree) for r in G.rows for p in r if not p.is_zero()), default=0)


def coefficient_matrix(G: PolyMatrix, power: int) -> FMat:
    """The matrix of the z^power coefficients of G."""
    return FMat(G.field, G.nrows, G.ncols, [[p.coefficient(power) for p in r] for r in G.rows])


def encode(u, G: PolyMatrix):
    """Codeword u @ G for a message vector of polynomials."""
    zero = ZPoly(G.field)
    out = [zero] * G.ncols
    for ui, row in zip(u, G.rows, strict=True):
        for j in range(G.ncols):
            out[j] = out[j] + ui * row[j]
    return tuple(out)


def codeword_weight(v) -> int:
    """Sum of Hamming weights of all coefficient vectors."""
    return sum(1 for p in v for c in p.coeffs if c)


def module_contains(G: PolyMatrix, w) -> bool:
    """Whether the row module of G contains the polynomial vector w: with
    U G V = S, w is in it iff each entry of w V is divisible by the
    diagonal entry of S in its column (zero past the rank)."""
    _, S, V = _smith_form(G)
    wv = encode(w, V)
    rank = sum(1 for t in range(min(G.nrows, G.ncols)) if not S.rows[t][t].is_zero())
    return all((wv[j] % S.rows[j][j]).is_zero() if j < rank else wv[j].is_zero()
               for j in range(G.ncols))


def same_code(G1: PolyMatrix, G2: PolyMatrix) -> bool:
    """Row-module equality via mutual membership."""
    if G1.ncols != G2.ncols or G1.field != G2.field:
        return False
    return (all(module_contains(G2, r) for r in G1.rows)
            and all(module_contains(G1, r) for r in G2.rows))


def random_minimal_encoder(rng, field, n: int, k: int, delta: int,
                           tries: int = 5000) -> PolyMatrix:
    """Rejection-sample a basic minimal encoder with the given parameters."""
    for _ in range(tries):
        degs = [0] * k
        for _ in range(delta):
            degs[rng.randrange(k)] += 1
        degs.sort(reverse=True)
        rows = []
        for d in degs:
            row = [ZPoly(field, [field.element(rng.randrange(field.q))
                                 for _ in range(d + 1)]) for _ in range(n)]
            if all(p.degree < d for p in row):
                col = rng.randrange(n)
                coeffs = list(row[col].coeffs)
                coeffs += [field.zero] * (d + 1 - len(coeffs))
                coeffs[d] = field.element(rng.randrange(1, field.q))
                row[col] = ZPoly(field, coeffs)
            rows.append(row)
        G = PolyMatrix.from_rows(field, rows, n)
        if [int(d) for d in G.row_degrees()] == degs and is_basic(G) and is_minimal(G)[0]:
            return G
    raise RuntimeError(f"no minimal encoder for (n={n}, k={k}, delta={delta})")


# -- weight enumerators and adjacency matrices ------------------------------

def padded(f: WePoly, n: int) -> tuple[int, ...]:
    """Coefficients of f, constant term first, padded with zeros to n + 1."""
    if len(f.coeffs) > n + 1:
        raise ValueError(f"degree {len(f.coeffs) - 1} exceeds bound {n}")
    return f.coeffs + (0,) * (n + 1 - len(f.coeffs))


def we_of_affine(field, offset, basis) -> WePoly:
    """Weight enumerator of the coset offset + span(basis) in F^n, all
    vectors given by their entry codes (or elements of ``field``).

    The basis vectors must be linearly independent.  The points are
    c @ [offset; basis] for every c whose leading coordinate is 1, i.e.
    the canonical indices [q^dim, 2 q^dim): row 1 of the counts per run of
    q^dim.
    """
    n = len(offset)
    for b in basis:
        if len(b) != n:
            raise ValueError("basis vector length does not match the offset")
    if not n:
        return WePoly((1,))
    size = field.q ** len(basis)
    gen = vector_codes([field.codes(offset), *map(field.codes, basis)], n)
    return WePoly(weight_counts(field, gen, size)[1].tolist())


def macwilliams_transform(coeffs, n: int, q: int):
    """(1+(q-1)W)^n f((1-W)/(1+(q-1)W)) for f of degree at most n, in the
    numeric type of the input; linear, and squares to q^n times the
    identity."""
    coeffs = tuple(coeffs)
    if len(coeffs) > n + 1:
        raise ValueError(f"polynomial degree {len(coeffs) - 1} exceeds bound {n}")
    rows = macwilliams_rows(n, q)
    return tuple(sum(c * rows[j][t] for j, c in enumerate(coeffs))
                 for t in range(n + 1))


def macwilliams_we(f: WePoly, n: int, q: int) -> WePoly:
    return WePoly(macwilliams_transform(padded(f, n), n, q))


def conjugate(adj: AdjMatrix, P: FMat) -> AdjMatrix:
    """Relabel states by X -> X P: entry (X, Y) of the result is the old
    entry at (X P, Y P)."""
    inv = np.argsort(state_perm(P))
    xs, ys = np.divmod(adj.index, adj.size)
    index = inv[xs] * adj.size + inv[ys]
    order = np.argsort(index)   # AdjMatrix takes its support in increasing order
    return AdjMatrix(adj.field, adj.n, adj.delta, index[order], adj.counts[order])


def entry_sums(adj: AdjMatrix, cf) -> tuple[WePoly, WePoly]:
    """(sum over the transversal, sum over everything); the first equals
    the coefficient-code enumerator, the second is q^(delta - r_dual)
    times it.  Both identities are asserted."""
    on_transversal = np.isin(adj.index, pair_split(cf).transversal.point_indices())
    acc = WePoly(adj.counts[on_transversal].sum(axis=0).tolist())
    total = WePoly(adj.counts.sum(axis=0).tolist())
    coeff_code, r_dual = coefficient_code(cf)
    cc_we = we_of_affine(cf.field, (0,) * cf.n, coeff_code.basis)
    if acc != cc_we:
        raise InternalCheckError("transversal sum is not the coefficient-code enumerator")
    if total != cc_we * (cf.field.q ** (cf.delta - r_dual)):
        raise InternalCheckError("full entry sum identity failed")
    return acc, total


def state_perm(P: FMat) -> np.ndarray:
    """The index of X P for every state X, for a square invertible P;
    raises ValueError otherwise."""
    perm = span_indices(P.field, vector_codes(P.rows, P.ncols))
    # a square map is a bijection iff only the zero state maps to zero
    if P.nrows != P.ncols or np.count_nonzero(perm == 0) != 1:
        raise ValueError("state transformation matrix is singular or misshapen")
    return perm


def index_grid(L: FMat) -> np.ndarray:
    """The (q^d, q^d) grid of the index of (X, Y) L for a (2d, m) map L."""
    return pair_indices(L.field, vector_codes(L.rows, L.ncols))


def dense(table) -> np.ndarray:
    """The (size, size, n+1) numerators of a table: a (rows, map) table,
    whose entry (X, Y) is the row at the index of (X, Y) L (a conjugated
    matrix or the transformed matrix), or a (rows, grid) table, whose entry
    (X, Y) is rows[grid[X, Y]] (the scaled dual).  A dense tensor passes
    through."""
    if not isinstance(table, tuple):
        return table
    rows, at = table
    return rows[index_grid(at) if isinstance(at, FMat) else at]


def to_table(tensor: np.ndarray) -> tuple:
    """The (rows, grid) table of a dense (size, size, w) tensor: row 0 is
    zero, then one row per nonzero entry in row-major order, and the grid
    is 0 at the zero entries."""
    flat = tensor.reshape(-1, tensor.shape[-1])
    support = np.flatnonzero(flat.any(axis=1))
    rows = np.zeros((len(support) + 1, flat.shape[1]), dtype=np.int64)
    rows[1:] = flat[support]
    grid = np.zeros(len(flat), dtype=np.int64)
    grid[support] = np.arange(1, len(rows))
    return rows, grid.reshape(tensor.shape[:2])


def scaled_dual(pair) -> tuple:
    """The dual adjacency matrix over the transform's denominator, its
    counts times ``pair.scale``, as a (rows, grid) table: row i is the i-th
    support entry.  The production comparisons read the dual's own counts
    instead."""
    return to_table(pair.adj_dual.dense_coefficients() * pair.scale)


def sparse(field, delta: int, tensor: np.ndarray) -> AdjMatrix:
    """The adjacency matrix holding the nonzero entries of a dense
    (q^delta, q^delta, n+1) tensor, in row-major order."""
    flat = tensor.reshape(-1, tensor.shape[-1])
    index = np.flatnonzero(flat.any(axis=1))
    return AdjMatrix(field, flat.shape[1] - 1, delta, index, flat[index])


def dense_mismatches(dual, moved) -> np.ndarray:
    """The pairs (X, Y), in row-major order, where two tables differ, from
    the dense comparison of every coefficient of every pair."""
    return np.argwhere((dense(dual) != dense(moved)).any(axis=2))


def _mix(h: np.ndarray) -> np.ndarray:
    h = (h ^ (h >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    h = (h ^ (h >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return h ^ (h >> np.uint64(31))


def dense_state_colours(tensor: np.ndarray) -> np.ndarray:
    """The search's state colours hashed pair by pair from a dense
    (size, size, w) tensor: one hash per entry, then its diagonal and the
    sorted hashes of its row and of its column."""
    size, w = tensor.shape[1:]
    entry = _mix(np.ascontiguousarray(tensor, dtype=np.int64).view(np.uint64)
                 @ _mix(np.arange(1, w + 1, dtype=np.uint64)))
    place = _mix(np.arange(1, size + 1, dtype=np.uint64))
    rows = _mix(np.sort(entry, axis=1) @ place)
    cols = _mix(np.sort(entry, axis=0).T @ place)
    return _mix(_mix(entry.diagonal() + rows) + cols).view(np.int64)


def transform_denom(pair) -> int:
    """q^(delta+k), the denominator of the pair's transformed matrix; the
    conjugated matrix's is q^delta."""
    return pair.field.q ** (pair.delta + pair.k)


def fraction_entry(matrix, denom: int, i: int, j: int) -> tuple[Fraction, ...]:
    """Entry (i, j) of a conjugated or transformed matrix over ``denom``
    as rationals."""
    return tuple(Fraction(int(c), denom) for c in dense(matrix)[i, j])


def entry_we(matrix, denom: int, i: int, j: int) -> WePoly:
    """Entry (i, j) as an integer enumerator; raises if not integral."""
    vals = fraction_entry(matrix, denom, i, j)
    if any(v.denominator != 1 for v in vals):
        raise ValueError("entry is not an integer polynomial")
    return WePoly([int(v) for v in vals])


# -- the controller form and its block codes --------------------------------

def _diag(field, size: int, ones) -> FMat:
    return FMat(field, size, size, [unit_vec(size, i) if ones(i) else (0,) * size
                                    for i in range(size)])


def output_rep(cf, X, Y) -> tuple:
    """Representative output X C + Y B^t D of the state pair (X, Y), one
    product per block: the reference for (X, Y) @ output_map(cf)."""
    return tuple(cf.field.axpy(vec_mat(X, cf.C), 1, vec_mat(Y, cf.BtD)))


PairSplit = namedtuple("PairSplit", "transversal kernel complement")


def pair_split(cf) -> PairSplit:
    """Direct sum decomposition of the state-pair space: the kernel of
    connected pairs whose representative output is a constant codeword
    (adjacency entries are invariant along it), a transversal of it inside
    the connected pairs, and the pairs (0, e_i) off the block starts,
    which span the disconnected directions.  The kernel comes from the
    coefficients c with c (B R) in the constant code, for B the RREF basis
    of the connected pairs; the transversal is the rows of B off the
    pivots of those coefficients."""
    field, delta = cf.field, cf.delta
    pairs = connected_pairs(cf).matrix()
    images = (pairs @ output_map(cf)).rows
    stacked = FMat.from_rows(field, images + constant_code(cf).basis, cf.n)
    # every pivot of the RREF lies among the first len(images) columns, as
    # the constant code's basis is independent: the cut rows stay RREF
    coeffs = [v[:len(images)] for v in right_null_space(field, stacked.transpose())]
    kernel = Subspace.from_rows(field, 2 * delta,
                                (FMat.from_rows(field, coeffs, len(images)) @ pairs).rows)
    if kernel.dim != delta - coefficient_code(cf)[1]:
        raise InternalCheckError("output kernel has the wrong dimension")
    pivots = {next(j for j, c in enumerate(v) if c) for v in coeffs}
    transversal = Subspace.from_rows(field, 2 * delta, [
        row for i, row in enumerate(pairs.rows) if i not in pivots])
    complement = Subspace.from_rows(field, 2 * delta, [
        (0,) * delta + unit_vec(delta, i) for i in range(delta) if i not in cf.block_starts])
    if transversal.dim + kernel.dim + complement.dim != 2 * delta:
        raise InternalCheckError("pair space split dimensions do not add up")
    if transversal + kernel + complement != Subspace(
            field, 2 * delta, FMat.identity(field, 2 * delta).rows):
        raise InternalCheckError("pair space split does not span everything")
    return PairSplit(transversal, kernel, complement)


def output_kernel(cf) -> Subspace:
    """Connected pairs whose representative output is a constant codeword."""
    return pair_split(cf).kernel


def check_controller_structure(cf):
    """Shift-block identities that hold for every controller form, and
    full rank of D = G(0)."""
    field, delta, k, r = cf.field, cf.delta, cf.k, cf.r
    A, B = cf.A, cf.B
    if A @ B.transpose() != FMat.zero(field, delta, k):
        raise InternalCheckError("A @ B^t != 0")
    if B @ B.transpose() != _diag(field, k, lambda i: i < r):
        raise InternalCheckError("B @ B^t is not diag(I_r, 0)")
    btb = B.transpose() @ B
    ata = A.transpose() @ A
    if btb != _diag(field, delta, lambda i: i in cf.block_starts):
        raise InternalCheckError("B^t B does not match the block starts")
    if ata != _diag(field, delta, lambda i: i not in cf.block_starts):
        raise InternalCheckError("A^t A does not match the block starts")
    if A @ A.transpose() != _diag(field, delta, lambda i: i not in cf.block_ends):
        raise InternalCheckError("A A^t does not match the block ends")
    if (ata + btb) != FMat.identity(field, delta):
        raise InternalCheckError("A^t A + B^t B != I")
    if cf.D.rank() != k:
        raise InternalCheckError("D = G(0) lost rank; encoder not delay-free")


def check_transfer(G: PolyMatrix, cf):
    """Expand B (sum_l z^l A^(l-1)) C + D and compare with G, rows in the
    form's order, carrying the k x delta block B A^(l-1) from level to
    level."""
    G_sorted = PolyMatrix.from_rows(G.field, [G.rows[i] for i in cf.row_order], G.ncols)
    if coefficient_matrix(G_sorted, 0) != cf.D:
        raise InternalCheckError("constant coefficient does not equal D")
    block = cf.B
    for level in range(1, max_degree(G_sorted) + 1):
        if block @ cf.C != coefficient_matrix(G_sorted, level):
            raise InternalCheckError(f"z^{level} coefficient mismatch")
        block = block @ cf.A
    if block @ cf.C != FMat.zero(G.field, cf.k, cf.n):
        raise InternalCheckError("transfer expansion extends past the degree")


def check_constant_code(cf):
    """The constant code, the span of the degree-zero rows, is also
    (ker B) D, of dimension k - r."""
    left_kernel = right_null_space(cf.field, cf.B.transpose())
    via_kernel = Subspace.from_rows(cf.field, cf.n, [vec_mat(u, cf.D) for u in left_kernel])
    if via_kernel != constant_code(cf):
        raise InternalCheckError("two routes to the constant code disagree")
    if via_kernel.dim != cf.k - cf.r:
        raise InternalCheckError("constant code has the wrong dimension")


def check_connected_pairs_orth(cf):
    """The orthogonal of the connected pairs is spanned by the pairs
    (e_i, -e_i A) for the states i that end no shift block."""
    minus = cf.field.neg(1)
    rows = [unit_vec(cf.delta, i) + tuple(cf.field.scale(minus, cf.A.rows[i]))
            for i in range(cf.delta) if i not in cf.block_ends]
    if Subspace.from_rows(cf.field, 2 * cf.delta, rows) != connected_pairs_orth(cf):
        raise InternalCheckError("orthogonal pair space routes disagree")


# -- the dense bucket product and the closed form of the conjugated matrix --

def bucket_tensor(lam: np.ndarray, E: np.ndarray, p: int) -> np.ndarray:
    """Two-sided product of the unnormalized character grid with a
    coefficient tensor, bucketed by total zeta exponent, in float64 (BLAS).

    No partial sum exceeds the largest sum of |lam[:, :, t]|.  Integers
    below 2^53 add exactly in float64, so that bound, summed first, is
    exact below 2^53 and at least 2^52 above it: the check at 2^52 lets
    only exact sums through.  Only the exponents that occur in E get a
    mask, so a grid with one exponent (delta = 0) costs one product."""
    size, _, nw = lam.shape
    flat = lam.reshape(size, size * nw).astype(np.float64)  # [z, (y, t)]
    bound = np.abs(flat).reshape(size * size, nw).sum(axis=0).max(initial=0)
    if bound >= 2 ** 52:
        raise GuardExceeded(
            f"character product bound max_t sum |lam[:, :, t]| >= 2^52 "
            f"(float64 headroom)"
        )
    occur = np.flatnonzero(np.bincount(E.ravel(), minlength=p))
    masks = {e: (E == e).astype(np.float64) for e in occur.tolist()}
    buckets = np.zeros((p, size, size, nw), dtype=np.int64)
    for e1 in masks:
        # rows (x, t), columns y, so the right product is one matmul too
        left = (masks[e1] @ flat).reshape(size, size, nw).transpose(0, 2, 1)
        left = left.reshape(size * nw, size)
        for e2 in masks:
            prod = (left @ masks[e2]).reshape(size, nw, size).transpose(0, 2, 1)
            buckets[(e1 + e2) % p] += prod.astype(np.int64)
    return buckets


def fourier_conjugate(adj: AdjMatrix, zeta_exponent: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """Conjugate the dense adjacency matrix on both sides by the character
    grid of root zeta^d, bucket by exponent and collapse to exact
    rationals over q^delta; the result is (rows, at) with the rows indexed
    by flat pair index."""
    p, size = adj.field.p, adj.field.q ** adj.delta
    E = zeta_exponent * trace_exponents(adj.field, adj.delta) % p
    buckets = bucket_tensor(adj.dense_coefficients(), E, p)
    # the p-th roots of unity sum to zero, so bucket counts b_e stand for
    # the rational b_0 - b_(p-1) exactly when b_1 = ... = b_(p-1)
    if not (buckets[1:] == buckets[p - 1]).all():
        raise InternalCheckError("cyclotomic coefficients did not collapse to rationals")
    numer = buckets[0] - buckets[p - 1]
    return numer.reshape(size ** 2, -1), np.arange(size ** 2).reshape(size, size)


def check_bucket_route(fm, adj: AdjMatrix):
    """The production conjugated matrix ``fm`` of ``adj`` equals the dense
    bucket product."""
    if not np.array_equal(dense(fm), dense(fourier_conjugate(adj))):
        raise InternalCheckError("Fourier transform and bucket product disagree on "
                                 "the conjugated matrix")


def add_table(field) -> np.ndarray:
    """The q x q table of the entry codes of a + b."""
    powers = field.p ** np.arange(field.s, dtype=np.int64)
    digits = np.arange(field.q, dtype=np.int64)[:, None] // powers % field.p
    return (digits[:, None] + digits[None]) % field.p @ powers


def pairing_codes(field, delta: int) -> np.ndarray:
    """The (q^delta, q^delta) table of the entry codes of X . Y, states in
    canonical order."""
    states = index_codes(field, np.arange(field.q ** delta), delta)
    return np.concatenate([b for _, b in span_blocks(field, states.T)]).T


def negation_perm(field, delta: int) -> np.ndarray:
    """Index of -X for every state X, negating each entry by the add table."""
    neg = np.argmax(add_table(field) == 0, axis=1)
    return code_index(field, neg[index_codes(field, np.arange(field.q ** delta), delta)])


def orth_mask(field, beta: np.ndarray, basis) -> np.ndarray:
    """Boolean (size, size) grid marking pairs (X, Y) orthogonal to every
    basis pair under the doubled bilinear form; ``beta`` is the
    ``pairing_codes`` table."""
    add = add_table(field)
    mask = np.ones(beta.shape, dtype=bool)
    for b in basis:
        g1, g2 = code_index(field, np.reshape(b, (2, -1))).tolist()
        mask &= add[beta[:, g1][:, None], beta[:, g2][None, :]] == 0
    return mask


def projective_classes(field, vectors: np.ndarray):
    """Projective classes of nonzero code vectors: the distinct classes'
    representatives (leading entry 1) in canonical order, and the class of
    each vector."""
    if not vectors.size:
        return vectors, np.zeros(0, dtype=np.int64)
    lead = vectors[np.arange(len(vectors)), np.argmax(vectors != 0, axis=1)]
    scaled = np.empty_like(vectors)
    for c in np.flatnonzero(np.bincount(lead)).tolist():
        scale = linear_map(field, [[[field.inv(c)]]])
        chosen = vectors[lead == c]
        scaled[lead == c] = scale(chosen.reshape(-1, 1)).reshape(chosen.shape)
    keys, cls = np.unique(code_index(field, scaled), return_inverse=True)
    return index_codes(field, keys, vectors.shape[1]), cls


def fourier_closed_form(adj: AdjMatrix, cf) -> np.ndarray:
    """The conjugated matrix from its three-case closed form, over the
    denominator q^delta (q-1): zero off the kernel-orthogonal grid, a
    scaled coefficient-code enumerator on the pair-orthogonal grid, a
    hyperplane sum elsewhere."""
    field, q = adj.field, adj.field.q
    n, delta = adj.n, adj.delta
    size = q ** delta
    add = add_table(field)
    beta = pairing_codes(field, delta)
    dspace = connected_pairs(cf)
    cc, r_dual = coefficient_code(cf)
    cc_we = np.array(padded(we_of_affine(field, (0,) * n, cc.basis), n), dtype=np.int64)
    in_ker_orth = orth_mask(field, beta, output_kernel(cf).basis)
    in_delta_orth = orth_mask(field, beta, dspace.basis)
    # the support is the connected pairs, so every point has a row
    lam_delta = adj.counts[np.searchsorted(adj.index, dspace.point_indices())]
    out = np.zeros((size, size, n + 1), dtype=np.int64)
    out[in_delta_orth] = q ** (delta - r_dual) * (q - 1) * cc_we
    # elsewhere (X, Y) induces a nonzero functional on the connected pairs
    # and the hyperplane sum depends only on its projective class: sum lam
    # over each projective point (a line minus zero) of the coefficient
    # space once, then add up the points on each class's hyperplane
    xs, ys = np.nonzero(in_ker_orth & ~in_delta_orth)
    g1, g2 = code_index(field, dspace.codes().reshape(dspace.dim, 2, delta)).T
    funcs, cls = projective_classes(
        field, add[beta[xs[:, None], g1], beta[ys[:, None], g2]])
    points, point_cls = projective_classes(
        field, index_codes(field, np.arange(1, len(lam_delta)), dspace.dim))
    lines = lam_delta[1:][np.argsort(point_cls, kind="stable")]
    # the coefficients count the q^(delta+k) coset points, far below 2^53,
    # so the incidence sums are exact in float64
    lines = lines.reshape(len(points), q - 1, n + 1).sum(axis=1).astype(np.float64)
    hyper = np.zeros((len(funcs), n + 1), dtype=np.int64)
    step = max(1, _CHUNK // (len(points) * field.s or 1))
    for start in range(0, len(funcs), step):
        on_plane = linear_map(field, funcs[start:start + step].T[None])(points)[:, 0] == 0
        hyper[start:start + step] = lam_delta[0] + (on_plane.T @ lines).astype(np.int64)
    out[xs, ys] = q * hyper[cls] - q ** (delta - r_dual) * cc_we
    return out


def check_fourier_closed_form(fm, adj: AdjMatrix, cf):
    """The conjugated matrix ``fm`` of ``adj`` equals the closed form."""
    if not np.array_equal(dense(fm) * (adj.field.q - 1), fourier_closed_form(adj, cf)):
        raise InternalCheckError("direct product and closed form disagree on the "
                                 "conjugated matrix")


def sides(pair):
    """(encoder, controller form, adjacency matrix, conjugated matrix) of
    the code, then of its dual; both sides share the pair grid."""
    yield pair.G, pair.cf, pair.adj, fourier_transform(pair.adj, pair.cf)
    yield (pair.G_dual, pair.cf_dual, pair.adj_dual,
           fourier_transform(pair.adj_dual, pair.cf_dual))


def check_side_routes(pair):
    """Every second route on both sides of a pair: controller-form
    structure and transfer, both constant-code and both pair-orthogonal
    routes, and the bucket product and the closed form of the conjugated
    matrix."""
    for G, cf, adj, fm in sides(pair):
        check_controller_structure(cf)
        check_transfer(G, cf)
        check_constant_code(cf)
        check_connected_pairs_orth(cf)
        check_bucket_route(fm, adj)
        check_fourier_closed_form(fm, adj, cf)


# -- identities of the duality pipeline -------------------------------------

def entrywise(pair) -> np.ndarray:
    """The transform of each conjugated entry where it stands, over
    q^(delta+k): transformed[X, Y] is entrywise[-Y, X], so this is index
    algebra."""
    neg = negation_perm(pair.field, pair.delta)
    return dense(pair.transformed)[:, neg].transpose(1, 0, 2)


def check_transform_routes(pair):
    """The entrywise transform is H applied to each conjugated entry where
    it stands, computed here directly, and transformed[X, Y] is that
    transform at (-Y, X)."""
    rows = np.array(macwilliams_rows(pair.n, pair.field.q), dtype=np.int64)
    direct = np.einsum("xyj,jt->xyt", dense(fourier_transform(pair.adj, pair.cf)), rows)
    if not np.array_equal(entrywise(pair), direct):
        raise InternalCheckError("entrywise transform differs from the direct one")
    neg = negation_perm(pair.field, pair.delta)
    if not np.array_equal(dense(pair.transformed), direct[neg].transpose(1, 0, 2)):
        raise InternalCheckError("transformed[X, Y] is not entrywise[-Y, X]")

def character_structure_checks(field, delta: int, zeta_exponent: int = 1,
                               P: FMat | None = None):
    """The square and fourth-power identities of the character grid and,
    for an invertible P, the equality of its rows permuted by P with its
    columns permuted by P^t."""
    p, size = field.p, field.q ** delta
    E = zeta_exponent * trace_exponents(field, delta) % p
    neg = negation_perm(field, delta)
    # square: sum_Z zeta^(E[X,Z] + E[Z,Y]) must be q^delta at Y = -X, else
    # 0; with the roots of unity summing to zero, per-exponent counts c_e
    # stand for the rational c_0 - c_(p-1) when c_1 = ... = c_(p-1)
    total = (E[:, :, None] + E[None, :, :]) % p  # [x, z, y]
    counts = np.stack([np.count_nonzero(total == e, axis=1) for e in range(p)])
    want = np.zeros((size, size), dtype=np.int64)
    want[np.arange(size), neg] = size
    if not (np.all(counts[1:] == counts[p - 1])
            and np.array_equal(counts[0] - counts[p - 1], want)):
        raise InternalCheckError("character grid square identity failed")
    # fourth power: negation applied twice is the identity permutation
    if not np.array_equal(neg[neg], np.arange(size)):
        raise InternalCheckError("negation permutation is not an involution")
    if P is not None:
        perm, perm_t = state_perm(P), state_perm(P.transpose())
        if not np.array_equal(E[perm], E[:, perm_t]):
            raise InternalCheckError("column-permutation identity failed")


def shift_perm(field, state) -> np.ndarray:
    """Index permutation of adding a fixed state, given by its entry
    codes, to every state."""
    state = np.asarray(state, dtype=np.int64)
    states = index_codes(field, np.arange(field.q ** len(state)), len(state))
    return code_index(field, add_table(field)[states, state])


def check_orth_translation_invariance(fm, cf):
    """The conjugated matrix is constant along translations by pairs
    orthogonal to the connected pairs."""
    orth = connected_pairs_orth(cf)
    for pair in np.concatenate([b for _, b in span_blocks(cf.field, orth.codes())]):
        pu = shift_perm(cf.field, pair[: cf.delta])
        pv = shift_perm(cf.field, pair[cf.delta:])
        if not np.array_equal(dense(fm)[np.ix_(pu, pv)], dense(fm)):
            raise InternalCheckError("translation invariance along the pair "
                                     "orthogonal failed")


def check_zeta_independence(pair) -> bool:
    """The bucket product is the same for every primitive root choice, and
    it is the production conjugated matrix, which takes no root."""
    fm = dense(fourier_transform(pair.adj, pair.cf))
    for d in range(1, pair.field.p):
        if not np.array_equal(dense(fourier_conjugate(pair.adj, d)), fm):
            raise InternalCheckError("conjugated matrix depends on the root choice")
    return True


def state_pairing_matrix(cf, cf_dual) -> FMat:
    """The pairing matrix as four block products with a zero D_hat D^t
    corner: the reference for DualPair.pairing, the Gram matrix of the
    two output maps."""
    f, d = cf.field, cf.delta
    return block_matrix(f, [[cf_dual.C @ cf.C.transpose(), cf_dual.C @ cf.BtD.transpose()],
                            [cf_dual.BtD @ cf.C.transpose(), FMat.zero(f, d, d)]])


def dual_side_witness(pair) -> FMat:
    """-B_hat^t D_hat C^t, the closed form of the paper when every dual
    Forney index is at most one: the agreement reference for
    ``closed_form_witness_dual``."""
    return -(pair.cf_dual.BtD @ pair.cf.C.transpose())


def primal_side_witness(pair) -> FMat:
    """-C_hat (B^t D)^t, the closed form of the paper when every Forney
    index is at most one: the agreement reference for
    ``closed_form_witness_primal``."""
    return -(pair.cf_dual.C @ pair.cf.BtD.transpose())


def check_pairing_lemma(pair) -> int:
    """All structural facts about the pairing matrix M: image inside the
    kernel orthogonal, dual kernel and disconnected part inside its
    kernel, trivial intersection with the pair orthogonal, injectivity on
    the dual transversal, rank r + r_dual, and the direct sum with the
    pair orthogonal filling the kernel orthogonal.  Returns the rank."""
    M, f, split_dual = pair.pairing, pair.field, pair_split(pair.cf_dual)
    kernel_orth, delta_perp = output_kernel(pair.cf).orth(), connected_pairs_orth(pair.cf)
    two_delta = 2 * pair.delta
    image = Subspace.from_rows(f, two_delta, M.rows)
    for row in image.basis:
        if kernel_orth.coordinates(row) is None:
            raise InternalCheckError("pairing image leaves the kernel orthogonal")
    for b in split_dual.kernel.basis + split_dual.complement.basis:
        if any(vec_mat(b, M)):
            raise InternalCheckError("dual kernel directions survive the pairing")
    if intersect(split_dual.kernel, split_dual.complement).dim != 0:
        raise InternalCheckError("dual kernel and disconnected part overlap")
    if intersect(image, delta_perp).dim != 0:
        raise InternalCheckError("pairing image meets the pair orthogonal")
    left_kernel = Subspace(f, two_delta, right_null_space(f, M.transpose()))
    if intersect(left_kernel, split_dual.transversal).dim != 0:
        raise InternalCheckError("pairing is not injective on the transversal")
    if image.dim != pair.cf.r + pair.cf_dual.r:
        raise InternalCheckError("pairing rank is not r + r_dual")
    transversal_image = Subspace.from_rows(
        f, two_delta, [vec_mat(b, M) for b in split_dual.transversal.basis])
    if transversal_image != image:
        raise InternalCheckError("transversal does not cover the pairing image")
    if (image + delta_perp) != kernel_orth or image.dim + delta_perp.dim != kernel_orth.dim:
        raise InternalCheckError("pairing image plus pair orthogonal is not the "
                                 "kernel orthogonal")
    return image.dim


def correction_block(pair) -> FMat:
    """The correction block M1 = [[-C_hat C^t, C_hat C^t A], [0, 0]] that
    turns the pairing matrix into the rotation block of the dual closed
    form."""
    f, d = pair.field, pair.delta
    cc_t = pair.cf_dual.C @ pair.cf.C.transpose()
    return block_matrix(f, [[-cc_t, cc_t @ pair.cf.A],
                            [FMat.zero(f, d, d), FMat.zero(f, d, d)]])


def check_correction_block(pair, Q: FMat, M1: FMat | None = None):
    """For the dual closed form Q (r_hat = delta) and its correction block
    M1 (by default the one of ``correction_block``): the pairing matrix
    plus M1 is the rotation block [[0, Q], [-Q, 0]], M1's image lies in
    the pair orthogonal, M1 kills no dual kernel direction, and M1 has
    rank delta - r."""
    f, d = pair.field, pair.delta
    M1 = correction_block(pair) if M1 is None else M1
    rotation = block_matrix(f, [[FMat.zero(f, d, d), Q], [-Q, FMat.zero(f, d, d)]])
    if (pair.pairing + M1) != rotation:
        raise InternalCheckError("pairing plus correction is not the rotation block")
    image = Subspace.from_rows(f, 2 * d, M1.rows)
    if image + connected_pairs_orth(pair.cf) != connected_pairs_orth(pair.cf):
        raise InternalCheckError("correction image leaves the pair orthogonal")
    left_kernel = Subspace(f, 2 * d, right_null_space(f, M1.transpose()))
    if intersect(pair_split(pair.cf_dual).kernel, left_kernel).dim != 0:
        raise InternalCheckError("correction kills dual kernel directions")
    if image.dim != d - pair.cf.r:
        raise InternalCheckError("correction rank is not delta - r")


def check_transport(pair) -> int:
    """The dual entry at any connected dual pair equals the scaled
    MacWilliams transform of the conjugated entry at the transported
    index; returns the number of entries checked."""
    size = pair.field.q ** pair.delta
    dspace = connected_pairs(pair.cf_dual)
    moved = vector_codes((dspace.matrix() @ pair.pairing).rows, 2 * pair.delta)
    # the same coefficients c give v = c @ basis and v M = c @ (basis M)
    x, y = np.divmod(dspace.point_indices(), size)
    wx, wy = np.divmod(span_indices(pair.field, moved), size)
    if not np.array_equal(dense(scaled_dual(pair))[x, y], entrywise(pair)[wx, wy]):
        raise InternalCheckError("transport identity failed at a dual pair")
    return len(x)


def entry_multisets_equal(pair) -> bool:
    """The dual matrix and the transformed matrix hold the same multiset
    of entries (the weak identity without its reordering)."""
    size = pair.field.q ** pair.delta
    flat_dual = dense(scaled_dual(pair)).reshape(size * size, -1)
    tnum = dense(pair.transformed).reshape(size * size, -1)
    return np.array_equal(flat_dual[np.lexsort(flat_dual.T)], tnum[np.lexsort(tnum.T)])


# -- FieldElement references for the int-code exact core --------------------

def rref_reference(field, rows, ncols: int):
    """Reduced row echelon form in FieldElement arithmetic, for rows of
    codes or elements; returns (nonzero code rows, pivot columns)."""
    work = [[field.elements[c] for c in r] for r in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(work)) if work[i][c]), None)
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        inv = work[r][c].inverse()
        work[r] = [inv * x for x in work[r]]
        for i in range(len(work)):
            if i != r and work[i][c]:
                f = work[i][c]
                work[i] = [x - f * y for x, y in zip(work[i], work[r])]
        pivots.append(c)
        r += 1
        if r == len(work):
            break
    return tuple(tuple(x.code for x in row) for row in work[:r]), tuple(pivots)


def right_null_space_reference(field, rows, ncols: int):
    """RREF code basis of {v : rows @ v^t = 0}, in FieldElement arithmetic."""
    reduced, pivots = rref_reference(field, rows, ncols)
    basis = []
    for j in (j for j in range(ncols) if j not in pivots):
        v = [field.zero] * ncols
        v[j] = field.one
        for row, pc in zip(reduced, pivots):
            v[pc] = -field.elements[row[j]]
        basis.append(v)
    return rref_reference(field, basis, ncols)[0]


def matmul_reference(field, a_rows, b_rows, ncols: int):
    """Code rows of a @ b, in FieldElement arithmetic."""
    elems = field.elements
    return tuple(tuple(sum((elems[x] * elems[row[j]] for x, row in zip(r, b_rows)),
                           field.zero).code for j in range(ncols))
                 for r in a_rows)


def _ptrim(c):
    c = list(c)
    while c and not c[-1]:
        c.pop()
    return tuple(c)


def _padd(a, b):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] = out[i] + c
    return _ptrim(out)


def _psubmul(field, a, f, b):
    """a - f b for polynomials as FieldElement coefficient tuples."""
    out = list(a) + [field.zero] * max(len(f) + len(b) - 1 - len(a), 0)
    for i, x in enumerate(f):
        for j, y in enumerate(b):
            out[i + j] = out[i + j] - x * y
    return _ptrim(out)


def _pdivmod(field, a, b):
    rem = list(a)
    quot = [field.zero] * max(len(a) - len(b) + 1, 0)
    inv = b[-1].inverse()
    while len(rem) >= len(b) and any(rem):
        while rem and not rem[-1]:
            rem.pop()
        if len(rem) < len(b):
            break
        f = rem[-1] * inv
        shift = len(rem) - len(b)
        quot[shift] = f
        for j, c in enumerate(b):
            rem[shift + j] = rem[shift + j] - f * c
        rem.pop()
    return _ptrim(quot), _ptrim(rem)


def smith_reference(G: PolyMatrix):
    """The Smith normal form algorithm of ``smith_normal_form`` in
    FieldElement arithmetic, polynomials as coefficient tuples; returns U,
    S and V as nested lists of coefficient code tuples."""
    field, k, n = G.field, G.nrows, G.ncols
    S = [[tuple(field.elements[c] for c in p.coeffs) for p in r] for r in G.rows]
    U = [[(field.one,) if i == j else () for j in range(k)] for i in range(k)]
    V = [[(field.one,) if i == j else () for j in range(n)] for i in range(n)]

    def row_sub(m, i, t, f):
        m[i] = [_psubmul(field, a, f, b) for a, b in zip(m[i], m[t])]

    def col_sub(m, j, t, f):
        for row in m:
            row[j] = _psubmul(field, row[j], f, row[t])

    for t in range(min(k, n)):
        while True:
            nonzero = [(len(S[i][j]), i, j) for i in range(t, k) for j in range(t, n)
                       if S[i][j]]
            if not nonzero:
                break
            _, bi, bj = min(nonzero)   # smallest degree, then first in row order
            S[t], S[bi] = S[bi], S[t]
            U[t], U[bi] = U[bi], U[t]
            for m in (S, V):
                for row in m:
                    row[t], row[bj] = row[bj], row[t]
            pivot, dirty = S[t][t], False
            for i in range(t + 1, k):
                if S[i][t]:
                    f = _pdivmod(field, S[i][t], pivot)[0]
                    row_sub(S, i, t, f)
                    row_sub(U, i, t, f)
                    dirty = dirty or bool(S[i][t])
            for j in range(t + 1, n):
                if S[t][j]:
                    f = _pdivmod(field, S[t][j], pivot)[0]
                    col_sub(S, j, t, f)
                    col_sub(V, j, t, f)
                    dirty = dirty or bool(S[t][j])
            if dirty:
                continue
            viol = next((i for i in range(t + 1, k) for j in range(t + 1, n)
                         if _pdivmod(field, S[i][j], pivot)[1]), None)
            if viol is None:
                break
            S[t] = [_padd(a, b) for a, b in zip(S[t], S[viol])]
            U[t] = [_padd(a, b) for a, b in zip(U[t], U[viol])]
    for t in range(min(k, n)):
        d = S[t][t]
        if d and d[-1] != field.one:
            inv = d[-1].inverse()
            S[t] = [tuple(inv * c for c in p) for p in S[t]]
            U[t] = [tuple(inv * c for c in p) for p in U[t]]
    return tuple([[tuple(c.code for c in p) for p in r] for r in m] for m in (U, S, V))


def row_reduce_reference(G: PolyMatrix):
    """The row reduction of ``polymat._row_reduce`` (behind
    ``dual_generator``, ``code_degree`` and ``make_minimal_basic``) in
    FieldElement arithmetic, polynomials as coefficient tuples: while the
    leading coefficient matrix has a left kernel, its first RREF kernel
    vector c replaces the highest-degree row j of its support by
    sum_i c_i z^(deg_j - deg_i) row_i.  Returns the code rows of the
    result ordered by descending degree; rank-deficient input raises."""
    field, n = G.field, G.ncols
    rows = [[tuple(field.elements[c] for c in p.coeffs) for p in r] for r in G.rows]
    while True:
        degs = [max(len(p) for p in r) - 1 for r in rows]
        if -1 in degs:
            raise ValueError("rank-deficient matrix has degree undefined")
        lead = [[p[d] if len(p) > d else field.zero for p in r] for r, d in zip(rows, degs)]
        kernel = right_null_space_reference(field, list(zip(*lead)) or [()] * n, len(rows))
        if not kernel:
            break
        c = kernel[0]
        support = [i for i, ci in enumerate(c) if ci]
        top = max(degs[i] for i in support)
        j = min(i for i in support if degs[i] == top)
        new_row = [()] * n
        for i in support:   # a - (-c_i z^(top - deg_i)) b adds c_i z^(top - deg_i) row_i
            f = (field.zero,) * (top - degs[i]) + (-field.elements[c[i]],)
            new_row = [_psubmul(field, a, f, b) for a, b in zip(new_row, rows[i])]
        rows[j] = new_row
    order = sorted(range(len(rows)), key=lambda i: -degs[i])
    return [[tuple(x.code for x in p) for p in rows[i]] for i in order]
