"""Duality engine: character matrices over the state space, two-sided
character conjugation of adjacency matrices, the transformation sending a
code's adjacency matrix to its dual's, closed-form witnesses when one
side has all indices <= 1, the projective witness search, and the
unit-memory per-entry formulas.

Everything is exact: the heavy grids are integer tensors over explicit
denominators (powers of q), and cyclotomic intermediates are reduced by
per-exponent bucket counting.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from functools import cached_property

import numpy as np

from .adjacency import AdjMatrix, StatePermutation, adjacency_by_cosets
from .errors import GuardExceeded, InternalCheckError
from .exact import (CycloNum, CycloPoly, WePoly, macwilliams_rows,
                    we_of_affine)
from .field import (FieldSpec, code_index, index_codes, linear_map,
                    span_blocks, span_indices, vector_codes, vector_index)
from .linalg import (FMat, Subspace, block_matrix, deterministic_complement,
                     right_null_space, vec_mat, zero_vec)
from .polymat import CodeProfile, PolyMatrix, dual_generator
from .statespace import (ControllerForm, coefficient_code, connected_pairs,
                         connected_pairs_orth, controller_form, output_kernel,
                         pair_split)

GRID_LIMIT = 2 ** 16     # bound on q^(2*delta), the full pair grid
SEARCH_LIMIT = 2 ** 17   # bound on candidate row images the witness search examines
_CHUNK = 2 ** 18         # elements per transient array in the closed-form incidence sum


class PairGeometry:
    """Cached integer tables over the state space: pairing codes, trace
    exponents, the field addition table, and the negation permutation."""

    __slots__ = ("field", "delta", "size", "beta_codes", "trace_exp",
                 "add_codes", "neg_perm")

    def __init__(self, field: FieldSpec, delta: int, limit: int = GRID_LIMIT):
        size = field.q ** delta
        if size * size > limit:
            raise GuardExceeded(
                f"pair grid q^(2*delta) = {size * size} > limit {limit}"
            )
        self.field = field
        self.delta = delta
        self.size = size
        states = index_codes(field, np.arange(size), delta)
        # row j is x . y_j for every state x; the form is symmetric
        self.beta_codes = span_indices(field, states[:, :, None]).T
        traces = np.array([field.trace(e) for e in field.elements], dtype=np.int64)
        self.trace_exp = traces[self.beta_codes]
        powers = field.p ** np.arange(field.s, dtype=np.int64)
        digits = np.arange(field.q, dtype=np.int64)[:, None] // powers % field.p
        self.add_codes = (digits[:, None] + digits[None]) % field.p @ powers
        minus_one = (-field.one).code * np.eye(delta, dtype=np.int64)
        self.neg_perm = span_indices(field, minus_one)

    def orth_mask(self, basis) -> np.ndarray:
        """Boolean (size, size) grid marking pairs (X, Y) orthogonal to
        every basis pair under the doubled bilinear form."""
        mask = np.ones((self.size, self.size), dtype=bool)
        for b in basis:
            g1 = vector_index(b[: self.delta])
            g2 = vector_index(b[self.delta:])
            vals = self.add_codes[
                self.beta_codes[:, g1][:, None], self.beta_codes[:, g2][None, :]
            ]
            mask &= vals == 0
        return mask

    def shift_perm(self, state) -> np.ndarray:
        """Index permutation of adding a fixed state, given by its entry
        codes, to every state."""
        states = index_codes(self.field, np.arange(self.size), self.delta)
        shifted = self.add_codes[states, np.asarray(state, dtype=np.int64)]
        return code_index(self.field, shifted)


class CharacterMatrix:
    """Character-value grid over the state space, scaled by q^(-delta/2).

    Only the zeta exponents are stored; the (X, Y) entry of the
    unnormalized grid is zeta^exponents[X][Y] with
    exponents[X][Y] = d * trace(beta(X P, Y)) for the chosen matrix P and
    primitive-root exponent d.
    """

    __slots__ = ("field", "delta", "p", "q", "P", "zeta_exponent",
                 "exponents", "scale_pow", "_geom", "_plain")

    def __init__(self, geom: PairGeometry, P: FMat | None = None,
                 zeta_exponent: int = 1):
        field = geom.field
        p = field.p
        if not 1 <= zeta_exponent < p:
            raise ValueError(f"zeta exponent must be in [1, {p})")
        self.field = field
        self.delta = geom.delta
        self.p = p
        self.q = field.q
        self.P = P
        self.zeta_exponent = zeta_exponent
        self.scale_pow = -geom.delta
        self._geom = geom
        self._plain = self.exponents = (zeta_exponent * geom.trace_exp) % p
        if P is not None:
            self.exponents = self._plain[np.array(StatePermutation(P, geom.delta).perm)]

    @classmethod
    def build(cls, field: FieldSpec, delta: int, P: FMat | None = None,
              zeta_exponent: int = 1, limit: int = GRID_LIMIT) -> "CharacterMatrix":
        return cls(PairGeometry(field, delta, limit), P, zeta_exponent)

    def entry_cyclo(self, i: int, j: int) -> CycloNum:
        counts = [0] * self.p
        counts[int(self.exponents[i, j])] = 1
        return CycloNum.from_power_counts(self.p, counts)

    def signed_grid(self) -> tuple[tuple[int, ...], ...]:
        """Unnormalized +-1 grid; only meaningful in characteristic 2."""
        if self.p != 2:
            raise ValueError("signed rendering needs p = 2")
        return tuple(tuple(1 if e == 0 else -1 for e in row)
                     for row in self.exponents)

    def structure_checks(self):
        """Verify the square, fourth power, and permutation-conjugation
        identities of the character grid, exactly."""
        p, size, E = self.p, self._geom.size, self._plain
        # square: sum_Z zeta^(E[X,Z] + E[Z,Y]) must be q^delta at Y = -X, else 0
        total = (E[:, :, None] + E[None, :, :]) % p  # [x, z, y]
        neg = self._geom.neg_perm
        qd = self.q ** self.delta
        for x in range(size):
            for y in range(size):
                counts = np.bincount(total[x, :, y], minlength=p)
                val = CycloNum.from_power_counts(p, [int(c) for c in counts])
                want = CycloNum.rational(p, qd if neg[x] == y else 0)
                if val != want:
                    raise InternalCheckError("character grid square identity failed")
        # fourth power: negation applied twice is the identity permutation
        if any(neg[neg[i]] != i for i in range(size)):
            raise InternalCheckError("negation permutation is not an involution")
        if self.P is not None:
            self.permutation_checks()

    def permutation_checks(self):
        """The P-grid is the plain grid with its rows permuted by P and,
        equivalently, its columns permuted by P^t."""
        E = self._plain
        perm = np.array(StatePermutation(self.P, self.delta).perm)
        if not np.array_equal(self.exponents, E[perm, :]):
            raise InternalCheckError("row-permutation identity failed")
        perm_t = np.array(StatePermutation(self.P.transpose(), self.delta).perm)
        if not np.array_equal(self.exponents, E[:, perm_t]):
            raise InternalCheckError("column-permutation identity failed")


def _bucket_tensor(lam: np.ndarray, E: np.ndarray, p: int) -> np.ndarray:
    """Two-sided product of the unnormalized character grid with a
    coefficient tensor, bucketed by total zeta exponent, in float64 (BLAS).

    No partial sum exceeds the largest sum of |lam[:, :, t]|.  Integers
    below 2^53 add exactly in float64, so that bound, summed first, is
    exact below 2^53 and at least 2^52 above it: the check at 2^52 lets
    only exact sums through."""
    size, _, nw = lam.shape
    flat = lam.reshape(size, size * nw).astype(np.float64)  # [z, (y, t)]
    bound = np.abs(flat).reshape(size * size, nw).sum(axis=0).max(initial=0)
    if bound >= 2 ** 52:
        raise GuardExceeded(
            f"character product bound max_t sum |lam[:, :, t]| >= 2^52 "
            f"(float64 headroom)"
        )
    masks = [(E == e).astype(np.float64) for e in range(p)]
    buckets = np.zeros((p, size, size, nw), dtype=np.int64)
    for e1 in range(p):
        # rows (x, t), columns y, so the right product is one matmul too
        left = (masks[e1] @ flat).reshape(size, size, nw).transpose(0, 2, 1)
        left = left.reshape(size * nw, size)
        for e2 in range(p):
            prod = (left @ masks[e2]).reshape(size, nw, size).transpose(0, 2, 1)
            buckets[(e1 + e2) % p] += prod.astype(np.int64)
    return buckets


class FourierMatrix:
    """Adjacency matrix conjugated on both sides by the character grid.

    Entries are exact rationals, stored as an integer coefficient tensor
    over the common denominator q^delta; the cyclotomic intermediates are
    retained per exponent so the collapse to rationals stays inspectable.
    """

    __slots__ = ("field", "delta", "n", "p", "numer", "denom", "buckets")

    def __init__(self, field: FieldSpec, delta: int, n: int,
                 numer: np.ndarray, buckets: np.ndarray):
        self.field = field
        self.delta = delta
        self.n = n
        self.p = field.p
        self.numer = numer
        self.denom = field.q ** delta
        self.buckets = buckets

    def entry(self, i: int, j: int) -> tuple[Fraction, ...]:
        return tuple(Fraction(int(c), self.denom) for c in self.numer[i, j])

    def entry_cyclopoly(self, i: int, j: int) -> CycloPoly:
        """Pre-collapse view with the sqrt(q) scale tracked explicitly."""
        coeffs = []
        for t in range(self.n + 1):
            counts = [int(self.buckets[e, i, j, t]) for e in range(self.p)]
            coeffs.append(CycloNum.from_power_counts(self.p, counts))
        return CycloPoly(self.p, coeffs, scale_pow=-2 * self.delta)


def fourier_conjugate(adj: AdjMatrix, cf: ControllerForm,
                      zeta_exponent: int = 1,
                      geom: PairGeometry | None = None,
                      limit: int = GRID_LIMIT) -> FourierMatrix:
    """Conjugate the adjacency matrix on both sides by the character grid
    and collapse to exact rationals.

    The same matrix is then recomputed from the three-case closed form
    (zero off the kernel-orthogonal grid, a scaled coefficient-code
    enumerator on the pair-orthogonal grid, a hyperplane sum elsewhere)
    and any disagreement raises, never resolves silently.
    """
    if geom is None:
        geom = PairGeometry(adj.field, adj.delta, limit)
    p = adj.field.p
    E = CharacterMatrix(geom, zeta_exponent=zeta_exponent).exponents
    buckets = _bucket_tensor(adj.dense_coefficients(), E, p)
    for j in range(1, p - 1):
        if not np.array_equal(buckets[j], buckets[p - 1]):
            raise InternalCheckError(
                "cyclotomic coefficients did not collapse to rationals"
            )
    numer = buckets[0] - buckets[p - 1]
    if not np.array_equal(numer * (adj.field.q - 1), _fourier_closed_form(adj, cf, geom)):
        raise InternalCheckError(
            "direct product and closed form disagree on the conjugated matrix"
        )
    return FourierMatrix(adj.field, adj.delta, adj.n, numer, buckets)


def _fourier_closed_form(adj: AdjMatrix, cf: ControllerForm,
                         geom: PairGeometry) -> np.ndarray:
    """Closed-form route, returned over the denominator q^delta (q-1)."""
    field, q = adj.field, adj.field.q
    size, n, delta = geom.size, adj.n, adj.delta
    kernel = output_kernel(cf)
    dspace = connected_pairs(cf)
    cc, r_dual = coefficient_code(cf)
    cc_we = np.array(
        we_of_affine(zero_vec(field, n), cc.basis).padded(n), dtype=np.int64
    )
    in_ker_orth = geom.orth_mask(kernel.basis)
    in_delta_orth = geom.orth_mask(dspace.basis)
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
    funcs, cls = _projective_classes(
        field, geom.add_codes[geom.beta_codes[xs[:, None], g1],
                              geom.beta_codes[ys[:, None], g2]])
    points, point_cls = _projective_classes(
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


def _projective_classes(field: FieldSpec, vectors: np.ndarray):
    """Projective classes of nonzero code vectors: the distinct classes'
    representatives (leading entry 1) in canonical order, and the class of
    each vector."""
    if not vectors.size:
        return vectors, np.zeros(0, dtype=np.int64)
    lead = vectors[np.arange(len(vectors)), np.argmax(vectors != 0, axis=1)]
    scaled = np.empty_like(vectors)
    for c in np.flatnonzero(np.bincount(lead)).tolist():
        scale = linear_map(field, [[[field.element(c).inverse().code]]])
        chosen = vectors[lead == c]
        scaled[lead == c] = scale(chosen.reshape(-1, 1)).reshape(chosen.shape)
    keys, cls = np.unique(code_index(field, scaled), return_inverse=True)
    return index_codes(field, keys, vectors.shape[1]), cls


def check_orth_translation_invariance(fm: FourierMatrix, cf: ControllerForm,
                                      geom: PairGeometry):
    """The conjugated matrix is constant along translations by pairs
    orthogonal to the connected pairs."""
    orth = connected_pairs_orth(cf)
    for pair in np.concatenate([b for _, b in span_blocks(cf.field, orth.codes())]):
        pu = geom.shift_perm(pair[: cf.delta])
        pv = geom.shift_perm(pair[cf.delta:])
        if not np.array_equal(fm.numer[np.ix_(pu, pv)], fm.numer):
            raise InternalCheckError("translation invariance along the pair "
                                     "orthogonal failed")


class TransformedMatrix:
    """Candidate for the dual adjacency matrix: the MacWilliams transform
    applied entrywise to the conjugated, transposed, de-conjugated
    adjacency matrix, scaled by q^(-k).  Integer tensor over q^(delta+k)."""

    __slots__ = ("field", "n", "k", "delta", "numer", "denom")

    def __init__(self, field: FieldSpec, n: int, k: int, delta: int,
                 numer: np.ndarray):
        self.field = field
        self.n = n
        self.k = k
        self.delta = delta
        self.numer = numer
        self.denom = field.q ** (delta + k)

    def entry(self, i: int, j: int) -> tuple[Fraction, ...]:
        return tuple(Fraction(int(c), self.denom) for c in self.numer[i, j])

    def entry_we(self, i: int, j: int) -> WePoly:
        """Entry as an integer enumerator; raises if not integral."""
        vals = self.entry(i, j)
        if any(v.denominator != 1 for v in vals):
            raise ValueError("entry is not an integer polynomial")
        return WePoly([int(v) for v in vals])


def macwilliams_image(fm: FourierMatrix, k: int,
                      geom: PairGeometry) -> TransformedMatrix:
    """Entrywise MacWilliams transform of the conjugation of the
    transposed adjacency matrix, scaled by q^(-k).

    Conjugating the transpose is index algebra on the existing grid: the
    (X, Y) entry of the de-conjugated transpose is the (-Y, X) entry of
    the two-sided conjugation, because the grid squares to the negation
    permutation.
    """
    return _scaled_transform(fm, fm.numer[geom.neg_perm].transpose(1, 0, 2), k)


def entrywise_h(fm: FourierMatrix, k: int) -> TransformedMatrix:
    """q^(-k) times the MacWilliams transform of each conjugated entry,
    without the transpose reindexing."""
    return _scaled_transform(fm, fm.numer, k)


def _scaled_transform(fm: FourierMatrix, numer: np.ndarray,
                      k: int) -> TransformedMatrix:
    """The MacWilliams transform of every entry of ``numer`` in int64.

    No partial sum exceeds max|numer| times the largest column sum of
    |H|, so that bound is checked, in exact integers, before the product.
    """
    rows = macwilliams_rows(fm.n, fm.field.q)
    colsum = max(sum(abs(r[t]) for r in rows) for t in range(fm.n + 1))
    bound = int(np.abs(numer).max(initial=0)) * colsum
    if bound >= 2 ** 62:
        raise GuardExceeded(
            f"MacWilliams transform bound max|entry| * max column sum of |H| "
            f"= {bound} >= 2^62 (int64 headroom)"
        )
    tnum = np.einsum("xyj,jt->xyt", numer, np.array(rows, dtype=np.int64))
    return TransformedMatrix(fm.field, fm.n, k, fm.delta, tnum)


def state_pairing_matrix(cf: ControllerForm, cf_dual: ControllerForm) -> FMat:
    """Block matrix transporting dual state pairs into the primal
    conjugated grid; its bilinear form against a primal pair equals the
    form of the two representative outputs."""
    f = cf.field
    m11 = cf_dual.C @ cf.C.transpose()
    m12 = cf_dual.C @ cf.BtD.transpose()
    m21 = cf_dual.BtD @ cf.C.transpose()
    m22 = FMat.zero(f, cf.delta, cf.delta)
    return block_matrix(f, [[m11, m12], [m21, m22]])


@dataclass
class PairingChecks:
    rank: int
    image: Subspace


def verify_pairing_matrix(M: FMat, cf: ControllerForm, cf_dual: ControllerForm,
                          kernel: Subspace, kernel_orth: Subspace,
                          delta_perp: Subspace, split_dual) -> PairingChecks:
    """All structural facts about the pairing matrix: image inside the
    kernel orthogonal, dual kernel and disconnected part inside its
    kernel, trivial intersection with the pair orthogonal, injectivity on
    the dual transversal, rank r + r_dual, and the direct sum with the
    pair orthogonal filling the kernel orthogonal."""
    f = cf.field
    two_delta = 2 * cf.delta
    image = Subspace.from_rows(f, two_delta, M.rows)
    for row in image.basis:
        if not kernel_orth.contains(row):
            raise InternalCheckError("pairing image leaves the kernel orthogonal")
    for b in split_dual.kernel.basis + split_dual.complement.basis:
        if any(vec_mat(b, M)):
            raise InternalCheckError("dual kernel directions survive the pairing")
    if split_dual.kernel.intersect(split_dual.complement).dim != 0:
        raise InternalCheckError("dual kernel and disconnected part overlap")
    if image.intersect(delta_perp).dim != 0:
        raise InternalCheckError("pairing image meets the pair orthogonal")
    left_kernel = Subspace(f, two_delta, right_null_space(f, M.transpose()))
    if left_kernel.intersect(split_dual.transversal).dim != 0:
        raise InternalCheckError("pairing is not injective on the transversal")
    r, r_dual = cf.r, cf_dual.r
    if image.dim != r + r_dual:
        raise InternalCheckError("pairing rank is not r + r_dual")
    transversal_image = Subspace.from_rows(
        f, two_delta, [vec_mat(b, M) for b in split_dual.transversal.basis]
    )
    if transversal_image != image:
        raise InternalCheckError("transversal does not cover the pairing image")
    if (image + delta_perp) != kernel_orth or image.dim + delta_perp.dim != kernel_orth.dim:
        raise InternalCheckError("pairing image plus pair orthogonal is not the "
                                 "kernel orthogonal")
    return PairingChecks(rank=image.dim, image=image)


class DualPair:
    """A primal/dual encoder pair with cached derived structure.

    Builds the controller forms and adjacency matrices up front; the
    conjugated grid, transforms, and subspace splits appear lazily.
    """

    def __init__(self, G: PolyMatrix, G_dual: PolyMatrix | None = None,
                 zeta_exponent: int = 1, grid_limit: int = GRID_LIMIT):
        self.G = G
        self.G_dual = G_dual if G_dual is not None else dual_generator(G)
        self.cf = controller_form(G)
        self.cf_dual = controller_form(self.G_dual)
        if self.cf_dual.delta != self.cf.delta:
            raise InternalCheckError("dual code degree mismatch")
        self.field = G.field
        self.n = self.cf.n
        self.k = self.cf.k
        self.delta = self.cf.delta
        self.zeta_exponent = zeta_exponent
        self.grid_limit = grid_limit

    @cached_property
    def geometry(self) -> PairGeometry:
        return PairGeometry(self.field, self.delta, self.grid_limit)

    @cached_property
    def adj(self) -> AdjMatrix:
        return adjacency_by_cosets(self.cf)

    @cached_property
    def adj_dual(self) -> AdjMatrix:
        return adjacency_by_cosets(self.cf_dual)

    @cached_property
    def kernel(self) -> Subspace:
        return output_kernel(self.cf)

    @cached_property
    def kernel_orth(self) -> Subspace:
        return self.kernel.orth()

    @cached_property
    def delta_perp(self) -> Subspace:
        return connected_pairs_orth(self.cf)

    @cached_property
    def split(self):
        return pair_split(self.cf)

    @cached_property
    def split_dual(self):
        return pair_split(self.cf_dual)

    @cached_property
    def r_dual(self) -> int:
        return coefficient_code(self.cf)[1]

    @cached_property
    def fourier(self) -> FourierMatrix:
        return fourier_conjugate(self.adj, self.cf, self.zeta_exponent,
                                 geom=self.geometry)

    @cached_property
    def transformed(self) -> TransformedMatrix:
        return macwilliams_image(self.fourier, self.k, self.geometry)

    @cached_property
    def entrywise(self) -> TransformedMatrix:
        return entrywise_h(self.fourier, self.k)

    @cached_property
    def dual_scaled(self) -> np.ndarray:
        denom = self.transformed.denom   # first: the grid guard precedes the scatter
        dense = self.adj_dual.dense_coefficients()
        return np.multiply(dense, denom, out=dense)

    @cached_property
    def pairing(self) -> FMat:
        return state_pairing_matrix(self.cf, self.cf_dual)

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


def check_pairing_lemma(pair: DualPair) -> PairingChecks:
    return verify_pairing_matrix(
        pair.pairing, pair.cf, pair.cf_dual, pair.kernel, pair.kernel_orth,
        pair.delta_perp, pair.split_dual,
    )


def check_transport(pair: DualPair) -> int:
    """The dual entry at any connected dual pair equals the scaled
    MacWilliams transform of the conjugated entry at the transported
    index; returns the number of entries checked."""
    size = pair.geometry.size
    dspace = connected_pairs(pair.cf_dual)
    moved = vector_codes((dspace.matrix() @ pair.pairing).rows, 2 * pair.delta)
    # the same coefficients c give v = c @ basis and v M = c @ (basis M)
    x, y = np.divmod(dspace.point_indices(), size)
    wx, wy = np.divmod(span_indices(pair.field, moved), size)
    if not np.array_equal(pair.dual_scaled[x, y], pair.entrywise.numer[wx, wy]):
        raise InternalCheckError("transport identity failed at a dual pair")
    return len(x)


@dataclass
class WeakIdentityReport:
    entries_checked: int
    multiset_equal: bool
    reorder_matrix: FMat


def check_weak_identity(pair: DualPair) -> WeakIdentityReport:
    """Build the explicit reordering automorphism from the pairing matrix
    plus deterministic basis-matching isomorphisms, and verify that it
    carries the transformed matrix onto the dual adjacency matrix
    entrywise; also verifies plain multiset equality of entries."""
    # adj (pairs guard), then the geometry (grid guard), before the
    # complement below scans all q^(2 delta) pairs
    hl = pair.entrywise
    f = pair.field
    two_delta = 2 * pair.delta
    M_image = Subspace.from_rows(f, two_delta, pair.pairing.rows)
    outside = deterministic_complement(pair.kernel_orth,
                                       Subspace.full(f, two_delta))
    split_dual = pair.split_dual
    source = list(split_dual.transversal.basis) + list(split_dual.kernel.basis) \
        + list(split_dual.complement.basis)
    target = [vec_mat(b, pair.pairing) for b in split_dual.transversal.basis] \
        + list(pair.delta_perp.basis) + list(outside.basis)
    if len(source) != two_delta:
        raise InternalCheckError("pair space bases do not fill the dimension")
    S = FMat.from_rows(f, source, two_delta)
    T = FMat.from_rows(f, target, two_delta)
    fmat = S.inverse() @ T
    if not fmat.is_invertible():
        raise InternalCheckError("reordering map is singular")
    # sanity: the pieces land where the diagram says
    for b in split_dual.kernel.basis:
        if not pair.delta_perp.contains(vec_mat(b, fmat)):
            raise InternalCheckError("kernel piece strays from the pair orthogonal")
    if M_image.intersect(pair.delta_perp).dim != 0:
        raise InternalCheckError("image piece overlaps the pair orthogonal")

    geom = pair.geometry
    size = geom.size
    # pair (X, Y) has index X * size + Y, its canonical index in F^(2 delta)
    fperm = np.array(StatePermutation(fmat).perm, dtype=np.int64)
    flat_dual = pair.dual_scaled.reshape(size * size, -1)
    flat_hl = hl.numer.reshape(size * size, -1)
    if not np.array_equal(flat_dual, flat_hl[fperm]):
        raise InternalCheckError("reordered transform does not match the dual")
    # equivalent reordering stated against the transposed transform
    inv_perm = np.empty_like(fperm)
    inv_perm[fperm] = np.arange(size * size)
    tnum = pair.transformed.numer.reshape(size * size, -1)
    swap = (geom.neg_perm * size + np.arange(size)[:, None]).ravel()
    if not np.array_equal(flat_dual[inv_perm[swap]], tnum):
        raise InternalCheckError("transposed-form reordering failed")
    if not np.array_equal(flat_dual[np.lexsort(flat_dual.T)], tnum[np.lexsort(tnum.T)]):
        raise InternalCheckError("entry multisets differ")
    return WeakIdentityReport(entries_checked=size * size, multiset_equal=True,
                              reorder_matrix=fmat)


def _identity_holds(pair: DualPair, P: FMat) -> tuple[bool, int]:
    """Entrywise check of the conjugated identity for a given witness."""
    tnum = pair.transformed.numer   # the size guards fire before the permutation
    perm = np.array(StatePermutation(P, pair.delta).perm, dtype=np.int64)
    moved = tnum[np.ix_(perm, perm)]
    mism = int(np.any(pair.dual_scaled != moved, axis=2).sum())
    return mism == 0, mism


def closed_form_witness_dual(pair: DualPair) -> FMat:
    """Closed-form witness when every dual Forney index is at most one.

    Asserts invertibility, the full entrywise identity, and the algebraic
    relation between the pairing matrix and the complementary block
    matrix."""
    if pair.r_dual != pair.delta:
        raise ValueError(
            "closed-form dual witness needs every dual Forney index <= 1; "
            "try the primal form or the projective search"
        )
    f = pair.field
    d = pair.delta
    Q = -(pair.cf_dual.BtD @ pair.cf.C.transpose())
    if not Q.is_invertible():
        raise InternalCheckError("closed-form dual witness is singular")
    # first, so the size guards fire before the dual split scans its
    # q^(delta + r_dual) = q^(2 delta) connected pairs
    ok, mism = _identity_holds(pair, Q)
    if not ok:
        raise InternalCheckError(f"dual-side identity failed at {mism} entries")
    cc_t = pair.cf_dual.C @ pair.cf.C.transpose()
    M1 = block_matrix(f, [[-cc_t, cc_t @ pair.cf.A],
                          [FMat.zero(f, d, d), FMat.zero(f, d, d)]])
    expected = block_matrix(f, [[FMat.zero(f, d, d), Q],
                                [-Q, FMat.zero(f, d, d)]])
    if (pair.pairing + M1) != expected:
        raise InternalCheckError("pairing plus correction is not the rotation block")
    M1_image = Subspace.from_rows(f, 2 * d, M1.rows)
    if not M1_image.is_subspace_of(pair.delta_perp):
        raise InternalCheckError("correction image leaves the pair orthogonal")
    kernel_dual = pair.split_dual.kernel
    left_kernel = Subspace(f, 2 * d, right_null_space(f, M1.transpose()))
    if kernel_dual.intersect(left_kernel).dim != 0:
        raise InternalCheckError("correction kills dual kernel directions")
    if M1_image.dim != d - pair.cf.r:
        raise InternalCheckError("correction rank is not delta - r")
    _corollary_grid_check(pair, Q)
    return Q


def closed_form_witness_primal(pair: DualPair) -> FMat:
    """Closed-form witness when every primal Forney index is at most one."""
    if pair.cf.r != pair.delta:
        raise ValueError(
            "closed-form primal witness needs every Forney index <= 1; "
            "try the dual form or the projective search"
        )
    P = -(pair.cf_dual.C @ pair.cf.D.transpose() @ pair.cf.B)
    if not P.is_invertible():
        raise InternalCheckError("closed-form primal witness is singular")
    ok, mism = _identity_holds(pair, P)
    if not ok:
        raise InternalCheckError(f"primal-side identity failed at {mism} entries")
    _corollary_grid_check(pair, P)
    return P


def _corollary_grid_check(pair: DualPair, P: FMat):
    """The P-character matrix equals the permuted plain grid on both
    sides, so the identity can be stated with P-character matrices only."""
    CharacterMatrix(pair.geometry, P, pair.zeta_exponent).permutation_checks()


@dataclass
class SearchResult:
    witness: FMat | None
    tested: int
    examined: int = 0   # candidate row images looked at, the guarded cost


def _code_matrix(field: FieldSpec, codes: np.ndarray) -> FMat:
    return FMat(field, len(codes), len(codes),
                [[field.elements[c] for c in row] for row in codes.tolist()])


def _mix(h: np.ndarray) -> np.ndarray:
    """splitmix64 finaliser; uint64 arithmetic wraps by definition."""
    h = (h ^ (h >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    h = (h ^ (h >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return h ^ (h >> np.uint64(31))


def _state_colours(tables: np.ndarray) -> np.ndarray:
    """Colour of every state of each (size, size, w) table in a stack: a
    hash of its diagonal entry and of the sorted entries of its row and of
    its column.  A witness maps each state to one of the same colour, and
    equal entries hash equal, so a collision only weakens the pruning."""
    size, w = tables.shape[-2:]
    entry = _mix(np.ascontiguousarray(tables, dtype=np.int64).view(np.uint64)
                 @ _mix(np.arange(1, w + 1, dtype=np.uint64)))
    place = _mix(np.arange(1, size + 1, dtype=np.uint64))
    rows = _mix(np.sort(entry, axis=-1) @ place)
    cols = _mix(np.sort(entry, axis=-2).swapaxes(-1, -2) @ place)
    # compared as int64, whose loops the pipeline has already loaded: uint64
    # comparisons touch about 0.16 MB of fresh pages in every process
    return _mix(_mix(entry.diagonal(axis1=-2, axis2=-1) + rows) + cols).view(np.int64)


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
    target, tnum = pair.dual_scaled, pair.transformed.numer
    want, have = _state_colours(np.stack([target, tnum]))
    first = np.zeros(size, dtype=bool)
    for m in range(delta):
        first[q ** m:2 * q ** m] = True
    examined = 0

    def visit(rows: list[int], image: np.ndarray) -> list[int] | None:
        nonlocal examined
        depth = len(rows)
        span = np.arange(q ** depth) * q ** (delta - depth)
        if not np.array_equal(target[span[:, None], span], tnum[image[:, None], image]):
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
    return SearchResult(witness=_code_matrix(field, index_codes(field, rows, delta)),
                        tested=_candidate_position(field, rows), examined=examined)


def check_witness(pair: DualPair, P: FMat) -> tuple[bool, int]:
    """Validate a supplied witness; returns (valid, mismatching entries)."""
    if not P.is_invertible():
        raise ValueError("witness matrix is singular")
    return _identity_holds(pair, P)


def check_unit_memory(pair: DualPair) -> int:
    """For degree-one codes, verify the transformation with the identity
    witness and the two-case per-entry formulas, and that both agree with
    the dual adjacency matrix; returns entries checked."""
    if pair.delta != 1:
        raise ValueError("unit-memory formulas need delta = 1")
    q = pair.field.q
    size = pair.geometry.size
    ok, mism = _identity_holds(pair, FMat.identity(pair.field, 1))
    if not ok:
        raise InternalCheckError(f"identity witness failed at {mism} entries")
    lam = pair.adj.dense_coefficients()
    ht = np.array(macwilliams_rows(pair.n, q), dtype=np.int64)
    lam00, lam01, row1 = lam[0, 0], lam[0, 1], lam[1].sum(axis=0)
    inner = lam00 + q * lam - lam01 - row1
    inner[0, 0] = lam00 + (q - 1) * (lam01 + row1)
    if not np.array_equal(pair.dual_scaled, inner @ ht):
        raise InternalCheckError("per-entry unit-memory formula failed")
    if pair.transformed.denom != q ** (pair.k + 1):
        raise InternalCheckError("scale bookkeeping mismatch for delta = 1")
    return size * size


def check_zeta_independence(pair: DualPair) -> bool:
    """The conjugated matrix is the same for every primitive root choice."""
    p = pair.field.p
    for d in range(2, p):
        other = fourier_conjugate(pair.adj, pair.cf, zeta_exponent=d,
                                  geom=pair.geometry)
        if not np.array_equal(other.numer, pair.fourier.numer):
            raise InternalCheckError("conjugated matrix depends on the root choice")
    return True


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
        return {
            "profiles": self.profiles,
            "theorem_used": self.theorem_used,
            "witness": self.witness,
            "verdict": self.verdict,
            "entry_mismatch_count": self.entry_mismatch_count,
            "elapsed_ms": self.elapsed_ms,
            "details": self.details,
        }


def run_verification(G: PolyMatrix, mode: str = "auto",
                     witness: FMat | None = None, zeta_exponent: int = 1,
                     grid_limit: int = GRID_LIMIT,
                     search_limit: int = SEARCH_LIMIT) -> DualityReport:
    """Drive the duality pipeline for one encoder and produce a report.

    Mode ``auto`` picks the strongest applicable route: unit-memory for
    degree one, then a closed-form witness from whichever side has all
    indices <= 1, then the weak identity followed by the projective
    search.
    """
    start = time.perf_counter()
    pair = DualPair(G, zeta_exponent=zeta_exponent, grid_limit=grid_limit)
    details: dict = {"mode": mode}
    theorem_used = mode
    verdict = "verified"
    mismatches = 0
    wit: FMat | None = None

    if witness is not None:
        ok, mismatches = check_witness(pair, witness)
        theorem_used = "witness-check"
        verdict = "verified" if ok else "not-verified"
        wit = witness
    elif mode == "auto":
        if pair.delta == 1:
            details["entries"] = check_unit_memory(pair)
            wit = closed_form_witness_dual(pair)
            agree = closed_form_witness_primal(pair)
            details["primal_witness"] = agree.to_int_rows()
            theorem_used = "delta=1"
        elif pair.r_dual == pair.delta:
            wit = closed_form_witness_dual(pair)
            theorem_used = "rhat=delta"
        elif pair.cf.r == pair.delta:
            wit = closed_form_witness_primal(pair)
            theorem_used = "r=delta"
        else:
            report = check_weak_identity(pair)
            details["weak_entries"] = report.entries_checked
            result = search_witness(pair, search_limit)
            details["candidates_tested"] = result.tested
            if result.witness is not None:
                wit = result.witness
                theorem_used = "conjecture-search"
            else:
                theorem_used = "multiset-only"
                verdict = "counterexample-candidate"
    elif mode == "weak":
        report = check_weak_identity(pair)
        details["weak_entries"] = report.entries_checked
        theorem_used = "multiset-only"
    elif mode == "theorem-q":
        wit = closed_form_witness_dual(pair)
        theorem_used = "rhat=delta"
    elif mode == "theorem-p":
        wit = closed_form_witness_primal(pair)
        theorem_used = "r=delta"
    elif mode == "search":
        result = search_witness(pair, search_limit)
        details["candidates_tested"] = result.tested
        if result.witness is not None:
            wit = result.witness
            theorem_used = "conjecture-search"
        else:
            theorem_used = "multiset-only"
            verdict = "counterexample-candidate"
    elif mode == "unit-memory":
        details["entries"] = check_unit_memory(pair)
        theorem_used = "delta=1"
    else:
        raise ValueError(f"unknown verification mode {mode!r}")

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
