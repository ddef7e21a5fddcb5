"""The int-code point kernel and the routines rebuilt on it, each against
a plain FieldElement reference kept here: subspace points (including
dim 0 and ambient 0), coset enumerators, state translations and
negation, the trace-exponent table, projective classes and the
coset-built adjacency matrix.  The additive kernel, its
field addition and the weight counts built on it are also checked
against the lift-and-matmul kernel of ``oracles.span_blocks_reference``."""

import itertools
import random

import numpy as np
import pytest

from convmacw import (FieldSpec, Subspace, adjacency_by_cosets, controller_form,
                      dual_generator)
from convmacw import field as fieldmod
from convmacw.duality import trace_exponents
from convmacw.exact import WePoly, weight_counts
from convmacw.field import (add_codes, code_index, index_codes, linear_map, multiples,
                            span_blocks, span_indices)
from oracles import (enumerate_vectors, negation_perm, points,
                     projective_classes, random_minimal_encoder, shift_perm,
                     span_blocks_reference, vec_dot, vector_index, we_of_affine)

FIELDS = {2: (2,), 3: (3,), 4: (2, 2, [1, 1, 1]), 8: (2, 3, [1, 1, 0, 1]),
          9: (3, 2, [2, 2, 1])}


@pytest.fixture(params=sorted(FIELDS), ids=lambda q: f"q={q}")
def field(request):
    return FieldSpec(*FIELDS[request.param])


def _random_subspace(rng, field, ambient, rows):
    return Subspace.from_rows(field, ambient, [
        [field.element(rng.randrange(field.q)) for _ in range(ambient)]
        for _ in range(rows)])


def _reference_points(space):
    """Every c @ basis by FieldElement arithmetic, c in itertools order."""
    out = []
    for coeffs in itertools.product(space.field.elements, repeat=space.dim):
        v = [space.field.zero] * space.ambient
        for c, b in zip(coeffs, space.basis):
            v = [x + c * space.field.elements[y] for x, y in zip(v, b)]
        out.append(tuple(v))
    return out


def _subspaces(rng, field):
    for ambient in (0, 1, 2, 4):
        for rows in range(ambient + 1):
            space = _random_subspace(rng, field, ambient, rows)
            if field.q ** space.dim <= 729:
                yield space


def test_points_match_reference(field, monkeypatch):
    rng = random.Random(field.q)
    monkeypatch.setattr(fieldmod, "_CHUNK", 7)    # many small blocks
    spaces = list(_subspaces(rng, field))
    assert {s.dim for s in spaces} >= {0, 1, 2}
    assert any(s.ambient == 0 for s in spaces)
    for space in spaces:
        ref = _reference_points(space)
        assert list(points(space)) == ref
        assert space.point_indices().tolist() == [vector_index(v) for v in ref]


def test_span_blocks_cover_ranges(field, monkeypatch):
    """Small blocks cover the whole span in order, the blocks of two bases
    side by side as well as those of one."""
    rng = random.Random(17 * field.q)
    space = _random_subspace(rng, field, 4, 2)
    full = np.concatenate([b for _, b in span_blocks(field, space.codes())])
    monkeypatch.setattr(fieldmod, "_CHUNK", 5)
    starts, blocks = zip(*span_blocks(field, space.codes()))
    assert starts[0] == 0 and len(blocks) > 1
    assert np.array_equal(np.concatenate(blocks), full)
    side_by_side = np.hstack([space.codes(), space.codes()[::-1]])
    for start, block in span_blocks(field, side_by_side):
        assert block.shape == (len(block), 8)
        assert np.array_equal(block[:, :4], full[start:start + len(block)])


# one or two fields per branch of field addition: XOR (GF(2), GF(8)), the
# add table (GF(5), GF(9), GF(17)), a sum mod p (GF(257)) and, past the
# tables and for vectors, blocks of h digits through the addition table of
# F_p^h (h = 3 at p = 3, 2 at p = 5 and 1 at p = 17; vectors of GF(5)^3
# end on a partial block) or one digit at a time mod p past p = 64
BRANCH_FIELDS = {"gf2": (2,), "gf8": (2, 3, [1, 1, 0, 1]), "gf5": (5,), "gf9": (3, 2, [2, 2, 1]),
                 "gf17": (17,), "gf257": (257,), "gf729": (3, 6, [1, 0, 0, 0, 1, 1, 1]),
                 "gf625": (5, 4, [1, 0, 1, 1, 1])}


@pytest.mark.parametrize("name", sorted(BRANCH_FIELDS))
def test_add_codes_every_branch(name):
    """Entry codes and, with a length, indices of F^3 vectors, against
    FieldElement sums."""
    field = FieldSpec(*BRANCH_FIELDS[name])
    rng = np.random.default_rng(field.q)
    a, b = rng.integers(0, field.q, (2, 40, 3))
    sums = [[field.add(x, y) for x, y in zip(u, v)] for u, v in zip(a.tolist(), b.tolist())]
    assert add_codes(field, a, b).tolist() == sums
    got = add_codes(field, code_index(field, a), code_index(field, b), 3)
    assert got.tolist() == code_index(field, np.array(sums)).tolist()


@pytest.mark.parametrize("name", sorted(BRANCH_FIELDS))
def test_multiples_match_the_lift(name):
    """The q multiples of a code array: up to q = 256 one gather on the
    multiplication table, equal to the F_p lift of ``linear_map``; past
    it the lift itself, equal to products by ``FieldSpec.mul``."""
    field = FieldSpec(*BRANCH_FIELDS[name])
    rows = np.random.default_rng(field.q).integers(0, field.q, (3, 4))
    got = multiples(field, rows)
    assert got.shape == (field.q, 3, 4) and got.dtype == np.int64
    if field.q <= 256:
        assert field._mul_np is not None and not field._mul_np.flags.writeable
        lift = linear_map(field, rows.reshape(3, 1, 4))(np.arange(field.q).reshape(-1, 1))
        assert np.array_equal(got, lift)
    else:
        assert field._mul_np is None
        cs = [0, 1, 2, field.q - 1] + np.random.default_rng(1).integers(0, field.q, 20).tolist()
        for c in cs:
            assert got[c].tolist() == [[field.mul(c, x) for x in r] for r in rows.tolist()]
    assert multiples(field, rows[:0]).shape == (field.q, 0, 4)


def _kernel_cases(field, chunk):
    """Basis shapes, dim 0 and width 0 among them, with the most points a
    block holds; the last three are (N, dim, ambient) stacks laid side by
    side as (dim, N ambient).  Only spans of at most 2^17 points in at most
    4096 blocks, so GF(257) reaches dim 2 with the default blocks."""
    for shape in ((0, 3), (2, 0), (1, 4), (2, 3), (3, 2), (2, 6), (2, 4), (0, 4)):
        step = max(1, chunk // (shape[1] * field.s or 1))
        if field.q ** shape[0] <= min(2 ** 17, 4096 * step):
            yield shape, step


@pytest.mark.parametrize("name", sorted(BRANCH_FIELDS))
@pytest.mark.parametrize("chunk", [2 ** 16, 7], ids=["chunk-default", "chunk-7"])
def test_span_blocks_match_reference_kernel(name, chunk, monkeypatch):
    """The additive kernel yields the points of the lift-and-matmul kernel,
    in order, in consecutive blocks of at most ``_CHUNK`` digits (or one
    point), and ``span_indices`` their indices."""
    field = FieldSpec(*BRANCH_FIELDS[name])
    rng = np.random.default_rng(field.q + chunk)
    monkeypatch.setattr(fieldmod, "_CHUNK", chunk)
    for shape, step in _kernel_cases(field, chunk):
        basis = rng.integers(0, field.q, shape)
        starts, blocks = zip(*span_blocks(field, basis))
        want = np.concatenate([b for _, b in span_blocks_reference(field, basis)])
        assert starts[0] == 0
        assert list(starts[1:]) == [s + len(b) for s, b in zip(starts, blocks)][:-1]
        assert np.array_equal(np.concatenate(blocks), want), shape
        assert max(map(len, blocks)) <= step
        assert np.array_equal(span_indices(field, basis), code_index(field, want))


def test_large_field_span_walks_a_table_at_a_time(monkeypatch):
    """Over GF(65521) one coordinate's multiples pass a block, so the table
    is the zero point and a dim-1 span comes out in a handful of blocks of
    whole prefixes, not one block per point; over GF(257) at dim 2 with
    blocks of 64 points it comes out 64 prefix points a block."""
    field = FieldSpec(65521)
    blocks = list(span_blocks(field, [[1, 3]]))
    assert len(blocks) <= 8
    want = np.concatenate([b for _, b in span_blocks_reference(field, [[1, 3]])])
    assert np.array_equal(np.concatenate([b for _, b in blocks]), want)
    field = FieldSpec(257)
    monkeypatch.setattr(fieldmod, "_CHUNK", 128)
    starts, blocks = zip(*span_blocks(field, [[1, 3], [5, 0]]))
    assert len(blocks) == 1033 and max(map(len, blocks)) <= 64
    want = np.concatenate([b for _, b in span_blocks_reference(field, [[1, 3], [5, 0]])])
    assert np.array_equal(np.concatenate(blocks), want)


def test_weight_counts_match_reference(field, monkeypatch):
    """Counts per run of ``group`` points, with blocks of a few points each,
    so runs straddle block boundaries."""
    rng = random.Random(3 * field.q)
    gen = np.array([[rng.randrange(field.q) for _ in range(4)] for _ in range(3)])
    group = field.q
    want = np.zeros((field.q ** 2, 5), dtype=np.int64)
    for start, block in span_blocks_reference(field, gen):
        for i, row in enumerate(block.tolist(), start):
            want[i // group, sum(1 for c in row if c)] += 1
    monkeypatch.setattr(fieldmod, "_CHUNK", 11)
    assert np.array_equal(weight_counts(field, gen, group), want)


@pytest.mark.parametrize("spec", [(257,), (2, 9, [1, 0, 0, 0, 1, 0, 0, 0, 0, 1])])
def test_linear_map_without_field_tables(spec):
    field = FieldSpec(*spec)
    rng = random.Random(5)
    vectors = [[rng.randrange(field.q) for _ in range(3)] for _ in range(6)]
    matrix = [[rng.randrange(field.q) for _ in range(2)] for _ in range(3)]
    got = linear_map(field, [matrix])(vectors)[:, 0]
    for v, row in zip(vectors, got.tolist()):
        want = [field.zero] * 2
        for c, m in zip(v, matrix):
            want = [w + field.element(c) * field.element(x) for w, x in zip(want, m)]
        assert row == [w.code for w in want]


def test_pair_indices_match_reference(field):
    """The digit-wise sum of the two half images is the index of (X, Y) @ M
    by FieldElement arithmetic, for delta = 0 to 2 and image widths 0 to 4:
    XOR at p = 2, the digit loop at p = 3, over prime and extension fields."""
    rng = random.Random(field.q)
    for delta, width in ((0, 0), (1, 1), (1, 3), (2, 2), (2, 4)):
        M = [[field.element(rng.randrange(field.q)) for _ in range(width)]
             for _ in range(2 * delta)]
        got = fieldmod.pair_indices(field, np.array([[a.code for a in r] for r in M],
                                                    dtype=np.int64).reshape(2 * delta, width))
        size = field.q ** delta
        assert got.shape == (size, size)
        for (i, X), (j, Y) in itertools.product(enumerate(enumerate_vectors(field, delta)),
                                                repeat=2):
            v = [field.zero] * width
            for c, row in zip(X + Y, M):
                v = [x + c * y for x, y in zip(v, row)]
            assert got[i, j] == (vector_index(v) if width else 0)


def test_index_codes_inverts_code_index(field):
    idx = np.arange(field.q ** 3)
    codes = index_codes(field, idx, 3)
    assert codes.tolist() == [[a.code for a in v] for v in enumerate_vectors(field, 3)]
    assert np.array_equal(code_index(field, codes), idx)


def test_we_of_affine_matches_reference(field):
    rng = random.Random(7 * field.q)
    for n, rows in ((1, 0), (3, 1), (4, 2), (5, 3)):
        space = _random_subspace(rng, field, n, rows)
        offset = tuple(field.element(rng.randrange(field.q)) for _ in range(n))
        counts = [0] * (n + 1)
        for p in _reference_points(space):
            counts[sum(1 for a, b in zip(p, offset) if a + b)] += 1
        assert we_of_affine(field, offset, space.basis) == WePoly(counts)
    assert we_of_affine(field, (), []) == WePoly((1,))


def test_shift_perm_matches_reference(field):
    for delta in (0, 1, 2):
        states = enumerate_vectors(field, delta)
        for shift in states[:: max(1, len(states) // 7)]:
            ref = [vector_index(tuple(a + b for a, b in zip(s, shift))) for s in states]
            assert shift_perm(field, [a.code for a in shift]).tolist() == ref
        ref = [vector_index(tuple(-a for a in s)) for s in states]
        assert negation_perm(field, delta).tolist() == ref


def test_trace_exponents_match_reference(field):
    for delta in (0, 1, 2):
        states = enumerate_vectors(field, delta)
        ref = [[field.trace(vec_dot(x, y)) if delta else 0 for y in states] for x in states]
        assert trace_exponents(field, delta).tolist() == ref


def test_projective_classes_match_reference(field):
    rng = random.Random(11 * field.q)
    vectors = np.array([c for c in itertools.product(range(field.q), repeat=3) if any(c)])
    vectors = vectors[rng.sample(range(len(vectors)), min(60, len(vectors)))]
    reps, cls = projective_classes(field, vectors)

    def normal(row):
        elems = [field.element(c) for c in row]
        inv = next(e for e in elems if e).inverse()
        return tuple((inv * e).code for e in elems)

    want = [normal(r) for r in vectors.tolist()]
    assert [tuple(r) for r in reps.tolist()] == sorted(set(want))
    assert [tuple(reps[c]) for c in cls.tolist()] == want


def _reference_adjacency(cf):
    """Weight counts of every transition (X, u) -> (X A + u B, X C + u D)
    by FieldElement arithmetic, keyed by the state pair's indices."""
    field = cf.field

    def times(vec, rows, width):
        out = [field.zero] * width
        for a, row in zip(vec, rows):
            out = [x + a * field.elements[y] for x, y in zip(out, row)]
        return out

    counts = {}
    for X in itertools.product(field.elements, repeat=cf.delta):
        for u in itertools.product(field.elements, repeat=cf.k):
            Y = [a + b for a, b in zip(times(X, cf.A.rows, cf.delta),
                                       times(u, cf.B.rows, cf.delta))]
            out = [a + b for a, b in zip(times(X, cf.C.rows, cf.n),
                                         times(u, cf.D.rows, cf.n))]
            key = (vector_index(X), vector_index(tuple(Y)))
            counts.setdefault(key, [0] * (cf.n + 1))[sum(1 for a in out if a)] += 1
    return {key: WePoly(c) for key, c in counts.items()}


def test_coset_adjacency_matches_reference_transitions(field):
    # the coset builder shares the point kernel with adjacency_by_transitions,
    # so it is checked here against code that shares none of it
    rng = random.Random(13 * field.q)
    for n, k, delta in ((3, 1, 1), (3, 2, 1), (3, 1, 2), (4, 2, 2)):
        G = random_minimal_encoder(rng, field, n, k, delta)
        for code in (G, dual_generator(G)):
            cf = controller_form(code)
            assert adjacency_by_cosets(cf).entries == _reference_adjacency(cf)
