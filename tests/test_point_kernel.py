"""The int-code point kernel and the routines rebuilt on it, each against
a plain FieldElement reference kept here: subspace points (including
dim 0 and ambient 0), the greedy complement scan, coset enumerators,
state translations, projective classes and the coset-built adjacency
matrix."""

import itertools
import random

import numpy as np
import pytest

from convmacw import (FieldSpec, Subspace, adjacency_by_cosets, controller_form,
                      dual_generator)
from convmacw import field as fieldmod
from convmacw import linalg
from convmacw.duality import PairGeometry
from convmacw.errors import InternalCheckError
from convmacw.exact import WePoly
from convmacw.field import code_index, index_codes, linear_map, span_blocks
from convmacw.linalg import deterministic_complement
from oracles import (enumerate_vectors, intersect, points, projective_classes,
                     random_minimal_encoder, shift_perm, vector_index, we_of_affine)

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


def _reference_complement(base, within):
    """The greedy scan: points of ``within`` by canonical index, each kept
    when it leaves the span so far."""
    span, picked = base, []
    for v in sorted(_reference_points(within), key=vector_index):
        if len(picked) == within.dim - base.dim:
            break
        if not span.contains(v):
            picked.append(v)
            span = span + Subspace.from_rows(base.field, base.ambient, [v])
    return Subspace.from_rows(base.field, base.ambient, picked)


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
    rng = random.Random(17 * field.q)
    space = _random_subspace(rng, field, 4, 2)
    full = np.concatenate([b for _, b in span_blocks(field, space.codes())])
    monkeypatch.setattr(fieldmod, "_CHUNK", 5)
    lo, hi = 1, field.q ** 2 - 1
    starts, blocks = zip(*span_blocks(field, space.codes(), lo, hi))
    assert starts[0] == lo and len(blocks) > 1
    assert np.array_equal(np.concatenate(blocks), full[lo:hi])
    stacked = np.stack([space.codes(), space.codes()[::-1]])
    for start, block in span_blocks(field, stacked, lo, hi):
        assert block.shape == (len(block), 2, 4)
        assert np.array_equal(block[:, 0], full[start:start + len(block)])


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


# every field of the benchmark corpus
CORPUS_FIELDS = {2: (2,), 3: (3,), 4: (2, 2, [1, 1, 1]), 5: (5,), 7: (7,),
                 8: (2, 3, [1, 1, 0, 1]), 9: (3, 2, [1, 0, 1])}


@pytest.mark.parametrize("q", sorted(CORPUS_FIELDS), ids=lambda q: f"q={q}")
def test_complement_matches_greedy_scan(q):
    """``within`` full and proper, base zero, within itself or a random
    subspace between, ambient up to 6 over GF(2)."""
    field = FieldSpec(*CORPUS_FIELDS[q])
    rng = random.Random(31 * q)
    top = 6 if q == 2 else 4 if q <= 4 else 3
    cases = set()
    for ambient, _ in itertools.product(range(top + 1), range(4)):
        for full in (True, False):
            rows = ambient if full else max(ambient - 1, 0)
            within = _random_subspace(rng, field, ambient, rows)
            # a random subspace of ``within``, spanned by some of its points
            between = Subspace.from_rows(field, ambient, rng.sample(
                _reference_points(within), max(within.dim - 1, 0)))
            for base in (Subspace.zero(field, ambient), within, between):
                comp = deterministic_complement(base, within)
                assert comp == _reference_complement(base, within)
                assert comp.dim == within.dim - base.dim
                if within.dim:
                    cases.add((within.dim == ambient, "zero" if base.dim == 0 else
                               "within" if base == within else "between"))
    assert cases == set(itertools.product((True, False),
                                          ("zero", "within", "between")))


@pytest.mark.parametrize("spec,ambient", [((2,), 40), ((3, 2, [1, 0, 1]), 12)],
                         ids=["q=2-ambient40", "q=9-ambient12"])
def test_complement_enumerates_no_points(spec, ambient, monkeypatch):
    """A scan would walk 2^40 (9^12) points; the closed form reads the
    basis of ``within`` only."""
    field = FieldSpec(*spec)
    rng = random.Random(ambient)
    within = _random_subspace(rng, field, ambient, ambient - 3)
    base = Subspace.from_rows(field, ambient, within.basis[::3])

    def refuse(*args):
        raise AssertionError("a point enumeration was called")
    monkeypatch.setattr(Subspace, "point_indices", refuse)
    monkeypatch.setattr(fieldmod, "span_indices", refuse)
    monkeypatch.setattr(linalg, "span_indices", refuse)
    for b, w in ((base, within), (base, Subspace.full(field, ambient))):
        comp = deterministic_complement(b, w)
        assert comp.dim == w.dim - b.dim
        assert comp + b == w and intersect(comp, b).dim == 0


def test_complement_failure_is_an_internal_check(f2, monkeypatch):
    base, within = Subspace.zero(f2, 2), Subspace.full(f2, 2)
    # a span that claims every vector leaves no pick
    monkeypatch.setattr(Subspace, "contains", lambda self, vec: True)
    with pytest.raises(InternalCheckError, match="complement extension failed"):
        deterministic_complement(base, within)


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
        geom = PairGeometry(field, delta)
        states = enumerate_vectors(field, delta)
        for shift in states[:: max(1, len(states) // 7)]:
            ref = [vector_index(tuple(a + b for a, b in zip(s, shift))) for s in states]
            assert shift_perm(geom, [a.code for a in shift]).tolist() == ref


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
