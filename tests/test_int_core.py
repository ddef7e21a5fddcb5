"""The int-code exact core against its FieldElement references: row
reduction, kernels, subspaces, matrix products, the Smith form and the
polynomial row reduction agree entry for entry over table fields and
over the table-free GF(257) and GF(2^9)."""

import contextlib
import io
import json
import random
import re
import sys
from collections import Counter
from pathlib import Path

import pytest

from convmacw import (DualPair, FieldSpec, FMat, PolyMatrix, Subspace, ZPoly, code_degree,
                      dual_generator, make_minimal_basic, search_witness, smith_normal_form)
from convmacw import field as fieldmod
from convmacw.cli import CodeDocument, main
from convmacw.linalg import rref, right_null_space, vec_mat
from convmacw.statespace import (coefficient_code, connected_pairs, connected_pairs_orth,
                                 constant_code, output_map)
from oracles import (matmul_reference, random_minimal_encoder, right_null_space_reference,
                     row_reduce_reference, rref_reference, smith_reference, we_of_affine)

FIELDS = {"2": (2,), "3": (3,), "4": (2, 2, [1, 1, 1]), "5": (5,), "7": (7,),
          "8": (2, 3, [1, 1, 0, 1]), "9": (3, 2, [2, 2, 1]), "257": (257,),
          "512": (2, 9, [1, 0, 0, 0, 1, 0, 0, 0, 0, 1])}


@pytest.fixture(params=list(FIELDS), ids=[f"q={q}" for q in FIELDS])
def field(request):
    return FieldSpec(*FIELDS[request.param])


def test_code_arithmetic_is_a_field(field):
    """The scalar and row operations the references share with the core:
    inverses, distributivity and associativity on random codes, also past
    the tables."""
    rng = random.Random(5)
    for _ in range(200):
        a, b, c = (rng.randrange(field.q) for _ in range(3))
        if a:
            assert field.mul(a, field.inv(a)) == 1
        assert field.add(a, field.neg(a)) == 0
        assert field.mul(field.mul(a, b), c) == field.mul(a, field.mul(b, c))
        assert field.mul(a, field.add(b, c)) == field.add(field.mul(a, b), field.mul(a, c))
        assert field.axpy([a, b], c, [b, a]) == [field.add(a, field.mul(c, b)),
                                                 field.add(b, field.mul(c, a))]
        assert field.scale(c, [a, b]) == [field.mul(c, a), field.mul(c, b)]
        assert field.power(a, 0) == 1
        assert field.power(a, 3) == field.mul(a, field.mul(a, a))
        assert field.element(a) ** 3 == field.element(a) * field.element(a) * field.element(a)


def _random_rows(rng, field, nrows, ncols):
    """Random code rows, with some zero entries, zero rows and dependent
    rows so that rank deficiency shows up in every field."""
    rows = []
    for _ in range(nrows):
        roll = rng.random()
        if roll < 0.1:
            rows.append([0] * ncols)
        elif roll < 0.3 and len(rows) >= 2:
            a, b = rng.randrange(field.q), rng.randrange(field.q)
            rows.append(field.axpy(field.scale(a, rows[0]), b, rows[-1]))
        else:
            rows.append([rng.randrange(field.q) if rng.random() < 0.7 else 0
                         for _ in range(ncols)])
    return rows


SHAPES = [(0, 0), (0, 3), (3, 0), (1, 1), (2, 5), (4, 4), (5, 3), (6, 7)]


def test_rref_and_kernels_match_reference(field):
    rng = random.Random(field.q)
    for nrows, ncols in SHAPES * 3:
        rows = _random_rows(rng, field, nrows, ncols)
        reduced = rref(field, rows, ncols)
        assert reduced == rref_reference(field, rows, ncols)
        assert Subspace.from_rows(field, ncols, rows).basis == reduced[0]
        m = FMat(field, nrows, ncols, rows)
        assert right_null_space(field, m) == right_null_space_reference(field, rows, ncols)


def test_rref_takes_elements(field):
    rows = _random_rows(random.Random(3), field, 3, 4)
    elements = [[field.element(c) for c in r] for r in rows]
    assert rref(field, elements, 4) == rref(field, rows, 4)
    assert FMat.from_rows(field, elements) == FMat.from_rows(field, rows)


@pytest.mark.parametrize("other", [FieldSpec(3), FieldSpec(2, 2, [1, 1, 1]),
                                   FieldSpec(3, 2, [2, 2, 1])], ids=["q=3", "q=4", "q=9"])
def test_elements_of_another_field_are_rejected(other):
    """An element is read as its code only in its own field: a GF(3) 2 in
    a GF(4) matrix would otherwise silently mean alpha."""
    field = FieldSpec(3) if other.q != 3 else FieldSpec(2, 2, [1, 1, 1])
    stray = other.element(2)
    for build in (lambda: FMat.from_rows(field, [[stray, 0]]),
                  lambda: FMat(field, 1, 2, [[0, stray]]),
                  lambda: Subspace.from_rows(field, 2, [[1, stray]]),
                  lambda: Subspace(field, 2, FMat.identity(field, 2).rows).coordinates((stray, 0)),
                  lambda: ZPoly(field, [1, stray]),
                  lambda: rref(field, [[stray, 1]], 2),
                  lambda: vec_mat((stray, 1), FMat.identity(field, 2)),
                  lambda: we_of_affine(field, (stray, 0), [(0, 1)]),
                  lambda: field.trace(stray)):
        with pytest.raises(ValueError, match="is not an element of"):
            build()
    own = field.element(2)
    assert FMat.from_rows(field, [[own, 0]]) == FMat.from_rows(field, [[2, 0]])
    assert ZPoly(field, [1, own]).coeffs == (1, 2)


def test_codes_outside_the_field_are_rejected():
    """A code outside [0, q) raises ValueError naming the code and the
    field at every public entry, instead of being stored and failing (or
    passing) later: over GF(2) a 5 would break the rank, over GF(509) a
    600 would make a matrix look invertible."""
    f2, f509 = FieldSpec(2), FieldSpec(509)
    for build, code, field in ((lambda: FMat(f2, 1, 1, [[5]]), 5, f2),
                               (lambda: FMat(f509, 1, 1, [[600]]), 600, f509),
                               (lambda: FMat.from_rows(f2, [[0, -1]]), -1, f2),
                               (lambda: ZPoly(f2, [3, 1]), 3, f2),
                               (lambda: rref(f2, [(2, 1)], 2), 2, f2),
                               (lambda: vec_mat((1, 2), FMat.identity(f2, 2)), 2, f2),
                               (lambda: Subspace.from_rows(f2, 2, [[1, 2]]), 2, f2),
                               (lambda: Subspace(f2, 2, ()).coordinates((0, 7)), 7, f2),
                               (lambda: f2.element(5), 5, f2),
                               (lambda: FieldSpec(3).trace(5), 5, FieldSpec(3)),
                               (lambda: FieldSpec(3).trace(-1), -1, FieldSpec(3))):
        with pytest.raises(ValueError, match=re.escape(f"code {code} is out of range for {field}")):
            build()
    assert FMat(f509, 1, 1, [[508]]).is_invertible()


def test_matmul_matches_reference(field):
    rng = random.Random(2 * field.q)
    for nrows, inner in SHAPES:
        for ncols in (0, 1, 4):
            a = _random_rows(rng, field, nrows, inner)
            b = _random_rows(rng, field, inner, ncols)
            product = FMat(field, nrows, inner, a) @ FMat(field, inner, ncols, b)
            assert (product.nrows, product.ncols) == (nrows, ncols)
            assert product.rows == matmul_reference(field, a, b, ncols)


def _random_poly_matrix(rng, field, k, n, degree):
    return PolyMatrix(field, k, n, [
        [ZPoly(field, [rng.randrange(field.q) if rng.random() < 0.6 else 0
                       for _ in range(rng.randint(0, degree + 1))])
         for _ in range(n)] for _ in range(k)])


@pytest.mark.parametrize("k, n, degree", [(0, 2, 1), (2, 0, 1), (1, 3, 3), (2, 3, 2),
                                          (3, 2, 2), (3, 4, 1)])
def test_smith_form_matches_reference(field, k, n, degree):
    rng = random.Random(field.q * 100 + k * 10 + n)
    for _ in range(3):
        M = _random_poly_matrix(rng, field, k, n, degree)
        U, S, V = smith_normal_form(M)
        got = tuple([[p.coeffs for p in r] for r in X.rows] for X in (U, S, V))
        assert got == smith_reference(M)
        assert U @ M @ V == S


def _check_row_reduction(G: PolyMatrix, rng):
    """dual_generator's H is the reference reduction of the kernel rows of
    the Smith form's V, and a unimodular scrambling of G reduces back as
    the reference does, to the code degree of G."""
    field, k, n = G.field, G.nrows, G.ncols
    V = smith_normal_form(G)[2]
    kernel = PolyMatrix.from_rows(field, [[V.rows[i][j] for i in range(n)]
                                          for j in range(k, n)], n)
    H = dual_generator(G)
    assert [[p.coeffs for p in r] for r in H.rows] == row_reduce_reference(kernel)

    def unit_upper(i, j):   # adds random multiples of later rows: unimodular
        if i >= j:
            return ZPoly(field, [int(i == j)])
        return ZPoly(field, [rng.randrange(field.q) for _ in range(rng.randint(0, 2))])

    scrambled = PolyMatrix(field, k, k, [[unit_upper(i, j) for j in range(k)]
                                         for i in range(k)]) @ G
    want = row_reduce_reference(scrambled)
    assert [[p.coeffs for p in r] for r in make_minimal_basic(scrambled).rows] == want
    assert code_degree(scrambled) == sum(max(map(len, r)) - 1 for r in want)
    assert code_degree(scrambled) == sum(H.row_degrees())


@pytest.mark.parametrize("q", ["2", "3", "4", "257", "512"], ids=lambda q: f"q={q}")
def test_row_reduction_matches_reference(q):
    """Long codes like the benchmark's: n = 10-11, k = 5-6, delta <= 3."""
    field = FieldSpec(*FIELDS[q])
    rng = random.Random(int(q))
    for n, k, delta in [(10, 5, 2), (11, 6, 3), (10, 6, 1)]:
        _check_row_reduction(random_minimal_encoder(rng, field, n, k, delta), rng)


PINNED = Path(__file__).resolve().parents[1] / "bench" / "pinned"


def test_row_reduction_matches_reference_on_pinned_documents():
    paths = sorted(PINNED.glob("*/*.json"))
    assert len(paths) == 28
    rng = random.Random(28)
    for path in paths:
        _check_row_reduction(CodeDocument.from_path(str(path)).generator, rng)


def _validated_again(obj):
    """Rebuild an FMat or Subspace through its checking constructor (a
    subspace through ``from_rows``, which re-reduces its basis): a result
    built unchecked must equal it, and hold plain int code tuples."""
    if isinstance(obj, FMat):
        again, rows = FMat(obj.field, obj.nrows, obj.ncols, obj.rows), obj.rows
    else:
        again, rows = Subspace.from_rows(obj.field, obj.ambient, obj.basis), obj.basis
    assert again == obj and hash(again) == hash(obj)
    assert type(rows) is tuple
    assert all(type(r) is tuple and all(type(x) is int for x in r) for r in rows)


def test_unchecked_results_equal_validated_ones_on_pinned_documents():
    """Every matrix and subspace a verify builds from codes, on the 28
    pinned documents: the controller forms, their subspaces and output
    maps, the pairing, the witness and matrix algebra on it."""
    for path in sorted(PINNED.glob("*/*.json")):
        pair = DualPair(CodeDocument.from_path(str(path)).generator)
        for cf in (pair.cf, pair.cf_dual):
            for m in (cf.A, cf.B, cf.C, cf.D, cf.BtD, output_map(cf)):
                _validated_again(m)
            for space in (constant_code(cf), coefficient_code(cf)[0],
                          connected_pairs(cf), connected_pairs_orth(cf),
                          connected_pairs(cf) + connected_pairs_orth(cf)):
                _validated_again(space)
            _validated_again(connected_pairs(cf).matrix())
        _validated_again(pair.pairing)
        if pair.delta in (pair.cf.r, pair.r_dual):
            W = pair.closed_form
        else:
            W = search_witness(pair).witness
        for m in (W, -W, W + W, W - W, W.transpose(), W.inverse(), W @ W.inverse(),
                  FMat.identity(pair.field, pair.delta), FMat.zero(pair.field, 2, pair.delta)):
            _validated_again(m)


@pytest.mark.parametrize("name", ["search/03-q4-n3k1d2.json", "search/00-q2-n5k2d4.json"])
def test_verify_checks_codes_only_at_the_boundary(name, monkeypatch):
    """A verify op checks entry codes where they come in (parsing the
    document and the ``--check-witness`` matrix), not on the matrices and
    subspaces it builds, and walks points without the F_p lift:
    ``linear_map`` runs only to build a field's tables."""
    path = str(PINNED / name)
    calls = Counter()
    codes, lift = fieldmod.FieldSpec.codes, fieldmod.linear_map

    def counted_codes(self, vec):
        calls["codes"] += 1
        return codes(self, vec)

    def counted_lift(field, matrices):
        if sys._getframe(1).f_code is not fieldmod.FieldSpec.__init__.__code__:
            calls["linear_map"] += 1
        return lift(field, matrices)

    monkeypatch.setattr(fieldmod.FieldSpec, "codes", counted_codes)
    monkeypatch.setattr(fieldmod, "linear_map", counted_lift)

    def verify(*extra):
        calls.clear()
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["verify", path, "--format", "json", *extra]) == 0
        return json.loads(out.getvalue())

    G = CodeDocument.from_path(path).generator
    entries = G.nrows * G.ncols   # one check per parsed polynomial at most
    report = verify()
    assert report["theorem_used"] == "conjecture-search"
    assert calls["linear_map"] == 0 and calls["codes"] <= entries
    witness = report["witness"]
    assert verify("--check-witness", json.dumps(witness))["verdict"] == "verified"
    assert calls["linear_map"] == 0 and calls["codes"] <= entries + len(witness)
