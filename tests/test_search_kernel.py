"""The int-code state-map kernel and the depth-first witness search, each
against a plain per-state reference: the candidate positions, the
exhaustion count, the search's witness and its guard."""

import math
import random
import time
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from convmacw import (DualPair, FieldSpec, FMat, GuardExceeded, run_verification,
                      search_witness)
from convmacw.duality import SEARCH_LIMIT, _candidate_position
from convmacw.field import code_index, span_indices, vector_codes
from convmacw.linalg import vec_mat
from conftest import projective_candidates
from oracles import (dense, enumerate_vectors, random_minimal_encoder, scaled_dual,
                     sparse, state_perm, to_table, vector_index)

GF4 = (2, 2, [1, 1, 1])
GF8 = (2, 3, [1, 1, 0, 1])
GF9 = (3, 2, [2, 2, 1])


def _field(spec):
    return FieldSpec(*spec) if isinstance(spec, tuple) else FieldSpec(spec)


def _reference_perm(P: FMat, delta: int) -> list[int]:
    elems = P.field.elements
    return [vector_index([elems[c] for c in vec_mat(s, P)])
            for s in enumerate_vectors(P.field, delta)]


def _perm(P: FMat) -> list[int]:
    """The state permutation as the witness checks read it: the span
    indices of the rows of P."""
    return span_indices(P.field, vector_codes(P.rows, P.ncols)).tolist()


def _row_indices(P: FMat) -> list[int]:
    """Row i of P as the state index of the image of e_i."""
    return code_index(P.field, np.array(P.to_int_rows(), dtype=np.int64)
                      .reshape(P.nrows, P.ncols)).tolist()


def _perturb_zero_pair(pair: DualPair):
    """Add one to the dual's entry at the pair (0, 0), which every linear
    map fixes, so no witness exists."""
    perturbed = pair.adj_dual.dense_coefficients()
    perturbed[0, 0, 0] += 1
    pair.adj_dual = sparse(pair.field, pair.delta, perturbed)


def _gl_order(q: int, delta: int) -> int:
    return math.prod(q ** delta - q ** i for i in range(delta))


def _unpruned_examined(q: int, delta: int) -> int:
    """Row images a search with no pruning examines: q^delta for every
    node above the leaves, one node per valid choice of its rows."""
    nodes, partial = 1, 1
    for depth in range(1, delta):
        partial *= q ** delta - q ** (depth - 1)
        nodes += partial // (q - 1)
    return q ** delta * nodes


@pytest.mark.parametrize("spec,delta", [
    (2, 0), (2, 1), (2, 2), (2, 3), (3, 1), (3, 2),
    (GF4, 2), (GF8, 2), (GF9, 2),
])
def test_candidate_arrays_match_reference(spec, delta):
    """Every candidate's closed-form rank is its 1-based position in the
    itertools reference list, and the kernel maps its states as the
    per-state reference does."""
    field = _field(spec)
    reference = list(projective_candidates(field, delta))
    positions = [_candidate_position(field, _row_indices(P)) for P in reference]
    assert positions == list(range(1, len(reference) + 1))
    assert len(reference) == (_gl_order(field.q, delta) // (field.q - 1) if delta else 1)
    stack = np.array([P.to_int_rows() for P in reference],
                     dtype=np.int64).reshape(len(reference), delta, delta)
    assert span_indices(field, stack).T.tolist() == [_reference_perm(P, delta)
                                                     for P in reference]


@pytest.mark.parametrize("spec", [2, 3, GF4, 5, 7, GF8, GF9])
def test_candidate_count_is_projective_linear_group_order(spec):
    field = _field(spec)
    q = field.q
    if q ** 4 <= 2 ** 12:
        assert len(list(projective_candidates(field, 2))) == _gl_order(q, 2) // (q - 1)
    # an exhausted search reports the class count
    rng = random.Random(q)
    for delta in (1, 2):
        pair = DualPair(random_minimal_encoder(rng, field, 3, 1, delta))
        _perturb_zero_pair(pair)
        result = search_witness(pair)
        assert result.witness is None
        assert result.tested == _gl_order(q, delta) // (q - 1)


def test_repeated_searches_are_identical(f3, ternary_322, ternary_322_dual):
    """Searches share no mutable state: repeating them, on one pair and on
    several pairs of one field, gives the same results and leaves the
    searched tables unchanged."""
    rng = random.Random(5)
    pairs = [DualPair(ternary_322, ternary_322_dual)]
    while len(pairs) < 3:
        pair = DualPair(random_minimal_encoder(rng, f3, 4, 2, 2))
        if pair.r_dual < pair.delta and pair.cf.r < pair.delta:
            pairs.append(pair)
    tables = [(dense(scaled_dual(p)), dense(p.transformed)) for p in pairs]
    first = [search_witness(p) for p in pairs]
    assert all(r.witness is not None for r in first)
    for _ in range(2):
        assert [search_witness(p) for p in reversed(pairs)] == first[::-1]
    for p, (target, tnum) in zip(pairs, tables):
        assert np.array_equal(dense(scaled_dual(p)), target)
        assert np.array_equal(dense(p.transformed), tnum)


@pytest.mark.parametrize("spec", [257, (2, 9, [1, 0, 0, 0, 1, 0, 0, 0, 0, 1])])
def test_state_permutation_without_field_tables(spec):
    field = _field(spec)
    assert field._mul_t is None    # past the table size
    rng = random.Random(7)
    for _ in range(3):
        P = FMat(field, 1, 1, [[field.element(rng.randrange(1, field.q))]])
        assert _perm(P) == _reference_perm(P, 1)


@pytest.mark.parametrize("spec", [2, 3, GF4, GF9])
def test_state_permutation_matches_reference(spec):
    field = _field(spec)
    rng = random.Random(11)
    for delta in (1, 2, 3):
        if field.q ** delta > 729:
            continue
        for _ in range(4):
            P = FMat(field, delta, delta,
                     [[field.element(rng.randrange(field.q)) for _ in range(delta)]
                      for _ in range(delta)])
            # singular maps too: the images of every state, in state order
            assert _perm(P) == _reference_perm(P, delta)


def test_state_images_rectangular(f4):
    # a 2 x 3 map sends F^2 into F^3; indices are canonical in F^3
    rows = [[1, 2, 0], [3, 1, 1]]
    P = FMat(f4, 2, 3, [[f4.element(c) for c in r] for r in rows])
    got = span_indices(f4, np.array(rows))
    assert got.tolist() == _reference_perm(P, 2)


def _reference_search(pair: DualPair):
    """Plain scan: one full comparison per candidate, in canonical order."""
    tested, target = 0, dense(scaled_dual(pair))
    for tested, P in enumerate(projective_candidates(pair.field, pair.delta), start=1):
        perm = state_perm(P)
        if np.array_equal(target, dense(pair.transformed)[np.ix_(perm, perm)]):
            return P, tested
    return None, tested


def _generic_pairs(field, n, delta, count, seed):
    """Random codes that no closed form covers (r < delta on both sides)."""
    rng = random.Random(seed)
    out = []
    for _ in range(100):
        pair = DualPair(random_minimal_encoder(rng, field, n, rng.randint(1, n - 1), delta))
        if pair.r_dual < pair.delta and pair.cf.r < pair.delta:
            out.append(pair)
        if len(out) == count:
            break
    assert out
    return out


@pytest.mark.parametrize("spec,n,delta,count", [
    (2, 5, 3, 3), (2, 4, 2, 2), (3, 4, 2, 3), (GF4, 4, 2, 2), (5, 4, 2, 2),
    (GF8, 3, 2, 1), (GF9, 3, 2, 1),
])
def test_search_matches_reference_scan(spec, n, delta, count):
    field = _field(spec)
    for pair in _generic_pairs(field, n, delta, count, seed=2024 + field.q):
        result = search_witness(pair)
        ref_witness, ref_tested = _reference_search(pair)
        assert result.witness == ref_witness
        assert result.tested == ref_tested
        assert result.examined <= _unpruned_examined(field.q, delta)


def test_search_matches_reference_on_demo_pairs(binary_pair, ternary_pair):
    for pair in (binary_pair, ternary_pair):
        result = search_witness(pair)
        assert (result.witness, result.tested) == _reference_search(pair)


def _table_pair(field, delta, target, tnum):
    """Just what the search reads from a pair, for synthetic dense tables:
    the dual ``target`` at scale one."""
    return SimpleNamespace(field=field, delta=delta, scale=1,
                           adj_dual=sparse(field, delta, target), transformed=to_table(tnum))


@pytest.mark.parametrize("spec,delta", [(2, 3), (3, 2), (GF4, 2)])
def test_search_matches_reference_on_synthetic_tables(spec, delta):
    """Tables over a small alphabet have many colour collisions and often
    several witnesses, so the search's order, span exclusion and
    normalisation all decide its answer; a constant table makes every
    candidate a witness, so the first one must be returned."""
    field = _field(spec)
    size = field.q ** delta
    rng = np.random.default_rng(field.q * 10 + delta)
    reference = list(projective_candidates(field, delta))
    const = np.ones((size, size, 2), dtype=np.int64)
    result = search_witness(_table_pair(field, delta, const, const))
    assert (result.witness, result.tested) == (reference[0], 1)
    for trial in range(6):
        tnum = rng.integers(0, 2, size=(size, size, 2))
        tnum[0, 0] = 5    # every linear map fixes state 0
        codes = rng.integers(0, field.q, size=(delta, delta))
        M = FMat(field, delta, delta, [[field.element(int(c)) for c in r] for r in codes])
        if not M.is_invertible():
            continue
        perm = state_perm(M)
        pair = _table_pair(field, delta, tnum[np.ix_(perm, perm)], tnum)
        result = search_witness(pair)
        assert (result.witness, result.tested) == _reference_search(pair)


def test_colour_step_peaks_below_one_dense_tensor(f2):
    """The search colours the dual and the transformed tables one at a
    time, in place: before its first expansion, which a zero limit
    refuses, it allocates less than one dense (q^delta, q^delta, n+1)
    tensor.  A stack of the two tables would copy both."""
    pair = DualPair(random_minimal_encoder(random.Random(1), f2, 12, 2, 8))
    tables = dense(scaled_dual(pair)), pair.transformed   # built before the measurement
    tracemalloc.start()
    try:
        with pytest.raises(GuardExceeded):
            search_witness(pair, limit=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < tables[0].nbytes == 2 ** 16 * 13 * 8


def test_search_exhaustion_is_an_outcome(ternary_322, ternary_322_dual):
    pair = DualPair(ternary_322, ternary_322_dual)
    _perturb_zero_pair(pair)
    result = search_witness(pair)
    assert result.witness is None
    assert result.tested == len(list(projective_candidates(pair.field, pair.delta))) == 24


def test_search_guard_boundary(binary_pair, ternary_pair):
    for pair in (binary_pair, ternary_pair):
        result = search_witness(pair)
        assert result.examined > 0
        assert search_witness(pair, limit=result.examined) == result
        with pytest.raises(GuardExceeded, match="candidate row images"):
            search_witness(pair, limit=result.examined - 1)


def test_unpruned_search_fits_the_default_limit():
    """Every (q, delta) the former q^(delta^2) <= 2^17 rule admitted still
    runs without pruning: delta = 1 examines q <= 2^16 images (the field
    size bound), and above it the largest cost is binary delta = 4."""
    worst = {}
    for delta in range(1, 6):
        q = 2
        while q ** (delta * delta) <= 2 ** 17 and q <= 2 ** 16:
            worst[(q, delta)] = _unpruned_examined(q, delta)
            q += 1
    assert max(worst.values()) <= SEARCH_LIMIT
    assert max(v for (q, d), v in worst.items() if d > 1) == worst[(2, 4)] == 43936
    assert _unpruned_examined(2, 5) > SEARCH_LIMIT


def test_search_envelope_binary_delta_6(f2):
    """A generic binary delta = 6 code, refused by the former guard
    (2^36 candidate matrices), now finds its witness."""
    pair = _generic_pairs(f2, 4, 6, 1, seed=6)[0]
    started = time.perf_counter()
    report = run_verification(pair.G)
    assert report.theorem_used == "conjecture-search"
    assert report.verdict == "verified"
    assert report.details["candidates_tested"] <= _gl_order(2, 6)
    assert time.perf_counter() - started < 10.0
