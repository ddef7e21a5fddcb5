import random
import time
import tracemalloc

import numpy as np
import pytest

from convmacw import (DualPair, FieldSpec, FMat, GuardExceeded, InternalCheckError,
                      PolyMatrix, WePoly, adjacency_by_cosets, adjacency_by_transitions,
                      controller_form)
from convmacw.adjacency import AdjMatrix
from convmacw.polymat import make_minimal_basic, parse_zpoly
from conftest import (ADJ_BINARY_523, ADJ_BINARY_523_DUAL, projective_candidates,
                      we)
from oracles import (conjugate, entry_sums, int_matrix, matrix01, pair_split, points,
                     random_minimal_encoder, same_code, state_perm, vector_index)


def _assert_matches_grid(adj, grid):
    size = adj.size
    assert len(grid) == size
    for i in range(size):
        for j in range(size):
            assert adj.entry(i, j) == we(grid[i][j]), (i, j)


def test_adjacency_golden_primal(binary_523):
    adj = adjacency_by_cosets(controller_form(binary_523))
    _assert_matches_grid(adj, ADJ_BINARY_523)
    assert adj.support_size() == 16


def test_adjacency_golden_dual(binary_523_dual):
    adj = adjacency_by_cosets(controller_form(binary_523_dual))
    _assert_matches_grid(adj, ADJ_BINARY_523_DUAL)
    assert adj.support_size() == 64


def test_adjacency_oracle_equivalence(binary_523, binary_523_dual, ternary_322):
    for G in (binary_523, binary_523_dual, ternary_322):
        cf = controller_form(G)
        assert adjacency_by_cosets(cf) == adjacency_by_transitions(cf)


def test_adjacency_entry_census(binary_523, binary_523_dual):
    adj = adjacency_by_cosets(controller_form(binary_523))
    with_unit = [(i, j) for (i, j), w in adj.entries.items()
                 if w.coefficient(0)]
    assert with_unit == [(0, 0)]
    assert adj.entry(0, 0) == we("1+W^3")
    dual = adjacency_by_cosets(controller_form(binary_523_dual))
    ones = [k for k, w in dual.entries.items() if w == we("1")]
    assert len(ones) == 4


def test_adjacency_degree_zero(f2):
    G = PolyMatrix.from_strings(f2, [["1", "0", "1"], ["0", "1", "1"]])
    cf = controller_form(G)
    adj = adjacency_by_cosets(cf)
    assert adj.size == 1
    # brute-force enumerator of the four codewords
    counts = [0, 0, 0, 0]
    for a in range(2):
        for b in range(2):
            word = [(a + 0) % 2, b % 2, (a + b) % 2]
            counts[sum(word)] += 1
    assert adj.entry(0, 0) == WePoly(counts)
    assert adj == adjacency_by_transitions(cf)


def test_conjugate_identity_and_scalars(binary_523, f3):
    adj = adjacency_by_cosets(controller_form(binary_523))
    assert conjugate(adj, FMat.identity(adj.field, 3)) == adj
    G3 = PolyMatrix.from_strings(f3, [["1+z", "1", "2"]])
    adj3 = adjacency_by_cosets(controller_form(G3))
    two = int_matrix(f3, [[2]])
    assert conjugate(adj3, two) == adj3  # scalar matrices act trivially


def test_conjugate_rejects_singular(binary_523, f2):
    adj = adjacency_by_cosets(controller_form(binary_523))
    with pytest.raises(ValueError):
        conjugate(adj, FMat.zero(f2, 3, 3))


def test_conjugation_moves_entries(binary_523, f2):
    adj = adjacency_by_cosets(controller_form(binary_523))
    P = int_matrix(f2, [[0, 1, 0], [0, 0, 1], [1, 0, 0]])
    moved = conjugate(adj, P)
    perm = state_perm(P).tolist()
    for (i, j), w in adj.entries.items():
        # entry (X, Y) of the conjugate is the old entry at (XP, YP)
        assert moved.entries[(perm.index(i), perm.index(j))] == w


def test_entry_sums_goldens(binary_pair, f2):
    total_expected = we("1+5W+10W^2+10W^3+5W^4+W^5")
    transversal_sum, total = entry_sums(binary_pair.adj, binary_pair.cf)
    assert total == total_expected
    assert transversal_sum == total_expected  # q^(delta - r_hat) = 1
    # dual side: 64 entries summing to 4 times the coefficient-code
    # enumerator, re-derived here by enumerating its 16 vectors
    drows = [[0, 0, 1, 0, 0], [0, 0, 0, 0, 1], [0, 1, 0, 1, 0], [1, 0, 0, 1, 0]]
    counts = [0] * 6
    for mask in range(16):
        v = [0] * 5
        for bit, row in enumerate(drows):
            if mask >> bit & 1:
                v = [(a + b) % 2 for a, b in zip(v, row)]
        counts[sum(1 for a in v if a)] += 1
    expected = 4 * WePoly(counts)
    _, total_dual = entry_sums(binary_pair.adj_dual, binary_pair.cf_dual)
    assert total_dual == expected


def test_entries_invariant_along_kernel(binary_pair):
    cfd = binary_pair.cf_dual
    adj = binary_pair.adj_dual
    split = pair_split(cfd)
    for v in points(split.transversal):
        base = adj.entry(vector_index(v[:3]), vector_index(v[3:]))
        for w in points(split.kernel):
            shifted = tuple(a + b for a, b in zip(v, w))
            got = adj.entry(vector_index(shifted[:3]), vector_index(shifted[3:]))
            assert got == base


def test_support_is_connected_pairs(binary_523):
    cf = controller_form(binary_523)
    adj = adjacency_by_cosets(cf)
    from convmacw.statespace import connected_pairs
    expected = set()
    for v in points(connected_pairs(cf)):
        expected.add((vector_index(v[:3]), vector_index(v[3:])))
    assert set(adj.entries) == expected


@pytest.mark.parametrize("q,delta", [(2, 1), (2, 2), (3, 1), (3, 2)])
def test_encoder_independence_up_to_conjugation(q, delta):
    field = FieldSpec(q)
    rng = random.Random(300 + 10 * q + delta)
    for _ in range(3):
        n = rng.randint(2, 4)
        k = rng.randint(1, n - 1)
        G1 = random_minimal_encoder(rng, field, n, k, delta)
        # second minimal encoder of the same code via a unimodular mix
        rows = [list(r) for r in G1.rows]
        if k > 1:
            f = parse_zpoly(f"{rng.randrange(1, q)}+{rng.randrange(q)}z", field)
            rows[0] = [a + f * b for a, b in zip(rows[0], rows[1])]
        G2 = make_minimal_basic(PolyMatrix.from_rows(field, rows, n))
        assert same_code(G1, G2)
        a1 = adjacency_by_cosets(controller_form(G1))
        a2 = adjacency_by_cosets(controller_form(G2))
        found = any(conjugate(a2, P) == a1
                    for P in projective_candidates(field, delta))
        assert found


def test_guards(binary_523):
    cf = controller_form(binary_523)
    with pytest.raises(GuardExceeded):
        adjacency_by_transitions(cf, limit=10)
    with pytest.raises(GuardExceeded):
        adjacency_by_cosets(cf, limit=3)
    # 2^(delta+r) = 16 connected pairs, each a coset of 2^(k-r) = 2 points
    with pytest.raises(GuardExceeded, match=r"q\^\(delta\+k\) = 32 points"):
        adjacency_by_cosets(cf, limit=31)
    assert adjacency_by_cosets(cf, limit=32).support_size() == 16


def test_coset_builder_allocates_no_pair_grid(f2):
    """delta = 14: 2^15 connected pairs out of a 2^28 grid, whose dense
    coefficient tensor would take 6.4 GB."""
    cf = controller_form(PolyMatrix.from_strings(f2, [["1", "1+z^14"]]))
    tracemalloc.start()
    start = time.perf_counter()
    try:
        adj = adjacency_by_cosets(cf)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - start < 10
    assert adj.support_size() == len(adj.entries) == 2 ** 15
    assert peak < 2 ** 26   # the 2^28 grid would need 2^28 bytes as bools alone
    assert not adj.index.flags.writeable and not adj.counts.flags.writeable


def test_adjacency_keeps_its_arrays_and_rejects_an_unsorted_support(binary_523):
    """AdjMatrix holds the arrays it is given, read-only, with no reordered
    copy; a support index that is not increasing is a failed check."""
    adj = adjacency_by_cosets(controller_form(binary_523))
    index, counts = adj.index.copy(), adj.counts.copy()
    kept = AdjMatrix(adj.field, adj.n, adj.delta, index, counts)
    assert kept.index is index and kept.counts is counts
    assert not index.flags.writeable and not counts.flags.writeable
    for bad in (index[::-1], np.concatenate([index[:1], index[:-1]])):   # unsorted, repeated
        with pytest.raises(InternalCheckError, match="not increasing"):
            AdjMatrix(adj.field, adj.n, adj.delta, bad, counts)


def test_coset_builder_holds_one_copy_of_the_counts(f2):
    """The dual's counts of binary (12,2) delta = 8 (2^15 support pairs of
    13 coefficients, 3.4 MB) are built once and kept as built: the
    builder's peak stays below two copies of them."""
    pair = DualPair(random_minimal_encoder(random.Random(1), f2, 12, 2, 8))
    tracemalloc.start()
    try:
        adj = adjacency_by_cosets(pair.cf_dual)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert adj.counts.nbytes == 2 ** 15 * 13 * 8
    assert peak < 2 * adj.counts.nbytes


def test_json_and_text_rendering(binary_523):
    adj = adjacency_by_cosets(controller_form(binary_523))
    payload = adj.to_json_dict()
    assert payload["delta"] == 3 and payload["q"] == 2
    assert payload["ordering"] == "lex-enc"
    first = payload["entries"][0]
    assert first == {"row": 0, "col": 0, "we": [1, 0, 0, 1, 0, 0]}
    text = adj.render_text()
    lines = text.splitlines()
    assert len(lines) == 8
    assert "1 + W^3" in lines[0]
    assert "W + W^2" in lines[0]
    assert lines[0].rstrip().endswith("0")


def test_permutation_matrix_rendering(f2):
    P = int_matrix(f2, [[0, 1], [1, 0]])
    assert matrix01(state_perm(P).tolist()) == ((1, 0, 0, 0), (0, 0, 1, 0),
                                                (0, 1, 0, 0), (0, 0, 0, 1))
