import itertools
import random
import tracemalloc
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from convmacw import (DualPair, FieldSpec, FMat, GuardExceeded, InternalCheckError,
                      PolyMatrix, WePoly, check_unit_memory, check_weak_identity,
                      check_witness, closed_form_witness_dual,
                      closed_form_witness_primal, dual_generator, duality,
                      run_verification, search_witness)
from convmacw.adjacency import AdjMatrix
from convmacw.cli import CodeDocument
from convmacw.duality import fourier_transform, macwilliams_image, trace_exponents
from convmacw.exact import macwilliams_rows
from convmacw.statespace import connected_pairs, connected_pairs_orth, constant_code
from conftest import (BINARY_523_DUAL, CHAR_GRID_2_3, PERM_Q_BINARY, WITNESS_P_TERNARY,
                      WITNESS_Q_BINARY, projective_candidates, we)
from oracles import (block_matrix, bucket_tensor, character_structure_checks,
                     check_bucket_route, check_correction_block,
                     check_fourier_closed_form,
                     check_orth_translation_invariance, check_pairing_lemma,
                     check_transform_routes, check_transport,
                     check_zeta_independence, correction_block, dense,
                     dense_mismatches, dense_state_colours, dual_side_witness,
                     entry_we,
                     entry_multisets_equal,
                     entrywise, enumerate_vectors, fourier_conjugate,
                     fraction_entry,
                     int_matrix, matrix01, negation_perm, orth_mask, output_kernel,
                     padded, pairing_codes, primal_side_witness,
                     random_minimal_encoder, scaled_dual, sides, state_pairing_matrix,
                     state_perm,
                     transform_denom, vec_dot, we_of_affine)

PINNED = Path(__file__).resolve().parents[1] / "bench" / "pinned"


def test_character_grid_golden(f2):
    E = trace_exponents(f2, 3)
    assert np.where(E == 0, 1, -1).tolist() == CHAR_GRID_2_3
    assert E.dtype == np.int64 and not E.flags.writeable


def test_character_grid_degree_zero(f2):
    E = trace_exponents(f2, 0)
    assert E.shape == (1, 1)
    assert E[0, 0] == 0  # the 1x1 grid [1]


def test_character_grid_ternary(f3):
    # entry (x, y) is the character exponent x*y mod 3
    assert trace_exponents(f3, 1).tolist() == [[0, 0, 0], [0, 1, 2], [0, 2, 1]]


@pytest.mark.parametrize("spec,delta", [
    ((2, 1, None), 1), ((2, 1, None), 2), ((2, 1, None), 3),
    ((3, 1, None), 1), ((3, 1, None), 2),
    ((2, 2, [1, 1, 1]), 1),
])
def test_character_structure_checks(spec, delta):
    p, s, mod = spec
    field = FieldSpec(p, s, mod)
    character_structure_checks(field, delta)
    if p > 2:
        character_structure_checks(field, delta, zeta_exponent=2)


def test_character_structure_with_permutation(f2, f3):
    q = int_matrix(f2, WITNESS_Q_BINARY)
    character_structure_checks(f2, 3, P=q)
    p3 = int_matrix(f3, [[1, 1], [1, 2]])
    character_structure_checks(f3, 2, P=p3)


def test_fourier_entry_golden(binary_pair):
    fm = fourier_transform(binary_pair.adj, binary_pair.cf)
    scaled = we("1+5W+10W^2+10W^3+5W^4+W^5")
    expected = tuple(Fraction(c, 8) for c in padded(scaled, 5))
    assert fraction_entry(fm, 8, 0, 0) == expected


def test_fourier_crosscheck_and_invariance(binary_pair, ternary_pair):
    for pair in (binary_pair, ternary_pair):
        for _, cf, adj, fm in sides(pair):
            check_fourier_closed_form(fm, adj, cf)
            check_orth_translation_invariance(fm, cf)
        check_transform_routes(pair)


def test_fourier_vanishes_off_kernel_orthogonal(binary_523, binary_523_dual):
    # swap roles so the kernel is nontrivial: dim 2, orthogonal dim 4
    pair = DualPair(binary_523_dual, binary_523)
    kernel = output_kernel(pair.cf)
    assert kernel.dim == 2
    fm = dense(fourier_transform(pair.adj, pair.cf))
    zero_cells = int(np.all(fm == 0, axis=2).sum())
    assert zero_cells == 64 - 2 ** 4
    mask = orth_mask(pair.field, pairing_codes(pair.field, pair.delta), kernel.basis)
    for i in range(8):
        for j in range(8):
            if not mask[i, j]:
                assert not fm[i, j].any()


def test_fourier_bucket_collapse(ternary_pair):
    """Before the collapse, every entry is a sum of p-th roots of unity,
    bucketed by exponent: buckets 1..p-1 agree, so each entry is the
    rational b_0 - b_(p-1)."""
    rng = random.Random(5)
    for pair in (ternary_pair, DualPair(random_minimal_encoder(rng, FieldSpec(5), 3, 1, 1))):
        p, fm = pair.field.p, fourier_transform(pair.adj, pair.cf)
        E = trace_exponents(pair.field, pair.delta)
        buckets = bucket_tensor(pair.adj.dense_coefficients(), E, p)
        assert buckets.shape[0] == p
        for j in range(1, p - 1):
            assert np.array_equal(buckets[j], buckets[p - 1])
        assert np.array_equal(buckets[0] - buckets[p - 1], dense(fm))


@pytest.mark.parametrize("spec,rows,m,m_dual", [
    ((3,), [["1", "2", "1"]], 0, 0),
    ((2,), [["1+z+z^2", "1+z^2", "1"]], 3, 4),
    ((2,), BINARY_523_DUAL, 6, 4),
    ((2, 2, [1, 1, 1]), [["[0,1]z+[1,1]z^2", "[1,1]+[0,1]z+[1,1]z^2", "[0,1]+z+z^2"]], 3, 4),
    ((2, 3, [1, 1, 0, 1]), [["[0,0,1]z+[1,1,1]z^2", "[0,1,1]+[0,0,1]z+[1,1,1]z^2",
                             "[1,0,1]+[1,1,0]z+[0,1,0]z^2"]], 3, 4),
    ((3, 2, [2, 2, 1]), [["[1,1]z+[2,2]z^2", "[1,2]+[0,2]z+[1,1]z^2",
                          "[1,2]+[2,1]z+[0,1]z^2"]], 3, 4),
    ((127,), [["1+z", "1"]], 2, 2),
    ((3,), [["1+z+z^2", "1+2z^2", "1"]], 3, 4),
    ((5,), [["1+z+z^2", "1+2z^2", "1"]], 3, 4),
    ((7,), [["1+z+z^2", "1+3z", "2"]], 3, 4),
    ((11,), [["1+z", "1"]], 2, 2),
], ids=["delta0-m0", "odd-m", "m-2delta", "gf4-odd-m", "gf8-odd-m", "gf9-odd-m",
        "gf127-delta1", "gf3-odd-m", "gf5-odd-m", "gf7-odd-m", "gf11-delta1"])
def test_fourier_transform_matches_bucket_product(spec, rows, m, m_dual):
    """The Fourier transform on the m-dim connected pairs equals the dense
    bucket product on both sides: at m = 0 (delta = 0), at odd m, where the
    two halves of the coefficient space differ in size, at m = 2 delta,
    over extension fields, and over GF(p) for p = 3 to 127, where the
    terms of trace e != 0 come from one product summed over F_p^* orbits.  The transform reads the
    sorted counts as span-coefficient order, which they are."""
    pair = DualPair(PolyMatrix.from_strings(FieldSpec(*spec), rows))
    assert (connected_pairs(pair.cf).dim, connected_pairs(pair.cf_dual).dim) == (m, m_dual)
    for _, cf, adj, fm in sides(pair):
        assert np.array_equal(adj.index, connected_pairs(cf).point_indices())
        check_bucket_route(fm, adj)


def test_transformed_entry_census(binary_pair, ternary_pair):
    # counts of special values in the transformed grid, before reordering
    for pair in (binary_pair, ternary_pair):
        q = pair.field.q
        delta = pair.delta
        r = pair.cf.r
        r_hat = pair.r_dual
        t = entrywise(pair)  # entrywise transform of the conjugation
        dual_const = constant_code(pair.cf_dual)
        target = we_of_affine(pair.field, (0,) * pair.n, dual_const.basis)
        zeros = 0
        equal_const = 0
        size = t.shape[0]
        for i in range(size):
            for j in range(size):
                vals = fraction_entry(t, transform_denom(pair), i, j)
                if not any(vals):
                    zeros += 1
                elif all(v.denominator == 1 for v in vals) and \
                        WePoly([int(v) for v in vals]) == target:
                    equal_const += 1
        assert zeros == q ** (2 * delta) - q ** (delta + r_hat)
        assert equal_const == q ** (delta - r)


def test_transformed_degree_zero_is_block_dual(f2):
    # for a constant code the whole transform collapses to the block
    # enumerator identity, checked against brute-force dual enumeration
    G = PolyMatrix.from_strings(f2, [["1", "0", "1"], ["0", "1", "1"]])
    pair = DualPair(G)
    t = dense(pair.transformed)
    assert t.shape == (1, 1, 4)
    dual_counts = [0] * 4
    for v in enumerate_vectors(f2, 3):
        if all(vec_dot(v, tuple(f2.element(c) for c in row)) == f2.zero
               for row in ([1, 0, 1], [0, 1, 1])):
            dual_counts[sum(1 for a in v if a)] += 1
    assert entry_we(t, transform_denom(pair), 0, 0) == WePoly(dual_counts)


def test_zeta_independence(ternary_pair):
    assert check_zeta_independence(ternary_pair)
    # and the conjugated grids at both roots agree entry by entry
    other = fourier_conjugate(ternary_pair.adj, zeta_exponent=2)
    assert np.array_equal(dense(other),
                          dense(fourier_transform(ternary_pair.adj, ternary_pair.cf)))


def test_pairing_matrix_golden(binary_pair):
    M = binary_pair.pairing
    assert M == state_pairing_matrix(binary_pair.cf, binary_pair.cf_dual)
    assert M.nrows == M.ncols == 6
    assert check_pairing_lemma(binary_pair) == 4  # r + r_hat = 1 + 3


def test_pairing_lemma_and_transport(binary_pair, ternary_pair):
    for pair in (binary_pair, ternary_pair):
        check_pairing_lemma(pair)
        checked = check_transport(pair)
        assert checked == pair.field.q ** (pair.delta + pair.cf_dual.r)


def test_transport_zero_pair(binary_pair):
    # the zero pair maps to the zero pair, giving the block-style entry
    t = entrywise(binary_pair)
    lhs = dense(scaled_dual(binary_pair))[0, 0]
    assert np.array_equal(lhs, t[0, 0])


def test_weak_identity(binary_pair, ternary_pair):
    for pair in (binary_pair, ternary_pair):
        report = check_weak_identity(pair)
        assert report.entries_checked == pair.field.q ** (2 * pair.delta)
        assert entry_multisets_equal(pair)


@pytest.mark.parametrize("doc,swap,corrections,completion,entries", [
    ([["1", "1"]], False, 0, 0, 1),
    ("grid/05-q9-n4k2d2.json", False, 0, 0, 6561),
    ("grid/01-q3-n6k2d4.json", False, 2, 0, 6561),
    ("grid/01-q3-n6k2d4.json", True, 0, 2, 6561),
    ("search/02-q3-n4k2d3.json", False, 1, 1, 729),
], ids=["delta0", "r-rhat-delta", "rhat-delta", "swapped", "both-parts"])
def test_weak_identity_map_parts(doc, swap, corrections, completion, entries):
    """The reordering map adds the delta - r rows of the pair orthogonal to
    as many pairing images and completes the delta - r_hat directions off
    the dual's connected pairs with unit vectors; with either part empty
    or not it carries the transform onto the dual at every entry."""
    G = (PolyMatrix.from_strings(FieldSpec(2), doc) if isinstance(doc, list)
         else CodeDocument.from_path(str(PINNED / doc)).generator)
    pair = DualPair(dual_generator(G), G) if swap else DualPair(G)
    assert connected_pairs_orth(pair.cf).dim == corrections
    assert 2 * pair.delta - connected_pairs(pair.cf_dual).dim == completion
    assert check_weak_identity(pair).entries_checked == entries


def test_closed_form_witness_dual_golden(binary_pair):
    Q = closed_form_witness_dual(binary_pair)
    assert Q.to_int_rows() == WITNESS_Q_BINARY
    assert [list(r) for r in matrix01(state_perm(Q))] == PERM_Q_BINARY


def test_full_identity_verified_entrywise(binary_pair):
    # recompute the conjugated identity with plain Fractions, all entries
    Q = closed_form_witness_dual(binary_pair)
    perm = state_perm(Q)
    t, denom = binary_pair.transformed, transform_denom(binary_pair)
    checked = 0
    for i in range(8):
        for j in range(8):
            lhs = padded(binary_pair.adj_dual.entry(i, j), 5)
            rhs = fraction_entry(t, denom, perm[i], perm[j])
            assert tuple(Fraction(c) for c in lhs) == rhs
            checked += 1
    assert checked == 64


def test_closed_form_witness_primal_roles_swapped(binary_pair,
                                                  binary_523, binary_523_dual):
    swapped = DualPair(binary_523_dual, binary_523)
    P = closed_form_witness_primal(swapped)
    assert P.is_invertible()
    ok, mism = check_witness(swapped, P)
    assert ok and mism == 0


def test_closed_form_witness_primal_binary_degree_two(f2):
    # a (3,2,2) binary code with row degrees (1,1) keeps the primal route
    rng = random.Random(31)
    found = 0
    while found < 3:
        G = random_minimal_encoder(rng, f2, 3, 2, 2)
        pair = DualPair(G)
        if pair.cf.profile.forney_indices != (1, 1):
            continue
        found += 1
        P = closed_form_witness_primal(pair)
        ok, mism = check_witness(pair, P)
        assert ok and mism == 0


def test_closed_form_preconditions(ternary_pair):
    with pytest.raises(ValueError, match="dual Forney"):
        closed_form_witness_dual(ternary_pair)
    with pytest.raises(ValueError, match="Forney"):
        closed_form_witness_primal(ternary_pair)


def test_correction_block_rejects_perturbations(f3):
    # (3,1) delta=2 over GF(3) with r = 1 and r_hat = 2: Q = diag(1, 2)
    pair = DualPair(PolyMatrix.from_strings(f3, [["2+2z+2z^2", "2+z^2", "2z"]]))
    Q = closed_form_witness_dual(pair)
    M1 = correction_block(pair)
    check_correction_block(pair, Q, M1)
    swapped = FMat(f3, 2, 2, [Q.rows[1], Q.rows[0]])
    with pytest.raises(InternalCheckError, match="not the rotation block"):
        check_correction_block(pair, swapped)
    bump = FMat(f3, 4, 4, [[0] * 4, [0] * 4, [0] * 4, [0, 0, 0, 1]])
    with pytest.raises(InternalCheckError, match="not the rotation block"):
        check_correction_block(pair, Q, M1 + bump)
    # a block that completes the swapped Q to the rotation leaves the
    # pair orthogonal
    zero = FMat.zero(f3, 2, 2)
    rotation = block_matrix(f3, [[zero, swapped], [-swapped, zero]])
    with pytest.raises(InternalCheckError, match="leaves the pair orthogonal"):
        check_correction_block(pair, swapped, rotation - pair.pairing)
    assert check_witness(pair, swapped)[0] is False


def test_projective_candidates_counts(f2, f3):
    assert len(list(projective_candidates(f3, 2))) == 24
    assert len(list(projective_candidates(f2, 3))) == 168
    assert len(list(projective_candidates(f2, 0))) == 1


def test_search_finds_ternary_witness(ternary_pair):
    result = search_witness(ternary_pair)
    assert result.witness is not None
    assert result.witness.to_int_rows() == WITNESS_P_TERNARY
    assert result.tested == 16
    ok, mism = check_witness(ternary_pair,
                             int_matrix(ternary_pair.field,
                                                WITNESS_P_TERNARY))
    assert ok and mism == 0


def test_search_agrees_with_closed_form(binary_pair):
    result = search_witness(binary_pair)
    assert result.witness is not None
    assert result.tested == 109
    ok, _ = check_witness(binary_pair, result.witness)
    assert ok
    Q = closed_form_witness_dual(binary_pair)
    okq, _ = check_witness(binary_pair, Q)
    assert okq


def test_check_witness_rejects_wrong_matrix(ternary_pair, f3):
    wrong = int_matrix(f3, [[1, 0], [0, 1]])
    ok, mism = check_witness(ternary_pair, wrong)
    assert not ok and mism > 0
    with pytest.raises(ValueError):
        check_witness(ternary_pair, FMat.zero(f3, 2, 2))


def test_unit_memory(f2, f3):
    for field, rows in [(f2, [["1+z", "1"]]), (f3, [["1+z", "2", "1"]])]:
        pair = DualPair(PolyMatrix.from_strings(field, rows))
        assert check_unit_memory(pair) == field.q ** 2
    big = DualPair(PolyMatrix.from_strings(f2, [["1", "1", "0"], ["0", "1", "1"]]))
    with pytest.raises(ValueError):
        check_unit_memory(big)


def test_unit_memory_both_closed_forms_agree(f3):
    pair = DualPair(PolyMatrix.from_strings(f3, [["1+z", "2", "1"]]))
    Q = closed_form_witness_dual(pair)
    P = closed_form_witness_primal(pair)
    assert Q.is_invertible() and P.is_invertible()


def _closed_form_agreement(pairs) -> Counter:
    """Compare both public closed forms with the paper's products wherever
    they apply; count the pairs compared on each side, and the primal-side
    ones whose dual has an index >= 2, where A_hat != 0 and
    W = (B_hat^t D_hat + A_hat^t C_hat) C^t needs its second term."""
    seen = Counter()
    for pair in pairs:
        if pair.r_dual == pair.delta:
            assert closed_form_witness_dual(pair) == dual_side_witness(pair)
            seen["dual"] += 1
        if pair.cf.r == pair.delta:
            assert closed_form_witness_primal(pair) == primal_side_witness(pair)
            seen["primal"] += 1
            seen["primal, dual index >= 2"] += max(pair.cf_dual.profile.forney_indices) >= 2
    return seen


def test_closed_forms_match_the_paper_products_on_the_corpus(corpus):
    seen = _closed_form_agreement(corpus)
    assert min(seen["dual"], seen["primal"], seen["primal, dual index >= 2"]) > 0


def test_closed_forms_match_the_paper_products_on_pinned_documents():
    paths = sorted(PINNED.glob("*/*.json"))
    assert len(paths) == 28
    seen = _closed_form_agreement(DualPair(CodeDocument.from_path(str(path)).generator)
                                  for path in paths)
    assert seen == {"dual": 15, "primal": 7, "primal, dual index >= 2": 0}


@pytest.mark.parametrize("spec", [(5,), (7,), (2, 3, [1, 1, 0, 1]), (3, 2, [2, 2, 1])],
                         ids=["q=5", "q=7", "q=8", "q=9"])
def test_closed_forms_match_the_paper_products_over_larger_fields(spec):
    """The fields of acceptance criterion 8, with (3, 2) and (4, 2) codes of
    indices (1, 1), whose duals have an index 2 or (1, 1)."""
    field = FieldSpec(*spec)
    rng = random.Random(field.q)
    shapes = [(3, 1, 1), (3, 2, 1), (3, 1, 2), (3, 2, 2), (4, 2, 2), (5, 2, 2), (4, 3, 3)]
    pairs = [DualPair(random_minimal_encoder(rng, field, n, k, delta))
             for n, k, delta in shapes for _ in range(3)]
    seen = _closed_form_agreement(pairs)
    assert min(seen["dual"], seen["primal"], seen["primal, dual index >= 2"]) > 0


def test_one_closed_form_check_per_pair(f3, monkeypatch):
    """W is built and checked once per pair: delta = 1 auto compares the
    grid twice (the unit-memory formula and W), and theorem-q then
    theorem-p on one pair compares it once."""
    calls = []
    real = duality._mismatches

    def counting(pair, moved):
        calls.append(pair)
        return real(pair, moved)

    monkeypatch.setattr(duality, "_mismatches", counting)
    G = PolyMatrix.from_strings(f3, [["1+z", "2", "1"]])
    report = run_verification(G)
    assert (report.theorem_used, report.verdict) == ("delta=1", "verified")
    assert len(calls) == 2
    calls.clear()
    pair = DualPair(G)
    Q, P = closed_form_witness_dual(pair), closed_form_witness_primal(pair)
    assert len(calls) == 1 and Q == -P


def test_scaled_witness_moves_the_transform_alike(corpus):
    """c W relabels the transform as W does for every c in F_q^*, since
    scaling every state leaves the transform and the dual adjacency matrix
    unchanged: the one check of W covers -W."""
    checked = 0
    for pair in corpus:
        if pair.cf.r == pair.delta:
            W = closed_form_witness_primal(pair)
        elif pair.r_dual == pair.delta:
            W = -closed_form_witness_dual(pair)
        else:
            continue
        f, moved = pair.field, duality._witness_moved(pair, W)
        for c in range(1, f.q):
            scaled = FMat(f, pair.delta, pair.delta, [f.scale(c, r) for r in W.rows])
            assert np.array_equal(dense(duality._witness_moved(pair, scaled)), dense(moved))
            perm = state_perm(FMat(f, pair.delta, pair.delta,
                                   [f.scale(c, r) for r in FMat.identity(f, pair.delta).rows]))
            target = dense(scaled_dual(pair))
            assert np.array_equal(target[np.ix_(perm, perm)], target)
        checked += 1
    assert checked > 0


def _pinned_pairs() -> list:
    paths = sorted(PINNED.glob("*/*.json"))
    assert len(paths) == 28
    return [DualPair(CodeDocument.from_path(str(path)).generator) for path in paths]


def test_table_comparison_matches_the_dense_one_on_pinned_documents(monkeypatch):
    """The two-part comparison of (rows, grid) tables finds the pairs that
    a comparison of every coefficient of every pair finds, in row-major
    order: for W, for the weak identity's reordered transform, and for 20
    random invertible witnesses per pinned document, which fail both on
    the dual's support and off it; ``check_witness`` counts them."""
    moved = []
    monkeypatch.setattr(duality, "_require", lambda pair, table, identity: moved.append(table))
    rng, kinds = random.Random(23), Counter()
    for pair in _pinned_pairs():
        f, d = pair.field, pair.delta
        moved.clear()
        check_weak_identity(pair)
        try:
            pair.closed_form   # W, checked through the patched _require
        except InternalCheckError:   # W is singular: no table to compare
            pass
        for table in moved:
            reference = dense_mismatches(scaled_dual(pair), table)
            assert np.array_equal(duality._mismatches(pair, table), reference)
            kinds["W or weak map", len(reference) > 0] += 1
        for _ in range(20):
            P = FMat(f, d, d, [[f.element(rng.randrange(f.q)) for _ in range(d)]
                               for _ in range(d)])
            if not P.is_invertible():
                continue
            table = duality._witness_moved(pair, P)
            reference = dense_mismatches(scaled_dual(pair), table)
            assert np.array_equal(duality._mismatches(pair, table), reference)
            assert check_witness(pair, P) == (len(reference) == 0, len(reference))
            on_support = dense(scaled_dual(pair))[tuple(reference.T)].any(axis=1)
            kinds["on the support"] += int(on_support.sum())
            kinds["off the support"] += int((~on_support).sum())
    assert kinds["on the support"] > 0 and kinds["off the support"] > 0
    # the weak map fits all 28; W is no witness on some codes past its closed forms
    assert kinds["W or weak map", False] >= 28 and kinds["W or weak map", True] > 0


def test_state_colours_match_the_dense_hashes(corpus):
    """Hashing each distinct row once and gathering through the grid gives
    the colours of hashing every pair of the dense tensor; on the dual,
    hashing its own counts and scaling the hash gives those of the scaled
    dual."""
    for pair in corpus + _pinned_pairs():
        rows, grid = pair.transformed
        assert np.array_equal(duality._state_colours(duality._row_hashes(rows)[grid]),
                              dense_state_colours(dense(pair.transformed)))
        assert np.array_equal(duality._state_colours(duality._dual_hashes(pair)),
                              dense_state_colours(dense(scaled_dual(pair))))


def test_run_verification_auto_modes(binary_523, ternary_322, f2):
    rep = run_verification(binary_523)
    assert rep.theorem_used == "rhat=delta"
    assert rep.verdict == "verified"
    assert rep.entry_mismatch_count == 0
    rep3 = run_verification(ternary_322)
    assert rep3.theorem_used == "conjecture-search"
    assert rep3.verdict == "verified"
    assert rep3.witness == WITNESS_P_TERNARY
    unit = run_verification(PolyMatrix.from_strings(f2, [["1+z", "1"]]))
    assert unit.theorem_used == "delta=1"
    assert unit.verdict == "verified"
    block = run_verification(PolyMatrix.from_strings(f2, [["1", "1", "0"],
                                                          ["0", "1", "1"]]))
    assert block.verdict == "verified"
    assert block.witness == []


def test_run_verification_explicit_modes(binary_523, ternary_322):
    weak = run_verification(binary_523, mode="weak")
    assert weak.theorem_used == "multiset-only" and weak.verdict == "verified"
    search = run_verification(ternary_322, mode="search")
    assert search.verdict == "verified"
    with pytest.raises(ValueError):
        run_verification(ternary_322, mode="theorem-q")
    with pytest.raises(ValueError):
        run_verification(binary_523, mode="unit-memory")
    with pytest.raises(ValueError):
        run_verification(binary_523, mode="nonsense")


def test_run_verification_witness_check(ternary_322, f3):
    good = int_matrix(f3, WITNESS_P_TERNARY)
    rep = run_verification(ternary_322, witness=good)
    assert rep.verdict == "verified" and rep.theorem_used == "witness-check"
    bad = int_matrix(f3, [[1, 0], [0, 1]])
    rep2 = run_verification(ternary_322, witness=bad)
    assert rep2.verdict == "not-verified"
    assert rep2.entry_mismatch_count > 0


def test_report_json_shape(binary_523):
    rep = run_verification(binary_523)
    payload = rep.to_json_dict()
    assert set(payload) == {"profiles", "theorem_used", "witness", "verdict",
                            "entry_mismatch_count", "elapsed_ms", "details"}
    assert payload["profiles"]["code"]["forney_indices"] == [3, 0]
    assert payload["profiles"]["dual"]["forney_indices"] == [1, 1, 1]
    assert payload["profiles"]["code"]["r_hat"] == 3
    assert payload["profiles"]["dual"]["r_hat"] == 1


def test_guards(binary_523):
    with pytest.raises(GuardExceeded):
        DualPair(binary_523, grid_limit=8)
    pair = DualPair(binary_523)
    with pytest.raises(GuardExceeded):
        search_witness(pair, limit=4)


def test_negation_perm_cached_and_involution(ternary_pair):
    neg = ternary_pair.neg_perm
    assert ternary_pair.neg_perm is neg
    assert np.array_equal(neg, negation_perm(ternary_pair.field, ternary_pair.delta))
    assert np.array_equal(neg[neg], np.arange(len(neg)))


def test_transform_int64_headroom(f2):
    n = 30
    rows = macwilliams_rows(n, 2)
    colsum = max(sum(abs(r[t]) for r in rows) for t in range(n + 1))
    neg = negation_perm(f2, 1)

    def synthetic(peak):   # the conjugated rows and index grid of a delta = 1 code
        return np.full((4, n + 1), peak, dtype=np.int64), np.arange(4).reshape(2, 2)

    peak = (2 ** 62 - 1) // colsum
    exact = [peak * sum(r[t] for r in rows) for t in range(n + 1)]
    image = dense(macwilliams_image(f2, *synthetic(peak), neg))
    assert image[0, 0].tolist() == exact
    assert image[1, 0].tolist() == exact
    for fm in (synthetic(peak + 1), synthetic(2 ** 40)):
        with pytest.raises(GuardExceeded, match="int64 headroom"):
            macwilliams_image(f2, *fm, neg)


def _reference_buckets(lam, E, p):
    size, _, nw = lam.shape
    out = [[[[0] * nw for _ in range(size)] for _ in range(size)] for _ in range(p)]
    for x, z, y, w in itertools.product(range(size), repeat=4):
        for t in range(nw):
            out[(E[x][z] + E[y][w]) % p][x][w][t] += int(lam[z, y, t])
    return out


def test_bucket_tensor_headroom(f2, f3):
    # random signed tensors against the Python-int reference
    rng = np.random.default_rng(5)
    for field, delta in ((f2, 2), (f3, 1)):
        E = trace_exponents(field, delta)
        lam = rng.integers(-50, 50, size=(len(E), len(E), 4))
        got = bucket_tensor(lam, E, field.p)
        assert got.tolist() == _reference_buckets(lam, E.tolist(), field.p)
    # four entries per column: the bound is 4 * peak, checked against 2^52
    E = trace_exponents(f2, 1).tolist()
    nw = 3
    peak = (2 ** 52 - 1) // 4
    lam = np.full((2, 2, nw), peak, dtype=np.int64)
    lam[0, 1, 1] = -peak
    got = bucket_tensor(lam, np.array(E), 2)
    assert got.tolist() == _reference_buckets(lam, E, 2)
    for lam in (np.full((2, 2, nw), peak + 1, dtype=np.int64),
                np.full((2, 2, nw), 2 ** 61, dtype=np.int64)):
        with pytest.raises(GuardExceeded, match="float64 headroom"):
            bucket_tensor(lam, np.array(E), 2)


@pytest.mark.parametrize("name", ["binary_pair", "ternary_pair"])
def test_fourier_transform_headroom(request, name):
    """The production transform refuses counts whose largest column sum of
    |lam| reaches 2^52; one unit below, it still equals the bucket product.
    The counts are a real pair's, scaled, on its own support."""
    pair = request.getfixturevalue(name)
    adj = pair.adj
    sums = np.abs(adj.counts).sum(axis=0)
    t = int(sums.argmax())
    below = adj.counts * ((2 ** 52 - 1) // int(sums[t]))
    below[0, t] += 2 ** 52 - 1 - below[:, t].sum()   # column t sums to 2^52 - 1
    at = below.copy()
    at[0, t] += 1
    for counts, fires in ((below, False), (at, True)):
        scaled = AdjMatrix(adj.field, adj.n, adj.delta, adj.index, counts)
        assert int(np.abs(scaled.counts).sum(axis=0).max()) == 2 ** 52 - 1 + fires
        if fires:
            with pytest.raises(GuardExceeded, match="float64 headroom"):
                fourier_transform(scaled, pair.cf)
        else:
            check_bucket_route(fourier_transform(scaled, pair.cf), scaled)


@pytest.mark.parametrize("source", [
    "grid/05-q9-n4k2d2.json",
    [["z" if j == i else "1" if j == i + 1 else "0" for j in range(7)] for i in range(6)],
], ids=["gf9-m4", "dual-of-1-to-z6-m12"])
def test_fourier_transform_holds_its_output_and_a_few_columns(source):
    """The transform streams over the weight coefficients: besides its
    rows and index grid it holds at most twelve coefficient columns of q^m
    values (the masks, the orbit labels and one pass's temporaries), not
    copies of the whole (q^m, n+1) counts.  GF(9) delta = 2 has m = 4, and
    the dual of [1, z, ..., z^6] (binary, delta = 6) m = 12."""
    if isinstance(source, str):
        G = CodeDocument.from_path(str(PINNED / source)).generator
    else:
        G = PolyMatrix.from_strings(FieldSpec(2), source)
    pair = DualPair(G)
    adj = pair.adj   # built before the measurement
    tracemalloc.start()
    try:
        rows, at = fourier_transform(adj, pair.cf)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    column = len(adj.counts) * 8
    assert rows.shape == adj.counts.shape and len(adj.counts) in (9 ** 4, 2 ** 12)
    assert peak < rows.nbytes + at.nbytes + 12 * column
