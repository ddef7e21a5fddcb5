"""Acceptance gate: each criterion runs at zero tolerance (bit-exact) and
prints one PASS line (visible with ``pytest -s``)."""

import json
import random
import time
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from convmacw import (DualPair, FieldSpec, FMat, PolyMatrix, Subspace, WePoly,
                      adjacency_by_cosets, adjacency_by_transitions,
                      check_unit_memory, check_weak_identity, check_witness,
                      closed_form_witness_dual, closed_form_witness_primal,
                      coefficient_code, constant_code, controller_form,
                      dual_generator, run_verification, search_witness)
from convmacw.cli import CodeDocument
from convmacw.duality import fourier_transform, trace_exponents
from conftest import (ADJ_BINARY_523, ADJ_BINARY_523_DUAL, CHAR_GRID_2_3,
                      PERM_Q_BINARY, WITNESS_P_TERNARY, WITNESS_Q_BINARY,
                      projective_candidates, we)
from oracles import (character_structure_checks, check_bucket_route,
                     check_connected_pairs_orth, check_constant_code,
                     check_controller_structure, check_correction_block,
                     check_fourier_closed_form, check_orth_translation_invariance,
                     check_pairing_lemma, check_side_routes, check_transfer,
                     check_transform_routes, check_transport,
                     check_zeta_independence, coefficient_matrix, entry_sums,
                     entry_multisets_equal, entry_we, entrywise,
                     enumerate_vectors,
                     fraction_entry, index_grid, int_matrix, matrix01, max_degree,
                     negation_perm, padded,
                     random_minimal_encoder, same_code, sides,
                     state_pairing_matrix, state_perm, transform_denom, vec_dot,
                     we_of_affine)


def _stamp(name: str, started: float, bound: float | None = None) -> None:
    elapsed = time.perf_counter() - started
    if bound is not None:
        assert elapsed < bound, f"{name} took {elapsed:.2f}s (bound {bound}s)"
    print(f"ACCEPTANCE {name}: PASS ({elapsed * 1000:.0f} ms)")


def test_criterion_1_adjacency_matrix_golden(binary_523):
    started = time.perf_counter()
    adj = adjacency_by_cosets(controller_form(binary_523))
    for i in range(8):
        for j in range(8):
            assert adj.entry(i, j) == we(ADJ_BINARY_523[i][j]), (i, j)
    assert adj.entry(3, 1) == we("W^2+W^3")
    assert adj.entry(0, 0) == we("1+W^3")
    _stamp("1 (adjacency matrix golden, 64 positions)", started, 1.0)


def test_criterion_2_dual_adjacency_golden(binary_523, binary_523_dual):
    started = time.perf_counter()
    computed = dual_generator(binary_523)
    assert same_code(computed, binary_523_dual)
    adj = adjacency_by_cosets(controller_form(binary_523_dual))
    for i in range(8):
        for j in range(8):
            assert adj.entry(i, j) == we(ADJ_BINARY_523_DUAL[i][j]), (i, j)
    primal = adjacency_by_cosets(controller_form(binary_523))
    assert primal.support_size() == 16
    assert adj.support_size() == 64
    assert sum(1 for w in adj.entries.values() if w == we("1")) == 4
    _stamp("2 (dual adjacency golden + entry counts)", started, 1.0)


def test_criterion_3_character_grid_and_permutation(f2):
    started = time.perf_counter()
    assert np.where(trace_exponents(f2, 3) == 0, 1, -1).tolist() == CHAR_GRID_2_3
    q_matrix = int_matrix(f2, WITNESS_Q_BINARY)
    assert [list(r) for r in matrix01(state_perm(q_matrix))] == PERM_Q_BINARY
    _stamp("3 (character grid and witness permutation goldens)", started, 1.0)


def test_criterion_4_main_identity_on_demo_pair(binary_pair):
    started = time.perf_counter()
    Q = closed_form_witness_dual(binary_pair)
    assert Q.to_int_rows() == WITNESS_Q_BINARY
    perm = state_perm(Q)
    t, denom = binary_pair.transformed, transform_denom(binary_pair)
    checked = 0
    for i in range(8):
        for j in range(8):
            lhs = tuple(Fraction(c)
                        for c in padded(binary_pair.adj_dual.entry(i, j), 5))
            assert lhs == fraction_entry(t, denom, perm[i], perm[j]), (i, j)
            checked += 1
    assert checked == 64
    _stamp("4 (main identity, 64 exact entry equalities)", started, 5.0)


def test_criterion_5_projective_search_ternary(ternary_pair):
    started = time.perf_counter()
    reps = list(projective_candidates(ternary_pair.field, 2))
    assert len(reps) == 24
    result = search_witness(ternary_pair)
    assert result.witness is not None
    paper_witness = int_matrix(ternary_pair.field, WITNESS_P_TERNARY)
    ok, mismatches = check_witness(ternary_pair, paper_witness)
    assert ok and mismatches == 0
    _stamp("5 (projective search + pinned witness validation)", started, 5.0)


# -- criterion 6: randomized property suite, zero failures tolerated --------

def test_criterion_6_corpus_shape(corpus):
    started = time.perf_counter()
    by_field = {}
    for pair in corpus:
        by_field.setdefault(pair.field.q, []).append(pair)
        assert 2 <= pair.n <= 5
        assert 1 <= pair.k < pair.n
        assert 0 <= pair.delta <= 3
    assert len(by_field[2]) >= 50
    assert len(by_field[3]) >= 50
    assert len(by_field[4]) >= 50
    assert all(p.delta <= 1 for p in by_field[4])
    _stamp("6 corpus (>= 50 codes per field configuration)", started)


def test_criterion_6a_controller_form_identities(corpus):
    started = time.perf_counter()
    for pair in corpus:
        for cf in (pair.cf, pair.cf_dual):
            f, d, k, r = cf.field, cf.delta, cf.k, cf.r
            assert cf.A @ cf.B.transpose() == FMat.zero(f, d, k)
            bbt = cf.B @ cf.B.transpose()
            assert bbt.to_int_rows() == [
                [1 if i == j and i < r else 0 for j in range(k)]
                for i in range(k)]
            btb = (cf.B.transpose() @ cf.B).to_int_rows()
            ata = (cf.A.transpose() @ cf.A).to_int_rows()
            aat = (cf.A @ cf.A.transpose()).to_int_rows()
            for i in range(d):
                for j in range(d):
                    assert btb[i][j] == (1 if i == j and i in cf.block_starts else 0)
                    assert ata[i][j] == (1 if i == j and i not in cf.block_starts else 0)
                    assert aat[i][j] == (1 if i == j and i not in cf.block_ends else 0)
            assert (cf.A.transpose() @ cf.A) + (cf.B.transpose() @ cf.B) == \
                FMat.identity(f, d)
            check_controller_structure(cf)
    _stamp("6a (controller form identities)", started)


def test_criterion_6b_transfer_reconstruction(corpus):
    started = time.perf_counter()
    for pair in corpus:
        for G, cf in ((pair.G, pair.cf), (pair.G_dual, pair.cf_dual)):
            rows = [G.rows[i] for i in cf.row_order]
            sortedG = PolyMatrix.from_rows(G.field, rows, G.ncols)
            assert coefficient_matrix(sortedG, 0) == cf.D
            power = FMat.identity(G.field, cf.delta)
            for level in range(1, max_degree(sortedG) + 1):
                assert coefficient_matrix(sortedG, level) == cf.B @ power @ cf.C
                power = power @ cf.A
            check_transfer(G, cf)
    _stamp("6b (transfer function reconstruction)", started)


def test_criterion_6c_adjacency_routes_agree(corpus):
    started = time.perf_counter()
    for pair in corpus:
        assert pair.adj == adjacency_by_transitions(pair.cf)
        assert pair.adj_dual == adjacency_by_transitions(pair.cf_dual)
    _stamp("6c (coset route equals transition oracle)", started)


def test_criterion_6d_entry_sums(corpus):
    started = time.perf_counter()
    for pair in corpus:
        entry_sums(pair.adj, pair.cf)
        entry_sums(pair.adj_dual, pair.cf_dual)
    _stamp("6d (transversal and total entry sums)", started)


def test_criterion_6e_block_code_dualities(corpus):
    started = time.perf_counter()
    for pair in corpus:
        cf, cfd = pair.cf, pair.cf_dual
        span, r_hat = coefficient_code(cf)
        span_d, r_hat_d = coefficient_code(cfd)
        assert span.orth() == constant_code(cfd)
        assert span_d.orth() == constant_code(cf)
        assert cfd.r == r_hat
        assert r_hat_d == cf.r
        d_rows = Subspace.from_rows(cf.field, cf.n, cf.D.rows)
        dhat_rows = Subspace.from_rows(cf.field, cf.n, cfd.D.rows)
        assert d_rows == dhat_rows.orth()
        for side in (cf, cfd):
            check_constant_code(side)
            check_connected_pairs_orth(side)
    _stamp("6e (crosswise block dualities and kernel identity)", started)


def test_criterion_6f_character_identities(corpus):
    started = time.perf_counter()
    seen = set()
    for pair in corpus:
        key = (pair.field._key, pair.delta)
        if key in seen:
            continue
        seen.add(key)
        character_structure_checks(pair.field, pair.delta)
        # the transformed map reads the conjugation's at (-Y, X)
        neg = negation_perm(pair.field, pair.delta)
        at = fourier_transform(pair.adj, pair.cf)[1]
        assert np.array_equal(index_grid(pair.transformed[1]), index_grid(at)[neg].T)
    _stamp("6f (character matrix identities)", started)


def test_criterion_6g_conjugation_routes_and_invariance(corpus):
    started = time.perf_counter()
    for pair in corpus:
        for _, cf, adj, fm in sides(pair):
            check_bucket_route(fm, adj)
            check_fourier_closed_form(fm, adj, cf)
            check_orth_translation_invariance(fm, cf)
        check_transform_routes(pair)
        # census of the transformed entries
        q, d = pair.field.q, pair.delta
        t = entrywise(pair)
        zero_cells = int(np.all(t == 0, axis=2).sum())
        assert zero_cells == q ** (2 * d) - q ** (d + pair.r_dual)
        dual_const = constant_code(pair.cf_dual)
        target = we_of_affine(pair.field, (0,) * pair.n, dual_const.basis)
        target_arr = np.array(padded(target, pair.n), dtype=np.int64) * transform_denom(pair)
        const_cells = int(np.all(t == target_arr, axis=2).sum())
        assert const_cells == q ** (d - pair.cf.r)
    _stamp("6g (conjugation bucket product, closed form, invariance, census)", started)


def test_criterion_6h_pairing_and_transport(corpus):
    """The pairing, the Gram matrix of the two output maps, is the
    four-block matrix with a zero corner; the coefficient code's r_hat
    equals the dual's r, which the report prints."""
    started = time.perf_counter()
    for pair in corpus:
        assert coefficient_code(pair.cf)[1] == pair.cf_dual.r
        assert pair.pairing == state_pairing_matrix(pair.cf, pair.cf_dual)
        assert check_pairing_lemma(pair) == pair.cf.r + pair.cf_dual.r
        check_transport(pair)
    _stamp("6h (pairing matrix facts and transport identity)", started)


def test_criterion_6h_pinned_documents():
    started = time.perf_counter()
    paths = sorted((Path(__file__).resolve().parents[1] / "bench" / "pinned").glob("*/*.json"))
    assert len(paths) == 28
    for path in paths:
        pair = DualPair(CodeDocument.from_path(str(path)).generator)
        assert coefficient_code(pair.cf)[1] == pair.cf_dual.r
        assert pair.pairing == state_pairing_matrix(pair.cf, pair.cf_dual)
    _stamp("6h pinned (r_hat routes and pairing on the 28 pinned documents)", started)


def test_criterion_6i_weak_identity(corpus):
    started = time.perf_counter()
    for pair in corpus:
        check_weak_identity(pair)
        assert entry_multisets_equal(pair)
    _stamp("6i (weak identity with explicit reordering)", started)


def test_criterion_6j_closed_form_witnesses(corpus):
    """Every closed-form witness passes the full identity and the
    column-permutation identity of the character grid; every dual closed
    form, of the code and of its dual (the pair with roles swapped), has
    the correction block of the paper."""
    started = time.perf_counter()
    dual_side = primal_side = 0
    for pair in corpus:
        witnesses = []
        if pair.r_dual == pair.delta:
            Q = closed_form_witness_dual(pair)
            check_correction_block(pair, Q)
            witnesses.append(Q)
            dual_side += 1
        if pair.cf.r == pair.delta:
            P = closed_form_witness_primal(pair)
            swapped = DualPair(pair.G_dual, pair.G)
            check_correction_block(swapped, closed_form_witness_dual(swapped))
            witnesses.append(P)
            primal_side += 1
        for W in witnesses:
            ok, _ = check_witness(pair, W)
            assert ok
            character_structure_checks(pair.field, pair.delta, P=W)
    assert dual_side > 0 and primal_side > 0
    _stamp(f"6j (closed forms and correction blocks: {dual_side} dual-side, "
           f"{primal_side} primal-side)", started)


def test_criterion_6k_unit_memory(corpus):
    """The per-entry formula, and the identity matrix as a witness, on
    every degree-one code."""
    started = time.perf_counter()
    count = 0
    for pair in corpus:
        if pair.delta == 1:
            check_unit_memory(pair)
            ok, _ = check_witness(pair, FMat.identity(pair.field, 1))
            assert ok
            count += 1
    assert count > 0
    _stamp(f"6k (unit-memory formulas on {count} codes)", started)


def test_criterion_6l_zeta_independence(corpus):
    started = time.perf_counter()
    nontrivial = 0
    for pair in corpus:
        check_zeta_independence(pair)
        if pair.field.p > 2:
            nontrivial += 1
    assert nontrivial > 0
    _stamp("6l (primitive-root independence)", started)


def test_criterion_6_search_no_silent_outcomes(corpus):
    started = time.perf_counter()
    searched = 0
    for pair in corpus:
        if pair.r_dual < pair.delta and pair.cf.r < pair.delta:
            result = search_witness(pair)
            searched += 1
            if result.witness is None:
                report = {
                    "profiles": pair.profile_dicts(),
                    "generator": pair.G.to_strings(),
                    "candidates_tested": result.tested,
                    "verdict": "counterexample-candidate",
                }
                warnings.warn("projective search exhausted; see report: "
                              + json.dumps(report))
            else:
                ok, _ = check_witness(pair, result.witness)
                assert ok
    assert searched > 0
    _stamp(f"6 search ({searched} generic codes, all outcomes explicit)", started)


def test_criterion_7_block_code_degeneration():
    started = time.perf_counter()
    rng = random.Random(555)
    for q in (2, 3, 4):
        field = FieldSpec(2, 2, [1, 1, 1]) if q == 4 else FieldSpec(q)
        for trial in range(12):
            n = rng.randint(2, 6)
            k = n if trial == 0 else rng.randint(1, n - 1)
            G = random_minimal_encoder(rng, field, n, k, 0)
            pair = DualPair(G)
            transformed = entry_we(pair.transformed, transform_denom(pair), 0, 0)
            counts = [0] * (n + 1)
            gen_rows = [tuple(field.elements[p.coefficient(0)] for p in row)
                        for row in G.rows]
            for v in enumerate_vectors(field, n):
                if all(vec_dot(v, g) == field.zero for g in gen_rows):
                    counts[sum(1 for a in v if a)] += 1
            assert transformed == WePoly(counts)
            assert pair.adj_dual.entry(0, 0) == WePoly(counts)
    _stamp("7 (degree-zero codes reduce to block duality)", started)


@pytest.mark.parametrize("spec", [(5,), (7,), (2, 3, [1, 1, 0, 1]), (3, 2, [2, 2, 1])],
                         ids=["q=5", "q=7", "q=8", "q=9"])
def test_criterion_8_larger_fields_end_to_end(spec):
    """Random minimal encoders over GF(5), GF(7), GF(8) and GF(9) at
    delta <= 2 verify end to end; both adjacency routes agree, every
    second route holds on both sides (controller-form structure and
    transfer, constant code, pair orthogonal, the bucket product and the
    closed form of the conjugated matrix), the two transforms are one, and
    the weak identity and the transport identity hold."""
    started = time.perf_counter()
    field = FieldSpec(*spec)
    rng = random.Random(field.q)
    shapes = [(3, 1, 1), (3, 2, 1), (3, 1, 2), (4, 2, 2), (5, 2, 2), (4, 2, 2)]
    for n, k, delta in shapes:
        G = random_minimal_encoder(rng, field, n, k, delta)
        assert run_verification(G).verdict == "verified"
        pair = DualPair(G)
        assert pair.adj == adjacency_by_transitions(pair.cf)
        assert pair.adj_dual == adjacency_by_transitions(pair.cf_dual)
        check_side_routes(pair)
        check_transform_routes(pair)
        check_weak_identity(pair)
        assert entry_multisets_equal(pair)
        check_transport(pair)
    _stamp(f"8 (GF({field.q}): {len(shapes)} codes verified end to end)", started)
