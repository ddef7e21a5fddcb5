import itertools
import random
from fractions import Fraction

import numpy as np
import pytest

from convmacw import (DualPair, FieldSpec, FMat, GuardExceeded, PolyMatrix,
                      WePoly, check_unit_memory, check_weak_identity,
                      check_witness, closed_form_witness_dual,
                      closed_form_witness_primal, run_verification,
                      search_witness, StatePermutation)
from convmacw.duality import (CharacterMatrix, FourierMatrix, PairGeometry,
                              _bucket_tensor,
                              check_orth_translation_invariance,
                              check_pairing_lemma, check_transport,
                              check_zeta_independence, entrywise_h,
                              fourier_conjugate, macwilliams_image,
                              state_pairing_matrix)
from convmacw.exact import macwilliams_rows
from convmacw.statespace import constant_code
from conftest import (CHAR_GRID_2_3, PERM_Q_BINARY, WITNESS_P_TERNARY,
                      WITNESS_Q_BINARY, projective_candidates, we)


def test_character_grid_golden(f2):
    charm = CharacterMatrix.build(f2, 3)
    assert [list(r) for r in charm.signed_grid()] == CHAR_GRID_2_3
    assert charm.scale_pow == -3


def test_character_grid_degree_zero(f2):
    charm = CharacterMatrix.build(f2, 0)
    assert charm.exponents.shape == (1, 1)
    assert charm.exponents[0, 0] == 0  # the 1x1 grid [1]


def test_character_grid_ternary(f3):
    charm = CharacterMatrix.build(f3, 1)
    # entry (x, y) is the character exponent x*y mod 3
    assert [[int(e) for e in row] for row in charm.exponents] == [
        [0, 0, 0], [0, 1, 2], [0, 2, 1]]


@pytest.mark.parametrize("spec,delta", [
    ((2, 1, None), 1), ((2, 1, None), 2), ((2, 1, None), 3),
    ((3, 1, None), 1), ((3, 1, None), 2),
    ((2, 2, [1, 1, 1]), 1),
])
def test_character_structure_checks(spec, delta):
    p, s, mod = spec
    field = FieldSpec(p, s, mod)
    CharacterMatrix.build(field, delta).structure_checks()
    if p > 2:
        CharacterMatrix.build(field, delta, zeta_exponent=2).structure_checks()


def test_character_structure_with_permutation(f2, f3):
    q = FMat.from_int_rows(f2, WITNESS_Q_BINARY)
    CharacterMatrix.build(f2, 3, P=q).structure_checks()
    p3 = FMat.from_int_rows(f3, [[1, 1], [1, 2]])
    CharacterMatrix.build(f3, 2, P=p3).structure_checks()


def test_fourier_entry_golden(binary_pair):
    fm = binary_pair.fourier
    scaled = we("1+5W+10W^2+10W^3+5W^4+W^5")
    expected = tuple(Fraction(c, 8) for c in scaled.padded(5))
    assert fm.entry(0, 0) == expected


def test_fourier_crosscheck_and_invariance(binary_pair, ternary_pair):
    for pair in (binary_pair, ternary_pair):
        fm = pair.fourier  # constructor already ran the closed-form crosscheck
        check_orth_translation_invariance(fm, pair.cf, pair.geometry)


def test_fourier_vanishes_off_kernel_orthogonal(binary_523, binary_523_dual):
    # swap roles so the kernel is nontrivial: dim 2, orthogonal dim 4
    pair = DualPair(binary_523_dual, binary_523)
    assert pair.kernel.dim == 2
    zero_cells = int(np.all(pair.fourier.numer == 0, axis=2).sum())
    assert zero_cells == 64 - 2 ** 4
    geom = pair.geometry
    orth_mask = geom.orth_mask(pair.kernel.basis)
    for i in range(8):
        for j in range(8):
            if not orth_mask[i, j]:
                assert not pair.fourier.numer[i, j].any()


def test_character_entry_cyclo(f3):
    charm = CharacterMatrix.build(f3, 1)
    from convmacw import root_power
    assert charm.entry_cyclo(1, 2) == root_power(3, 2)
    assert charm.entry_cyclo(0, 2) == root_power(3, 0)


def test_fourier_cyclopoly_view(ternary_pair):
    fm = ternary_pair.fourier
    size = fm.numer.shape[0]
    for i in range(size):
        for j in range(size):
            poly = fm.entry_cyclopoly(i, j)
            assert poly.is_rational()
            assert poly.demote(3) == fm.entry(i, j)


def test_transformed_entry_census(binary_pair, ternary_pair):
    # counts of special values in the transformed grid, before reordering
    for pair in (binary_pair, ternary_pair):
        q = pair.field.q
        delta = pair.delta
        r = pair.cf.r
        r_hat = pair.r_dual
        t = pair.entrywise  # entrywise transform of the conjugation
        dual_const = constant_code(pair.cf_dual)
        target = WePoly(we_of_affine_padded(dual_const, pair.n))
        zeros = 0
        equal_const = 0
        size = t.numer.shape[0]
        for i in range(size):
            for j in range(size):
                vals = t.entry(i, j)
                if not any(vals):
                    zeros += 1
                elif all(v.denominator == 1 for v in vals) and \
                        WePoly([int(v) for v in vals]) == target:
                    equal_const += 1
        assert zeros == q ** (2 * delta) - q ** (delta + r_hat)
        assert equal_const == q ** (delta - r)


def we_of_affine_padded(subspace, n):
    from convmacw import we_of_affine
    zero = (subspace.field.zero,) * n
    return we_of_affine(zero, subspace.basis).padded(n)


def test_transformed_degree_zero_is_block_dual(f2):
    # for a constant code the whole transform collapses to the block
    # enumerator identity, checked against brute-force dual enumeration
    G = PolyMatrix.from_strings(f2, [["1", "0", "1"], ["0", "1", "1"]])
    pair = DualPair(G)
    t = pair.transformed
    assert t.numer.shape == (1, 1, 4)
    dual_counts = [0] * 4
    from convmacw.field import enumerate_vectors
    from convmacw.linalg import vec_dot
    for v in enumerate_vectors(f2, 3):
        if all(vec_dot(v, tuple(f2.element(c) for c in row)) == f2.zero
               for row in ([1, 0, 1], [0, 1, 1])):
            dual_counts[sum(1 for a in v if a)] += 1
    assert t.entry_we(0, 0) == WePoly(dual_counts)


def test_zeta_independence(ternary_pair):
    assert check_zeta_independence(ternary_pair)
    # and the conjugated grids at both roots agree entry by entry
    other = fourier_conjugate(ternary_pair.adj, ternary_pair.cf,
                              zeta_exponent=2,
                              geom=ternary_pair.geometry)
    assert np.array_equal(other.numer, ternary_pair.fourier.numer)


def test_pairing_matrix_golden(binary_pair):
    M = state_pairing_matrix(binary_pair.cf, binary_pair.cf_dual)
    assert M.nrows == M.ncols == 6
    checks = check_pairing_lemma(binary_pair)
    assert checks.rank == 4  # r + r_hat = 1 + 3


def test_pairing_lemma_and_transport(binary_pair, ternary_pair):
    for pair in (binary_pair, ternary_pair):
        check_pairing_lemma(pair)
        checked = check_transport(pair)
        assert checked == pair.field.q ** (pair.delta + pair.cf_dual.r)


def test_transport_zero_pair(binary_pair):
    # the zero pair maps to the zero pair, giving the block-style entry
    t = binary_pair.entrywise
    lhs = binary_pair.dual_scaled[0, 0]
    assert np.array_equal(lhs, t.numer[0, 0])


def test_weak_identity(binary_pair, ternary_pair):
    for pair in (binary_pair, ternary_pair):
        report = check_weak_identity(pair)
        assert report.entries_checked == pair.field.q ** (2 * pair.delta)
        assert report.multiset_equal


def test_closed_form_witness_dual_golden(binary_pair):
    Q = closed_form_witness_dual(binary_pair)
    assert Q.to_int_rows() == WITNESS_Q_BINARY
    sp = StatePermutation(Q)
    assert [list(r) for r in sp.matrix01()] == PERM_Q_BINARY


def test_full_identity_verified_entrywise(binary_pair):
    # recompute the conjugated identity with plain Fractions, all entries
    Q = closed_form_witness_dual(binary_pair)
    perm = StatePermutation(Q).perm
    t = binary_pair.transformed
    checked = 0
    for i in range(8):
        for j in range(8):
            lhs = binary_pair.adj_dual.entry(i, j).padded(5)
            rhs = t.entry(perm[i], perm[j])
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
    from convmacw import random_minimal_encoder
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
                             FMat.from_int_rows(ternary_pair.field,
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
    wrong = FMat.from_int_rows(f3, [[1, 0], [0, 1]])
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
    good = FMat.from_int_rows(f3, WITNESS_P_TERNARY)
    rep = run_verification(ternary_322, witness=good)
    assert rep.verdict == "verified" and rep.theorem_used == "witness-check"
    bad = FMat.from_int_rows(f3, [[1, 0], [0, 1]])
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
        DualPair(binary_523, grid_limit=8).geometry
    pair = DualPair(binary_523)
    with pytest.raises(GuardExceeded):
        search_witness(pair, limit=4)


def test_geometry_reuse_and_negation(f3):
    geom = PairGeometry(f3, 2)
    assert geom.beta_codes.shape == (9, 9)
    for i in range(9):
        assert geom.neg_perm[geom.neg_perm[i]] == i


def test_transform_int64_headroom(f2):
    n = 30
    rows = macwilliams_rows(n, 2)
    colsum = max(sum(abs(r[t]) for r in rows) for t in range(n + 1))
    geom = PairGeometry(f2, 1)

    def synthetic(peak):
        numer = np.full((2, 2, n + 1), peak, dtype=np.int64)
        return FourierMatrix(f2, 1, n, numer, np.zeros((2, 2, 2, n + 1), np.int64))

    peak = (2 ** 62 - 1) // colsum
    exact = [peak * sum(r[t] for r in rows) for t in range(n + 1)]
    assert entrywise_h(synthetic(peak), 1).numer[0, 0].tolist() == exact
    assert macwilliams_image(synthetic(peak), 1, geom).numer[1, 0].tolist() == exact
    for fm in (synthetic(peak + 1), synthetic(2 ** 40)):
        with pytest.raises(GuardExceeded, match="int64 headroom"):
            entrywise_h(fm, 1)
        with pytest.raises(GuardExceeded, match="int64 headroom"):
            macwilliams_image(fm, 1, geom)


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
        E = PairGeometry(field, delta).trace_exp
        lam = rng.integers(-50, 50, size=(len(E), len(E), 4))
        got = _bucket_tensor(lam, E, field.p)
        assert got.tolist() == _reference_buckets(lam, E.tolist(), field.p)
    # four entries per column: the bound is 4 * peak, checked against 2^52
    E = PairGeometry(f2, 1).trace_exp.tolist()
    nw = 3
    peak = (2 ** 52 - 1) // 4
    lam = np.full((2, 2, nw), peak, dtype=np.int64)
    lam[0, 1, 1] = -peak
    got = _bucket_tensor(lam, np.array(E), 2)
    assert got.tolist() == _reference_buckets(lam, E, 2)
    for lam in (np.full((2, 2, nw), peak + 1, dtype=np.int64),
                np.full((2, 2, nw), 2 ** 61, dtype=np.int64)):
        with pytest.raises(GuardExceeded, match="float64 headroom"):
            _bucket_tensor(lam, np.array(E), 2)
