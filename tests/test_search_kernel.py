"""The int-code state-map kernel, the projective candidate arrays built on
it, and the block scan of the witness search, each against a plain
per-state reference kept here."""

import itertools
import math
import random

import numpy as np
import pytest

from convmacw import (DualPair, FieldSpec, FMat, StatePermutation,
                      random_minimal_encoder, search_witness)
from convmacw.duality import SEARCH_LIMIT, _cached_candidates
from convmacw.field import enumerate_vectors, span_indices, vector_index
from convmacw.linalg import vec_mat

GF4 = (2, 2, [1, 1, 1])
GF8 = (2, 3, [1, 1, 0, 1])
GF9 = (3, 2, [2, 2, 1])


def _field(spec):
    return FieldSpec(*spec) if isinstance(spec, tuple) else FieldSpec(spec)


def _reference_perm(P: FMat, delta: int) -> list[int]:
    return [vector_index(vec_mat(s, P)) for s in enumerate_vectors(P.field, delta)]


def _reference_candidates(field: FieldSpec, delta: int):
    """Every delta x delta matrix in lexicographic order of its flattened
    codes, kept when its first nonzero entry is 1 and it is invertible."""
    codes, perms = [], []
    for flat in itertools.product(range(field.q), repeat=delta * delta):
        if next((c for c in flat if c), None) != 1 and delta:
            continue
        rows = [[field.element(c) for c in flat[i * delta:(i + 1) * delta]]
                for i in range(delta)]
        P = FMat(field, delta, delta, rows)
        if P.is_invertible():
            codes.append(P.to_int_rows())
            perms.append(_reference_perm(P, delta))
    return codes, perms


@pytest.mark.parametrize("spec,delta", [
    (2, 0), (2, 1), (2, 2), (2, 3), (3, 1), (3, 2),
    (GF4, 2), (GF8, 2), (GF9, 2),
])
def test_candidate_arrays_match_reference(spec, delta):
    field = _field(spec)
    codes, perms = _cached_candidates(field, delta)
    ref_codes, ref_perms = _reference_candidates(field, delta)
    assert codes.shape == (len(ref_codes), delta, delta)
    assert codes.tolist() == ref_codes
    assert perms.tolist() == ref_perms


@pytest.mark.parametrize("spec", [2, 3, GF4, 5, 7, GF8, GF9])
def test_candidate_count_is_projective_linear_group_order(spec):
    field = _field(spec)
    q = field.q
    deltas = [d for d in range(1, 6) if q ** (d * d) <= SEARCH_LIMIT]
    assert deltas
    for delta in deltas:
        gl = math.prod(q ** delta - q ** i for i in range(delta))
        assert len(_cached_candidates(field, delta)[0]) == gl // (q - 1)


def test_candidate_arrays_are_read_only(f3):
    codes, perms = _cached_candidates(f3, 2)
    assert _cached_candidates(FieldSpec(3), 2)[0] is codes
    for arr in (codes, perms):
        with pytest.raises(ValueError):
            arr[0, 0] = 0


@pytest.mark.parametrize("spec", [257, (2, 9, [1, 0, 0, 0, 1, 0, 0, 0, 0, 1])])
def test_state_permutation_without_field_tables(spec):
    field = _field(spec)
    assert field._mul_t is None    # past the table size
    rng = random.Random(7)
    for _ in range(3):
        P = FMat(field, 1, 1, [[field.element(rng.randrange(1, field.q))]])
        assert list(StatePermutation(P).perm) == _reference_perm(P, 1)


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
            if P.is_invertible():
                assert list(StatePermutation(P).perm) == _reference_perm(P, delta)
            else:
                with pytest.raises(ValueError):
                    StatePermutation(P)


def test_state_images_rectangular(f4):
    # a 2 x 3 map sends F^2 into F^3; indices are canonical in F^3
    rows = [[1, 2, 0], [3, 1, 1]]
    P = FMat(f4, 2, 3, [[f4.element(c) for c in r] for r in rows])
    got = span_indices(f4, np.array(rows))
    assert got.tolist() == _reference_perm(P, 2)


def test_singular_and_misshapen_matrices_raise(f2, f4):
    a = f4.element(2)
    rank_one = FMat(f4, 2, 2, [[f4.one, a], [a, a * a]])
    for P in (FMat.zero(f2, 3, 3), FMat.from_int_rows(f2, [[1, 1], [1, 1]]),
              rank_one, FMat.from_int_rows(f2, [[1, 0, 0], [0, 1, 0]])):
        with pytest.raises(ValueError):
            StatePermutation(P)
    with pytest.raises(ValueError):
        StatePermutation(FMat.identity(f2, 2), 3)


def _reference_search(pair: DualPair):
    """Plain scan: one full comparison per candidate, in canonical order."""
    codes, _ = _cached_candidates(pair.field, pair.delta)
    for tested, rows in enumerate(codes.tolist(), start=1):
        P = FMat(pair.field, pair.delta, pair.delta,
                 [[pair.field.element(c) for c in r] for r in rows])
        perm = list(StatePermutation(P).perm)
        if np.array_equal(pair.dual_scaled,
                          pair.transformed.numer[np.ix_(perm, perm)]):
            return P, tested
    return None, len(codes)


def test_block_scan_matches_reference_scan(binary_pair, ternary_pair, f2, f3):
    pairs = [binary_pair, ternary_pair]
    rng = random.Random(2024)
    for field, n, delta in ((f2, 5, 3), (f2, 4, 2), (f3, 4, 2)):
        generic = []
        for _ in range(60):
            pair = DualPair(random_minimal_encoder(rng, field, n, 2, delta))
            if pair.r_dual < pair.delta and pair.cf.r < pair.delta:
                generic.append(pair)
            if len(generic) == 2:
                break
        assert generic
        pairs += generic
    for pair in pairs:
        result = search_witness(pair)
        ref_witness, ref_tested = _reference_search(pair)
        assert result.witness == ref_witness
        assert result.tested == ref_tested


def test_search_exhaustion_is_an_outcome(ternary_322, ternary_322_dual):
    pair = DualPair(ternary_322, ternary_322_dual)
    perturbed = pair.dual_scaled.copy()
    perturbed[0, 0, 0] += 1    # every linear map fixes state 0
    pair.dual_scaled = perturbed
    result = search_witness(pair)
    assert result.witness is None
    assert result.tested == len(_cached_candidates(pair.field, pair.delta)[0]) == 24
