import collections
import json
import random
import sys
from pathlib import Path

import pytest

from convmacw import (FieldSpec, FMat, PolyMatrix, Subspace, coefficient_code,
                      connected_pairs, connected_pairs_orth, constant_code,
                      controller_form, output_map)
from convmacw.cli import main
from convmacw.linalg import vec_mat
from conftest import BINARY_523, LONG_00
from oracles import (coefficient_matrix, enumerate_vectors, intersect, max_degree,
                     output_kernel, output_rep, pair_split, points,
                     random_minimal_encoder, vec_dot)


def _sub(field, ambient, int_rows):
    rows = [tuple(field.element(c) for c in r) for r in int_rows]
    return Subspace.from_rows(field, ambient, rows)


def test_controller_form_primal_golden(binary_523):
    cf = controller_form(binary_523)
    assert cf.A.to_int_rows() == [[0, 1, 0], [0, 0, 1], [0, 0, 0]]
    assert cf.B.to_int_rows() == [[1, 0, 0], [0, 0, 0]]
    assert cf.C.to_int_rows() == [[1, 0, 0, 0, 1], [0, 1, 1, 0, 0], [1, 0, 0, 0, 0]]
    assert cf.D.to_int_rows() == [[1, 0, 0, 1, 0], [1, 1, 0, 1, 0]]
    assert cf.block_starts == frozenset({0})
    assert cf.block_ends == frozenset({2})
    assert cf.row_order == (0, 1)


def test_controller_form_dual_golden(binary_523_dual):
    cf = controller_form(binary_523_dual)
    assert cf.A.to_int_rows() == [[0, 0, 0], [0, 0, 0], [0, 0, 0]]
    assert cf.B.to_int_rows() == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert cf.C.to_int_rows() == [[0, 1, 0, 1, 0], [0, 1, 1, 1, 0], [0, 0, 0, 0, 1]]
    assert cf.D.to_int_rows() == [[1, 0, 0, 1, 0], [0, 0, 0, 0, 1], [0, 0, 1, 0, 0]]
    assert cf.block_starts == frozenset({0, 1, 2})


def test_controller_form_degree_zero(f2):
    G = PolyMatrix.from_strings(f2, [["1", "0", "1"], ["0", "1", "1"]])
    cf = controller_form(G)
    assert cf.delta == 0
    assert cf.A.nrows == 0 and cf.C.nrows == 0
    assert cf.B.ncols == 0
    assert cf.D.to_int_rows() == [[1, 0, 1], [0, 1, 1]]


def test_structure_identities_random():
    rng = random.Random(11)
    for q in (2, 3):
        field = FieldSpec(q)
        for _ in range(15):
            n = rng.randint(2, 5)
            k = rng.randint(1, n - 1)
            delta = rng.choice([0, 1, 2, 3])
            cf = controller_form(random_minimal_encoder(rng, field, n, k, delta))
            # re-derive the shift-block identities independently
            assert cf.A @ cf.B.transpose() == FMat.zero(field, cf.delta, k)
            bbt = (cf.B @ cf.B.transpose()).to_int_rows()
            for i in range(k):
                for j in range(k):
                    assert bbt[i][j] == (1 if i == j and i < cf.r else 0)
            s = (cf.A.transpose() @ cf.A) + (cf.B.transpose() @ cf.B)
            assert s.to_int_rows() == [
                [1 if i == j else 0 for j in range(delta)] for i in range(delta)]


def test_constant_code_goldens(binary_523, binary_523_dual, f2):
    cf = controller_form(binary_523)
    assert constant_code(cf) == _sub(f2, 5, [[1, 1, 0, 1, 0]])
    cfd = controller_form(binary_523_dual)
    assert constant_code(cfd).dim == 0
    all_nonzero = controller_form(PolyMatrix.from_strings(f2, [["1+z", "1"]]))
    assert constant_code(all_nonzero).dim == 0


def test_coefficient_code_goldens(binary_523, binary_523_dual, f2):
    cf = controller_form(binary_523)
    span, r_hat = coefficient_code(cf)
    assert span == Subspace(f2, 5, FMat.identity(f2, 5).rows)
    assert r_hat == 3
    cfd = controller_form(binary_523_dual)
    span_d, r_hat_d = coefficient_code(cfd)
    assert span_d == _sub(f2, 5, [[0, 0, 1, 0, 0], [0, 0, 0, 0, 1],
                                  [0, 1, 0, 1, 0], [1, 0, 0, 1, 0]])
    assert span_d.dim == 4
    assert r_hat_d == 1


def test_connected_pairs_dims(binary_523, binary_523_dual, f2):
    cf = controller_form(binary_523)
    assert connected_pairs(cf).dim == 4  # 16 connected pairs
    cfd = controller_form(binary_523_dual)
    assert connected_pairs(cfd).dim == 6  # 64 connected pairs
    block = controller_form(PolyMatrix.from_strings(f2, [["1", "1"]]))
    assert connected_pairs(block).dim == 0


def test_connected_pairs_orth_brute_force(binary_523, f2):
    cf = controller_form(binary_523)
    orth = connected_pairs_orth(cf)
    # independent oracle: test orthogonality against all 16 connected pairs
    delta_points = list(points(connected_pairs(cf)))
    expected = []
    for cand in enumerate_vectors(f2, 6):
        if all(vec_dot(cand, d) == f2.zero for d in delta_points):
            expected.append(cand)
    assert set(expected) == set(points(orth))
    # explicit shape: (x1, x2, 0 | 0, x1, x2)
    assert orth == _sub(f2, 6, [[1, 0, 0, 0, 1, 0], [0, 1, 0, 0, 0, 1]])
    assert orth.dim == 2


def test_connected_pairs_orth_degenerate(f2):
    cf = controller_form(PolyMatrix.from_strings(f2, [["1+z", "1"]]))
    assert connected_pairs_orth(cf).dim == 0  # r = delta
    block = controller_form(PolyMatrix.from_strings(f2, [["1", "1"]]))
    assert connected_pairs_orth(block).dim == 0  # delta = 0


def test_output_rep_goldens(binary_523, f2):
    cf = controller_form(binary_523)
    R = output_map(cf)
    assert (R.nrows, R.ncols) == (6, 5)
    assert vec_mat((0,) * 6, R) == (0,) * 5
    X = tuple(f2.element(c) for c in (0, 1, 1))
    Y = tuple(f2.element(c) for c in (0, 0, 1))
    assert vec_mat(X + Y, R) == (1, 1, 1, 0, 0)
    # the representative vanishes on the disconnected directions
    split = pair_split(cf)
    for v in points(split.complement):
        assert vec_mat(v, R) == (0,) * 5
    # and is X C + Y B^t D on every pair
    for v in enumerate_vectors(f2, 6):
        assert vec_mat(v, R) == output_rep(cf, v[:3], v[3:])


def test_output_kernel_dims(binary_523, binary_523_dual, f2):
    cf = controller_form(binary_523)
    assert output_kernel(cf).dim == 0  # delta - r_hat = 3 - 3
    cfd = controller_form(binary_523_dual)
    assert output_kernel(cfd).dim == 2  # 3 - 1
    block = controller_form(PolyMatrix.from_strings(f2, [["1", "1"]]))
    assert output_kernel(block).dim == 0


def test_pair_split_goldens(binary_523, f2):
    cf = controller_form(binary_523)
    split = pair_split(cf)
    assert split.complement == _sub(f2, 6, [[0, 0, 0, 0, 1, 0],
                                            [0, 0, 0, 0, 0, 1]])
    assert split.transversal.dim + split.kernel.dim + split.complement.dim == 6
    full_r = controller_form(PolyMatrix.from_strings(f2, [["1+z", "1"]]))
    assert pair_split(full_r).complement.dim == 0


def test_image_decomposition(binary_523, f2):
    # representative outputs plus constants fill the coefficient code
    cf = controller_form(binary_523)
    cc = constant_code(cf)
    images = [vec_mat(b, output_map(cf)) for b in connected_pairs(cf).basis]
    span = Subspace.from_rows(f2, 5, images) + cc
    assert span == coefficient_code(cf)[0]
    # row space of D splits as the first r rows' space plus the constants
    btd_span = Subspace.from_rows(f2, 5, cf.BtD.rows)
    d_span = Subspace.from_rows(f2, 5, cf.D.rows)
    assert (btd_span + cc) == d_span
    assert intersect(btd_span, cc).dim == 0


def test_transversal_hits_every_coset_once(binary_523_dual, f2):
    cfd = controller_form(binary_523_dual)
    split = pair_split(cfd)
    cc = constant_code(cfd)
    span, r_hat = coefficient_code(cfd)
    seen = set()
    for v in points(split.transversal):
        rep = vec_mat(v, output_map(cfd))
        # canonicalize the coset by reducing against the constant code
        red = list(rep)
        for row in cc.basis:
            lead = next(j for j, x in enumerate(row) if x)
            if red[lead]:
                c = red[lead]
                red = [x - c * y for x, y in zip(red, row)]
        seen.add(tuple(red))
        assert span.coordinates(rep) is not None
    assert len(seen) == f2.q ** (cfd.r + r_hat)


def test_block_code_dualities(binary_pair, f2):
    # the coefficient code of one side is orthogonal to the constants of
    # the other, in both directions
    cf, cfd = binary_pair.cf, binary_pair.cf_dual
    assert coefficient_code(cf)[0].orth() == constant_code(cfd)
    assert coefficient_code(cfd)[0].orth() == constant_code(cf)


def test_row_reordering_recorded(f2):
    G = PolyMatrix.from_strings(f2, [["1", "1", "0", "1", "0"],
                                     ["1+z+z^3", "z^2", "z^2", "1", "z"]])
    cf = controller_form(G)
    assert cf.row_order == (1, 0)
    assert cf.A.to_int_rows() == [[0, 1, 0], [0, 0, 1], [0, 0, 0]]


def test_transfer_reconstruction_random():
    rng = random.Random(23)
    for q in (2, 3):
        field = FieldSpec(q)
        for _ in range(10):
            n = rng.randint(2, 4)
            k = rng.randint(1, n - 1)
            G = random_minimal_encoder(rng, field, n, k, rng.choice([0, 1, 2]))
            cf = controller_form(G)
            rows = [G.rows[i] for i in cf.row_order]
            sortedG = PolyMatrix.from_rows(field, rows, n)
            # z^l coefficient must equal B A^(l-1) C for l >= 1, D for l = 0
            assert coefficient_matrix(sortedG, 0) == cf.D
            power = FMat.identity(field, cf.delta)
            for level in range(1, max_degree(sortedG) + 1):
                assert coefficient_matrix(sortedG, level) == cf.B @ power @ cf.C
                power = power @ cf.A


BUILDERS = (constant_code, coefficient_code, connected_pairs, connected_pairs_orth)


@pytest.mark.parametrize("doc, mode, built", [
    (LONG_00, "auto", {"connected_pairs", "constant_code"}),
    (BINARY_523, "weak", {"connected_pairs", "constant_code"}),
], ids=["binary-long00", "binary-523-weak"])
def test_verify_builds_each_subspace_once_per_form(tmp_path, capsys, doc, mode, built):
    """One verify run builds exactly the state-space subspaces its route
    reads, each at most once per controller form, however many stages
    read it: the closed-form route needs no pair orthogonal."""
    names = {b.__wrapped__.__code__: b.__name__ for b in BUILDERS}
    builds = collections.Counter()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in names:
            builds[names[frame.f_code], id(frame.f_locals["cf"])] += 1

    path = tmp_path / "code.json"
    path.write_text(doc.read_text() if isinstance(doc, Path)
                    else json.dumps({"field": {"p": 2}, "generator": doc}))
    sys.setprofile(profile)
    try:
        assert main(["verify", str(path), "--mode", mode]) == 0
    finally:
        sys.setprofile(None)
    capsys.readouterr()
    assert {name for name, _ in builds} == built
    assert max(builds.values()) == 1, builds
