import random

import pytest

from convmacw import FieldSpec, FMat, Subspace
from convmacw.linalg import right_null_space, unit_vec, vec_mat
from oracles import block_matrix, int_matrix, intersect, points, vector_index


def _random_subspace(rng, field, ambient, max_rows=None):
    rows = [tuple(field.element(rng.randrange(field.q)) for _ in range(ambient))
            for _ in range(rng.randint(0, max_rows or ambient))]
    return Subspace.from_rows(field, ambient, rows)


def test_fmat_basics(f2, f3):
    m = int_matrix(f3, [[1, 2], [0, 1]])
    assert m.rank() == 2
    inv = m.inverse()
    assert m @ inv == FMat.identity(f3, 2)
    assert m.transpose().to_int_rows() == [[1, 0], [2, 1]]
    singular = int_matrix(f2, [[1, 1], [1, 1]])
    assert singular.rank() == 1
    with pytest.raises(ValueError):
        singular.inverse()


def test_zero_dimensional_matrices(f2):
    a = FMat(f2, 0, 0, [])
    b = FMat(f2, 0, 3, [])
    c = FMat(f2, 3, 0, [(), (), ()])
    assert (a @ b).ncols == 3
    assert (c @ b) == FMat.zero(f2, 3, 3)
    assert a.is_invertible()
    assert vec_mat((), b) == (0, 0, 0)


def test_block_matrix(f2):
    i = FMat.identity(f2, 2)
    z = FMat.zero(f2, 2, 2)
    m = block_matrix(f2, [[i, z], [z, i]])
    assert m == FMat.identity(f2, 4)
    with pytest.raises(ValueError):
        block_matrix(f2, [[i, FMat.zero(f2, 1, 2)]])


def test_rref_canonical_and_membership(f3):
    s1 = Subspace.from_rows(f3, 3, [
        tuple(f3.element(c) for c in (1, 2, 0)),
        tuple(f3.element(c) for c in (2, 4 % 3, 0)),
        tuple(f3.element(c) for c in (0, 0, 1)),
    ])
    s2 = Subspace.from_rows(f3, 3, [
        tuple(f3.element(c) for c in (2, 1, 0)),
        tuple(f3.element(c) for c in (0, 0, 2)),
    ])
    assert s1 == s2
    assert s1.dim == 2
    assert s1.coordinates(tuple(f3.element(c) for c in (1, 2, 2))) is not None
    assert s1.coordinates(tuple(f3.element(c) for c in (1, 0, 0))) is None


def test_subspace_constructor_holds_a_canonical_basis(f2):
    """The constructor row-reduces what it is given, as ``from_rows``
    does, and rejects a row of the wrong length."""
    space = Subspace(f2, 2, [(1, 0), (1, 1)])
    assert space.basis == ((1, 0), (0, 1))
    assert space.coordinates((0, 1)) == (0, 1)
    assert space == Subspace.from_rows(f2, 2, [(1, 0), (1, 1)])
    assert Subspace(f2, 2, [(1, 1), (1, 1)]).dim == 1
    for build in (Subspace, Subspace.from_rows):
        with pytest.raises(ValueError, match="F\\^3"):
            build(f2, 3, [(1, 0)])


@pytest.mark.parametrize("q", [2, 3])
def test_orthogonal_complement_properties(q):
    field = FieldSpec(q)
    rng = random.Random(42 + q)
    for _ in range(40):
        ambient = rng.randint(1, 5)
        u = _random_subspace(rng, field, ambient)
        assert u.orth().orth() == u
        assert u.dim + u.orth().dim == ambient
    for ambient in (0, 1, 3):
        full = Subspace(field, ambient, FMat.identity(field, ambient).rows)
        assert Subspace(field, ambient, ()).orth() == full


@pytest.mark.parametrize("q", [2, 3])
def test_sum_intersection(q):
    field = FieldSpec(q)
    rng = random.Random(77 + q)
    for _ in range(40):
        ambient = rng.randint(1, 5)
        u = _random_subspace(rng, field, ambient)
        v = _random_subspace(rng, field, ambient)
        s = u + v
        i = intersect(u, v)
        assert s.dim + i.dim == u.dim + v.dim
        assert i + u == u and i + v == v
        assert u + s == s and v + s == s
        for w in points(i):
            assert u.coordinates(w) is not None and v.coordinates(w) is not None


def test_right_null_space(f2):
    m = int_matrix(f2, [[1, 1, 0], [0, 1, 1]])
    basis = right_null_space(f2, m)
    assert len(basis) == 1
    assert basis[0] == (1, 1, 1)


def test_points_by_index_order(f3):
    s = Subspace.from_rows(f3, 2, [tuple(f3.element(c) for c in (1, 2))])
    pts = sorted(points(s), key=vector_index)
    codes = [tuple(a.code for a in p) for p in pts]
    assert codes == [(0, 0), (1, 2), (2, 1)]
