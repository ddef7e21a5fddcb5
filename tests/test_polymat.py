import itertools
import json
import random

import pytest

from convmacw import (CodeProfile, FieldSpec, PolyMatrix, ZPoly, code_degree,
                      dual_generator, is_basic, is_minimal, make_minimal_basic,
                      parse_zpoly, smith_normal_form)
from convmacw import polymat
from convmacw.cli import main
from convmacw.polymat import NEG_INF, basic_diagnostic, format_zpoly
from conftest import BINARY_523
from oracles import (codeword_weight, encode, module_contains,
                     random_minimal_encoder, same_code)


def _poly_det(field, m: PolyMatrix) -> ZPoly:
    """Independent Laplace-expansion determinant used as an oracle."""
    rows = [list(r) for r in m.rows]

    def det(sub):
        if not sub:
            return ZPoly(field, (1,))
        acc = ZPoly(field)
        for i, row in enumerate(sub):
            if row[0].is_zero():
                continue
            minor = [r[1:] for t, r in enumerate(sub) if t != i]
            term = row[0] * det(minor)
            acc = acc + term if i % 2 == 0 else acc - term
        return acc

    return det(rows)


def test_parse_and_format_roundtrip(f2, f3, f4):
    for field, text in [(f2, "1+z+z^3"), (f3, "2+2z^2"), (f3, "z"),
                        (f2, "0"), (f4, "[1,1]+[0,1]z^2")]:
        p = parse_zpoly(text, field)
        assert parse_zpoly(format_zpoly(p), field) == p


def test_parse_whitespace_and_errors(f2, f3, f4):
    assert parse_zpoly(" 1 + z ^ 2 ", f2) == parse_zpoly("1+z^2", f2)
    assert parse_zpoly("2 z", f3) == parse_zpoly("2z", f3)
    assert parse_zpoly("[1,1] z + [ 0 , 1 ]", f4) == parse_zpoly("[1,1]z+[0,1]", f4)
    with pytest.raises(ValueError, match="column 3"):
        parse_zpoly("1+z^", f2)
    with pytest.raises(ValueError, match="column 1"):
        parse_zpoly("", f2)
    with pytest.raises(ValueError, match="column"):
        parse_zpoly("1++z", f2)
    with pytest.raises(ValueError):
        parse_zpoly("[1,0]", f3)  # digit list needs an extension field
    # coefficients reduce into the field
    assert parse_zpoly("4+5z", f3) == parse_zpoly("1+2z", f3)


def _random_term(rng, field):
    """A term string with its coefficient element and power."""
    roll = rng.random()
    if roll < 0.2:
        coeff, text = field.one, ""
    elif roll < 0.6 or field.s == 1:
        value = rng.randint(-2 * field.q, 2 * field.q)
        coeff, text = field.from_int(value), str(value)
    else:
        digits = [rng.randrange(field.p) for _ in range(rng.randint(0, field.s))]
        coeff, text = field.from_digits(digits), "[" + ", ".join(map(str, digits)) + "]"
    power = rng.choice([0, 0, 1, 1, 2, 3, 7])
    if power or not text:
        text += " " * rng.randint(0, 1) + ("z" if power == 1 and rng.random() < 0.5
                                           else f"z ^ {power}" if rng.random() < 0.3
                                           else f"z^{power}")
    return text, coeff, power


@pytest.mark.parametrize("spec", [(2,), (3,), (2, 2, [1, 1, 1]), (257,)])
def test_parse_zpoly_sums_its_terms(spec):
    """A parsed polynomial is the sum of its terms, repeated powers,
    negative integers and whitespace included: the FieldElement sum of
    the coefficients at each power, and the ZPoly sum of the terms."""
    field = FieldSpec(*spec)
    rng = random.Random(field.q)
    for _ in range(200):
        terms = [_random_term(rng, field) for _ in range(rng.randint(1, 6))]
        text = "+".join(" " * rng.randint(0, 2) + t + " " * rng.randint(0, 1)
                        for t, _, _ in terms)
        want = [field.zero] * 8
        for _, coeff, power in terms:
            want[power] = want[power] + coeff
        assert parse_zpoly(text, field) == ZPoly(field, want), text
        assert parse_zpoly(text, field) == sum(
            (parse_zpoly(t, field) for t, _, _ in terms), ZPoly(field))
    twice = {"1+1": "0", "z+z^1": "0", " 1 + z ^ 2 + 1 ": "z^2", "-1+3": "0"}
    for text, want in twice.items():
        assert parse_zpoly(text, FieldSpec(2)) == parse_zpoly(want, FieldSpec(2)), text
    f4 = FieldSpec(2, 2, [1, 1, 1])
    assert parse_zpoly("[1,0]+[1,0]", f4).is_zero()
    assert parse_zpoly("z+z^1", FieldSpec(3)) == parse_zpoly("2z", FieldSpec(3))


@pytest.mark.parametrize("q,text,message", [
    (2, "", "column 1: empty polynomial"),
    (2, "   ", "column 1: empty polynomial"),
    (2, "1+z^", "column 3: bad term 'z^'"),
    (2, "1++z", "column 3: empty term"),
    (2, "+z", "column 1: empty term"),
    (2, "z+", "column 3: empty term"),
    (2, "1 +  + z", "column 4: empty term"),
    (2, "1 + 2x", "column 4: bad term '2x'"),
    (2, "z^-1", "column 1: bad term 'z^-1'"),
    (2, "zz", "column 1: bad term 'zz'"),
    (2, "2.5", "column 1: bad term '2.5'"),
    (2, "1+z^257", "column 3: exponent 257 exceeds 256"),
    (2, "z^300 + 1", "column 1: exponent 300 exceeds 256"),
    (2, "1+z^9999999999999", "column 3: exponent 9999999999999 exceeds 256"),
    (3, "[1,0]", "column 1: digit lists need an extension field"),
    (3, "1 + [1] z", "column 4: digit lists need an extension field"),
    (4, "[1,2,3]", "column 1: too many digits for GF(2^2): [1, 2, 3]"),
    (4, "[1,0,1]z", "column 1: too many digits for GF(2^2): [1, 0, 1]"),
    (2, "1 z^2 3", "column 1: bad term '1 z^2 3'"),
    (2, "z^1 0", "column 1: bad term 'z^1 0'"),
    (3, "1 2", "column 1: bad term '1 2'"),
    (3, "1 0z", "column 1: bad term '1 0z'"),
    (3, "z + 1\t2", "column 4: bad term '1\\t2'"),
    (4, "[1 1]", "column 1: bad term '[1 1]'"),
    (4, "[1 0]z", "column 1: bad term '[1 0]z'"),
])
def test_parse_errors_name_their_column(q, text, message):
    field = FieldSpec(2, 2, [1, 1, 1]) if q == 4 else FieldSpec(q)
    with pytest.raises(ValueError) as err:
        parse_zpoly(text, field)
    assert str(err.value) == "parse error at " + message


@pytest.mark.parametrize("text,column", [
    ("[,1]", 2), ("[1,,2]", 4), ("[,]", 2), ("[1,2,]", 6), ("1 + [1, ,2]z", 8),
])
def test_empty_digit_in_a_list_is_a_parse_error(text, column):
    """An empty digit is an error at its column, not dropped: over GF(9)
    "[,1]" would read as 1, not alpha.  "[]" has no digit at all, and
    reads as 0."""
    field = FieldSpec(3, 2, [2, 2, 1])
    with pytest.raises(ValueError) as err:
        parse_zpoly(text, field)
    assert str(err.value).startswith(f"parse error at column {column}: empty digit in ")
    assert parse_zpoly("[ ]", field).is_zero()


def test_zpoly_arithmetic(f3):
    rng = random.Random(3)
    for _ in range(60):
        a = ZPoly(f3, [f3.element(rng.randrange(3)) for _ in range(rng.randint(0, 6))])
        b = ZPoly(f3, [f3.element(rng.randrange(3)) for _ in range(rng.randint(1, 5))])
        if b.is_zero():
            continue
        q, r = divmod(a, b)
        assert q * b + r == a
        assert r.is_zero() or r.degree < b.degree
    z = parse_zpoly("z", f3)
    assert z.degree == 1
    assert ZPoly(f3).degree == NEG_INF
    # 1 + 2z vanishes at z = 1: its coefficients sum to zero
    assert sum(parse_zpoly("1+2z", f3).coeffs) % 3 == 0


@pytest.mark.parametrize("q", [2, 3])
def test_smith_normal_form_properties(q):
    field = FieldSpec(q)
    rng = random.Random(17 + q)
    for _ in range(30):
        k = rng.randint(1, 3)
        n = rng.randint(k, 4)
        m = PolyMatrix.from_rows(field, [
            [ZPoly(field, [field.element(rng.randrange(q))
                           for _ in range(rng.randint(0, 3))])
             for _ in range(n)] for _ in range(k)])
        U, S, V = smith_normal_form(m)
        assert (U @ m) @ V == S
        assert _poly_det(field, U).degree == 0
        assert _poly_det(field, V).degree == 0
        diag = [S.rows[t][t] for t in range(min(k, n))]
        for t in range(min(k, n)):
            for j in range(n):
                if j != t and not S.rows[t][j].is_zero():
                    pytest.fail("off-diagonal entry survived")
        for a, b in zip(diag, diag[1:]):
            if a.is_zero():
                assert b.is_zero()
            elif not b.is_zero():
                assert (b % a).is_zero()
        for d in diag:
            assert d.is_zero() or d.coeffs[-1] == 1


def test_is_basic_goldens(binary_523, f2):
    assert is_basic(binary_523)
    delayed = PolyMatrix.from_strings(f2, [["z"]])
    assert not is_basic(delayed)
    assert "invariant factors" in basic_diagnostic(delayed)
    pair = PolyMatrix.from_strings(f2, [["1+z", "z"]])
    assert is_basic(pair)
    dependent = PolyMatrix.from_strings(f2, [["1", "z"], ["1", "z"]])
    assert not is_basic(dependent)
    assert "rank" in basic_diagnostic(dependent)


def test_code_degree_goldens(binary_523, ternary_322, f2):
    assert code_degree(binary_523) == 3
    const = PolyMatrix.from_strings(f2, [["1", "0", "1"], ["0", "1", "1"]])
    assert code_degree(const) == 0
    assert code_degree(ternary_322) == 2


def test_is_minimal_goldens(binary_523, ternary_322_dual, f2):
    assert is_minimal(binary_523) == (True, (3, 0))
    assert is_minimal(ternary_322_dual) == (True, (2,))
    # raise one row degree by adding a shifted multiple of the other
    rows = [list(binary_523.rows[0]), list(binary_523.rows[1])]
    z3 = parse_zpoly("z^3", f2)
    rows[1] = [b + z3 * a for a, b in zip(rows[0], rows[1])]
    fat = PolyMatrix.from_rows(f2, rows)
    assert is_basic(fat)
    assert is_minimal(fat) == (False, None)
    with pytest.raises(ValueError):
        is_minimal(PolyMatrix.from_strings(f2, [["z"]]))


def test_make_minimal_basic(binary_523, ternary_322, f2):
    again = make_minimal_basic(binary_523)
    assert is_minimal(again) == (True, (3, 0))
    assert same_code(again, binary_523)
    # scramble with a unimodular transform, then recover the indices
    rng = random.Random(5)
    for _ in range(10):
        u = PolyMatrix.from_strings(f2, [
            ["1", f"{rng.randrange(2)}+{rng.randrange(2)}z"],
            ["0", "1"],
        ])
        scrambled = u @ binary_523
        fixed = make_minimal_basic(scrambled)
        assert is_minimal(fixed) == (True, (3, 0))
        assert same_code(fixed, binary_523)
    fixed3 = make_minimal_basic(ternary_322)
    assert is_minimal(fixed3) == (True, (2, 0))
    with pytest.raises(ValueError, match="delay-free"):
        make_minimal_basic(PolyMatrix.from_strings(f2, [["z"]]))


def test_dual_generator_goldens(binary_523, binary_523_dual,
                                ternary_322, ternary_322_dual):
    H = dual_generator(binary_523)
    assert (H @ binary_523.transpose()).is_zero()
    assert is_minimal(H) == (True, (1, 1, 1))
    assert code_degree(H) == 3
    assert same_code(H, binary_523_dual)
    H3 = dual_generator(ternary_322)
    assert same_code(H3, ternary_322_dual)
    # duality is an involution on codes
    assert same_code(dual_generator(H), binary_523)


def test_encode_goldens(binary_523, f2):
    one, zero = ZPoly(f2, (1,)), ZPoly(f2)
    cw = encode((one, zero), binary_523)
    assert [format_zpoly(p) for p in cw] == ["1+z+z^3", "z^2", "z^2", "1", "z"]
    assert codeword_weight(cw) == 7
    assert codeword_weight(encode((zero, zero), binary_523)) == 0
    cw2 = encode((zero, one), binary_523)
    assert [format_zpoly(p) for p in cw2] == ["1", "1", "0", "1", "0"]
    assert codeword_weight(cw2) == 3


def test_module_membership(binary_523, f2):
    row = binary_523.rows[0]
    assert module_contains(binary_523, row)
    z = parse_zpoly("z", f2)
    shifted = tuple(z * p for p in row)
    assert module_contains(binary_523, shifted)
    stray = tuple(parse_zpoly(s, f2) for s in ("1", "0", "0", "0", "0"))
    assert not module_contains(binary_523, stray)


def test_profile(binary_523):
    prof = CodeProfile.from_encoder(binary_523)
    assert (prof.n, prof.k, prof.delta) == (5, 2, 3)
    assert prof.forney_indices == (3, 0)
    assert prof.r == 1


@pytest.mark.parametrize("q,n,k,delta", [(2, 4, 2, 2), (3, 3, 1, 3), (2, 5, 3, 0)])
def test_random_minimal_encoder(q, n, k, delta):
    field = FieldSpec(q)
    rng = random.Random(900)
    for _ in range(5):
        G = random_minimal_encoder(rng, field, n, k, delta)
        assert (G.nrows, G.ncols) == (k, n)
        assert is_basic(G)
        minimal, idx = is_minimal(G)
        assert minimal and sum(idx) == delta


def _max_minor_degree(field, G: PolyMatrix):
    """Largest degree over the k x k minors (the minor-expansion oracle)."""
    return max(_poly_det(field, PolyMatrix.from_rows(
        field, [[r[j] for j in cols] for r in G.rows], G.nrows)).degree
        for cols in itertools.combinations(range(G.ncols), G.nrows))


def _random_matrix(rng, field, k, n, max_deg):
    return PolyMatrix.from_rows(field, [
        [ZPoly(field, [field.element(rng.randrange(field.q))
                       for _ in range(rng.randint(0, max_deg + 1))])
         for _ in range(n)] for _ in range(k)], n)


@pytest.mark.parametrize("spec", [(2,), (3,), (2, 2, [1, 1, 1])])
def test_code_degree_matches_minor_oracle(spec):
    field = FieldSpec(*spec)
    rng = random.Random(41 + field.q)
    seen = {"non-basic": 0, "not row-reduced": 0, "rank-deficient": 0}
    for _ in range(60):
        k = rng.randint(1, 3)
        G = _random_matrix(rng, field, k, rng.randint(k, 4), 2)
        oracle = _max_minor_degree(field, G)
        if oracle is NEG_INF:
            seen["rank-deficient"] += 1
            with pytest.raises(ValueError, match="rank-deficient"):
                code_degree(G)
            continue
        seen["non-basic"] += not is_basic(G)
        seen["not row-reduced"] += sum(G.row_degrees()) != oracle
        assert code_degree(G) == oracle
    assert all(seen.values()), seen


def test_code_degree_errors(f2):
    with pytest.raises(ValueError, match="more rows than columns"):
        code_degree(PolyMatrix.from_strings(f2, [["1"], ["z"]]))
    with pytest.raises(ValueError, match="rank-deficient"):
        code_degree(PolyMatrix.from_strings(f2, [["1+z", "z"], ["1+z^2", "z+z^2"]]))
    with pytest.raises(ValueError, match="rank-deficient"):
        code_degree(PolyMatrix.from_strings(f2, [["0", "0"]]))
    assert code_degree(PolyMatrix.from_rows(f2, [], 3)) == 0


@pytest.mark.parametrize("spec", [(2,), (3,), (2, 2, [1, 1, 1])])
def test_is_minimal_matches_definition(spec):
    field = FieldSpec(*spec)
    rng = random.Random(73 + field.q)
    outcomes = set()
    tried = 0
    while len(outcomes) < 2 or tried < 40:
        tried += 1
        k = rng.randint(1, 3)
        G = _random_matrix(rng, field, k, rng.randint(k, 4), 2)
        if not is_basic(G):
            continue
        degs = [int(d) for d in G.row_degrees()]
        minimal = sum(degs) == _max_minor_degree(field, G)
        indices = tuple(sorted(degs, reverse=True)) if minimal else None
        assert is_minimal(G) == (minimal, indices)
        outcomes.add(minimal)


def test_verify_smith_form_count(tmp_path, monkeypatch, capsys):
    """Encoder analysis of one verify run computes one Smith form, for the
    encoder: the dual generator comes out minimal by construction."""
    path = tmp_path / "binary.json"
    path.write_text(json.dumps({"field": {"p": 2}, "generator": BINARY_523}))
    calls = []
    real = polymat.smith_normal_form

    def counting(M):
        calls.append((M.nrows, M.ncols))
        return real(M)

    monkeypatch.setattr(polymat, "smith_normal_form", counting)
    assert main(["verify", str(path)]) == 0
    capsys.readouterr()
    assert 0 < len(calls) <= 1, calls
