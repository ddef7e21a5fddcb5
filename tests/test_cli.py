import dataclasses
import json
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from convmacw import WePoly, adjacency, duality, polymat
from convmacw.cli import CodeDocument, main
from convmacw.field import FieldElement, FieldSpec
from convmacw.linalg import FMat
from convmacw.polymat import code_degree
from conftest import (BINARY_523, CHAR_GRID_2_3, LONG_00, TERNARY_322,
                      WITNESS_P_TERNARY)
from oracles import pairing_codes, same_code, sparse

# a pinned benchmark document: GF(5) (4, 2), delta = 2, closed-form route
GRID_DOC = "bench/pinned/grid/02-q5-n4k2d2.json"


@pytest.fixture
def binary_doc(tmp_path):
    doc = {"label": "binary demo", "field": {"p": 2, "s": 1},
           "generator": BINARY_523}
    path = tmp_path / "binary.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture
def ternary_doc(tmp_path):
    doc = {"field": {"p": 3}, "generator": TERNARY_322}
    path = tmp_path / "ternary.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_info_text(binary_doc, capsys):
    assert main(["info", binary_doc]) == 0
    out = capsys.readouterr().out
    assert "(n, k, delta) = (5, 2, 3)" in out
    assert "forney indices: 3, 0" in out
    assert "r = 1" in out
    assert "r_hat = 3" in out
    assert "dim constant code = 1" in out
    assert "dim coefficient code = 5" in out
    assert "constant code basis" in out
    assert "1  1  0  1  0" in out


def test_info_json_subspace_dumps(binary_doc, capsys):
    assert main(["info", binary_doc, "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["constant_code_basis"] == [[1, 1, 0, 1, 0]]
    assert payload["coefficient_code_basis"] == [
        [1, 0, 0, 0, 0], [0, 1, 0, 0, 0], [0, 0, 1, 0, 0],
        [0, 0, 0, 1, 0], [0, 0, 0, 0, 1]]


def test_verify_json_deterministic_modulo_timing(ternary_doc, capsys):
    assert main(["verify", ternary_doc, "--format", "json"]) == 0
    first = json.loads(capsys.readouterr().out)
    assert main(["verify", ternary_doc, "--format", "json"]) == 0
    second = json.loads(capsys.readouterr().out)
    first.pop("elapsed_ms")
    second.pop("elapsed_ms")
    assert first == second


def test_info_json_deterministic(binary_doc, capsys):
    assert main(["info", binary_doc, "--format", "json"]) == 0
    first = capsys.readouterr().out
    assert main(["info", binary_doc, "--format", "json"]) == 0
    second = capsys.readouterr().out
    assert first == second
    payload = json.loads(first)
    assert payload["delta"] == 3
    assert payload["forney_indices"] == [3, 0]


def test_info_ternary(ternary_doc, capsys):
    assert main(["info", ternary_doc]) == 0
    out = capsys.readouterr().out
    assert "(n, k, delta) = (3, 2, 2)" in out
    assert "r = 1" in out
    assert "r_hat = 1" in out


def test_info_non_basic(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"field": {"p": 2}, "generator": [["z"]]}))
    assert main(["info", str(path)]) == 1
    out = capsys.readouterr().out
    assert "basic: no" in out


def test_parse_error_reports_position(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text(json.dumps({"field": {"p": 2}, "generator": [["1+z^"]]}))
    assert main(["info", str(path)]) == 1
    err = capsys.readouterr().err
    assert "column" in err and "row 1" in err


def test_malformed_json_reports_line(tmp_path, capsys):
    path = tmp_path / "nojson.json"
    path.write_text("{ not json")
    assert main(["info", str(path)]) == 1
    err = capsys.readouterr().err
    assert "line" in err and "column" in err


def test_adjacency_text_golden(binary_doc, capsys):
    assert main(["adjacency", binary_doc]) == 0
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 8
    cells0 = [c.strip() for c in out[0].split("  ") if c.strip()]
    assert cells0 == ["1 + W^3", "0", "0", "0", "W + W^2", "0", "0", "0"]


def test_adjacency_oracle_flag(binary_doc, capsys):
    assert main(["adjacency", binary_doc, "--oracle"]) == 0
    out = capsys.readouterr().out
    assert "oracle: match (16 entries)" in out


def test_adjacency_json(binary_doc, capsys):
    assert main(["adjacency", binary_doc, "--format", "json", "--oracle"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["delta"] == 3
    assert payload["oracle"] == {"match": True, "entries": 16}
    assert payload["entries"][0] == {"row": 0, "col": 0,
                                     "we": [1, 0, 0, 1, 0, 0]}


def test_adjacency_degree_zero(tmp_path, capsys):
    path = tmp_path / "block.json"
    path.write_text(json.dumps({"field": {"p": 2},
                                "generator": [["1", "0", "1"], ["0", "1", "1"]]}))
    assert main(["adjacency", str(path)]) == 0
    out = capsys.readouterr().out.strip()
    assert out == "1 + 3W^2"


def test_adjacency_guard_exit_code(binary_doc, capsys):
    assert main(["adjacency", binary_doc, "--limit", "pairs=2"]) == 2
    assert "limit" in capsys.readouterr().err


def test_adjacency_text_grid_guard(tmp_path, capsys):
    """delta = 14: the 2^15 support pairs list in JSON, but the text grid
    would print 2^28 cells."""
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({"field": {"p": 2}, "generator": [["1", "1+z^14"]]}))
    assert main(["adjacency", str(path), "--limit", "grid=65536"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: pair grid q^(2*delta) = 268435456 > limit 65536 "
                            "(6442450944 bytes per int64 grid of 3 values a pair)\n")
    assert main(["adjacency", str(path), "--format", "json"]) == 0
    assert len(json.loads(capsys.readouterr().out)["entries"]) == 2 ** 15


@pytest.mark.parametrize("argv,accepted", [
    (["adjacency", "DOC", "--limit", "search=1"], "pairs, transitions, grid"),
    (["verify", "DOC", "--limit", "pairs=2"], "grid, search"),
    (["verify", "DOC", "--limit", "transitions=1"], "grid, search"),
    (["search-p", "DOC", "--limit", "pairs=1"], "grid, search"),
    (["macw", "--p", "2", "--delta", "1", "--limit", "search=1",
      "--limit", "pairs=1"], "grid"),
], ids=["adjacency-search", "verify-pairs", "verify-transitions",
        "search-p-pairs", "macw-search"])
def test_limit_names_a_command_ignores_exit_1(binary_doc, capsys, argv, accepted):
    assert main([binary_doc if a == "DOC" else a for a in argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: unknown limit ")
    assert captured.err.endswith(f"; accepted: {accepted}\n")


@pytest.mark.parametrize("argv,message", [
    (["verify", "DOC", "--limit", "grid=abc"], "--limit grid wants a positive integer, got 'abc'"),
    (["verify", "DOC", "--limit", "grid=1e3"], "--limit grid wants a positive integer, got '1e3'"),
    (["verify", "DOC", "--limit", "grid=0"], "--limit grid wants a positive integer, got '0'"),
    (["verify", "DOC", "--limit", "grid=-5"], "--limit grid wants a positive integer, got '-5'"),
    (["search-p", "DOC", "--limit", "search=0"],
     "--limit search wants a positive integer, got '0'"),
    (["adjacency", "DOC", "--limit", "pairs=2.5"],
     "--limit pairs wants a positive integer, got '2.5'"),
    (["macw", "--p", "3", "--s", "2", "--modulus", "1,x", "--delta", "1"],
     "--modulus wants comma-separated digits, got '1,x'"),
    (["macw", "--p", "3", "--s", "2", "--modulus", "1,-1,1", "--delta", "1"],
     "--modulus wants comma-separated digits, got '1,-1,1'"),
], ids=["letters", "float", "zero", "negative", "search-zero", "pairs-float",
        "modulus-letter", "modulus-negative"])
def test_limit_and_modulus_values_name_their_flag(binary_doc, capsys, argv, message):
    """A value that is not a positive integer (a modulus digit: not a
    decimal digit string) exits 1 naming its flag; a zero limit would
    otherwise refuse every code with exit 2."""
    assert main([binary_doc if a == "DOC" else a for a in argv]) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_consecutive_calls_share_no_limit_state(binary_doc, capsys):
    """main reuses one parser, and the --limit values of one call do not
    reach the next: a stuck grid=8 or search=4 would make a later call
    exit 2."""
    assert main(["verify", binary_doc, "--limit", "grid=8"]) == 2
    assert main(["verify", binary_doc, "--limit", "search=4"]) == 0
    assert main(["verify", binary_doc, "--mode", "search", "--limit", "search=4"]) == 2
    assert main(["verify", binary_doc, "--mode", "search"]) == 0
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2
    assert err[0] == ("error: pair grid q^(2*delta) = 64 > limit 8 "
                      "(3072 bytes per int64 grid of 6 values a pair)")
    assert err[1].startswith("error: witness search would examine more than 4 ")


def test_verify_degree_zero_over_a_large_prime_field(tmp_path, capsys):
    """A delta = 0 code has no connected-pair coordinates: the conjugation
    is one 1 x 1 product with no q x q table, even over GF(65521)."""
    path = tmp_path / "gf65521.json"
    path.write_text(json.dumps({"field": {"p": 65521}, "generator": [["1", "1"]]}))
    tracemalloc.start()
    try:
        assert main(["verify", str(path), "--format", "json"]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 26
    assert json.loads(capsys.readouterr().out)["verdict"] == "verified"


def test_verify_unit_memory_over_gf127(tmp_path, capsys):
    """[["1+z", "1"]] over GF(127) has 2-dim connected pairs: the
    conjugation is p float64 products of 127 x 127 tables, not p^2 = 16129
    over the grid, and the report is unchanged."""
    path = tmp_path / "gf127.json"
    path.write_text(json.dumps({"field": {"p": 127}, "generator": [["1+z", "1"]]}))
    start = time.perf_counter()
    assert main(["verify", str(path), "--format", "json"]) == 0
    assert time.perf_counter() - start < 5
    report = json.loads(capsys.readouterr().out)
    assert (report["verdict"], report["theorem_used"], report["witness"]) == \
        ("verified", "delta=1", [[126]])
    assert report["details"] == {"mode": "auto", "entries": 16129, "primal_witness": [[1]]}


def test_code_degree_guard(tmp_path, capsys):
    """The controller form is cubic in delta: delta = 300 exits 2 at
    once, delta = 256 still runs."""
    path = tmp_path / "deep.json"
    path.write_text(json.dumps({"field": {"p": 2},
                                "generator": [["1", "z^200", "0"], ["0", "1", "z^100"]]}))
    start = time.perf_counter()
    assert main(["info", str(path)]) == 2
    assert time.perf_counter() - start < 2
    assert capsys.readouterr().err == "error: code degree delta = 300 > limit 256\n"
    path.write_text(json.dumps({"field": {"p": 2},
                                "generator": [["1+z^256", "1+z+z^255"]]}))
    assert main(["info", str(path)]) == 0
    assert "(n, k, delta) = (2, 1, 256)" in capsys.readouterr().out


def test_verify_guards_precede_controller_form(tmp_path, monkeypatch, capsys):
    """The size guards need only (q, n, k, delta), so a code past them
    exits 2 before any controller form is built."""
    path = tmp_path / "deep.json"
    path.write_text(json.dumps({"field": {"p": 2},
                                "generator": [["1+z^256", "1+z+z^255"]]}))
    calls = []
    real = duality.controller_form
    monkeypatch.setattr(duality, "controller_form", lambda G: calls.append(G) or real(G))
    assert main(["verify", str(path)]) == 2
    assert capsys.readouterr().err.startswith(
        f"error: coset enumeration needs q^(delta+k) = {2 ** 257} points")
    assert calls == []


@pytest.mark.parametrize("args,document,message", [
    (["macw", "--p", "65521", "--delta", "256"], None,
     "pair grid q^(2*delta) = 65521^512 > limit 1048576 (8 * 65521^512 bytes per int64 "
     "grid of 1 values a pair)"),
    (["verify", "DOC"], {"field": {"p": 65521}, "generator": [["1+z^200", "1"]]},
     "coset enumeration needs q^(delta+k) = 65521^201 points > limit 1048576"),
], ids=["grid", "cosets"])
def test_guard_refusals_stay_one_short_line(tmp_path, capsys, args, document, message):
    """A count past 80 digits prints as a power: q^(2 delta) here has 2467
    digits, and q^(delta+k) 968."""
    if document is not None:
        path = tmp_path / "big.json"
        path.write_text(json.dumps(document))
        args = [str(path) if a == "DOC" else a for a in args]
    assert main(args) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {message}\n")
    assert len(captured.err.encode()) < 200


def test_dual_roundtrip(binary_doc, capsys, tmp_path):
    assert main(["dual", binary_doc]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["certificate"]["orthogonal_to_input"] is True
    assert payload["certificate"]["delta"] == 3
    dual_path = tmp_path / "dual.json"
    dual_path.write_text(json.dumps(payload))
    dual_doc = CodeDocument.from_path(str(dual_path))
    original = CodeDocument.from_path(binary_doc)
    # double dual generates the original code again
    assert main(["dual", str(dual_path)]) == 0
    payload2 = json.loads(capsys.readouterr().out)
    bidual_path = tmp_path / "bidual.json"
    bidual_path.write_text(json.dumps(payload2))
    bidual = CodeDocument.from_path(str(bidual_path))
    assert same_code(bidual.generator, original.generator)
    assert dual_doc.generator.nrows == 3


def test_verify_auto_binary(binary_doc, capsys):
    assert main(["verify", binary_doc, "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["verdict"] == "verified"
    assert payload["theorem_used"] == "rhat=delta"
    assert payload["entry_mismatch_count"] == 0


def test_verify_auto_ternary_and_witness(ternary_doc, capsys):
    assert main(["verify", ternary_doc, "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["theorem_used"] == "conjecture-search"
    assert payload["witness"] == WITNESS_P_TERNARY
    assert main(["verify", ternary_doc,
                 "--check-witness", json.dumps(WITNESS_P_TERNARY)]) == 0
    out = capsys.readouterr().out
    assert "verdict: verified" in out


def test_verify_rejected_witness_exit_code(ternary_doc, capsys):
    assert main(["verify", ternary_doc,
                 "--check-witness", "[[1,0],[0,1]]"]) == 3
    out = capsys.readouterr().out
    assert "not-verified" in out


def test_verify_modes(binary_doc, ternary_doc, capsys):
    assert main(["verify", binary_doc, "--mode", "weak"]) == 0
    capsys.readouterr()
    assert main(["verify", binary_doc, "--mode", "theorem-q"]) == 0
    capsys.readouterr()
    assert main(["verify", ternary_doc, "--mode", "theorem-q"]) == 1
    err = capsys.readouterr().err
    assert "dual Forney" in err


def test_verify_theorem_p_on_a_pinned_document(capsys):
    assert main(["verify", GRID_DOC, "--mode", "theorem-p", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["verdict"] == "verified" and payload["theorem_used"] == "r=delta"
    assert payload["witness"] == [[1, 0], [1, 1]]


def test_verify_unit_memory_on_a_pinned_document(capsys):
    assert main(["verify", "bench/pinned/long/03-q3-n10k5d1.json", "--mode", "unit-memory",
                 "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["verdict"] == "verified" and payload["theorem_used"] == "delta=1"
    assert payload["details"]["entries"] == 9 and payload["witness"] is None


def test_exhausted_search_is_a_counterexample_candidate(capsys, monkeypatch):
    """A search that finds no witness reports the class count it tried,
    the weak identity's theorem and exit 3, not a crash."""
    classes = (27 - 1) * (27 - 3) * (27 - 9) // 2   # |GL(3, 3)| / |F_3^*|
    monkeypatch.setattr(duality, "search_witness",
                        lambda pair, limit: duality.SearchResult(witness=None, tested=classes))
    assert main(["verify", "bench/pinned/search/02-q3-n4k2d3.json", "--mode", "search",
                 "--format", "json"]) == 3
    payload = json.loads(capsys.readouterr().out)
    assert payload["theorem_used"] == "multiset-only"
    assert payload["verdict"] == "counterexample-candidate" and payload["witness"] is None
    assert payload["details"]["candidates_tested"] == classes


@pytest.mark.parametrize("witness", [
    "[[[1]]]", "[[null,1],[1,1]]", "[[1e400,1],[0,1]]", "[[1.5,1],[0,1]]",
    "[[true,1],[0,1]]", '[["1",0],[0,1]]', "[1, 2]", "{}",
], ids=["nested", "null", "overflow", "float", "bool", "string", "flat", "object"])
def test_verify_non_integer_witness_exit_1(ternary_doc, capsys, witness):
    assert main(["verify", ternary_doc, "--check-witness", witness]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: witness must be a nested integer array\n"
    assert captured.out == ""


GF9_UNIT = {"field": {"p": 3, "s": 2, "modulus": [1, 0, 1]}, "generator": [["1+z", "1"]]}
TERNARY = {"field": {"p": 3}, "generator": TERNARY_322}


@pytest.mark.parametrize("doc,witness,bad", [
    (GF9_UNIT, "[[-1]]", "-1 is not an element code of GF(3^2) (0 to 8)"),
    (GF9_UNIT, "[[9]]", "9 is not an element code of GF(3^2) (0 to 8)"),
    (GF9_UNIT, "[[2]]", None),
    (GF9_UNIT, "[[8]]", None),
    (TERNARY, "[[5,1],[0,1]]", "5 is not an element code of GF(3) (0 to 2)"),
    (TERNARY, "[[1,0],[0,-1]]", "-1 is not an element code of GF(3) (0 to 2)"),
], ids=["gf9-minus-1", "gf9-9", "gf9-2", "gf9-8", "ternary-5", "ternary-minus-1"])
def test_verify_witness_entries_are_element_codes(tmp_path, capsys, doc, witness, bad):
    """A witness entry is an element code, read as given: over GF(9) -1 is
    not code 8 (2+2a) and 9 is not code 0; an entry outside [0, q) exits 1."""
    path = tmp_path / "code.json"
    path.write_text(json.dumps(doc))
    code = main(["verify", str(path), "--check-witness", witness, "--format", "json"])
    captured = capsys.readouterr()
    if bad:
        assert (code, captured.out, captured.err) == (1, "", f"error: witness entry {bad}\n")
    else:
        assert code == 0
        assert json.loads(captured.out)["witness"] == json.loads(witness)


@pytest.mark.parametrize("witness,error", [
    ("[[1,0]]", "witness matrix is 1x2, but delta = 1 needs 1x1"),
    ("[[1,0],[0,1]]", "witness matrix is 2x2, but delta = 1 needs 1x1"),
    ("[[1],[0,1]]", "witness rows differ in length"),
    ("[[]]", "witness matrix is 1x0, but delta = 1 needs 1x1"),
    ("[[0]]", "witness matrix is singular"),
    ("[[2]]", None),
], ids=["1x2", "2x2", "ragged", "1x0", "singular", "valid"])
def test_verify_witness_shape_is_checked_against_delta(tmp_path, capsys, witness, error):
    """A witness of the wrong shape is named with its own shape and delta,
    before the singularity test."""
    path = tmp_path / "code.json"
    path.write_text(json.dumps({"field": {"p": 3}, "generator": [["1+z", "1"]]}))
    code = main(["verify", str(path), "--check-witness", witness])
    captured = capsys.readouterr()
    if error:
        assert (code, captured.out, captured.err) == (1, "", f"error: {error}\n")
    else:
        assert code == 0 and "verdict: verified" in captured.out


@pytest.mark.parametrize("argv", [
    ["verify", "{doc}", "--bogus"],
    ["verify", "{doc}", "--mode", "nope"],
    ["verify", "{doc}", "--zeta-exponent", "2"],
    ["verify"],
    ["nope"],
], ids=["unknown-flag", "bad-choice", "zeta-exponent", "missing-file", "bad-command"])
def test_usage_errors_exit_1(ternary_doc, capsys, argv):
    """argparse exits 2 on a usage error, which here means a size guard
    fired; main maps it to 1."""
    assert main([a.format(doc=ternary_doc) for a in argv]) == 1
    err = capsys.readouterr().err
    assert "usage: convmacw" in err and "Traceback" not in err


def test_help_exits_0(capsys):
    for argv in (["--help"], ["verify", "--help"]):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 0
        assert "usage: convmacw" in capsys.readouterr().out


def test_search_p_command(ternary_doc, capsys):
    """search-p is verify --mode search: the same bytes less elapsed_ms,
    and the same refusal past the grid guard."""
    def run(*argv):
        status = main(list(argv))
        captured = capsys.readouterr()
        out = [line for line in captured.out.splitlines(keepends=True)
               if not line.startswith('  "elapsed_ms": ')]
        return status, "".join(out), captured.err

    alias = run("search-p", ternary_doc, "--format", "json")
    assert alias == run("verify", ternary_doc, "--mode", "search", "--format", "json")
    assert alias[0] == 0 and alias[2] == ""
    payload = json.loads(alias[1])
    assert payload["theorem_used"] == "conjecture-search"
    assert payload["details"] == {"mode": "search", "candidates_tested": 16}
    refused = run("search-p", ternary_doc, "--limit", "grid=80")
    assert refused == run("verify", ternary_doc, "--mode", "search", "--limit", "grid=80")
    assert refused == (2, "", "error: pair grid q^(2*delta) = 81 > limit 80 "
                              "(2592 bytes per int64 grid of 4 values a pair)\n")


def test_dual_certificate_on_pinned_document(capsys):
    """The certificate is dual_generator's own checks: H G^t = 0, and H's
    row degrees sum to the code degree of G."""
    assert main(["dual", str(LONG_00)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["certificate"] == {"orthogonal_to_input": True, "delta": 2}
    G = CodeDocument.from_path(str(LONG_00)).generator
    H = CodeDocument.from_dict(payload).generator
    assert (H @ G.transpose()).is_zero()
    assert code_degree(H) == code_degree(G) == 2


def test_macw_text_golden(capsys):
    assert main(["macw", "--p", "2", "--delta", "3"]) == 0
    out = capsys.readouterr().out.splitlines()
    grid = [[int(v) for v in line.split()] for line in out[:8]]
    assert grid == CHAR_GRID_2_3
    assert "scale: q^(-3/2)" in out[8]


@pytest.mark.parametrize("argv,field", [
    (["--p", "3"], FieldSpec(3)),
    (["--p", "3", "--s", "2", "--modulus", "1,0,1"], FieldSpec(3, 2, [1, 0, 1])),
], ids=["gf3", "gf9"])
def test_macw_text_odd_characteristic(capsys, argv, field):
    """Past p = 2 the grid prints z^e with e = tr(X . Y), the pairing read
    off its oracle and traced by ``FieldSpec.trace``."""
    assert main(["macw", *argv, "--delta", "2"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[:-1] == [" ".join(f"z^{field.trace(c)}" for c in row)
                        for row in pairing_codes(field, 2).tolist()]
    assert out[-1] == f"scale: q^(-2/2) with q = {field.q}"


def test_macw_json(capsys):
    assert main(["macw", "--p", "3", "--delta", "1", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["exponents"] == [[0, 0, 0], [0, 1, 2], [0, 2, 1]]
    assert payload["scale_pow"] == -1


def test_macw_zeta_exponent(capsys):
    assert main(["macw", "--p", "3", "--delta", "1", "--zeta-exponent", "2",
                 "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["zeta_exponent"] == 2
    assert payload["exponents"] == [[0, 0, 0], [0, 2, 1], [0, 1, 2]]
    # 0 and multiples of p are not primitive roots: a usage error
    for p, exponent in ((3, "0"), (3, "3"), (2, "0"), (2, "2")):
        assert main(["macw", "--p", str(p), "--delta", "1", "--zeta-exponent", exponent]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: zeta exponent must be in [1, {p})\n"
        assert captured.out == ""
    assert main(["macw", "--p", "2", "--delta", "-1"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: delta must be >= 0\n" and captured.out == ""


@pytest.mark.parametrize("delta", ["100000", "7000", "257"])
def test_macw_applies_the_degree_cap(capsys, delta):
    """The fixed delta cap of verify comes before the grid guard, so no
    q^(2 delta) of thousands of digits is formatted or printed."""
    assert main(["macw", "--p", "2", "--delta", delta]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: code degree delta = {delta} > limit 256\n")


def test_macw_extension_field(capsys):
    assert main(["macw", "--p", "2", "--s", "2", "--modulus", "1,1,1",
                 "--delta", "1", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["q"] == 4
    # trace pairing of the quartic field: diagonal of nontrivial traces
    assert payload["exponents"][1][1] == 0  # trace(1*1) = 0
    assert payload["exponents"][2][2] == 1  # trace(w*w) = trace(w+1) = 1


def test_document_validation(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"generator": [["1"]]}))
    with pytest.raises(ValueError, match="field"):
        CodeDocument.from_path(str(bad))
    ragged = tmp_path / "ragged.json"
    ragged.write_text(json.dumps({"field": {"p": 2},
                                  "generator": [["1", "z"], ["1"]]}))
    with pytest.raises(ValueError, match="inconsistent"):
        CodeDocument.from_path(str(ragged))


def test_non_minimal_input_message(tmp_path, capsys):
    path = tmp_path / "nonmin.json"
    path.write_text(json.dumps({
        "field": {"p": 2},
        "generator": [["1+z+z^3", "z^2", "z^2", "1", "z"],
                      ["1+z^3+z^4+z^6", "1+z^5", "z^5", "1+z^3", "z^4"]],
    }))
    # second row = z^3 * first row + constant row: basic but not minimal
    assert main(["adjacency", str(path)]) == 1
    err = capsys.readouterr().err
    assert "not minimal" in err


@pytest.mark.parametrize("doc,message", [
    ({"field": {"p": None}, "generator": [["1"]]}, "must be integers"),
    ({"field": {"p": 2, "s": [2]}, "generator": [["1"]]}, "must be integers"),
    ({"field": {"p": 2, "s": 2, "modulus": [1, None, 1]}, "generator": [["1"]]},
     "must be integers"),
    ({"field": {"p": 2}, "generator": [[1, "z"]]}, "must be a string"),
    ({"field": {"p": 10 ** 40 + 1}, "generator": [["1"]]}, "larger than 2^16"),
    ({"field": {"p": 2, "s": 10 ** 40}, "generator": [["1"]]}, "larger than 2^16"),
    ({"field": {"p": 2}, "generator": [["1+z^50000000"]]}, "column 3: exponent"),
    ({"field": {"p": 2}, "generator": [["z^" + "9" * 5000]]}, "column 1"),
    ({"field": {"p": 2.9}, "generator": [["1"]]}, "must be integers"),
    ({"field": {"p": "3"}, "generator": [["1"]]}, "must be integers"),
    ({"field": {"p": True}, "generator": [["1"]]}, "must be integers"),
    ({"field": {"p": 2, "s": 2, "modulus": "111"}, "generator": [["1"]]},
     "must be integers"),
    ({"label": {"a": [1]}, "field": {"p": 2}, "generator": [["1+z", "1"]]},
     '"label" must be a string'),
])
def test_malformed_documents_exit_1(tmp_path, capsys, doc, message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["info", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


def test_coset_guard_counts_points(tmp_path, capsys):
    """The dual of this (30,1) code has 29 rows: few pairs, 2^28 points each."""
    path = tmp_path / "long.json"
    path.write_text(json.dumps({"field": {"p": 2},
                                "generator": [["1+z"] + ["1"] * 29]}))
    start = time.perf_counter()
    assert main(["verify", str(path)]) == 2
    assert time.perf_counter() - start < 10
    assert "q^(delta+k) = 1073741824 points" in capsys.readouterr().err


@pytest.mark.parametrize("generator,mode,grid,limit", [
    ([["1", "1+z^12"]], "auto", 2 ** 24, []),
    ([["1", "1+z^12"]], "weak", 2 ** 24, []),
    ([["1", "1+z^12"]], "search", 2 ** 24, []),
    ([["1"] + [f"z^{i}" for i in range(1, 13)]], "auto", 2 ** 24, []),   # dual indices all 1
    # the dual of [1, z, ..., z^10]: 2^20 primal coset points, within the guard
    ([["z" if j == i else "1" if j == i + 1 else "0" for j in range(11)]
      for i in range(10)], "weak", 2 ** 20, ["--limit", "grid=65536"]),
], ids=["weak-route", "weak-mode", "search-mode", "dual-closed-form", "wide-primal-cosets"])
def test_verify_guards_precede_pair_space_scans(tmp_path, capsys, generator, mode, grid,
                                                limit):
    """delta = 12 (delta = 10 under a grid limit of 2^16): the grid guard
    fires before anything walks or allocates the 2^24 (2^20) state pairs
    (the character grid, the dense dual matrix) or the primal cosets."""
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"field": {"p": 2}, "generator": generator}))
    tracemalloc.start()
    start = time.perf_counter()
    try:
        assert main(["verify", str(path), "--mode", mode, *limit]) == 2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - start < 5
    assert peak < 2 ** 26   # the dense dual matrix alone is 2^24 * 3 int64 values
    assert f"pair grid q^(2*delta) = {grid} > limit" in capsys.readouterr().err


def test_internal_check_failure_exit_4(binary_doc, capsys, monkeypatch):
    def wrong_oracle(cf, limit):
        adj = adjacency.adjacency_by_cosets(cf)
        return adjacency.AdjMatrix(adj.field, adj.n, adj.delta,
                                   adj.index[:-1], adj.counts[:-1])

    monkeypatch.setattr(adjacency, "adjacency_by_transitions", wrong_oracle)
    assert main(["adjacency", binary_doc, "--oracle"]) == 4
    err = capsys.readouterr().err
    assert err == "internal check failed: oracle adjacency disagrees with coset route\n"


def test_dual_of_a_full_code_is_refused(tmp_path, capsys):
    """The dual of a k = n code is the zero code, which has no generator
    rows, and a code document needs a non-empty grid: exit 1, no output."""
    path = tmp_path / "full.json"
    path.write_text(json.dumps({"field": {"p": 2}, "generator": [["1", "0"], ["0", "1"]]}))
    assert main(["dual", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: the dual of a full code (k = n) is the zero code, "
                            "which a code document cannot hold\n")


def test_weak_identity_refuses_a_pairing_of_the_wrong_rank(binary_doc, capsys, monkeypatch):
    """A pairing that loses rank leaves the map onto F_q^m short of 2 delta
    rows: verify --mode weak stops with exit 4, naming the weak identity
    and both ranks (r + r_hat = 1 + 3 for this code)."""
    monkeypatch.setattr(duality.DualPair, "pairing", property(
        lambda pair: FMat.zero(pair.field, 2 * pair.delta, 2 * pair.delta)))
    assert main(["verify", binary_doc, "--mode", "weak"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("internal check failed: weak identity: B_hat M B^t has rank 0, "
                            "but r + r_hat = 4\n")


@pytest.mark.parametrize("fault,message", [
    ("orthogonality", "kernel construction lost orthogonality"),
    ("degree", "dual code degree mismatch"),
])
def test_dual_certificate_failure_exit_4(binary_doc, capsys, monkeypatch, fault, message):
    """dual prints no certificate it has not checked: a row reduction that
    breaks H G^t = 0 or the degree sum stops dual_generator with exit 4."""
    real = polymat._row_reduce

    def broken(field, rows, n):
        rows, degs = real(field, rows, n)
        if fault == "degree":
            return rows, [d + 1 for d in degs]
        first = [() if rows[0][0] == (1,) else (1,)] + list(rows[0][1:])
        return [first] + rows[1:], degs

    monkeypatch.setattr(polymat, "_row_reduce", broken)
    assert main(["dual", binary_doc]) == 4
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"internal check failed: {message}\n")


@pytest.mark.parametrize("doc,mode,identity", [
    ("search/00-q2-n5k2d4.json", "weak", "reordered transform"),
    ("long/03-q3-n10k5d1.json", "auto", "unit-memory formula"),
    ("long/03-q3-n10k5d1.json", "unit-memory", "unit-memory formula"),
    ("grid/01-q3-n6k2d4.json", "theorem-q", "closed-form witness"),
    ("grid/02-q5-n4k2d2.json", "theorem-p", "closed-form witness"),
], ids=["weak", "unit-memory-auto", "unit-memory", "theorem-q", "theorem-p"])
def test_entrywise_failure_names_the_identity_and_pair(capsys, monkeypatch, doc, mode,
                                                       identity):
    """Every entrywise identity that fails names itself and the first pair
    (X, Y), in row-major order, where the dual entry and its side of the
    identity differ: here the dual entry (0, 1) is off by one."""
    def corrupted(pair):
        dense = adjacency.adjacency_by_cosets(pair.cf_dual).dense_coefficients()
        dense[0, 1, 0] += 1
        return sparse(pair.field, pair.delta, dense)

    monkeypatch.setattr(duality.DualPair, "adj_dual", property(corrupted))
    assert main(["verify", f"bench/pinned/{doc}", "--mode", mode]) == 4
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"internal check failed: {identity} does "
                                                f"not match the dual at pair (X, Y) = (0, 1)\n")


@pytest.mark.parametrize("doc,mode,identity,mutation", [
    ("search/00-q2-n5k2d4.json", "weak", "reordered transform", "nonzero off the support"),
    ("search/00-q2-n5k2d4.json", "weak", "reordered transform", "count changed"),
    ("search/00-q2-n5k2d4.json", "weak", "reordered transform", "support entry zeroed"),
    ("long/03-q3-n10k5d1.json", "unit-memory", "unit-memory formula", "count changed"),
    ("long/03-q3-n10k5d1.json", "unit-memory", "unit-memory formula", "support entry zeroed"),
    ("grid/01-q3-n6k2d4.json", "theorem-q", "closed-form witness", "count changed"),
    ("grid/01-q3-n6k2d4.json", "theorem-q", "closed-form witness", "support entry zeroed"),
    ("dual of grid/00-q2-n8k2d6.json", "theorem-p", "closed-form witness",
     "nonzero off the support"),
    ("grid/02-q5-n4k2d2.json", "theorem-p", "closed-form witness", "count changed"),
])
def test_mutated_dual_table_names_its_first_pair(capsys, monkeypatch, tmp_path, doc, mode,
                                                 identity, mutation):
    """Both parts of the table comparison name the first failing pair in
    row-major order.  The dual adjacency matrix is mutated at the last two
    pairs of one kind: its first support entry put at two pairs off its
    support, or a count changed at two support pairs (the row part fails),
    or two support entries zeroed, so the other side has more nonzero
    entries than the dual (the count part fails)."""
    if doc.startswith("dual of "):   # r = delta and a dual support short of the grid
        assert main(["dual", f"bench/pinned/{doc[8:]}"]) == 0
        path = tmp_path / "dual.json"
        path.write_text(capsys.readouterr().out)
    else:
        path = f"bench/pinned/{doc}"
    first = []

    def mutated(pair):
        adj = adjacency.adjacency_by_cosets(pair.cf_dual)
        dense = adj.dense_coefficients()
        flat = dense.reshape(-1, adj.n + 1)
        nonzero = flat.any(axis=1)
        at = np.flatnonzero(~nonzero if mutation == "nonzero off the support" else nonzero)[-2:]
        if mutation == "nonzero off the support":
            flat[at] = adj.counts[0]
        elif mutation == "count changed":
            flat[at, -1] += 1
        else:
            flat[at] = 0
        first[:] = divmod(int(at[0]), adj.size)
        return sparse(pair.field, pair.delta, dense)

    monkeypatch.setattr(duality.DualPair, "adj_dual", property(mutated))
    assert main(["verify", str(path), "--mode", mode]) == 4
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"internal check failed: {identity} does "
                                                f"not match the dual at pair (X, Y) = "
                                                f"({first[0]}, {first[1]})\n")


def test_singular_closed_form_witness_exit_4(binary_doc, capsys, monkeypatch):
    """A closed-form witness that is not invertible is a failed check, not a
    verdict: the dual indices are all one, so A_hat = 0, and with
    B_hat^t D_hat zeroed W = (B_hat^t D_hat + A_hat^t C_hat) C^t is the zero
    map."""
    real = duality.controller_form

    def zeroed(G):
        cf = real(G)
        return dataclasses.replace(cf, BtD=FMat.zero(cf.field, cf.delta, cf.n))

    monkeypatch.setattr(duality, "controller_form", zeroed)
    assert main(["verify", binary_doc, "--mode", "theorem-q"]) == 4
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (
        "", "internal check failed: closed-form witness is singular\n")


GF9_422 = {"field": {"p": 3, "s": 2, "modulus": [1, 0, 1]},
           "generator": [["[1,1]+[2,0]z", "[1,1]", "[1,0]", "[1,1]+[0,1]z"],
                         ["[2,2]+[0,2]z", "[2,2]", "[0,2]", "[2,0]+[2,1]z"]]}
BINARY_727 = {"field": {"p": 2},
              "generator": [["1", "1", "1+z^2+z^4", "1+z^2+z^3", "z^2+z^3",
                             "z^3+z^4", "0"],
                            ["0", "1", "z+z^3", "1+z+z^3", "z^2+z^3", "1", "1"]]}


@pytest.mark.parametrize("doc,mode", [(GF9_422, "auto"), (BINARY_727, "weak"),
                                      (LONG_00, "auto")],
                         ids=["gf9-delta2", "binary-delta7-weak", "binary-long00"])
def test_verify_field_arithmetic_count(tmp_path, monkeypatch, capsys, doc, mode):
    """Encoder analysis, subspaces, points, cosets and grids all compute on
    int codes, so one verify run makes no FieldElement arithmetic call."""
    path = tmp_path / "code.json"
    path.write_text(json.dumps(doc) if isinstance(doc, dict) else doc.read_text())
    calls = []
    for name in ("__add__", "__sub__", "__mul__", "__neg__", "inverse"):
        def counting(self, *args, real=getattr(FieldElement, name), name=name):
            calls.append(name)
            return real(self, *args)
        monkeypatch.setattr(FieldElement, name, counting)
    assert main(["verify", str(path), "--mode", mode]) == 0
    capsys.readouterr()
    assert calls == []
    FieldSpec(2).one + FieldSpec(2).one    # the counters do count
    assert calls == ["__add__"]


def test_verify_calls_no_per_code_trace(tmp_path, monkeypatch, capsys):
    """The trace exponents come from one table expression, not from a
    FieldSpec.trace call per code of GF(65521)."""
    path = tmp_path / "big-field.json"
    path.write_text(json.dumps({"field": {"p": 65521}, "generator": [["1", "1"]]}))
    calls = []

    def counting(self, a, real=FieldSpec.trace):
        calls.append(a)
        return real(self, a)
    monkeypatch.setattr(FieldSpec, "trace", counting)
    assert main(["verify", str(path)]) == 0
    capsys.readouterr()
    assert calls == []
    FieldSpec(2).trace(1)    # the counter does count
    assert calls == [1]


def test_verify_leaves_numpy_ma_unloaded():
    """numpy's plain ``unique`` imports numpy.ma on first use, a cost paid
    inside the first op of every process; verify finds exponents without it."""
    root = Path(__file__).resolve().parents[1]
    script = (
        "import io, contextlib, sys\n"
        "from convmacw.cli import main\n"
        "if 'numpy.ma' in sys.modules: print('preloaded'); sys.exit()\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert main(['verify', {str(root / GRID_DOC)!r}]) == 0\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                         capture_output=True, text=True).stdout.strip()
    if out == "preloaded":
        pytest.skip("importing convmacw.cli already loads numpy.ma")
    assert out == "False"


@pytest.mark.parametrize("doc,mode", [
    (BINARY_727, "weak"),
    ({"field": {"p": 2}, "generator": [["1", "1+z^8"]]}, "auto"),
], ids=["binary-delta7-weak", "binary-delta8"])
def test_verify_weight_enumerator_count(tmp_path, monkeypatch, capsys, doc, mode):
    """Adjacency matrices stay integer arrays on every verify route: the
    only WePoly built is the coefficient-code enumerator."""
    path = tmp_path / "code.json"
    path.write_text(json.dumps(doc))
    calls = []
    real = WePoly.__init__

    def counting(self, *args):
        calls.append(None)
        real(self, *args)
    monkeypatch.setattr(WePoly, "__init__", counting)
    assert main(["verify", str(path), "--mode", mode]) == 0
    capsys.readouterr()
    assert len(calls) <= 1
