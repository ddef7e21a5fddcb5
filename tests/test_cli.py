import json
import time
import tracemalloc

import pytest

from convmacw import WePoly, adjacency, same_code
from convmacw.cli import CodeDocument, main
from convmacw.field import FieldElement
from conftest import (BINARY_523, CHAR_GRID_2_3, TERNARY_322,
                      WITNESS_P_TERNARY)


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


def test_verify_zeta_exponent(ternary_doc, binary_doc, capsys):
    assert main(["verify", ternary_doc, "--zeta-exponent", "2",
                 "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["verdict"] == "verified"
    assert payload["witness"] == WITNESS_P_TERNARY
    # 0 and multiples of p are not primitive roots: a usage error
    for doc, exponent, p in ((ternary_doc, "0", 3), (ternary_doc, "3", 3),
                             (binary_doc, "2", 2)):
        assert main(["verify", doc, "--zeta-exponent", exponent]) == 1
        assert f"zeta exponent must be in [1, {p})" in capsys.readouterr().err


def test_search_p_command(ternary_doc, capsys):
    assert main(["search-p", ternary_doc, "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["theorem_used"] == "conjecture-search"
    assert payload["details"]["candidates_tested"] == 16


def test_macw_text_golden(capsys):
    assert main(["macw", "--p", "2", "--delta", "3"]) == 0
    out = capsys.readouterr().out.splitlines()
    grid = [[int(v) for v in line.split()] for line in out[:8]]
    assert grid == CHAR_GRID_2_3
    assert "scale: q^(-3/2)" in out[8]


def test_macw_json(capsys):
    assert main(["macw", "--p", "3", "--delta", "1", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["exponents"] == [[0, 0, 0], [0, 1, 2], [0, 2, 1]]
    assert payload["scale_pow"] == -1


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


@pytest.mark.parametrize("generator,mode", [
    ([["1", "1+z^12"]], "auto"),
    ([["1", "1+z^12"]], "weak"),
    ([["1", "1+z^12"]], "search"),
    ([["1"] + [f"z^{i}" for i in range(1, 13)]], "auto"),   # dual indices all 1
], ids=["weak-route", "weak-mode", "search-mode", "dual-closed-form"])
def test_verify_guards_precede_pair_space_scans(tmp_path, capsys, generator, mode):
    """delta = 12: the grid guard fires before anything walks or allocates
    the 2^24 state pairs (the reordering complement, the dual transversal,
    the dense dual matrix)."""
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"field": {"p": 2}, "generator": generator}))
    tracemalloc.start()
    start = time.perf_counter()
    try:
        assert main(["verify", str(path), "--mode", mode]) == 2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - start < 5
    assert peak < 2 ** 26   # the dense dual matrix alone is 2^24 * 3 int64 values
    assert "pair grid q^(2*delta) = 16777216" in capsys.readouterr().err


def test_internal_check_failure_exit_4(binary_doc, capsys, monkeypatch):
    def wrong_oracle(cf, limit):
        adj = adjacency.adjacency_by_cosets(cf)
        return adjacency.AdjMatrix(adj.field, adj.n, adj.delta,
                                   adj.index[:-1], adj.counts[:-1])

    monkeypatch.setattr(adjacency, "adjacency_by_transitions", wrong_oracle)
    assert main(["adjacency", binary_doc, "--oracle"]) == 4
    err = capsys.readouterr().err
    assert err == "internal check failed: oracle adjacency disagrees with coset route\n"


GF9_422 = {"field": {"p": 3, "s": 2, "modulus": [1, 0, 1]},
           "generator": [["[1,1]+[2,0]z", "[1,1]", "[1,0]", "[1,1]+[0,1]z"],
                         ["[2,2]+[0,2]z", "[2,2]", "[0,2]", "[2,0]+[2,1]z"]]}
BINARY_727 = {"field": {"p": 2},
              "generator": [["1", "1", "1+z^2+z^4", "1+z^2+z^3", "z^2+z^3",
                             "z^3+z^4", "0"],
                            ["0", "1", "z+z^3", "1+z+z^3", "z^2+z^3", "1", "1"]]}


@pytest.mark.parametrize("doc,mode", [(GF9_422, "auto"), (BINARY_727, "weak")],
                         ids=["gf9-delta2", "binary-delta7-weak"])
def test_verify_field_arithmetic_count(tmp_path, monkeypatch, capsys, doc, mode):
    """Points, cosets and grids are enumerated on int-code arrays, so one
    verify run makes under 50 000 FieldElement additions and products."""
    path = tmp_path / "code.json"
    path.write_text(json.dumps(doc))
    calls = []
    for name in ("__add__", "__mul__"):
        def counting(self, other, real=getattr(FieldElement, name)):
            calls.append(None)
            return real(self, other)
        monkeypatch.setattr(FieldElement, name, counting)
    assert main(["verify", str(path), "--mode", mode]) == 0
    capsys.readouterr()
    assert 0 < len(calls) < 50_000


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
