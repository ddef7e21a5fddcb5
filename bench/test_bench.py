"""Self-tests of the benchmark: a tiny smoke run, generator determinism,
the traced mirror against the command line, and the span tree.

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import corpus  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402

# one cheap code per route, plus the weak mode
TINY = (
    corpus.make_slot(2, 3, 1, (2,), 1),
    corpus.make_slot(3, 4, 2, (1, 1), 2),
    corpus.make_slot(4, 3, 2, (1,), 1),
    corpus.make_slot(2, 9, 5, (1, 1), 2, fixed_pattern=True),
    corpus.make_slot(2, 4, 2, (2, 1), 2, "weak"),
)
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    monkeypatch.setitem(corpus.WORKLOADS, "tiny", TINY)
    return corpus.write_corpus("tiny", 7, tmp_path)


def last_json(capsys) -> dict:
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_smoke_run_prints_every_metric(monkeypatch, capsys, trace, section):
    monkeypatch.setitem(corpus.WORKLOADS, "tiny", TINY)
    assert run.main(["--workload", "tiny", "--seed", "7", "--seconds", "0",
                     "--trace", str(trace)]) == 0
    result = last_json(capsys)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= len(TINY)
    want = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    if trace:
        assert result["metrics"]["trace.coverage"]["value"] > 0.9
    else:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_generator_is_deterministic_and_matches_pinned(tmp_path):
    for workload, slots in corpus.WORKLOADS.items():
        for index, slot in enumerate(slots):
            doc = corpus.doc_bytes(corpus.document(workload, index, slot, run.DEFAULT_SEED))
            assert doc == corpus.doc_bytes(
                corpus.document(workload, index, slot, run.DEFAULT_SEED))
            pinned = run.PINNED / workload / corpus.doc_name(index, slot)
            assert doc == pinned.read_bytes(), pinned


def test_generator_varies_with_seed():
    slot = corpus.WORKLOADS["search"][0]
    docs = {corpus.doc_bytes(corpus.document("search", 0, slot, s)) for s in range(4)}
    assert len(docs) == 4


def test_mirror_matches_command_line(tiny):
    mirror = worker.Mirror(worker.resolve_api(), worker.Tracer())
    for index, op in enumerate(tiny):
        plain = worker.run_plain(op)
        traced = mirror.run(index, op)
        assert plain["error"] is None and traced["error"] is None
        assert traced["theorem"] == plain["theorem"] == op["route"]
        assert traced["digest"] == plain["digest"]
    assert not mirror.tr.absent


def test_span_tree_is_well_formed(tiny):
    tracer = worker.Tracer()
    mirror = worker.Mirror(worker.resolve_api(), tracer)
    for index, op in enumerate(tiny):
        mirror.run(index, op)
    spans = tracer.spans
    assert {s["op"] for s in spans} == set(range(len(tiny)))
    for s in spans:
        assert s["start"] <= s["end"]
        if s["parent"] is None:
            assert s["name"] == "op" or s["name"].startswith("probe.")
            continue
        parent = spans[s["parent"]]
        assert parent["id"] < s["id"] and parent["op"] == s["op"]
        assert parent["start"] <= s["start"] and s["end"] <= parent["end"]


def test_missing_public_name_is_absent_not_fatal(tiny, monkeypatch):
    api = worker.resolve_api()
    api["search_witness"] = None
    api["dual_generator"] = None
    tracer = worker.Tracer()
    mirror = worker.Mirror(api, tracer)
    records = [mirror.run(index, op) for index, op in enumerate(tiny)]
    assert all(r["error"] is None and r["theorem"] == op["route"]
               for r, op in zip(records, tiny))
    assert {"search_witness", "dual_generator"} <= tracer.absent
    names = {s["name"] for s in tracer.spans}
    assert "cli.main" in names and "polymat.dual_generator" not in names


def test_checks_reject_a_wrong_route_or_digest():
    op = {"name": "x", "route": "rhat=delta"}
    good = {"verdict": "verified", "theorem": "rhat=delta", "digest": "d"}
    assert run.check_op(good, op, {"x": "d"}) is None
    assert run.check_op(dict(good, theorem="r=delta"), op, None)
    assert run.check_op(dict(good, verdict="counterexample-candidate"), op, None)
    assert run.check_op(good, op, {"x": "e"})


def test_projective_count():
    assert run.projective_count(2, 4) == 20160
    assert run.projective_count(3, 3) == 5616
