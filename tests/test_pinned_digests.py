"""The benchmark's pinned documents verify to their pinned report
digests, so each report, less ``elapsed_ms``, stays byte-identical to
the one the digests were taken from.  Reads files under bench/ only."""

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from convmacw.cli import main

BENCH = Path(__file__).resolve().parents[1] / "bench"
_spec = importlib.util.spec_from_file_location("bench_corpus", BENCH / "corpus.py")
corpus = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(corpus)
DIGESTS = json.loads((BENCH / "pinned" / "digests.json").read_text())
# (workload, document, mode) of every slot, in the mode the benchmark runs it
CASES = [(workload, corpus.doc_name(index, slot), slot.mode)
         for workload, slots in sorted(corpus.WORKLOADS.items())
         for index, slot in enumerate(slots)]


def report_digest(text: str) -> str:
    """The benchmark's report digest: the JSON less ``elapsed_ms``,
    dumped with indent 2, first 16 hex digits of its sha256."""
    obj = json.loads(text)
    obj.pop("elapsed_ms", None)
    return hashlib.sha256(json.dumps(obj, indent=2).encode()).hexdigest()[:16]


def test_every_pinned_document_has_a_case():
    pinned = {(path.parent.name, path.name)
              for path in (BENCH / "pinned").glob("*/*.json")}
    assert pinned == {(workload, name) for workload, name, _ in CASES}
    assert pinned == {(workload, name) for workload in DIGESTS for name in DIGESTS[workload]}


@pytest.mark.parametrize("workload,name,mode", CASES,
                         ids=[f"{workload}-{name}" for workload, name, _ in CASES])
def test_pinned_report_digest(capsys, workload, name, mode):
    path = BENCH / "pinned" / workload / name
    assert main(["verify", str(path), "--format", "json", "--mode", mode]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert report_digest(captured.out) == DIGESTS[workload][name]
