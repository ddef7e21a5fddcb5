"""Regenerate the pinned default-seed documents and report digests.

    python3 bench/pin.py

Run it only when the corpus definition changes on purpose: the pinned
files are the reference that every later version of the program must
reproduce byte for byte (documents) and digest for digest (reports).
"""

from __future__ import annotations

import json
import sys
import time

import run
from run import PINNED, ROOT, corpus


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    digests = {}
    for workload in sorted(corpus.WORKLOADS):
        target = PINNED / workload
        for old in target.glob("*.json"):
            old.unlink()
        ops = corpus.write_corpus(workload, run.DEFAULT_SEED, target)
        ops_file = PINNED / "ops.json"
        ops_file.write_text(json.dumps(ops))
        try:
            res, _, err = run.spawn([str(ops_file)], time.monotonic() + 600)
        finally:
            ops_file.unlink()
        if res is None:
            print(f"error: {err}", file=sys.stderr)
            return 1
        digests[workload] = {}
        for rec, op in zip(res["ops"], ops):
            reason = run.check_op(rec, op, None)
            if reason:
                print(f"error: {op['name']}: {reason}", file=sys.stderr)
                return 1
            digests[workload][op["name"]] = rec["digest"]
    (PINNED / "digests.json").write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
