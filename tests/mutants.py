"""Mutation gate for the identity code.

Each entry below edits one exact snippet of the package in a copy of the
tree and runs the named test files on it with ``-x``.  A ``killed`` mutant
must make them fail; an ``equivalent`` one must leave them passing, and its
entry says why the edit cannot change a result.  A snippet that is not
found exactly once is an error, so a refactor of the code under a mutant
must update its entry.

Run it from anywhere, with the test dependencies installed, as
``python tests/mutants.py``.  The exit status is 0 when every mutant
meets its expectation, 1 when one does not, and 2 when an entry is
stale.  pytest does not collect this file: it is not named
``test_*.py``.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "bench", "pyproject.toml")   # pyproject holds pytest's settings
IDENTITY_TESTS = ("tests/test_duality.py", "tests/test_acceptance.py")
TIMEOUT = 900   # seconds a mutant's tests may run; a mutant that hangs counts as killed


class Mutant(NamedTuple):
    name: str
    file: str
    snippet: str
    replacement: str
    tests: tuple = IDENTITY_TESTS
    expect: str = "killed"   # or "equivalent"
    reason: str = ""         # why an equivalent mutant changes no result


DUALITY = "src/convmacw/duality.py"

MUTANTS = [
    Mutant("negation dropped from J", DUALITY,
           "at.rows[d:] + (-top).rows", "at.rows[d:] + top.rows"),
    Mutant("J's halves not swapped", DUALITY,
           "at.rows[d:] + (-top).rows", "(-top).rows + at.rows[d:]"),
    Mutant("P applied to the top half only", DUALITY,
           "top.rows + bottom.rows", "top.rows + L.rows[d:]"),
    Mutant("the (p - 1) factor dropped", DUALITY,
           "(ea == e) * float(p - 1 if e == 1 else 1)", "(ea == e) * 1.0"),
    Mutant("N_1 in place of N_(-1)", DUALITY,
           "masks[-e % p][:q ** b, :q ** b]", "masks[e][:q ** b, :q ** b]"),
    Mutant("Lambda without S^-1", DUALITY,
           "L = S.inverse() @ FMat._of", "L = FMat._of"),
    Mutant("M^t in place of M", DUALITY,
           "dual_pairs) @ pair.pairing @ at", "dual_pairs) @ pair.pairing.transpose() @ at"),
    Mutant("the search's leaf check dropped", DUALITY,
           "return None if len(_mismatches(pair, _witness_moved(pair, P))) else (rows, P)",
           "return rows, P"),
]


def _stale(mutant: Mutant) -> str | None:
    """Why the entry cannot be applied, or None."""
    if mutant.expect not in ("killed", "equivalent"):
        return f"expectation {mutant.expect!r} is neither 'killed' nor 'equivalent'"
    if mutant.expect == "equivalent" and not mutant.reason:
        return "an equivalent mutant needs a reason"
    count = (ROOT / mutant.file).read_text().count(mutant.snippet)
    return None if count == 1 else f"snippet found {count} times in {mutant.file}, not once"


def _run(mutant: Mutant) -> tuple[bool, str]:
    """Apply the mutant to a fresh copy of the tree and run its tests:
    whether they failed, and pytest's summary line."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        for name in COPIED:
            source, target = ROOT / name, Path(tmp, name)
            if source.is_dir():
                shutil.copytree(source, target, ignore=shutil.ignore_patterns(
                    "__pycache__", ".pytest_cache", ".hypothesis"))
            else:
                shutil.copy2(source, target)
        path = Path(tmp, mutant.file)
        path.write_text(path.read_text().replace(mutant.snippet, mutant.replacement))
        env = dict(os.environ, PYTHONPATH=str(Path(tmp, "src")), PYTHONDONTWRITEBYTECODE="1")
        where = subprocess.run([sys.executable, "-c", "import convmacw; print(convmacw.__file__)"],
                               cwd=tmp, env=env, capture_output=True, text=True).stdout
        if not where.startswith(tmp):   # an installed package would shadow the copy
            sys.exit(f"convmacw imports from {where.strip() or 'nowhere'}, not the copy in {tmp}")
        try:
            done = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p",
                                   "no:cacheprovider", *mutant.tests], cwd=tmp, env=env,
                                  capture_output=True, text=True, timeout=TIMEOUT)
        except subprocess.TimeoutExpired:
            return True, f"timed out after {TIMEOUT} s"
    lines = [line for line in done.stdout.splitlines()
             if re.search(r"\d+ (passed|failed|error)", line)]
    summary = lines[-1].strip("= ") if lines else f"pytest exit status {done.returncode}"
    if done.returncode not in (0, 1, 2):   # 1 failures, 2 collection errors
        sys.exit(f"{mutant.name}: pytest could not run the tests ({summary})")
    return done.returncode != 0, summary


def main() -> int:
    stale = [f"{m.name}: {why}" for m in MUTANTS if (why := _stale(m)) is not None]
    if stale:
        print("stale mutant entries:", *stale, sep="\n  ")
        return 2
    wrong = 0
    for mutant in MUTANTS:
        start = time.perf_counter()
        killed, summary = _run(mutant)
        outcome = "killed" if killed else "survived"
        ok = killed == (mutant.expect == "killed")
        wrong += not ok
        print(f"{'ok  ' if ok else 'FAIL'} {mutant.name}: {outcome}, expected {mutant.expect} "
              f"({summary}; {time.perf_counter() - start:.0f} s)", flush=True)
    print(f"{len(MUTANTS) - wrong} of {len(MUTANTS)} mutants as expected")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
