"""Seeded corpus of code documents for the benchmark workloads.

Each workload is a fixed list of slots: a field, a shape (n, k), the row
degrees (the Forney indices) and the wanted count r_hat of nonzero dual
Forney indices.  The seed only chooses the coefficients, so every seed
gives codes of the same size and the same verification route, and the
cost of a repetition hardly depends on the seed.

Encoders are minimal and basic by construction: a systematic matrix
[I | P(z)] whose top-degree coefficients of the rows with positive degree
are independent, mixed by elementary row operations that keep every row
degree, and with its columns permuted.  A slot with ``fixed_pattern``
instead keeps the entry degrees of one such matrix, drawn from a
seed-independent stream, and draws fresh coefficients until the result
is row-reduced and basic.  The draws depend on the program only through
yes/no facts (a rank reaches a value or not, a matrix is basic or not),
so the same seed gives byte-identical documents on every commit whose
mathematics is right.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

# q -> (p, s, modulus digits constant term first)
FIELDS = {
    2: (2, 1, None),
    3: (3, 1, None),
    4: (2, 2, (1, 1, 1)),
    5: (5, 1, None),
    7: (7, 1, None),
    8: (2, 3, (1, 1, 0, 1)),
    9: (3, 2, (1, 0, 1)),
}

MAX_TRIES = 20000


@dataclass(frozen=True)
class Slot:
    """One code of a workload: its parameters and the route it must take."""

    q: int
    n: int
    k: int
    degs: tuple[int, ...]
    rhat: int
    mode: str = "auto"
    fixed_pattern: bool = False

    @property
    def delta(self) -> int:
        return sum(self.degs)

    @property
    def r(self) -> int:
        return sum(1 for d in self.degs if d)

    @property
    def route(self) -> str:
        """The ``theorem_used`` that ``verify`` must report for this slot."""
        if self.mode == "weak":
            return "multiset-only"
        if self.delta == 1:
            return "delta=1"
        if self.rhat == self.delta:
            return "rhat=delta"
        if self.r == self.delta:
            return "r=delta"
        return "conjecture-search"


def make_slot(q, n, k, degs, rhat, mode="auto", fixed_pattern=False):
    """A slot whose row degrees ``degs`` are padded with zeros to k rows."""
    return Slot(q, n, k, tuple(degs) + (0,) * (k - len(degs)), rhat, mode,
                fixed_pattern)


WORKLOADS: dict[str, tuple[Slot, ...]] = {
    # weak identity plus projective witness search (r < delta, r_hat < delta).
    # The first search per (q, delta) in a process builds the candidates:
    # binary delta=4 (65536 matrices) and ternary delta=3 (19683) dominate
    # the wall time.  The five GF(4) codes make the median op a cheap op
    # whose cost does not hang on where a scan finds its witness; the last
    # one takes a closed form, so that every layer's span is timed.
    "search": (
        make_slot(2, 5, 2, (3, 1), 2),
        make_slot(2, 4, 2, (2, 2), 2),
        make_slot(3, 4, 2, (2, 1), 2),
        make_slot(4, 3, 1, (2,), 1),
        make_slot(4, 3, 2, (2, 0), 1),
        make_slot(4, 4, 2, (2, 0), 1),
        make_slot(4, 3, 1, (2,), 1),
        make_slot(4, 3, 1, (2,), 2),
    ),
    # large state spaces on the closed-form routes (r_hat = delta), and the
    # weak identity, which auto never reaches at large delta.  The two GF(4)
    # searches take milliseconds; they are there so every span is timed.
    "grid": (
        make_slot(2, 8, 2, (3, 3), 6),
        make_slot(3, 6, 2, (2, 2), 4),
        make_slot(5, 4, 2, (1, 1), 2),
        make_slot(7, 3, 1, (2,), 2),
        make_slot(8, 4, 2, (1, 1), 2),
        make_slot(9, 4, 2, (1, 1), 2),
        make_slot(2, 6, 2, (3, 3), 3, "weak"),
        make_slot(2, 7, 2, (4, 3), 3, "weak"),
        make_slot(4, 3, 1, (2,), 1),
        make_slot(4, 3, 2, (2, 0), 1),
    ),
    # long codes with small degree: the factorial minor expansion of the
    # encoder analysis dominates.  k >= n - k keeps the dual, whose entry
    # degrees the program chooses, smaller than the generator, whose entry
    # degrees the slot fixes; without that the cost swings with the seed.
    # The two GF(4) searches are there so that every span is timed.
    "long": 2 * (
        make_slot(2, 10, 6, (2,), 2, fixed_pattern=True),
        make_slot(2, 11, 6, (2,), 2, fixed_pattern=True),
        make_slot(2, 10, 5, (1, 1), 2, fixed_pattern=True),
        make_slot(3, 10, 5, (1,), 1, fixed_pattern=True),
    ) + (make_slot(4, 3, 1, (2,), 1), make_slot(4, 3, 2, (2, 0), 1)),
}


def field_of(q: int):
    from convmacw import FieldSpec
    p, s, modulus = FIELDS[q]
    return FieldSpec(p, s, list(modulus) if modulus else None)


def _rank(field, rows) -> int:
    from convmacw import FMat
    if not rows:
        return 0
    return FMat.from_rows(field, [[field.element(c) for c in r] for r in rows]).rank()


def _poly(rng, q, deg):
    return [rng.randrange(q) for _ in range(deg + 1)]


def _padd(field, a, b):
    out = [0] * max(len(a), len(b))
    for i, c in enumerate(a):
        out[i] = c
    for i, c in enumerate(b):
        out[i] = (field.element(out[i]) + field.element(c)).code
    return out


def _pmul(field, a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (field.element(out[i + j])
                          + field.element(x) * field.element(y)).code
    return out


def _coefficient_rows(rows, degs):
    return [[p[e] if e < len(p) else 0 for p in row]
            for row, d in zip(rows, degs) for e in range(d + 1)]


def draw_encoder(rng: random.Random, field, slot: Slot) -> list[list[list[int]]]:
    """Rows of polynomials (element codes, constant term first)."""
    q, n, k, degs = field.q, slot.n, slot.k, slot.degs
    if list(degs) != sorted(degs, reverse=True) or slot.r > n - k:
        raise ValueError(f"slot {slot} cannot be built systematically")
    for _ in range(MAX_TRIES):
        P = [[_poly(rng, q, degs[i]) for _ in range(n - k)] for i in range(k)]
        lead = [[P[i][j][degs[i]] for j in range(n - k)] for i in range(slot.r)]
        if _rank(field, lead) < slot.r:
            continue
        rows = [[[1 if i == j else 0] for j in range(k)] + P[i] for i in range(k)]
        for i in range(k):
            for j in range(k):
                if i != j and degs[j] <= degs[i]:
                    c = _poly(rng, q, degs[i] - degs[j])
                    rows[i] = [_padd(field, a, _pmul(field, c, b))
                               for a, b in zip(rows[i], rows[j])]
        perm = rng.sample(range(n), n)
        rows = [[row[t] for t in perm] for row in rows]
        if _rank(field, _coefficient_rows(rows, degs)) - k == slot.rhat:
            return rows
    raise RuntimeError(f"no encoder with r_hat = {slot.rhat} for {slot}")


def draw_on_pattern(rng: random.Random, field, slot: Slot, pattern):
    """Rows whose entries have the degrees in ``pattern`` (-1 for zero) and
    fresh coefficients, accepted when row-reduced, basic and with the
    wanted r_hat."""
    from convmacw import PolyMatrix, is_basic
    q, k, degs = field.q, slot.k, slot.degs
    p, s, _ = FIELDS[q]
    for _ in range(MAX_TRIES):
        rows = [[_poly(rng, q, d - 1) + [rng.randrange(1, q)] if d >= 0 else [0]
                 for d in pattern_row] for pattern_row in pattern]
        lead = [[e[degs[i]] if len(e) > degs[i] else 0 for e in row]
                for i, row in enumerate(rows)]
        if _rank(field, lead) < k:
            continue
        if _rank(field, _coefficient_rows(rows, degs)) - k != slot.rhat:
            continue
        grid = [[format_poly(e, p, s) for e in row] for row in rows]
        if is_basic(PolyMatrix.from_strings(field, grid)):
            return rows
    raise RuntimeError(f"no basic encoder on the pattern for {slot}")


def _degree(poly) -> int:
    return max((e for e, c in enumerate(poly) if c), default=-1)


def _format_coeff(code: int, p: int, s: int) -> str:
    if s == 1:
        return str(code)
    digits = []
    for _ in range(s):
        digits.append(code % p)
        code //= p
    return "[" + ",".join(map(str, digits)) + "]"


def format_poly(poly, p: int, s: int) -> str:
    terms = []
    for e, c in enumerate(poly):
        if not c:
            continue
        coeff = _format_coeff(c, p, s)
        if e == 0:
            terms.append(coeff)
        else:
            z = "z" if e == 1 else f"z^{e}"
            terms.append(z if (s == 1 and c == 1) else coeff + z)
    return "+".join(terms) or "0"


def document(workload: str, index: int, slot: Slot, seed: int) -> dict:
    field = field_of(slot.q)
    rng = random.Random(f"convmacw-bench/{workload}/{seed}/{index}")
    if slot.fixed_pattern:
        skeleton = random.Random(f"convmacw-bench/{workload}/pattern/{index}")
        pattern = [[_degree(e) for e in row]
                   for row in draw_encoder(skeleton, field, slot)]
        rows = draw_on_pattern(rng, field, slot, pattern)
    else:
        rows = draw_encoder(rng, field, slot)
    p, s, modulus = FIELDS[slot.q]
    fdecl = {"p": p, "s": s}
    if modulus:
        fdecl["modulus"] = list(modulus)
    return {
        "label": f"{workload} {index:02d}: GF({slot.q}) ({slot.n},{slot.k},"
                 f"{slot.delta}) r={slot.r} r_hat={slot.rhat} -> {slot.route}",
        "field": fdecl,
        "generator": [[format_poly(poly, p, s) for poly in row] for row in rows],
    }


def doc_name(index: int, slot: Slot) -> str:
    return f"{index:02d}-q{slot.q}-n{slot.n}k{slot.k}d{slot.delta}.json"


def doc_bytes(doc: dict) -> bytes:
    return (json.dumps(doc, indent=1) + "\n").encode()


def write_corpus(workload: str, seed: int, out_dir: Path) -> list[dict]:
    """Write the workload's documents and return its op list."""
    out_dir.mkdir(parents=True, exist_ok=True)
    ops = []
    for index, slot in enumerate(WORKLOADS[workload]):
        name = doc_name(index, slot)
        path = out_dir / name
        path.write_bytes(doc_bytes(document(workload, index, slot, seed)))
        ops.append({"name": name, "path": str(path), "mode": slot.mode,
                    "route": slot.route, "q": slot.q})
    return ops
