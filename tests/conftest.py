"""Shared fixtures: the two worked example codes, golden grids, and the
randomized code corpus used by the acceptance property suite."""

from __future__ import annotations

import itertools
import random
import re
from pathlib import Path

import pytest

from convmacw import DualPair, FieldSpec, FMat, PolyMatrix, WePoly
from oracles import random_minimal_encoder

# a pinned benchmark document: binary (10, 6), delta = 2
LONG_00 = Path(__file__).resolve().parents[1] / "bench/pinned/long/00-q2-n10k6d2.json"

# (5,2,3) binary demo code and a hand-checked minimal generator of its dual
BINARY_523 = [["1+z+z^3", "z^2", "z^2", "1", "z"],
              ["1", "1", "0", "1", "0"]]
BINARY_523_DUAL = [["1", "z", "0", "1+z", "0"],
                   ["0", "z", "z", "z", "1"],
                   ["0", "0", "1", "0", "z"]]

# (3,2,2) ternary demo code with r = r_hat = 1 < delta
TERNARY_322 = [["1+z^2", "2+z", "0"],
               ["1", "0", "2"]]
TERNARY_322_DUAL = [["2+z", "2+2z^2", "2+z"]]

# hand-enumerated weight adjacency matrix of the binary demo code,
# states ordered (0,0,0),(0,0,1),...,(1,1,1)
ADJ_BINARY_523 = [
    ["1+W^3", "0", "0", "0", "W+W^2", "0", "0", "0"],
    ["W+W^2", "0", "0", "0", "W+W^2", "0", "0", "0"],
    ["0", "W^2+W^3", "0", "0", "0", "W+W^4", "0", "0"],
    ["0", "W^2+W^3", "0", "0", "0", "W^2+W^3", "0", "0"],
    ["0", "0", "W^2+W^3", "0", "0", "0", "W^2+W^3", "0"],
    ["0", "0", "W+W^4", "0", "0", "0", "W^2+W^3", "0"],
    ["0", "0", "0", "W^3+W^4", "0", "0", "0", "W^3+W^4"],
    ["0", "0", "0", "W^3+W^4", "0", "0", "0", "W^2+W^5"],
]

# hand-enumerated adjacency matrix of the dual generator above
ADJ_BINARY_523_DUAL = [
    ["1", "W", "W", "W^2", "W^2", "W^3", "W^3", "W^4"],
    ["W", "W^2", "1", "W", "W^3", "W^4", "W^2", "W^3"],
    ["W^3", "W^2", "W^4", "W^3", "W^3", "W^2", "W^4", "W^3"],
    ["W^4", "W^3", "W^3", "W^2", "W^4", "W^3", "W^3", "W^2"],
    ["W^2", "W^3", "W^3", "W^4", "W^2", "W^3", "W^3", "W^4"],
    ["W^3", "W^4", "W^2", "W^3", "W^3", "W^4", "W^2", "W^3"],
    ["W", "1", "W^2", "W", "W^3", "W^2", "W^4", "W^3"],
    ["W^2", "W", "W", "1", "W^4", "W^3", "W^3", "W^2"],
]

# character grid for q = 2, delta = 3 (unnormalized, +-1 entries)
CHAR_GRID_2_3 = [
    [1, 1, 1, 1, 1, 1, 1, 1],
    [1, -1, 1, -1, 1, -1, 1, -1],
    [1, 1, -1, -1, 1, 1, -1, -1],
    [1, -1, -1, 1, 1, -1, -1, 1],
    [1, 1, 1, 1, -1, -1, -1, -1],
    [1, -1, 1, -1, -1, 1, -1, 1],
    [1, 1, -1, -1, -1, -1, 1, 1],
    [1, -1, -1, 1, -1, 1, 1, -1],
]

# closed-form witness for the binary demo pair and its state permutation
WITNESS_Q_BINARY = [[1, 0, 1], [1, 0, 0], [0, 1, 0]]
PERM_Q_BINARY = [
    [1, 0, 0, 0, 0, 0, 0, 0],
    [0, 0, 1, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 1, 0, 0, 0],
    [0, 0, 0, 0, 0, 0, 1, 0],
    [0, 0, 0, 0, 0, 1, 0, 0],
    [0, 0, 0, 0, 0, 0, 0, 1],
    [0, 1, 0, 0, 0, 0, 0, 0],
    [0, 0, 0, 1, 0, 0, 0, 0],
]

WITNESS_P_TERNARY = [[1, 1], [1, 2]]

_TERM = re.compile(r"^(?:(\d+)\*?)?(?:W(?:\^(\d+))?)?$")


def we(text: str) -> WePoly:
    """Tiny parser for golden enumerators like '1+W^3' or 'W^2+W^3'."""
    text = text.replace(" ", "")
    if text == "0":
        return WePoly.empty()
    coeffs: dict[int, int] = {}
    for term in text.split("+"):
        m = _TERM.match(term)
        if not m or (m.group(1) is None and "W" not in term):
            raise ValueError(f"bad golden term {term!r}")
        c = int(m.group(1)) if m.group(1) else 1
        if "W" in term:
            d = int(m.group(2)) if m.group(2) else 1
        else:
            d = 0
        coeffs[d] = coeffs.get(d, 0) + c
    top = max(coeffs)
    return WePoly([coeffs.get(j, 0) for j in range(top + 1)])


def projective_candidates(field: FieldSpec, delta: int):
    """Reference enumeration of the witness search's candidates: every
    delta x delta matrix in lexicographic order of its flattened entry
    codes, kept when its first nonzero entry is 1 and it is invertible,
    so exactly one representative per projective class."""
    for flat in itertools.product(range(field.q), repeat=delta * delta):
        if delta and next((c for c in flat if c), None) != 1:
            continue
        P = FMat(field, delta, delta,
                 [[field.element(c) for c in flat[i * delta:(i + 1) * delta]]
                  for i in range(delta)])
        if P.is_invertible():
            yield P


@pytest.fixture(scope="session")
def f2():
    return FieldSpec(2)


@pytest.fixture(scope="session")
def f3():
    return FieldSpec(3)


@pytest.fixture(scope="session")
def f4():
    return FieldSpec(2, 2, [1, 1, 1])


@pytest.fixture(scope="session")
def binary_523(f2):
    return PolyMatrix.from_strings(f2, BINARY_523)


@pytest.fixture(scope="session")
def binary_523_dual(f2):
    return PolyMatrix.from_strings(f2, BINARY_523_DUAL)


@pytest.fixture(scope="session")
def binary_pair(binary_523, binary_523_dual):
    """Demo pair pinned to the hand-checked dual generator."""
    return DualPair(binary_523, binary_523_dual)


@pytest.fixture(scope="session")
def ternary_322(f3):
    return PolyMatrix.from_strings(f3, TERNARY_322)


@pytest.fixture(scope="session")
def ternary_322_dual(f3):
    return PolyMatrix.from_strings(f3, TERNARY_322_DUAL)


@pytest.fixture(scope="session")
def ternary_pair(ternary_322, ternary_322_dual):
    return DualPair(ternary_322, ternary_322_dual)


def sample_corpus(rng: random.Random, field: FieldSpec, count: int,
                  delta_max: int) -> list[DualPair]:
    deltas = [d for d in (0, 1, 1, 2, 2, 3) if d <= delta_max]
    out = []
    while len(out) < count:
        n = rng.randint(2, 5)
        k = rng.randint(1, n - 1)
        delta = rng.choice(deltas)
        G = random_minimal_encoder(rng, field, n, k, delta)
        out.append(DualPair(G))
    return out


@pytest.fixture(scope="session")
def corpus():
    """At least 50 random codes per field configuration."""
    rng = random.Random(987654321)
    items = []
    items += sample_corpus(rng, FieldSpec(2), 50, 3)
    items += sample_corpus(rng, FieldSpec(3), 50, 3)
    items += sample_corpus(rng, FieldSpec(2, 2, [1, 1, 1]), 50, 1)
    return items
