"""Shared test helpers: brute-force oracles kept independent of the
implementation paths they check."""

import json
import math
import pathlib
from itertools import combinations, product

import pytest

from rflcs.model import Instance, is_subsequence

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


@pytest.fixture(scope="session")
def pilot():
    return json.loads((FIXTURES / "pilot.json").read_text())


def exhaustive_lcs(x, y) -> int:
    """LCS length by enumerating every subsequence of x (n <= ~12)."""
    n = len(x)
    best = 0
    for mask in range(1 << n):
        if mask.bit_count() <= best:
            continue
        z = [x[i] for i in range(n) if mask >> i & 1]
        if is_subsequence(z, y):
            best = len(z)
    return best


def exhaustive_rflcs(x, y) -> int:
    """Repetition-free LCS length by enumeration (n <= ~12)."""
    n = len(x)
    best = 0
    for mask in range(1 << n):
        if mask.bit_count() <= best:
            continue
        z = [x[i] for i in range(n) if mask >> i & 1]
        if len(set(z)) == len(z) and is_subsequence(z, y):
            best = len(z)
    return best


def enumerate_canonical(inst: Instance):
    """All maximum repetition-free noncrossing matchings, minimized under
    lexicographic order on the sorted edge list.  Returns (length, edges)."""
    n = inst.n
    best = [0, None]

    def rec(i0, j0, used, edges):
        le = len(edges)
        if le > best[0] or (le == best[0] and (best[1] is None or tuple(edges) < best[1])):
            best[0] = le
            best[1] = tuple(edges)
        for i in range(i0 + 1, n):
            c = inst.x[i]
            if c in used:
                continue
            for j in range(j0 + 1, n):
                if inst.y[j] == c:
                    rec(i, j, used | {c}, edges + [(i, j)])

    rec(-1, -1, set(), [])
    return best[0], best[1]


def classical_urn_inclusion_exclusion(k: int, s: int) -> list[float]:
    """Exact pmf of the classical empty-urn count by inclusion-exclusion:
    P(Y = m) = C(k,m) * sum_j (-1)^j C(k-m,j) ((k-m-j)/k)^s."""
    denom = k**s
    probs = []
    for m in range(k + 1):
        num = 0
        for j in range(k - m + 1):
            term = math.comb(k - m, j) * (k - m - j) ** s
            num += -term if j % 2 else term
        probs.append(math.comb(k, m) * num / denom)
    return probs


def grouped_urn_enumeration(k: int, s_vec) -> list[float]:
    """Exact pmf of the grouped empty-urn count by enumerating every
    combination of one s_i-subset per group."""
    masks_per_group = [
        [sum(1 << u for u in combo) for combo in combinations(range(k), si)]
        for si in s_vec
    ]
    counts = [0] * (k + 1)
    for choice in product(*masks_per_group):
        union = 0
        for m in choice:
            union |= m
        counts[k - union.bit_count()] += 1
    total = math.prod(len(masks) for masks in masks_per_group)
    return [c / total for c in counts]
