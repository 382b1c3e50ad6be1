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


def quadratic_lcs_edges(x, y) -> tuple[tuple[int, int], ...]:
    """LCS witness edges from the full (len(x)+1) x (len(y)+1) table with
    backtracking: a match steps diagonally, otherwise up when
    D(i-1, j) >= D(i, j-1), else left."""
    nx, ny = len(x), len(y)
    prev = [0] * (ny + 1)
    table = [prev]
    for i in range(1, nx + 1):
        xi = x[i - 1]
        cur = [0] * (ny + 1)
        for j in range(1, ny + 1):
            if xi == y[j - 1]:
                cur[j] = prev[j - 1] + 1
            else:
                a, b = prev[j], cur[j - 1]
                cur[j] = a if a >= b else b
        table.append(cur)
        prev = cur
    edges = []
    i, j = nx, ny
    while i > 0 and j > 0:
        if x[i - 1] == y[j - 1] and table[i][j] == table[i - 1][j - 1] + 1:
            edges.append((i - 1, j - 1))
            i -= 1
            j -= 1
        elif table[i - 1][j] >= table[i][j - 1]:
            i -= 1
        else:
            j -= 1
    return tuple(reversed(edges))


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
