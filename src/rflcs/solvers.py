"""Exact and heuristic solvers for (repetition-free) noncrossing matchings.

The exact repetition-free solver is one memoised depth-first search,
`_smallest_path`, which finds the lexicographically smallest repetition-free
common subsequence of `need` symbols, cutting states by their unused
symbols and the LCS of their two suffixes (branch and bound in the sense of
Land & Doig 1960).  `_canonical_edges` queries it from the ceiling
min(L, m) down, each time to the bound that a failed query left at the
root, so the query that proves the optimum returns the canonical
(lexicographically smallest) maximum witness.  On the m = 13 exact-sweep
shapes (regime 3 xi = 1 and 2, regime 2 rho = 4; eight trials at seed 42)
every solve makes that one query and expands 13, 13 and 80 states on
average.  Its only capacity gate is the work budget EXACT_BUDGET, which
counts set-up words and expanded search states.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import Counter
from typing import Sequence

from .errors import CapacityError
from .model import (
    Instance,
    NoncrossingMatching,
    SolveResult,
    is_subsequence,
    matching_from_edges,
)

# The exact solver's only capacity gate: a count, not a timer, so whether
# an instance is refused never depends on the machine.  An expanded search
# state costs one unit and about 90 bytes of memo, and set-up one unit per 16
# machine words.  The time a state takes grows with m, since each state scans
# its unused common symbols: on a 2-CPU x86-64 host under Python 3.11 it is
# 15-16 us at n = 253, m = 40 (a refusal after 7.5-8.2 s), and 55-105 us at
# n = 800, m = 306-311 (`gen --n 800 --k 400 --seed 1|2`, refused after
# 26-50 s; seed 3 solves in 11 s).
EXACT_BUDGET = 500_000
N_MAX_BRUTE = 12


# ---------------------------------------------------------------------------
# Classical LCS


def _lcs_rows(x: Sequence[int], y: Sequence[int]) -> list[int]:
    """Bit-parallel LCS rows (Allison & Dix 1986, Hyyro 2004) of x against y.

    Row i is an int V_i with bit j clear where D(i, j+1) = D(i, j) + 1, D
    being the classical LCS table of x[:i] and y[:j], so D(i, j) = j -
    popcount(V_i below bit j).  All len(x) + 1 rows are kept, about
    len(x) * len(y) / 8 bytes.
    """
    full = (1 << len(y)) - 1
    masks: dict[int, int] = {}
    for j, c in enumerate(y):
        masks[c] = masks.get(c, 0) | 1 << j
    v = full
    rows = [v]
    for c in x:
        u = v & masks.get(c, 0)
        v = ((v + u) | (v - u)) & full
        rows.append(v)
    return rows


def lcs_length(x: Sequence[int], y: Sequence[int]) -> SolveResult:
    """LCS with a witness, by backtracking on the rows of `_lcs_rows`.

    A match steps diagonally.  Otherwise D(i, j) = d is the max of D(i-1, j)
    and D(i, j-1), both in {d-1, d}: the backtrack steps up when D(i-1, j)
    = d, else left, and d is unchanged either way.
    """
    rows = _lcs_rows(x, y)
    edges = []
    i, j = len(x), len(y)
    d = j - rows[i].bit_count()  # D(i, j); no match is left once it is 0
    while d:
        if x[i - 1] == y[j - 1]:
            edges.append((i - 1, j - 1))
            i -= 1
            j -= 1
            d -= 1
        elif j - (rows[i - 1] & ((1 << j) - 1)).bit_count() == d:
            i -= 1
        else:
            j -= 1
    edges.reverse()
    witness = NoncrossingMatching(
        edges=tuple(edges), symbols=tuple(x[i] for i, _ in edges)
    )
    return SolveResult(witness=witness)


# ---------------------------------------------------------------------------
# Longest increasing subsequence (patience style, O(t log t))


def lis_indices(perm: Sequence[int]) -> list[int]:
    """Indices of one longest strictly increasing subsequence."""
    if len(set(perm)) != len(perm):
        raise ValueError("lis_indices requires distinct elements")
    tails: list[int] = []
    tail_idx: list[int] = []
    back = [-1] * len(perm)
    for i, v in enumerate(perm):
        pos = bisect_left(tails, v)
        if pos == len(tails):
            tails.append(v)
            tail_idx.append(i)
        else:
            tails[pos] = v
            tail_idx[pos] = i
        back[i] = tail_idx[pos - 1] if pos > 0 else -1
    out: list[int] = []
    i = tail_idx[-1] if tail_idx else -1
    while i >= 0:
        out.append(i)
        i = back[i]
    out.reverse()
    return out


# ---------------------------------------------------------------------------
# Degree-1 subgraph reduction


def degree_one_edges(x: Sequence[int], y: Sequence[int]) -> list[tuple[int, int, int]]:
    """Edges (i, j, symbol) of the word graph after deleting every edge
    incident to a vertex of degree > 1; sorted by i.

    A vertex has degree > 1 exactly when its symbol occurs more than once
    on the opposite side, and an x-side edge survives only if its symbol
    occurs exactly once in each sequence.
    """
    count_x = Counter(x)
    count_y = Counter(y)
    once_y = {c: j for j, c in enumerate(y) if count_y[c] == 1}
    return [(i, once_y[c], c) for i, c in enumerate(x) if count_x[c] == 1 and c in once_y]


# ---------------------------------------------------------------------------
# Exact repetition-free solver


def _next_tables(seq: Sequence[int], syms: Sequence[int]) -> dict[int, list[int]]:
    """nxt[c][p] = smallest q >= p with seq[q] == c, else len(seq)."""
    tables: dict[int, list[int]] = {c: [] for c in syms}
    for p, c in enumerate(seq):
        tab = tables.get(c)
        if tab is not None:
            tab += [p] * (p + 1 - len(tab))  # every position since the last c
    n = len(seq)
    for tab in tables.values():
        tab += [n] * (n + 1 - len(tab))
    return tables


def _suffix_masks(seq: Sequence[int], bit: dict[int, int]) -> list[int]:
    """masks[p] = union of the bits of the symbols in seq[p:]."""
    masks = [0] * (len(seq) + 1)
    acc = 0
    for p in range(len(seq) - 1, -1, -1):
        acc |= bit.get(seq[p], 0)
        masks[p] = acc
    return masks


def _smallest_path(search: tuple, need: int) -> list[tuple[int, int]] | None:
    """The lexicographically smallest `need` ascending edges of a
    repetition-free common subsequence of x and y, or None if none exist.

    Depth-first from the root (0, 0, nothing used) over states (i, j, used).
    A state's candidates are its unused symbols at their earliest positions
    (p, q) in x[i:] and y[j:].  A candidate beaten in both coordinates by
    another is dropped: it is never lexicographically smaller, and swapping
    it for the one that beats it loses no edge.  The rest are tried in
    increasing p, so the first path of `need` edges is the smallest.  A
    state's bound is the least of its unused symbols, LCS(x[i:], y[j:]) and
    its memo less one; it is expanded only when the bound reaches the edges
    it still needs.  An exhausted state's bound becomes the largest of
    1 + its tried children's bounds, and its memo that plus one, so after a
    failed query failed[0] - 1, the root's bound, lies between the optimum
    and the `need` that failed.
    """
    nx, ny, syms, nxt_x, nxt_y, suf_x, suf_y, rows, failed, left = search
    stack: list[list] = []  # frames [key, used, need, untried front, best]
    path: list[tuple[int, int]] = []
    i = j = used = 0
    while need:
        key = (used * (nx + 1) + i) * (ny + 1) + j
        avail = suf_x[i] & suf_y[j] & ~used
        b = ny - j
        bound = min(
            avail.bit_count(),
            b - (rows[nx - i] & ((1 << b) - 1)).bit_count(),
            failed.get(key, need + 1) - 1,
        )
        if bound >= need:
            left[0] -= 1
            if left[0] < 0:
                raise CapacityError(
                    f"exact solver exceeded its work budget of {EXACT_BUDGET} "
                    "units of set-up and search states"
                )
            cand = []
            while avail:
                low = avail & -avail
                avail ^= low
                c = syms[low.bit_length() - 1]
                cand.append((nxt_x[c][i], nxt_y[c][j], low))
            cand.sort()
            front = []
            q_min = ny
            for p, q, low in cand:
                if q < q_min:
                    q_min = q
                    front.append((p, q, low))
            front.reverse()
            stack.append([key, used, need, front, 0])
        else:  # cut, so never the root
            stack[-1][4] = max(stack[-1][4], 1 + bound)
            path.pop()
        while not stack[-1][3]:
            key, _, _, _, best = stack.pop()
            failed[key] = best + 1
            if not stack:
                return None
            stack[-1][4] = max(stack[-1][4], 1 + best)
            path.pop()
        _, used, need, front, _ = stack[-1]
        p, q, low = front.pop()
        path.append((p, q))
        i, j, used, need = p + 1, q + 1, used | low, need - 1
    return path


def _canonical_edges(x: Sequence[int], y: Sequence[int]) -> list[tuple[int, int]]:
    """Lexicographically smallest maximum repetition-free matching.

    Queries `_smallest_path` from the ceiling min(L, m) down (L the LCS
    length, m the number of common symbols), each time to the root's bound
    that the failed query left, which is at least the optimum; so the first
    query that succeeds has `need` equal to the optimum and returns the
    canonical witness.  Set-up is charged against EXACT_BUDGET before it is
    allocated, one unit per 16 machine words, and every expanded search
    state costs one more unit.
    """
    nx, ny = len(x), len(y)
    common = sorted(set(x).intersection(y))
    if not common:
        return []
    m = len(common)
    # words of the next tables and suffix masks, then of the LCS rows
    setup = ((m + 1) * (nx + ny + 2) + (nx + 1) * (ny // 64 + 1)) // 16
    if setup > EXACT_BUDGET:
        raise CapacityError(
            f"exact solver exceeded its work budget of {EXACT_BUDGET}: set-up "
            f"for n = {nx}, {ny} and m = {m} common symbols costs {setup}"
        )
    bit = {c: 1 << t for t, c in enumerate(common)}
    rows = _lcs_rows(x[::-1], y[::-1])
    failed: dict[int, int] = {}
    search = (
        nx, ny, common, _next_tables(x, common), _next_tables(y, common),
        _suffix_masks(x, bit), _suffix_masks(y, bit), rows, failed, [EXACT_BUDGET - setup],
    )
    need = min(ny - rows[nx].bit_count(), m)
    while (edges := _smallest_path(search, need)) is None:
        need = failed[0] - 1  # the root's bound; key 0 is the root
    return edges


def rflcs_exact(inst: Instance) -> SolveResult:
    """Exact repetition-free LCS with the canonical maximum witness: the
    unique minimum, under lexicographic order on sorted edge lists, among
    maximum repetition-free noncrossing matchings.

    Raises CapacityError when the search's set-up or its expanded states
    exceed the work budget EXACT_BUDGET, whatever the nominal k.
    """
    edges = _canonical_edges(inst.x, inst.y)
    return SolveResult(witness=matching_from_edges(inst, edges))


def rflcs_bruteforce(inst: Instance) -> SolveResult:
    """Test oracle: enumerate repetition-free subsequences of x, keep those
    that embed in y, return a maximum one."""
    if inst.n > N_MAX_BRUTE:
        raise CapacityError(f"rflcs_bruteforce requires n <= {N_MAX_BRUTE}")
    n = inst.n
    best_len = 0
    best_edges: list[tuple[int, int]] = []
    for mask in range(1 << n):
        if mask.bit_count() <= best_len:
            continue
        idx = [i for i in range(n) if mask >> i & 1]
        z = [inst.x[i] for i in idx]
        if len(set(z)) != len(z):
            continue
        if not is_subsequence(z, inst.y):
            continue
        # greedy embedding of z into y for the witness
        edges = []
        j = 0
        for i, c in zip(idx, z):
            while inst.y[j] != c:
                j += 1
            edges.append((i, j))
            j += 1
        best_len = len(z)
        best_edges = edges
    return SolveResult(witness=matching_from_edges(inst, best_edges))


# ---------------------------------------------------------------------------
# Segment-merge heuristic


def _segments(n: int, n_tilde: int) -> list[tuple[int, int]]:
    """Aligned blocks: floor(n / n_tilde) segments of size n_tilde, with the
    leftover folded into the last block."""
    b = n // n_tilde
    if b == 0:
        return [(0, n)] if n else []
    bounds = [(i * n_tilde, (i + 1) * n_tilde) for i in range(b)]
    bounds[-1] = (bounds[-1][0], n)
    return bounds


def segment_merge_heuristic(
    inst: Instance,
    n_tilde: int | None = None,
    per_segment: str = "exact",
) -> SolveResult:
    """Solve aligned segments independently, concatenate, then drop all but
    the leftmost edge of every repeated symbol.

    Segments hold `n_tilde` symbols, by default ceil(k^(3/4)) as in the
    paper's lower-bound construction.  The result is a feasible
    repetition-free noncrossing matching, so its length is a lower bound on
    the exact optimum.
    """
    if n_tilde is None:
        n_tilde = math.ceil(inst.k**0.75)
    if n_tilde < 1:
        raise ValueError("segment size must be positive")
    if per_segment not in ("exact", "lis"):
        raise ValueError("per_segment must be 'exact' or 'lis'")
    edges: list[tuple[int, int]] = []
    for lo, hi in _segments(inst.n, n_tilde):
        sx = inst.x[lo:hi]
        sy = inst.y[lo:hi]
        if per_segment == "exact":
            seg_edges = _canonical_edges(sx, sy)
            edges.extend((lo + i, lo + j) for i, j in seg_edges)
        else:
            deg1 = degree_one_edges(sx, sy)
            keep = lis_indices([j for _, j, _ in deg1])
            edges.extend((lo + deg1[t][0], lo + deg1[t][1]) for t in keep)
    seen: set[int] = set()
    kept: list[tuple[int, int]] = []
    for i, j in edges:  # already sorted by block then i
        c = inst.x[i]
        if c in seen:
            continue
        seen.add(c)
        kept.append((i, j))
    return SolveResult(witness=matching_from_edges(inst, kept))
