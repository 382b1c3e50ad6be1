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
average.  Set-up is O(n + m): each common symbol's positions in x and y and
the masks of the symbols left in each suffix.  A state's next occurrences
are found by bisection on those positions the first time a candidate needs
them, and kept in rows shared by the solve's queries.  The solver's only
capacity gate is the work budget EXACT_BUDGET, which counts set-up words,
with the rows as though every one were filled, and expanded search states.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import Counter
from typing import Sequence

from .errors import CapacityError
from .model import Instance, SolveResult, is_subsequence

# The exact solver's only capacity gate: a count, not a timer, so whether
# an instance is refused never depends on the machine.  An expanded search
# state costs one unit and about 90 bytes of memo, and set-up one unit per 16
# machine words of the next-occurrence rows, counted as though every one
# were filled, and of the LCS rows.  The time a state takes grows with m,
# since each state scans its unused common symbols: on a 2-CPU x86-64 host
# under Python 3.11 it is 15-16 us at n = 253, m = 40 (a refusal after
# 7.5-8.2 s), and 55-105 us at n = 800, m = 306-311 (`gen --n 800 --k 400
# --seed 1|2`, refused after 26-50 s; seed 3 solves in 7-10 s).
EXACT_BUDGET = 500_000
N_MAX_BRUTE = 12


# ---------------------------------------------------------------------------
# Classical LCS


def _lcs_rows(x: Sequence[int], y: Sequence[int], cap: int | None = None) -> list[int]:
    """Bit-parallel LCS rows (Allison & Dix 1986, Hyyro 2004) of x against y.

    Row i is an int V_i with bit j clear where D(i, j+1) = D(i, j) + 1, D
    being the classical LCS table of x[:i] and y[:j], so D(i, j) = j -
    popcount(V_i below bit j).  The rows of the longest prefix x[:i] with
    D(i, len(y)) <= cap are kept, about i * len(y) / 8 bytes; without a cap
    that is every row of x.  D(i, len(y)) grows by at most 1 a row, so it is
    read only at the rows where it could first exceed cap.
    """
    ny = len(y)
    full = (1 << ny) - 1
    masks: dict[int, int] = {}
    for j, c in enumerate(y):
        masks[c] = masks.get(c, 0) | 1 << j
    if cap is None:
        cap = len(x)  # never exceeded
    v = full
    rows = [v]
    i, stop = 0, cap + 1
    while i < len(x):
        for c in x[i:stop]:
            u = v & masks.get(c, 0)
            v = ((v + u) | (v - u)) & full
            rows.append(v)
        i = len(rows) - 1
        d = ny - v.bit_count()  # D(i, ny)
        if d > cap:
            rows.pop()
            break
        stop = i + cap + 1 - d
    return rows


def lcs_length(x: Sequence[int], y: Sequence[int], cap: int | None = None) -> SolveResult:
    """LCS with a witness, by backtracking on the rows of `_lcs_rows`.

    With a cap, the witness is that of the longest prefix of x whose LCS
    with y is at most cap: the same witness when L <= cap, and a common
    subsequence of exactly cap symbols when L > cap.

    A match steps diagonally.  Otherwise D(i, j) = d is the max of D(i-1, j)
    and D(i, j-1), both in {d-1, d}: the backtrack steps up when D(i-1, j)
    = d, else left, and d is unchanged either way.  After a left step
    D(i-1, j') <= D(i-1, j) = d - 1 for every j' < j, so the path stays in
    row i until the previous occurrence of x[i-1] in y, found by a scan.
    """
    if cap is not None and cap < 0:
        raise ValueError("cap must be nonnegative")
    rows = _lcs_rows(x, y, cap)
    edges = []
    i, j = len(rows) - 1, len(y)
    d = j - rows[i].bit_count()  # D(i, j); no match is left once it is 0
    while d:
        c = x[i - 1]
        if c == y[j - 1]:
            edges.append((i - 1, j - 1))
            i -= 1
            j -= 1
            d -= 1
        elif j - (rows[i - 1] & ((1 << j) - 1)).bit_count() == d:
            i -= 1
        else:
            j -= 1
            while y[j - 1] != c:
                j -= 1
    edges.reverse()
    return SolveResult(witness=tuple(edges))


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


def _positions(seq: Sequence[int], syms: Sequence[int]) -> list[list[int]]:
    """pos[t] = the ascending positions of syms[t] in seq, then len(seq)."""
    index = {c: t for t, c in enumerate(syms)}
    pos: list[list[int]] = [[] for _ in syms]
    for p, c in enumerate(seq):
        t = index.get(c)
        if t is not None:
            pos[t].append(p)
    for ps in pos:
        ps.append(len(seq))
    return pos


def _suffix_masks(pos: list[list[int]]) -> tuple[list[int], list[int]]:
    """The last positions of the symbols of `pos` (each occurring at least
    once) in ascending order, and masks[r] = the union of the bits 1 << t of
    the symbols from the r-th last position on; so the symbols of seq[p:]
    are masks[bisect_left(lasts, p)]."""
    ends = sorted([(ps[-2], t) for t, ps in enumerate(pos)])
    masks = [0] * (len(ends) + 1)
    for r in range(len(ends) - 1, -1, -1):
        masks[r] = masks[r + 1] | 1 << ends[r][1]
    return [last for last, _ in ends], masks


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
    nx, ny, m, pos_x, pos_y, nxt_x, nxt_y, suf_x, suf_y, rows, failed, left = search
    lasts_x, masks_x = suf_x
    lasts_y, masks_y = suf_y
    stack: list[list] = []  # frames [key, used, need, untried front, best]
    path: list[tuple[int, int]] = []
    i = j = used = 0
    while need:
        key = (used * (nx + 1) + i) * (ny + 1) + j
        avail = masks_x[bisect_left(lasts_x, i)] & masks_y[bisect_left(lasts_y, j)] & ~used
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
            row_x = nxt_x[i]
            if row_x is None:
                row_x = nxt_x[i] = [None] * m
            row_y = nxt_y[j]
            if row_y is None:
                row_y = nxt_y[j] = [None] * m
            cand = []
            while avail:
                low = avail & -avail
                avail ^= low
                t = low.bit_length() - 1
                p = row_x[t]
                if p is None:
                    ps = pos_x[t]
                    p = row_x[t] = ps[bisect_left(ps, i)]
                q = row_y[t]
                if q is None:
                    qs = pos_y[t]
                    q = row_y[t] = qs[bisect_left(qs, j)]
                cand.append((p, q, low))
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
    state costs one more unit.  The next-occurrence rows are filled lazily
    but charged in full: row i of x (j of y) holds, for each symbol t, its
    first position at or after i, filled when a state at i first needs it.
    """
    nx, ny = len(x), len(y)
    common = sorted(set(x).intersection(y))
    if not common:
        return []
    m = len(common)
    # words of the next rows as though all were filled, m(nx + ny + 2), and of
    # the two lists that hold them; then of the LCS rows.  The positions and
    # masks add at most nx + ny + 6m + 2 words, outside this count.
    setup = ((m + 1) * (nx + ny + 2) + (nx + 1) * (ny // 64 + 1)) // 16
    if setup > EXACT_BUDGET:
        raise CapacityError(
            f"exact solver exceeded its work budget of {EXACT_BUDGET}: set-up "
            f"for n = {nx}, {ny} and m = {m} common symbols costs {setup}"
        )
    rows = _lcs_rows(x[::-1], y[::-1])
    pos_x, pos_y = _positions(x, common), _positions(y, common)
    failed: dict[int, int] = {}
    search = (
        nx, ny, m, pos_x, pos_y, [None] * (nx + 1), [None] * (ny + 1),
        _suffix_masks(pos_x), _suffix_masks(pos_y), rows, failed, [EXACT_BUDGET - setup],
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
    return SolveResult(witness=tuple(edges))


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
    return SolveResult(witness=tuple(best_edges))


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
    return SolveResult(witness=tuple(kept))
