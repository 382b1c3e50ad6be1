"""Exact and heuristic solvers for (repetition-free) noncrossing matchings.

The exact repetition-free solver is one memoised depth-first search,
`_feasible`, which answers "can `need` more unused symbols be matched in
x[i:], y[j:]?" with the LCS of the two suffixes as its bound.
`_canonical_edges` finds the optimum and then recovers the canonical
(lexicographically smallest) maximum witness greedily edge by edge from
the same query.  The optimum is certified without a query when
`_floor_edges`, a repetition-free subsequence built from the LCS witness
of the rows set-up already holds, reaches the ceiling min(L, m); only
otherwise does it come from queries of growing `need` at (0, 0).  On the
m = 13 exact-sweep shapes (regime 3 xi = 1 and 2, regime 2 rho = 4) the
certificate fires on 100%, 100% and about 80% of instances and a solve
expands 78, 78 and 104 states instead of 169, 169 and 180.  Its only
capacity gate is the work budget EXACT_BUDGET, which counts set-up words
and expanded search states.
"""

from __future__ import annotations

import math
from bisect import bisect_left
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
# 14-18 us at n = 253, m = 40 (a refusal after 7-9 s), and 42-102 us at
# n = 800, m = 306-311 (`gen --n 800 --k 400 --seed 1|2|3`, refused after
# 20-48 s).
# The floor that certifies an optimum reads rows set-up already paid for,
# so it is free; a certified solve skips the optimum loop, and on every
# instance tested it expanded no more states than with the loop.
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


def _lcs_backtrack(x: Sequence[int], y: Sequence[int], rows: list[int]) -> list[tuple[int, int]]:
    """Edges (i, j) of an LCS witness of x and y, ascending, from the rows
    of `_lcs_rows(x, y)`.

    A match steps diagonally.  Otherwise D(i, j) = d is the max of D(i-1, j)
    and D(i, j-1), both in {d-1, d}: the backtrack steps up when D(i-1, j)
    = d, else left, and d is unchanged either way.
    """
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
    return edges


def lcs_length(x: Sequence[int], y: Sequence[int]) -> SolveResult:
    """LCS with a witness, by backtracking on the rows of `_lcs_rows`."""
    edges = _lcs_backtrack(x, y, _lcs_rows(x, y))
    witness = NoncrossingMatching(
        edges=tuple(edges), symbols=tuple(x[i] for i, _ in edges)
    )
    return SolveResult(witness=witness, method="lcs")


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
    count_x: dict[int, int] = {}
    count_y: dict[int, int] = {}
    first_x: dict[int, int] = {}
    first_y: dict[int, int] = {}
    for i, c in enumerate(x):
        count_x[c] = count_x.get(c, 0) + 1
        first_x.setdefault(c, i)
    for j, c in enumerate(y):
        count_y[c] = count_y.get(c, 0) + 1
        first_y.setdefault(c, j)
    edges = [
        (first_x[c], first_y[c], c)
        for c in count_x
        if count_x[c] == 1 and count_y.get(c) == 1
    ]
    edges.sort()
    return edges


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


def _feasible(search: tuple, i: int, j: int, used: int, need: int) -> bool:
    """Whether `need` more symbols outside the bit set `used` match as a
    repetition-free common subsequence of x[i:] and y[j:].

    Depth-first over states (i, j, used).  A state's candidates are its
    unused symbols at their earliest positions (p, q) in both suffixes;
    a candidate beaten in both coordinates by another is dropped, and the
    rest are tried in order of max(p, q).  A state is cut when `need`
    exceeds its unused symbols or LCS(x[i:], y[j:]); a failed state is
    memoised with the smallest `need` that failed.
    """
    nx, ny, syms, nxt_x, nxt_y, suf_x, suf_y, rows, failed, left = search
    stack: list[tuple[int, int, int, list]] = []
    while True:
        if need == 0:
            return True
        key = (used * (nx + 1) + i) * (ny + 1) + j
        avail = suf_x[i] & suf_y[j] & ~used
        b = ny - j
        if (
            failed.get(key, need + 1) > need
            and need <= avail.bit_count()
            and need <= b - (rows[nx - i] & ((1 << b) - 1)).bit_count()
        ):
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
                    front.append((max(p, q), p, q, low))
            front.sort(reverse=True)
            stack.append((key, used, need, front))
        while stack:
            key, used, need, front = stack[-1]
            if front:
                break
            failed[key] = need
            stack.pop()
        else:
            return False
        _, p, q, low = front.pop()
        i, j, used, need = p + 1, q + 1, used | low, need - 1


def _floor_edges(
    x: Sequence[int],
    y: Sequence[int],
    rows: list[int],
    nxt_x: dict[int, list[int]],
    nxt_y: dict[int, list[int]],
) -> list[tuple[int, int]]:
    """A repetition-free common subsequence of x and y, as ascending edges,
    so a floor on the optimum (the paper's lower-bound construction).

    `rows` are those of `_lcs_rows(x[::-1], y[::-1])`.  Their LCS witness
    keeps the first edge of each symbol; then, gap by gap from the left,
    unused symbols among the keys of `nxt_y` are inserted between the kept
    edges, each time the one whose earliest fit in the gap ends first.
    """
    nx, ny = len(x), len(y)
    kept = []
    seen = set()
    for i, j in reversed(_lcs_backtrack(x[::-1], y[::-1], rows)):
        i = nx - 1 - i
        if x[i] not in seen:
            seen.add(x[i])
            kept.append((i, ny - 1 - j))
    unused = [c for c in nxt_y if c not in seen]
    edges: list[tuple[int, int]] = []
    p0 = q0 = 0
    for i_end, j_end in kept + [(nx, ny)]:
        while unused:
            best = None
            for c in unused:
                p, q = nxt_x[c][p0], nxt_y[c][q0]
                if p < i_end and q < j_end and (best is None or max(p, q) < best[0]):
                    best = (max(p, q), p, q, c)
            if best is None:
                break
            _, p, q, c = best
            edges.append((p, q))
            unused.remove(c)
            p0, q0 = p + 1, q + 1
        if i_end < nx:
            edges.append((i_end, j_end))
        p0, q0 = i_end + 1, j_end + 1
    return edges


def _canonical_edges(x: Sequence[int], y: Sequence[int]) -> list[tuple[int, int]]:
    """Lexicographically smallest maximum repetition-free matching.

    The optimum is min(L, m) when `_floor_edges` reaches that ceiling (L the
    LCS length, m the number of common symbols); otherwise it is the largest
    `need` feasible from (0, 0).  The witness is built greedily: each edge
    takes the smallest i, then the earliest j, from which the rest stays
    feasible.  Set-up is charged against EXACT_BUDGET before it is
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
    nxt_x = _next_tables(x, common)
    nxt_y = _next_tables(y, common)
    suf_x = _suffix_masks(x, bit)
    suf_y = _suffix_masks(y, bit)
    rows = _lcs_rows(x[::-1], y[::-1])
    search = (nx, ny, common, nxt_x, nxt_y, suf_x, suf_y, rows, {}, [EXACT_BUDGET - setup])
    total = min(ny - rows[nx].bit_count(), m)
    if len(_floor_edges(x, y, rows, nxt_x, nxt_y)) < total:
        total = 0
        while _feasible(search, 0, 0, 0, total + 1):
            total += 1
    edges: list[tuple[int, int]] = []
    used = i0 = j0 = 0
    while len(edges) < total:
        for i in range(i0, nx):
            b = bit.get(x[i], 0) & ~used  # a common symbol, unmatched
            if not b:
                continue
            j = nxt_y[x[i]][j0]
            if j < ny and _feasible(search, i + 1, j + 1, used | b, total - len(edges) - 1):
                edges.append((i, j))
                used |= b
                i0, j0 = i + 1, j + 1
                break
        else:  # unreachable: a feasible need always extends
            raise RuntimeError("canonical recovery failed to extend matching")
    return edges


def rflcs_exact(inst: Instance) -> SolveResult:
    """Exact repetition-free LCS with the canonical maximum witness: the
    unique minimum, under lexicographic order on sorted edge lists, among
    maximum repetition-free noncrossing matchings.

    Raises CapacityError when the search's set-up or its expanded states
    exceed the work budget EXACT_BUDGET, whatever the nominal k.
    """
    edges = _canonical_edges(inst.x, inst.y)
    return SolveResult(witness=matching_from_edges(inst, edges), method="exact")


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
    return SolveResult(witness=matching_from_edges(inst, best_edges), method="brute")


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
    return SolveResult(witness=matching_from_edges(inst, kept), method="heuristic")
