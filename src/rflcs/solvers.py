"""Exact and heuristic solvers for (repetition-free) noncrossing matchings.

The exact repetition-free solver is three private functions.
`_common_symbols` finds the m symbols that occur in both sequences and is
the only capacity gate: a fixed cap on m, since the cost is O(2^m * n).
`_frontiers` is a dynamic program over symbol subsets S with Pareto
frontiers of minimal (suffix-of-x, suffix-of-y) lengths in which some
ordering of S embeds as a common subsequence; it runs on the reversed
sequences.  `_canonical_edges` answers suffix-feasibility queries from
those frontiers and recovers the canonical (lexicographically smallest)
maximum witness greedily edge by edge.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import combinations
from typing import Sequence

from .errors import CapacityError
from .model import (
    Instance,
    NoncrossingMatching,
    SolveResult,
    is_subsequence,
    matching_from_edges,
)

M_MAX_EXACT = 20
N_MAX_BRUTE = 12


# ---------------------------------------------------------------------------
# Classical LCS


def lcs_length(x: Sequence[int], y: Sequence[int]) -> SolveResult:
    """Bit-parallel LCS rows (Allison & Dix 1986, Hyyro 2004) with witness
    recovery by backtracking.

    Row i is an int V_i with bit j clear where D(i, j+1) = D(i, j) + 1, D
    being the classical LCS table, so D(i, j) = j - popcount(V_i below bit
    j).  Every row is kept for the backtrack, about len(x) * len(y) / 8
    bytes.  The backtrack takes a match diagonally and otherwise steps up
    when D(i-1, j) >= D(i, j-1), else left.
    """
    nx, ny = len(x), len(y)
    full = (1 << ny) - 1
    masks: dict[int, int] = {}
    for j, c in enumerate(y):
        masks[c] = masks.get(c, 0) | 1 << j
    v = full
    rows = [v]
    for c in x:
        u = v & masks.get(c, 0)
        v = ((v + u) | (v - u)) & full
        rows.append(v)
    edges = []
    i, j = nx, ny
    d = ny - v.bit_count()  # D(i, j); no match is left once it is 0
    while d:
        if x[i - 1] == y[j - 1]:
            edges.append((i - 1, j - 1))
            i -= 1
            j -= 1
            d -= 1
            continue
        up = j - (rows[i - 1] & ((1 << j) - 1)).bit_count()
        left = d - 1 + (rows[i] >> (j - 1) & 1)
        if up >= left:
            i -= 1
            d = up
        else:
            j -= 1
            d = left
    edges.reverse()
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


def _pareto_min(points: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """Keep minimal points; result sorted by first coord asc, second desc."""
    points.sort()
    out: list[tuple[int, int]] = []
    best = None
    for a, b in points:
        if best is None or b < best:
            out.append((a, b))
            best = b
    return out


def _next_tables(seq: Sequence[int], syms: Sequence[int]) -> dict[int, list[int]]:
    """nxt[c][p] = smallest q >= p with seq[q] == c, else len(seq)."""
    n = len(seq)
    tables = {c: [n] * (n + 1) for c in syms}
    for p in range(n - 1, -1, -1):
        for tab in tables.values():
            tab[p] = tab[p + 1]
        t = tables.get(seq[p])
        if t is not None:
            t[p] = p
    return tables


def _common_symbols(x: Sequence[int], y: Sequence[int]) -> list[int]:
    """Sorted symbols that occur in both sequences.  The exact solver's only
    capacity gate: its cost is O(2^m * n) for m such symbols."""
    syms = sorted(set(x) & set(y))
    if len(syms) > M_MAX_EXACT:
        raise CapacityError(
            f"exact solver limited to {M_MAX_EXACT} symbols common to both "
            f"sequences (got {len(syms)})"
        )
    return syms


def _frontiers(
    x: Sequence[int], y: Sequence[int], syms: Sequence[int]
) -> dict[int, list[tuple[int, int]]]:
    """Subset DP over the reversed sequences: for each feasible mask (bit i
    stands for syms[i]), the Pareto-minimal (a, b) such that the subset
    embeds in the last a symbols of x and the last b of y.

    Masks are visited in numeric order, which is safe because every
    predecessor mask ^ low is smaller than mask.
    """
    n = len(x)
    nxt_x = _next_tables(x[::-1], syms)
    nxt_y = _next_tables(y[::-1], syms)
    g: dict[int, list[tuple[int, int]]] = {0: [(0, 0)]}
    for mask in range(1, 1 << len(syms)):
        cand: list[tuple[int, int]] = []
        rest = mask
        while rest:
            low = rest & -rest
            rest ^= low
            sub = g.get(mask ^ low)
            if sub is None:
                continue
            c = syms[low.bit_length() - 1]
            tx = nxt_x[c]
            ty = nxt_y[c]
            for a, b in sub:
                p = tx[a]
                q = ty[b]
                if p < n and q < n:
                    cand.append((p + 1, q + 1))
        if cand:
            g[mask] = _pareto_min(cand)
    return g


def _canonical_edges(x: Sequence[int], y: Sequence[int]) -> list[tuple[int, int]]:
    """Lexicographically smallest maximum repetition-free matching, built
    greedily edge by edge from the suffix frontiers."""
    syms = _common_symbols(x, y)
    g = _frontiers(x, y, syms)
    total = max(mask.bit_count() for mask in g)
    if total == 0:
        return []
    n = len(x)
    m = len(syms)
    bit = {c: 1 << i for i, c in enumerate(syms)}
    pos_y: dict[int, list[int]] = {}
    for j, c in enumerate(y):
        pos_y.setdefault(c, []).append(j)
    allowed = (1 << m) - 1
    i0 = j0 = -1
    edges: list[tuple[int, int]] = []
    all_bits = [1 << i for i in range(m)]
    while len(edges) < total:
        remaining = total - len(edges) - 1
        # need[c_bit]: Pareto-min suffix requirements over subsets of
        # size `remaining` drawn from allowed symbols other than c.
        need: dict[int, list[tuple[int, int]]] = {}
        avail = [b for b in all_bits if allowed & b]
        if remaining == 0:
            for b in avail:
                need[b] = [(0, 0)]
        else:
            acc: dict[int, list[tuple[int, int]]] = {b: [] for b in avail}
            for combo in combinations(avail, remaining):
                mask = 0
                for b in combo:
                    mask |= b
                fr = g.get(mask)
                if fr is None:
                    continue
                for b in avail:
                    if not (mask & b):
                        acc[b].extend(fr)
            for b in avail:
                if acc[b]:
                    need[b] = _pareto_min(acc[b])
        found = False
        for i in range(i0 + 1, n):
            c = x[i]
            b = bit.get(c)
            if b is None or not (allowed & b) or b not in need:
                continue
            ys = pos_y.get(c)
            if not ys:
                continue
            jpos = bisect_right(ys, j0)
            if jpos == len(ys):
                continue
            j = ys[jpos]
            fr = need[b]
            # rightmost frontier point with suffix-x requirement <= n-1-i
            hi = bisect_right(fr, (n - 1 - i, n + 1)) - 1
            if hi < 0 or fr[hi][1] > n - 1 - j:
                continue
            edges.append((i, j))
            allowed &= ~b
            i0, j0 = i, j
            found = True
            break
        if not found:  # unreachable if the DP is consistent
            raise RuntimeError("canonical recovery failed to extend matching")
    return edges


def rflcs_exact(inst: Instance) -> SolveResult:
    """Exact repetition-free LCS with the canonical maximum witness: the
    unique minimum, under lexicographic order on sorted edge lists, among
    maximum repetition-free noncrossing matchings.

    Raises CapacityError when more than M_MAX_EXACT symbols occur in both
    sequences, whatever the nominal k.
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


@dataclass(frozen=True)
class SegmentPlan:
    """Aligned-block segmentation: b = floor(n / n_tilde) segments of size
    n_tilde, with the leftover folded into the last block."""

    n_tilde: int

    def __post_init__(self):
        if self.n_tilde < 1:
            raise ValueError("segment size must be positive")

    def segments(self, n: int) -> list[tuple[int, int]]:
        b = n // self.n_tilde
        if b == 0:
            return [(0, n)] if n else []
        bounds = [(i * self.n_tilde, (i + 1) * self.n_tilde) for i in range(b)]
        bounds[-1] = (bounds[-1][0], n)
        return bounds


def segment_merge_heuristic(
    inst: Instance,
    plan: SegmentPlan,
    per_segment: str = "exact",
) -> SolveResult:
    """Solve aligned segments independently, concatenate, then drop all but
    the leftmost edge of every repeated symbol.

    The result is a feasible repetition-free noncrossing matching, so its
    length is a lower bound on the exact optimum.
    """
    if per_segment not in ("exact", "lis"):
        raise ValueError("per_segment must be 'exact' or 'lis'")
    edges: list[tuple[int, int]] = []
    for lo, hi in plan.segments(inst.n):
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
