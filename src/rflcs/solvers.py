"""Exact and heuristic solvers for (repetition-free) noncrossing matchings.

The exact repetition-free solver is one memoised depth-first search,
`_smallest_path`, which finds the lexicographically smallest repetition-free
common subsequence of `need` symbols, cutting states by their unused
symbols and the LCS of their two suffixes (branch and bound in the sense of
Land & Doig 1960).  `_canonical_edges` queries it from the ceiling
min(L, m) down, each time to the bound that a failed query left at the
root, so the query that proves the optimum returns the canonical
(lexicographically smallest) maximum witness.  Before any query,
`_first_descent` follows the first path that a query for all m symbols
would take, on the tables it needs (no LCS row, match mask or suffix
mask); where that path matches all m symbols, it is the witness, and no
query runs.  It tests a candidate only against the unused symbol of least
last position in x and in y, read by two pointers into the sorted last
positions, and finds a candidate's next position in y only when it
examines it.  On the m = 13 exact-sweep shapes (regime 3 xi = 1 and 2,
regime 2 rho = 4; eight trials at each of the seeds 0-99) R = m on every
trial, and the descent certifies 800, 800 and 647 of the 800; each other
solve makes one query.  Set-up codes x and y as bytes, once per 255
common symbols (once in all where every symbol lies in [0, 256)), so that
C-level passes find each symbol's first, last and next positions
(`bytes.find` and `bytes.rfind`) and its match mask in reversed y
(`bytes.translate`, then `int(..., 2)`); no Python loop runs over the
positions.  A child state inherits its candidates' next occurrences from
its parent and finds only those that the chosen edge passed over.  The
LCS bound reads bit-parallel rows of the reversed sequences, filled only
as far as the search reads them: 21-35 of the 95 rows in the three
solves of the eight trials at seed 12 that the descent leaves to the
search.  The solver's only capacity gate is the work budget EXACT_BUDGET,
which counts expanded search states and set-up words, as though a
next-occurrence row at every position and every LCS row were built.
"""

from __future__ import annotations

import math
from bisect import bisect_left, insort
from itertools import chain
from typing import Callable, Sequence

import numpy as np

from .errors import CapacityError
from .model import Instance, LcsLength, SolveResult, is_subsequence

# The exact solver's only capacity gate: a count, not a timer, so whether
# an instance is refused never depends on the machine.  An expanded search
# state costs one unit and about 90 bytes of memo, and set-up one unit per 16
# machine words of a next-occurrence row at every position and of every LCS
# row, though the search builds no next row (it searches byte-coded copies
# of x and y) and fills only the LCS rows it reads: the charge is unchanged,
# so that the same instances are refused.  A solve that the first descent
# certifies is charged set-up plus m units, as the search's first query is
# for the same path, so it is refused where the search refuses it.  The time
# a state takes grows with m, since each state walks its parent's
# candidates: on a 2-CPU x86-64 host under Python 3.11 it is 11-17 us at
# n = 253, m = 40 (a refusal after 5.7-8.3 s), and 19-36 us at n = 800,
# m = 306-311 (`gen --n 800 --k 400 --seed 1|2`, refused after 9-17 s; seed
# 3 solves in 2.6 s).
EXACT_BUDGET = 500_000
N_MAX_BRUTE = 12
# `_match_masks` builds the masks of y in numpy where y has at least
# _MASKS_NUMPY_MIN symbols and at least _MASKS_NUMPY_PER_SYMBOL of them per
# distinct symbol, and by a loop of Python int ORs elsewhere, where the loop
# was faster: 0.12 against 0.23 ms at n = 800, k = 400, and 1.6 against 13 ms
# at n = 8,192 with distinct symbols (2-CPU x86-64 host, Python 3.11).  The
# masks are the same either way.  Each numpy block of symbols holds at most
# _MASK_BLOCK_BYTES of masks, so the scratch stays a small part of the
# masks' own m * n / 8 bytes.
_MASKS_NUMPY_MIN = 1024
_MASKS_NUMPY_PER_SYMBOL = 8
_MASK_BLOCK_BYTES = 1 << 20


# ---------------------------------------------------------------------------
# Classical LCS


def _lcs_upto(rows: list[int], x: Sequence[int], masks: dict[int, int], t: int, b: int, c: int) -> int:
    """min(D(t, b), c), D being the classical LCS table of x[:t] and y[:b].

    `rows` holds the bit-parallel rows (Allison & Dix 1986, Hyyro 2004) built
    so far, rows[0] all ones with one bit per symbol of y, and masks[s] has
    bit j set where y[j] == s (a symbol not in masks matches nothing).  Row i
    is an int V_i with bit j clear where D(i, j+1) = D(i, j) + 1, so D(i, b)
    = b - popcount(V_i below bit b).  Rows are appended only as far as the
    answer needs: D(t, b) does not fall as t grows, so once the last row
    reaches c at b the answer is c.  D(i, b) grows by at most 1 a row, so it
    is read only at the rows where it could first reach c.  `lcs_length`
    runs the same update but keeps only the current row.
    """
    below = (1 << b) - 1
    i = len(rows) - 1
    if t <= i:
        return min(b - (rows[t] & below).bit_count(), c)
    full = rows[0]
    v = rows[i]
    d = b - (v & below).bit_count()
    while d < c and i < t:
        stop = i + c - d
        if stop > t:
            stop = t
        for ch in x[i:stop]:
            u = v & masks.get(ch, 0)
            v = ((v + u) | (v - u)) & full
            rows.append(v)
        i = stop
        d = b - (v & below).bit_count()
    return d if d < c else c


def _match_masks(y: Sequence[int]) -> dict[int, int]:
    """masks[s] has bit j set where y[j] == s, for every symbol s of y.

    A loop ORs each bit into its symbol's int, O(len(y)^2 / 64) machine
    words in all; `_packed_masks` takes O(len(y) + m * len(y) / 64) words
    for m symbols, and is used for long y with few symbols (see
    _MASKS_NUMPY_MIN).
    """
    if len(y) >= _MASKS_NUMPY_MIN:
        symbols = set(y)
        if len(y) >= _MASKS_NUMPY_PER_SYMBOL * len(symbols):
            # int64, or Python ints when a symbol does not fit: left to infer
            # the dtype, numpy makes floats of symbols on both sides of 2^63
            wide = min(symbols) < -(1 << 63) or max(symbols) >= 1 << 63
            return _packed_masks(np.fromiter(y, object if wide else np.int64, len(y)))
    masks: dict[int, int] = {}
    for j, c in enumerate(y):
        masks[c] = masks.get(c, 0) | 1 << j
    return masks


def _packed_masks(y: np.ndarray) -> dict[int, int]:
    """The match masks of y, built in numpy: a stable sort groups the
    positions by symbol, and each block of symbols scatters its bits into a
    zeroed uint8 buffer of at most _MASK_BLOCK_BYTES (ORing the bits of each
    byte by `reduceat`), from which each mask is read by one int.from_bytes."""
    ny = len(y)
    pos = np.argsort(y, kind="stable")  # by symbol, then by position
    ordered = y[pos]
    new = np.concatenate(([True], ordered[1:] != ordered[:-1]))
    run = np.cumsum(new) - 1  # the rank of each position's symbol
    starts = np.flatnonzero(new)
    symbols = ordered[starts].tolist()
    starts = [*starts.tolist(), ny]
    bit = np.left_shift(1, pos & 7).astype(np.uint8)
    width = (ny + 7) // 8
    per_block = max(1, _MASK_BLOCK_BYTES // width)
    masks: dict[int, int] = {}
    for r0 in range(0, len(symbols), per_block):
        r1 = min(r0 + per_block, len(symbols))
        lo, hi = starts[r0], starts[r1]
        byte = (run[lo:hi] - r0) * width + (pos[lo:hi] >> 3)  # nondecreasing
        first = np.flatnonzero(np.concatenate(([True], byte[1:] != byte[:-1])))
        buf = np.zeros((r1 - r0) * width, np.uint8)
        buf[byte[first]] = np.bitwise_or.reduceat(bit[lo:hi], first)
        view = memoryview(buf)
        for c, b in zip(symbols[r0:r1], range(0, len(buf), width)):
            masks[c] = int.from_bytes(view[b:b + width], "little")
    return masks


def _lcs_rows(x: Sequence[int], y: Sequence[int], cap: int | None = None) -> list[int]:
    """The bit-parallel LCS rows of x against y, built by `_lcs_upto` from
    the match masks of `_match_masks`.

    The rows of the longest prefix x[:i] with D(i, len(y)) <= cap are kept,
    about i * len(y) / 8 bytes; without a cap that is every row of x.
    """
    ny = len(y)
    rows = [(1 << ny) - 1]
    if cap is None:
        cap = len(x)  # never exceeded
    if _lcs_upto(rows, x, _match_masks(y), len(x), ny, cap + 1) > cap:
        rows.pop()
    return rows


def lcs_length(x: Sequence[int], y: Sequence[int], cap: int | None = None) -> LcsLength:
    """min(L, cap), L the LCS length of x and y, with no witness.

    The update of `_lcs_upto` on the same match masks, but only the current
    row is kept, so memory is the masks and one len(y)-bit int: no n^2/8
    bytes of rows where L < cap.  As there, D = len(y) - popcount(V) is read
    only at the rows where it could first reach the cap, and the pass stops
    once it does; without a cap D is read once, after the last row.
    """
    if cap is not None and cap < 0:
        raise ValueError("cap must be nonnegative")
    nx, ny = len(x), len(y)
    c = nx if cap is None else cap  # D never exceeds nx
    masks = _match_masks(y)
    full = v = (1 << ny) - 1
    i = d = 0
    while d < c and i < nx:
        stop = i + c - d  # D grows by at most 1 a row, so d <= c below
        if stop > nx:
            stop = nx
        for ch in x[i:stop]:
            u = v & masks.get(ch, 0)
            v = ((v + u) | (v - u)) & full
        i = stop
        d = ny - v.bit_count()
    return LcsLength(d)


def lcs_witness(x: Sequence[int], y: Sequence[int], cap: int | None = None) -> SolveResult:
    """LCS with a witness, by backtracking on the rows of `_lcs_rows`, which
    keeps about len(x) * len(y) / 8 bytes of them where L <= cap.

    With a cap, the witness is that of the longest prefix of x whose LCS
    with y is at most cap: the same witness when L <= cap, and a common
    subsequence of exactly cap symbols when L > cap.

    A match steps diagonally.  Otherwise D(i, j) = d is the max of D(i-1, j)
    and D(i, j-1), both in {d-1, d}: the backtrack steps up when D(i-1, j)
    = d, else left, and d is unchanged either way.  After a left step
    D(i-1, j') <= D(i-1, j) = d - 1 for every j' < j, so the path stays in
    row i until the previous occurrence of x[i-1] in y, found by a scan.
    The mask of the bits below j and j - d are kept across up-steps, which
    change neither j nor d.
    """
    if cap is not None and cap < 0:
        raise ValueError("cap must be nonnegative")
    rows = _lcs_rows(x, y, cap)
    edges = []
    i, j = len(rows) - 1, len(y)
    d = j - rows[i].bit_count()  # D(i, j); no match is left once it is 0
    below, ones = (1 << j) - 1, j - d
    while d:
        c = x[i - 1]
        if c == y[j - 1]:
            edges.append((i - 1, j - 1))
            i -= 1
            j -= 1
            d -= 1
            below >>= 1  # j - d is unchanged
        elif (rows[i - 1] & below).bit_count() == ones:  # D(i-1, j) == d
            i -= 1
        else:
            j -= 1
            while y[j - 1] != c:
                j -= 1
            below, ones = (1 << j) - 1, j - d
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
# Exact repetition-free solver


def _byte_codes(
    x: Sequence[int], y: Sequence[int], common: list[int]
) -> list[tuple[bytes, bytes, Sequence[int]]]:
    """Byte-coded copies of x and y, in chunks (bx, by, codes): codes[r] is
    the byte that marks the r-th symbol of the chunk in bx and by, and the
    chunks take the symbols of `common` in order.

    Where every symbol of x and y lies in [0, 256), one chunk holds them all
    with bytes(x) and bytes(y) as the copies.  Otherwise each chunk relabels
    up to 255 common symbols as 0, 1, ..., and every other symbol as 255.
    """
    try:
        return [(bytes(x), bytes(y), common)]
    except ValueError:  # a symbol outside [0, 256)
        pass
    code = dict.fromkeys(chain(x, y), 255)
    chunks = []
    for lo in range(0, len(common), 255):
        part = common[lo:lo + 255]
        code.update(zip(part, range(255)))
        chunks.append((bytes(map(code.get, x)), bytes(map(code.get, y)), range(len(part))))
        code.update(dict.fromkeys(part, 255))
    return chunks


def _suffix_masks(ends: list[tuple[int, int]]) -> tuple[list[int], list[int]]:
    """From the (last position, bit) of every symbol of a sequence, sorted:
    the last positions in ascending order, and masks[r] = the union of the
    bits of the symbols from the r-th last position on; so the symbols of
    seq[p:] are masks[bisect_left(lasts, p)]."""
    masks = [0]
    for _, bit in reversed(ends):
        masks.append(masks[-1] | bit)
    masks.reverse()
    return [last for last, _ in ends], masks


def _search_tables(x: Sequence[int], y: Sequence[int], common: list[int]) -> tuple:
    """The exact search's tables for the symbols `common` of both x and y
    (sorted), from the byte-coded copies of `_byte_codes`.

    The symbol of code c in chunk r owns the bit 1 << t, t = 256 r + c, of
    every symbol set, so that find_x(t, i) is its first position at or
    after i in x, or -1 where x[i:] lacks it, and find_y(t, j) likewise in
    y.  With one chunk, t is the code and find_x is bytes.find itself.
    Returns find_x, find_y, root (the (p, q, bit) of every symbol's first
    positions, sorted), the (last position, bit) of every symbol in x and
    in y, each sorted, and the chunks; only a solve that searches builds
    from them the suffix masks (`_suffix_masks`) and the LCS bound's match
    masks (`_reversed_masks`).  Any one-to-one choice of
    bits gives the same search, since candidates are ordered by their
    positions, which differ.
    """
    finds_x, finds_y, root, ends_x, ends_y = [], [], [], [], []
    chunks = _byte_codes(x, y, common)
    for r, (bx, by, codes) in enumerate(chunks):
        finds_x.append(bx.find)
        finds_y.append(by.find)
        for c in codes:
            bit = 1 << (r << 8 | c)
            root.append((bx.find(c), by.find(c), bit))
            ends_x.append((bx.rfind(c), bit))
            ends_y.append((by.rfind(c), bit))
    root.sort()
    ends_x.sort()
    ends_y.sort()
    return _chunked_find(finds_x), _chunked_find(finds_y), root, ends_x, ends_y, chunks


def _reversed_masks(
    chunks: list[tuple[bytes, bytes, Sequence[int]]], common: list[int]
) -> dict[int, int]:
    """masks[c], the bits of the positions of symbol c in reversed y, for
    every symbol of `common`, from the chunks of `_byte_codes`: one
    `bytes.translate` and one int(..., 2) per symbol."""
    masks = {}
    table = bytearray(b"0" * 256)
    symbols = iter(common)
    for _, by, codes in chunks:
        for c in codes:
            table[c] = 49  # b"1": y[0] is read as the highest bit
            masks[next(symbols)] = int(by.translate(table), 2)
            table[c] = 48
    return masks


def _chunked_find(finds: list) -> Callable[[int, int], int]:
    """find(t, i) = finds[t >> 8](t & 255, i), finds holding the bound
    `find` of each chunk: that `find` itself where there is one chunk, so
    that most searches call bytes.find with no Python frame between."""
    if len(finds) == 1:
        return finds[0]
    return lambda t, i: finds[t >> 8](t & 255, i)


def _smallest_path(search: tuple, need: int) -> list[tuple[int, int]] | None:
    """The lexicographically smallest `need` ascending edges of a
    repetition-free common subsequence of x and y, or None if none exist.

    Depth-first from the root (0, 0, nothing used) over states (i, j, used).
    A state's candidates are its unused symbols at their earliest positions
    (p, q) in x[i:] and y[j:]: at the root each symbol's first positions,
    sorted once per solve.  A child inherits them from its parent: only a
    symbol passed over by the chosen edge is looked up again, by one `find`
    on the byte-coded side (see `_search_tables`), and the list is re-sorted
    only when some p moved.  A candidate beaten in both
    coordinates by another is dropped: it is never lexicographically
    smaller, and swapping it for the one that beats it loses no edge.  The
    rest are tried in increasing p, so the first path of `need` edges is the
    smallest.  A state's bound is the least of its unused symbols,
    LCS(x[i:], y[j:]) and its memo less one; it is expanded only when the
    bound reaches the edges it still needs.  An exhausted state's bound
    becomes the largest of 1 + its tried children's bounds, and its memo that
    plus one, so after a failed query failed[0] - 1, the root's bound, lies
    between the optimum and the `need` that failed.
    """
    nx, ny, find_x, find_y, suf_x, suf_y, root, xr, masks, rows, failed, left = search
    lasts_x, masks_x = suf_x
    lasts_y, masks_y = suf_y
    stack: list[list] = []  # frames [key, used, need, untried front, best, candidates]
    path: list[tuple[int, int]] = []
    i = j = used = 0
    while need:
        key = (used * (nx + 1) + i) * (ny + 1) + j
        avail = masks_x[bisect_left(lasts_x, i)] & masks_y[bisect_left(lasts_y, j)] & ~used
        b = ny - j
        if nx - i < len(rows):
            bound = min(
                avail.bit_count(),
                b - (rows[nx - i] & ((1 << b) - 1)).bit_count(),
                failed.get(key, need + 1) - 1,
            )
        else:  # past the filled rows: fill them only as far as the bound needs
            c = min(avail.bit_count(), failed.get(key, need + 1) - 1)
            bound = _lcs_upto(rows, xr, masks, nx - i, b, c)
        if bound >= need:
            left[0] -= 1
            if left[0] < 0:
                raise CapacityError(
                    f"exact solver exceeded its work budget of {EXACT_BUDGET} "
                    "units of set-up and search states"
                )
            if stack:
                cand = []
                moved = False
                for e in stack[-1][5]:
                    p, q, low = e
                    if avail & low:
                        if p < i or q < j:  # passed over: look it up again
                            if p < i:
                                p = find_x(low.bit_length() - 1, i)
                                moved = True
                            if q < j:
                                q = find_y(low.bit_length() - 1, j)
                            e = p, q, low
                        cand.append(e)
                if moved:
                    cand.sort()
            else:
                cand = root
            front = []
            q_min = ny
            for e in cand:
                if e[1] < q_min:
                    q_min = e[1]
                    front.append(e)
            front.reverse()
            stack.append([key, used, need, front, 0, cand])
        else:  # cut, so never the root
            stack[-1][4] = max(stack[-1][4], 1 + bound)
            path.pop()
        while not stack[-1][3]:
            key, _, _, _, best, _ = stack.pop()
            failed[key] = best + 1
            if not stack:
                return None
            stack[-1][4] = max(stack[-1][4], 1 + best)
            path.pop()
        _, used, need, front, _, _ = stack[-1]
        p, q, low = front.pop()
        path.append((p, q))
        i, j, used, need = p + 1, q + 1, used | low, need - 1
    return path


def _first_descent(tables: tuple) -> list[tuple[int, int]] | None:
    """The first path of `_smallest_path`'s query for all m common symbols,
    taken without backtracking: its m ascending edges, or None where it
    gets stuck.

    From the root of `_search_tables`, each state takes the earliest of its
    candidates after which every other unused symbol still lies in x[p+1:]
    and y[q+1:], the search's own bound on unused symbols with need = m.
    Every unused symbol lies in x[i:] and y[j:], so candidate c at (p, q)
    passes on the x side iff c is the unused symbol a of least last
    position A in x, or p < A: the others' least last position is A where
    c is not a, and above A >= p where it is.  Likewise in y.  So the test
    reads two pointers that walk the sorted last positions, past the used
    symbols.  A child inherits its parent's candidates.  Those the chosen
    edge passed over form a prefix in p order; each is found again in x
    and put back in order.  A candidate's y position is found again only
    when the descent examines it, as candidates are taken in p order.
    """
    find_x, find_y, cand, ends_x, ends_y, _ = tables
    cand = cand[:]  # the root is the search's too
    path: list[tuple[int, int]] = []
    used = ax = ay = j = 0
    while cand:
        while ends_x[ax][1] & used:
            ax += 1
        while ends_y[ay][1] & used:
            ay += 1
        last_x, a = ends_x[ax]
        last_y, b = ends_y[ay]
        passed = []
        for p, q, low in cand:
            if q < j:
                q = find_y(low.bit_length() - 1, j)
            if (p < last_x or low == a) and (q < last_y or low == b):
                break
            passed.append((low, q))
        else:
            return None
        path.append((p, q))
        used |= low
        i, j = p + 1, q + 1
        del cand[:len(passed) + 1]
        for low, q in passed:
            insort(cand, (find_x(low.bit_length() - 1, i), q, low))
    return path


def _canonical_edges(x: Sequence[int], y: Sequence[int]) -> list[tuple[int, int]]:
    """Lexicographically smallest maximum repetition-free matching.

    Queries `_smallest_path` from the ceiling min(L, m) down (L the LCS
    length, m the number of common symbols), each time to the root's bound
    that the failed query left, which is at least the optimum; so the first
    query that succeeds has `need` equal to the optimum and returns the
    canonical witness.  The LCS bounds come from the rows of reversed x
    against reversed y, filled by `_lcs_upto` only as far as the queries
    read them: a state needs LCS(x[i:], y[j:]) only up to its other bounds.
    Set-up is charged against EXACT_BUDGET before the search starts, one
    unit per 16 machine words of the tables counted below, and every
    expanded search state costs one more unit.

    Before the suffix masks and the LCS bound's masks and rows are built,
    `_first_descent` tries to match all m symbols.  A path of m edges
    proves L >= m, so the first query would have need = m.  Along that path every state can still
    be completed, so it passes all of the search's bounds (its unused
    symbols, its LCS, and an empty memo), while every earlier candidate
    fails the bound on unused symbols; so the query's first descent is this
    path, with no backtracking.  The edges are the same canonical witness,
    and they cost setup + m units, one per state expanded before the last
    edge: the descent runs only where the budget has that many left, and
    elsewhere the search refuses the instance as before.
    """
    nx, ny = len(x), len(y)
    common = sorted(set(x).intersection(y))
    if not common:
        return []
    m = len(common)
    # words of m + 1 next-occurrence rows at every position of x and y, and of
    # all nx + 1 LCS rows.  The first are never built (candidates come from
    # the byte-coded copies and from the parent state) and the LCS rows are
    # filled only as far as the search reads them, mostly a few, and none
    # where the first descent matches every symbol; the charge is kept, so
    # that the same instances are refused.  The copies take (nx + ny) / 8
    # words per chunk of 255 common symbols, the root and the suffix masks
    # about 6m + 2, the match masks m(ny / 64 + 1) and each filled row
    # ny / 64 + 1, outside this count.
    setup = ((m + 1) * (nx + ny + 2) + (nx + 1) * (ny // 64 + 1)) // 16
    if setup > EXACT_BUDGET:
        raise CapacityError(
            f"exact solver exceeded its work budget of {EXACT_BUDGET}: set-up "
            f"for n = {nx}, {ny} and m = {m} common symbols costs {setup}"
        )
    tables = _search_tables(x, y, common)
    if m <= EXACT_BUDGET - setup and (edges := _first_descent(tables)) is not None:
        return edges
    find_x, find_y, root, ends_x, ends_y, chunks = tables
    suf_x, suf_y = _suffix_masks(ends_x), _suffix_masks(ends_y)
    masks = _reversed_masks(chunks, common)
    xr, rows = x[::-1], [(1 << ny) - 1]
    failed: dict[int, int] = {}
    search = (
        nx, ny, find_x, find_y, suf_x, suf_y, root, xr, masks, rows, failed,
        [EXACT_BUDGET - setup],
    )
    need = _lcs_upto(rows, xr, masks, nx, ny, m)
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


def _ceil_three_quarters(k: int) -> int:
    """ceil(k^(3/4)), exactly: the least t with t^4 >= k^3."""
    t = math.isqrt(math.isqrt(k**3))  # floor(k^(3/4))
    return t if t**4 == k**3 else t + 1


def _lis_edges(inst: Instance, bounds: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """The edges (i, j) of a longest increasing subsequence of the degree-one
    edges of every segment in `bounds`, in increasing i.

    A degree-one edge of a segment joins the one x[i] and the one y[j] of
    some symbol in that segment.  Keying each position by its segment and a
    dense id of its symbol, it is a key that occurs exactly twice among the
    2n positions, once in x and once in y: one sort of the keys finds all
    of them.  One LIS over their j in increasing i then equals the
    concatenation of an LIS per segment, tie-breaks included.  Every j of a
    later segment exceeds every j of an earlier one, so patience sorting
    puts a segment's j only in piles past those of earlier segments, whose
    tops it never replaces: its choices inside the segment are those of the
    segment alone, and the back pointer of its first pile is the end of the
    earlier segments' subsequence.
    """
    n = inst.n
    seg = np.repeat(np.arange(len(bounds)), [hi - lo for lo, hi in bounds])
    # symbols lie in [0, k): past 2^63 numpy compares them as Python ints
    syms = np.fromiter(chain(inst.x, inst.y), np.int64 if inst.k <= 1 << 63 else object, 2 * n)
    uniq, ids = np.unique(syms, return_inverse=True)
    keys = np.concatenate((seg, seg)) * len(uniq) + ids
    order = np.argsort(keys)
    ordered = keys[order]
    new = np.concatenate(([True], ordered[1:] != ordered[:-1], [True]))
    r = np.flatnonzero(new[:-2] & ~new[1:-1] & new[2:])  # runs of exactly two
    i = np.minimum(order[r], order[r + 1])
    j = np.maximum(order[r], order[r + 1]) - n
    one_each = (i < n) & (j >= 0)
    jx = np.full(n, -1)
    jx[i[one_each]] = j[one_each]
    ii = np.flatnonzero(jx >= 0)
    jj = jx[ii].tolist()
    ii = ii.tolist()
    return [(ii[t], jj[t]) for t in lis_indices(jj)]


def segment_merge_heuristic(
    inst: Instance,
    n_tilde: int | None = None,
    per_segment: str = "exact",
) -> SolveResult:
    """Solve aligned segments independently, concatenate, then drop all but
    the leftmost edge of every repeated symbol.

    Segments hold `n_tilde` symbols, by default ceil(k^(3/4)) as in the
    paper's lower-bound construction.  Each is solved exactly, or, with
    per_segment="lis", by a longest increasing subsequence of its degree-one
    edges, found for all segments at once by `_lis_edges`.  The result is a
    feasible repetition-free noncrossing matching, so its length is a lower
    bound on the exact optimum.
    """
    if n_tilde is None:
        n_tilde = _ceil_three_quarters(inst.k)
    if n_tilde < 1:
        raise ValueError("segment size must be positive")
    if per_segment not in ("exact", "lis"):
        raise ValueError("per_segment must be 'exact' or 'lis'")
    bounds = _segments(inst.n, n_tilde)
    if per_segment == "lis":
        edges = _lis_edges(inst, bounds)
    else:
        edges = [
            (lo + i, lo + j)
            for lo, hi in bounds
            for i, j in _canonical_edges(inst.x[lo:hi], inst.y[lo:hi])
        ]
    seen: set[int] = set()
    kept: list[tuple[int, int]] = []
    for i, j in edges:  # already sorted by block then i
        c = inst.x[i]
        if c in seen:
            continue
        seen.add(c)
        kept.append((i, j))
    return SolveResult(witness=tuple(kept))
