"""Shared test helpers: brute-force oracles kept independent of the
implementation paths they check, the subset DP the exact solver replaced,
kept as an oracle for its canonical witness, the exact solver as it was
when it found the optimum by ascending queries and then recovered the
witness edge by edge, kept as an oracle for its budget, every bit-parallel
LCS row as that solver built them with the backtrack that read them, the
segment heuristic's LIS path as it was when it solved one segment at a
time, the all-pairs loop the uniformity tally
replaced, the classical urn sampler on 64-bit keys, the urn chain's cost
pre-walk, a child-process runner that reports peak memory, and a serial
stand-in for the sweep's process pool."""

import concurrent.futures
import json
import math
import os
import pathlib
import subprocess
import sys
from bisect import bisect_right
from collections import Counter
from itertools import combinations, product
from typing import Sequence

import numpy as np
import pytest
from hypothesis import settings

import rflcs
import rflcs.experiments
from rflcs import solvers, urns
from rflcs.errors import CapacityError
from rflcs.model import Instance, is_subsequence
from rflcs.solvers import _canonical_edges, lis_indices

FIXTURES = pathlib.Path(__file__).parent / "fixtures"

# a failing draw prints the @reproduce_failure line that replays it
settings.register_profile("replayable", print_blob=True)
settings.load_profile("replayable")


@pytest.fixture(scope="session")
def pilot():
    return json.loads((FIXTURES / "pilot.json").read_text())


# Runs a command and appends its exit code and ru_maxrss (KiB on Linux) to
# its stderr.  A process's ru_maxrss starts at the RSS of the process that
# spawned it, so the command is spawned from this small interpreter, not from
# the test process; wait4 reports the rusage of that one child alone.
_PEAK_RSS_LAUNCHER = (
    "import os, subprocess, sys\n"
    "proc = subprocess.Popen(sys.argv[1:])\n"
    "_, status, usage = os.wait4(proc.pid, 0)\n"
    "sys.stderr.write(f'\\n{os.waitstatus_to_exitcode(status)} {usage.ru_maxrss}\\n')\n"
)


def run_child(*args: str) -> tuple[int, str, str, float]:
    """Run ``python *args`` with this rflcs importable; return its exit code,
    stdout, stderr and peak RSS in MB."""
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(rflcs.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", _PEAK_RSS_LAUNCHER, sys.executable, *args],
        capture_output=True, text=True, env=env,
    )
    err, _, last = proc.stderr.rstrip("\n").rpartition("\n")
    code, maxrss_kib = map(int, last.split())
    return code, proc.stdout, err, maxrss_kib / 1024


def serial_pool(monkeypatch, chunks: list[tuple[int, int]] | None = None) -> list[int]:
    """Replace the sweep's process pool by one that runs each submitted call
    at once, so no process is started; returns the max_workers of every pool
    opened, and appends to `chunks`, when it is given, the length of every
    submitted chunk and the chunks submitted and not yet read with it."""
    opened = []

    class Done:
        """A future whose call has run; reading it counts one chunk read."""

        def __init__(self, pool, value):
            self.pool, self.value = pool, value

        def result(self):
            self.pool.unread -= 1
            return self.value

        def cancel(self):
            return False

    class SerialPool:
        def __init__(self, max_workers):
            opened.append(max_workers)
            self.unread = 0

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            self.unread += 1
            if chunks is not None:
                chunks.append((len(args[-1]), self.unread))
            return Done(self, fn(*args))

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    return opened


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


def full_lcs_rows(x: Sequence[int], y: Sequence[int]) -> list[int]:
    """Every bit-parallel LCS row of x against y, as the exact search built
    them before it filled them on demand: row i has bit j clear where
    D(i, j+1) = D(i, j) + 1, D the LCS table of x[:i] and y[:j]."""
    full = (1 << len(y)) - 1
    masks: dict[int, int] = {}
    for j, c in enumerate(y):
        masks[c] = masks.get(c, 0) | 1 << j
    rows = [full]
    for c in x:
        v = rows[-1]
        u = v & masks.get(c, 0)
        rows.append(((v + u) | (v - u)) & full)
    return rows


def row_backtrack_lcs_edges(x: Sequence[int], y: Sequence[int], cap: int | None = None) -> tuple[tuple[int, int], ...]:
    """lcs_witness's witness as it was found before the match masks were
    built in numpy: a backtrack on `full_lcs_rows`, cut to the rows of the
    longest prefix x[:i] whose LCS with y is at most cap.  A match steps
    diagonally, otherwise up when D(i-1, j) = D(i, j), else left to the
    previous occurrence of x[i-1] in y."""
    rows = full_lcs_rows(x, y)
    ny = len(y)
    if cap is not None:
        while ny - rows[-1].bit_count() > cap:
            rows.pop()
    edges = []
    i, j = len(rows) - 1, ny
    d = j - rows[i].bit_count()
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
    return tuple(reversed(edges))


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


def per_segment_lis_witness(inst: Instance, n_tilde: int) -> tuple[tuple[int, int], ...]:
    """segment_merge_heuristic(inst, n_tilde, per_segment="lis") as it was
    when it took one segment at a time: floor(n / n_tilde) aligned blocks
    with the leftover folded into the last, an LIS of each block's
    degree-one edges, then the leftmost edge of each symbol."""
    b = inst.n // n_tilde
    bounds = [(t * n_tilde, (t + 1) * n_tilde) for t in range(b)]
    if bounds:
        bounds[-1] = (bounds[-1][0], inst.n)
    elif inst.n:
        bounds = [(0, inst.n)]
    edges = []
    for lo, hi in bounds:
        deg1 = degree_one_edges(inst.x[lo:hi], inst.y[lo:hi])
        keep = lis_indices([j for _, j, _ in deg1])
        edges.extend((lo + deg1[t][0], lo + deg1[t][1]) for t in keep)
    seen = set()
    kept = []
    for i, j in edges:
        if inst.x[i] not in seen:
            seen.add(inst.x[i])
            kept.append((i, j))
    return tuple(kept)


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


def subset_dp_frontiers(
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


def subset_dp_canonical_edges(x: Sequence[int], y: Sequence[int]) -> list[tuple[int, int]]:
    """Lexicographically smallest maximum repetition-free matching, built
    greedily edge by edge from the suffix frontiers of the Theta(2^m * n)
    subset DP (m symbols common to both sequences); equal lengths only."""
    syms = sorted(set(x) & set(y))
    g = subset_dp_frontiers(x, y, syms)
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
                    f"exact solver exceeded its work budget of {solvers.EXACT_BUDGET} "
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


def definition_first_descent(x: Sequence[int], y: Sequence[int]) -> list[tuple[int, int]] | None:
    """The exact search's first descent for all m common symbols, read off
    its definition with slices: from (i, j) = (0, 0), take the unused
    common symbol of least next position p in x[i:] after which every
    other unused one still lies in x[p+1:] and y[q+1:], q its next position
    in y[j:].  Returns the m edges, or None where no symbol qualifies."""
    unused = set(x) & set(y)
    path: list[tuple[int, int]] = []
    i = j = 0
    while unused:
        for p in range(i, len(x)):
            c = x[p]
            if c not in unused or c in x[i:p]:
                continue
            q = y.index(c, j)
            rest = unused - {c}
            if rest <= set(x[p + 1:]) and rest <= set(y[q + 1:]):
                break
        else:
            return None
        path.append((p, q))
        unused.remove(c)
        i, j = p + 1, q + 1
    return path


def setup_units(nx: int, ny: int, m: int) -> int:
    """The units of EXACT_BUDGET that the exact solver charges for set-up on
    sequences of nx and ny symbols with m in common, frozen here."""
    return ((m + 1) * (nx + ny + 2) + (nx + 1) * (ny // 64 + 1)) // 16


def loop_canonical_edges(x: Sequence[int], y: Sequence[int]) -> tuple[list[tuple[int, int]], int]:
    """The exact solver as it was before it certified optimums from a floor,
    with its boolean search `_feasible`, its next-occurrence tables, its
    per-position suffix masks and its full LCS rows frozen here: the optimum from
    queries of growing `need` at the root, then a greedy recovery that
    queries the search again for every edge.  Returns the canonical edges
    and the units of EXACT_BUDGET they took (set-up plus expanded search
    states)."""
    nx, ny = len(x), len(y)
    syms = sorted(set(x) & set(y))
    if not syms:
        return [], 0
    m = len(syms)
    setup = setup_units(nx, ny, m)
    bit = {c: 1 << t for t, c in enumerate(syms)}
    nxt_y = _next_tables(y, syms)
    left = [solvers.EXACT_BUDGET - setup]
    search = (
        nx, ny, syms, _next_tables(x, syms), nxt_y,
        _suffix_masks(x, bit), _suffix_masks(y, bit),
        full_lcs_rows(x[::-1], y[::-1]), {}, left,
    )
    total = 0
    while _feasible(search, 0, 0, 0, total + 1):
        total += 1
    edges: list[tuple[int, int]] = []
    used = i0 = j0 = 0
    while len(edges) < total:
        for i in range(i0, nx):
            b = bit.get(x[i], 0)
            if not b or used & b:
                continue
            j = nxt_y[x[i]][j0]
            if j < ny and _feasible(search, i + 1, j + 1, used | b, total - len(edges) - 1):
                edges.append((i, j))
                used |= b
                i0, j0 = i + 1, j + 1
                break
    return edges, solvers.EXACT_BUDGET - left[0]


def all_pairs_uniformity(
    n: int, k: int
) -> tuple[dict[int, int], dict[int, dict[frozenset, int]]]:
    """Canonical symbol-set tallies (size_counts, subset_counts) from one
    solve per pair of [0, k)^n x [0, k)^n."""
    size_counts: dict[int, int] = {}
    subset_counts: dict[int, dict[frozenset, int]] = {}
    for x in product(range(k), repeat=n):
        for y in product(range(k), repeat=n):
            edges = _canonical_edges(x, y)
            l = len(edges)
            size_counts[l] = size_counts.get(l, 0) + 1
            if l == 0:
                continue
            syms = frozenset(x[i] for i, _ in edges)
            bucket = subset_counts.setdefault(l, {})
            bucket[syms] = bucket.get(syms, 0) + 1
    return size_counts, subset_counts


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


def int64_classical_urn_empty_counts(k: int, s: int, trials: int, rng) -> np.ndarray:
    """The classical urn sampler as it was before it drew uint32 keys: every
    chunk of draws is int64, whatever k."""
    g = rng.generator()
    if s == 0:
        return np.full(trials, k, dtype=np.int64)
    out = np.empty(trials, dtype=np.int64)
    chunk = max(1, urns._SAMPLER_CELLS // s)
    for done in range(0, trials, chunk):
        draws = g.integers(0, k, size=(min(chunk, trials - done), s))
        draws.sort(axis=1)
        repeats = np.count_nonzero(draws[:, 1:] == draws[:, :-1], axis=1)
        out[done : done + len(draws)] = k - s + repeats
    return out


def argpartition_grouped_urn_empty_counts(spec, trials: int, rng) -> np.ndarray:
    """The grouped urn sampler as it was before it marked subsets by a
    partition threshold: argpartition picks each row's s_i smallest
    uniforms, drawn in fresh slices of urns._SAMPLER_CELLS, and every slice
    is drawn and marked in turn on the calling thread."""
    k = spec.k
    sizes = [si for si in spec.s_vec if si]
    g = rng.generator()
    out = np.empty(trials, dtype=np.int64)
    block = max(1, urns.GROUPED_BLOCK_CELLS // k)
    rows = max(1, urns._SAMPLER_CELLS // k)
    for done in range(0, trials, block):
        hit = np.zeros((min(block, trials - done), k), dtype=bool)
        for si in sizes:
            for r in range(0, len(hit), rows):
                part = hit[r : r + rows]
                idx = np.argpartition(g.random(part.shape), si - 1, axis=1)[:, :si]
                np.put_along_axis(part, idx, True, axis=1)
        out[done : done + len(hit)] = k - hit.sum(axis=1)
    return out


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


def walked_chain_cost(k: int, groups, n_groups: int) -> int:
    """The chain's work in word multiplications, counted until
    EXACT_COST_MAX is passed: the pre-walk the exact urn chain ran before
    it charged its updates as it made them, kept as an oracle for its
    refusals.

    An update of group i multiplies a weight of at most ``bits`` bits (the
    running sum of ``step``) by a factor of at most C(k, s_i), which has at
    most ``step`` bits; it costs the product of their word counts.  In the
    classical model the factor is one word.  Every group costs at least 1,
    so n_groups refuses long group lists without walking them.
    """
    if n_groups > urns.EXACT_COST_MAX:
        return n_groups
    cost = lo = hi = bits = 0
    for si in groups():
        step = max(1, min(si, k - si) * k.bit_length())  # >= C(k, si).bit_length()
        bits += step
        words = (1 + bits // 64) * (1 + step // 64)
        for h in range(lo, hi + 1):
            cost += (min(si, k - h) - max(0, si - h) + 1) * words
            if cost > urns.EXACT_COST_MAX:
                return cost
        lo, hi = max(lo, si), min(k, hi + si)
    return cost
