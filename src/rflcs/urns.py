"""Grouped and classical urn occupancy models.

The classical (k, s) model throws s balls independently and uniformly
into k urns; the grouped (k, s_vec) model places, for each group i, one
ball into every urn of a uniform s_i-subset.  Both track the number of
urns left empty.  The classical model is the grouped one with s groups
of size 1.

Both exact distributions come from one integer Markov chain on h, the
number of occupied urns (Feller Vol. 1, section II.11): group i moves h
to h + j with weight C(k - h, j) * C(h, s_i - j), over the denominator
prod_i C(k, s_i).  Integer weights carry no cancellation error, so the
pmf entries are correctly rounded rationals and the dominance check
compares them exactly.

Every routine here refuses k above URN_K_MAX before it allocates or draws
anything.  Beyond that, EXACT_COST_MAX caps the exact work, weighted by the
size of the integers it multiplies, charged as the chain runs and before the
dominance comparison; SAMPLER_COUNT_MAX and SAMPLER_CELLS_MAX cap a sample's
trials, balls and cells before it draws.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from itertools import accumulate
from math import comb

import numpy as np

from .errors import CapacityError
from .rng import RngStream

# The one cap on k: both samplers, both exact distributions, the dominance
# check and the survival table.  At the cap `rflcs urn --trials 10` peaks near
# 53 MB classical (`--s 922`) and 66 MB grouped (`--s-vec 400,300,200`: the
# slice of one row being drawn, the one being marked and that reduction's
# partitioned copy and marks take 25 bytes per urn, beside 4 rows of hits),
# and `rflcs urn-exact --s 0` near 83 MB (2-CPU x86-64 host, numpy 2.4; the
# samplers peak the same with one usable CPU).
URN_K_MAX = 1 << 20
# Cap on the exact work, in multiplications of one 64-bit word by another:
# a chain's updates (charged in _occupancy_counts) or a dominance check's
# comparison.  On a 2-CPU x86-64 host under Python 3.11 a unit took 1-15 ns
# in chains just under the cap (classical k = 1000, s = 575 was the slowest,
# 0.3 s) and 4-20 ns in comparisons (0.4 s at k = 2^20 with 9 groups).
EXACT_COST_MAX = 20_000_000
# Stream layout of the grouped sampler: trials are drawn in blocks of
# max(1, GROUPED_BLOCK_CELLS // k), and within a block all of group 1's
# uniforms, then all of group 2's, in s_vec order.  Changing it changes the
# samples.
GROUPED_BLOCK_CELLS = 1 << 22
# Cells (draws, or uniforms) in one chunk: max(1, _SAMPLER_CELLS // s)
# classical trials, or max(1, _SAMPLER_CELLS // k) rows of one group's
# uniforms.  A sampler holds the chunk being drawn and the one being reduced,
# and the reduction makes temporaries of the same size: classical, two chunks
# of uint32 draws and a bool chunk of equal neighbours; grouped, two slices
# of uniforms, a partitioned copy and a bool slice of marks, besides its
# block of hits.  Memory only: a sample does not depend on this value,
# because consecutive draws continue one stream.
_SAMPLER_CELLS = 1 << 18
# Gates checked before a sampler draws, after k.  SAMPLER_COUNT_MAX caps
# trials and a classical trial's s, for memory: the output takes 8 bytes per
# trial, and one classical trial's s draws are held at once however small
# _SAMPLER_CELLS is.  SAMPLER_CELLS_MAX caps the work: the cells a call
# touches, trials * s classical and trials * k per nonzero group (at least
# once) grouped; at 5-10 * 10^7 cells per second a call at the cap takes
# about a minute.
SAMPLER_COUNT_MAX = 1 << 24
SAMPLER_CELLS_MAX = 1 << 32


@dataclass(frozen=True)
class GroupedUrnSpec:
    k: int
    s_vec: tuple[int, ...]

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be positive")
        if any(si < 0 or si > self.k for si in self.s_vec):
            raise ValueError("each group size must lie in [0, k]")

    @property
    def s(self) -> int:
        return sum(self.s_vec)


def _check_k(k: int) -> None:
    if k > URN_K_MAX:
        raise CapacityError(f"urn models limited to k = {URN_K_MAX} (got k = {k})")


def _check_sampler_size(k: int, trials: int, s: int, cells: int) -> None:
    """Refuse a call whose k passes URN_K_MAX, whose trials or classical s
    pass SAMPLER_COUNT_MAX, or which touches more than SAMPLER_CELLS_MAX
    cells."""
    _check_k(k)
    if max(trials, s) > SAMPLER_COUNT_MAX:
        raise CapacityError(
            f"urn samplers limited to {SAMPLER_COUNT_MAX} trials and {SAMPLER_COUNT_MAX} "
            f"balls per classical trial (got trials = {trials}, s = {s})"
        )
    if cells > SAMPLER_CELLS_MAX:
        raise CapacityError(
            f"urn samplers limited to {SAMPLER_CELLS_MAX} cells per call (got {cells})"
        )


@contextmanager
def _pipeline():
    """Yield submit(fn, *args), which runs fn(*args) on one helper thread
    after every call submitted before it, while the caller goes on.

    Every call has returned, and the thread has been joined, when the block
    exits, also when a call raises; its error reaches the caller.
    """
    from concurrent.futures import ThreadPoolExecutor  # not loaded at start-up

    last = None
    with ThreadPoolExecutor(max_workers=1) as pool:

        def submit(fn, *args):
            nonlocal last
            if last is not None:
                last.result()
            last = pool.submit(fn, *args)

        yield submit
        if last is not None:
            last.result()


def _count_empty(k: int, draws: np.ndarray, out: np.ndarray) -> None:
    """Sort each row of draws in place and write its empty-urn count,
    k - s + the number of equal neighbours, into out."""
    draws.sort(axis=1)
    out[:] = k - draws.shape[1] + np.count_nonzero(draws[:, 1:] == draws[:, :-1], axis=1)


def _mark_smallest(hit: np.ndarray, u: np.ndarray, si: int) -> None:
    """Set in each row of hit the urns of the si smallest uniforms of that
    row of u, the ones np.argpartition picks.

    A row's si-th smallest value is its threshold, and the uniforms at or
    below it are marked.  More than len(u) * si marks mean that a row ties
    at its threshold, and that slice takes argpartition's choice instead.
    """
    below = u <= np.partition(u, si - 1, axis=1)[:, si - 1 : si]
    if np.count_nonzero(below) == len(u) * si:
        hit |= below
    else:
        np.put_along_axis(hit, np.argpartition(u, si - 1, axis=1)[:, :si], True, axis=1)


def _count_unhit(k: int, hit: np.ndarray, out: np.ndarray) -> None:
    """Write each row's count of urns left unhit into out, then clear hit."""
    out[:] = k - hit.sum(axis=1)
    hit[:] = False


def classical_urn_empty_counts(k: int, s: int, trials: int, rng: RngStream) -> np.ndarray:
    """Vectorized batch of Y draws, in chunks of about _SAMPLER_CELLS draws.

    Each trial's draws are sorted, and Y = k - s + the number of equal
    neighbours.  The calling thread draws every chunk from its one
    generator, in order, while a helper thread sorts and counts the
    previous chunk (see _pipeline).
    """
    if k < 1 or s < 0 or trials < 1:
        raise ValueError("require k >= 1, s >= 0, trials >= 1")
    _check_sampler_size(k, trials, s, trials * s)
    g = rng.generator()
    if s == 0:
        return np.full(trials, k, dtype=np.int64)
    # numpy draws every range of at most 2^32 values through one 32-bit
    # bounded path (Lemire 2019), whatever the output dtype, so uint32 keys
    # hold the same values as int64 ones in half the bytes and sort in about
    # half the time.
    out = np.empty(trials, dtype=np.int64)
    chunk = min(trials, max(1, _SAMPLER_CELLS // s))
    with _pipeline() as submit:
        for done in range(0, trials, chunk):
            draws = g.integers(0, k, size=(min(chunk, trials - done), s), dtype=np.uint32)
            submit(_count_empty, k, draws, out[done : done + len(draws)])
    return out


def grouped_urn_empty_counts(spec: GroupedUrnSpec, trials: int, rng: RngStream) -> np.ndarray:
    """Vectorized batch of X draws, in the block layout of GROUPED_BLOCK_CELLS.

    Per group, a uniform s_i-subset per trial is obtained by ranking i.i.d.
    uniforms over the k urns, which is exchangeable hence uniform over
    subsets.  A group's uniforms are drawn in slices of about _SAMPLER_CELLS,
    by the calling thread from its one generator, in order, while a helper
    thread marks the previous slice's subsets (see _pipeline).
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    k = spec.k
    sizes = [si for si in spec.s_vec if si]  # a zero group draws nothing
    _check_sampler_size(k, trials, 0, trials * k * max(1, len(sizes)))
    g = rng.generator()
    out = np.empty(trials, dtype=np.int64)
    block = min(trials, max(1, GROUPED_BLOCK_CELLS // k))
    rows = min(block, max(1, _SAMPLER_CELLS // k))
    hit = np.zeros((block, k), dtype=bool)
    with _pipeline() as submit:
        for done in range(0, trials, block):
            n = min(block, trials - done)
            for si in sizes:
                for r in range(0, n, rows):
                    u = g.random((min(rows, n - r), k))
                    submit(_mark_smallest, hit[r : r + len(u)], u, si)
            submit(_count_unhit, k, hit[:n], out[done : done + n])
    return out


def _occupancy_counts(k: int, groups) -> tuple[list[int], int]:
    """Placements leaving e = 0..k urns empty, and the number of placements.

    Occupied counts reachable after each group form the interval [lo, hi].
    Each update from h is charged before it is made: per j it multiplies a
    weight of at most ``bits`` bits (the running sum of ``step``) by a factor
    of at most C(k, s_i), of at most ``step`` bits, and costs the product of
    their word counts.
    """
    _check_k(k)
    lo = hi = bits = cost = 0
    w = [1]  # w[h - lo]: placements leaving h urns occupied
    total = 1
    for si in groups:
        step = max(1, min(si, k - si) * k.bit_length())  # >= C(k, si).bit_length()
        bits += step
        words = (1 + bits // 64) * (1 + step // 64)
        nlo, nhi = max(lo, si), min(k, hi + si)
        nw = [0] * (nhi - nlo + 1)
        for h in range(lo, hi + 1):
            j0 = max(0, si - h)
            cost += (min(si, k - h) - j0 + 1) * words
            if cost > EXACT_COST_MAX:
                raise CapacityError(
                    f"exact urn distribution limited to {EXACT_COST_MAX} word "
                    "multiplications in the chain's updates"
                )
            wh = w[h - lo]
            c = comb(k - h, j0) * comb(h, si - j0)
            for j in range(j0, min(si, k - h) + 1):
                nw[h + j - nlo] += wh * c
                # C(k-h, j+1) C(h, si-j-1), stepped by an exact ratio
                c = c * (k - h - j) * (si - j) // ((j + 1) * (h - si + j + 1))
        lo, hi, w = nlo, nhi, nw
        total *= comb(k, si)
    counts = [0] * (k + 1)
    for h in range(lo, hi + 1):
        counts[k - h] = w[h - lo]
    return counts, total


def classical_urn_exact(k: int, s: int) -> list[float]:
    """Exact distribution of Y over 0..k empty urns."""
    if k < 1 or s < 0:
        raise ValueError("require k >= 1 and s >= 0")
    counts, total = _occupancy_counts(k, (1 for _ in range(s)))
    return [c / total for c in counts]


def grouped_urn_exact(spec: GroupedUrnSpec) -> list[float]:
    """Exact distribution of X over 0..k empty urns."""
    counts, total = _occupancy_counts(spec.k, spec.s_vec)
    return [c / total for c in counts]


def survival_from_pmf(pmf) -> np.ndarray:
    """S(t) = P(value >= t) for t = 0..k from a pmf over 0..k."""
    pmf = np.asarray(pmf, dtype=float)
    return np.cumsum(pmf[::-1])[::-1]


def survival_from_samples(samples, k: int) -> np.ndarray:
    """Empirical S(t) = P(value >= t) for t = 0..k.

    Tail counts are summed as integers and divided once, so S(0) is
    exactly 1 and S never increases.
    """
    _check_k(k)
    counts = np.bincount(np.asarray(samples, dtype=np.int64), minlength=k + 1)
    return np.cumsum(counts[::-1])[::-1] / len(samples)


@dataclass(frozen=True)
class DominanceReport:
    """margin = max_t [S_X(t) - S_Y(t)]; a violation is a positive margin."""

    margin: float
    violation: bool


def dominance_check(spec: GroupedUrnSpec) -> DominanceReport:
    """Compare survival functions of X (grouped) and Y (classical, same s).

    Exact: with tail counts Sx, Sy over denominators Dx, Dy, X is
    dominated by Y when Sx(t) * Dy <= Sy(t) * Dx at every t.
    """
    cx, dx = _occupancy_counts(spec.k, spec.s_vec)
    cy, dy = _occupancy_counts(spec.k, (1 for _ in range(spec.s)))
    # two products per t, each of a tail by the other model's denominator
    cost = 2 * (spec.k + 1) * (1 + dx.bit_length() // 64) * (1 + dy.bit_length() // 64)
    if cost > EXACT_COST_MAX:
        raise CapacityError(
            f"exact dominance check limited to {EXACT_COST_MAX} word "
            "multiplications in its comparison"
        )
    tail_x = accumulate(reversed(cx))
    tail_y = accumulate(reversed(cy))
    worst = max(a * dy - b * dx for a, b in zip(tail_x, tail_y))
    return DominanceReport(margin=worst / (dx * dy), violation=worst > 0)
