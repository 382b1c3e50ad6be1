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
compares them exactly.  One gate, EXACT_COST_MAX, caps the chain's work,
weighted by the size of the integers it multiplies, before anything is
allocated.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, repeat
from math import comb

import numpy as np

from .errors import CapacityError
from .rng import RngStream

# Cap on the exact chain's cost, in multiplications of one 64-bit word by
# another (see _chain_cost).  Each of the k + 1 pmf entries costs
# _ENTRY_COST, so k stays below 500,000.
EXACT_COST_MAX = 20_000_000
_ENTRY_COST = 40
# Stream layout of the grouped sampler: trials are drawn in blocks of
# max(1, GROUPED_BLOCK_CELLS // k), and within a block all of group 1's
# uniforms, then all of group 2's, in s_vec order.  Changing it changes the
# samples.
GROUPED_BLOCK_CELLS = 1 << 22
# Cells (draws, or uniforms) each sampler holds at once: max(1, _SAMPLER_CELLS
# // s) classical trials, or max(1, _SAMPLER_CELLS // k) rows of one group's
# uniforms.  Memory only: a sample does not depend on this value, because
# consecutive draws continue one stream.
_SAMPLER_CELLS = 1 << 18
# Gates checked before a sampler allocates.  SAMPLER_COUNT_MAX caps trials and
# one row, for memory: the output takes 8 bytes per trial, and one classical
# trial's s draws, or one grouped row's k uniforms with their ranks and hits
# (17 bytes per urn), are held at once however small _SAMPLER_CELLS is.  At
# the cap a call peaks near 290 MB (grouped, k = 2^24).  The classical
# sampler holds nothing per urn, so its k is not capped.  SAMPLER_CELLS_MAX
# caps the work: the cells a call touches, trials * s classical and trials *
# k per nonzero group (at least once) grouped; at 5-10 * 10^7 cells per
# second a call at the cap takes about a minute.
SAMPLER_COUNT_MAX = 1 << 24
SAMPLER_CELLS_MAX = 1 << 32
# Cap on k where the k + 1 survival rows are built: `rflcs urn` at k = 2^20
# (--s 5 --trials 10) peaks near 53 MB, since it writes the CSV rows in
# batches (202 MB when it joined them whole).
SURVIVAL_K_MAX = 1 << 20


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

    @property
    def b(self) -> int:
        return len(self.s_vec)


def _check_sampler_size(trials: int, row: int, cells: int) -> None:
    """Refuse a call whose trials or row (a classical trial's s draws, or a
    grouped row's k urns) pass SAMPLER_COUNT_MAX, or which touches more than
    SAMPLER_CELLS_MAX cells."""
    if max(trials, row) > SAMPLER_COUNT_MAX:
        raise CapacityError(
            f"urn samplers limited to {SAMPLER_COUNT_MAX} trials and {SAMPLER_COUNT_MAX} "
            f"cells per row (got trials = {trials}, row = {row})"
        )
    if cells > SAMPLER_CELLS_MAX:
        raise CapacityError(
            f"urn samplers limited to {SAMPLER_CELLS_MAX} cells per call (got {cells})"
        )


def classical_urn_empty_counts(k: int, s: int, trials: int, rng: RngStream) -> np.ndarray:
    """Vectorized batch of Y draws, in chunks of about _SAMPLER_CELLS draws.

    Each trial's draws are sorted, and Y = k - s + the number of equal
    neighbours.
    """
    if k < 1 or s < 0 or trials < 1:
        raise ValueError("require k >= 1, s >= 0, trials >= 1")
    _check_sampler_size(trials, s, trials * s)
    g = rng.generator()
    if s == 0:
        return np.full(trials, k, dtype=np.int64)
    # numpy draws every range of at most 2^32 values through one 32-bit
    # bounded path (Lemire 2019), whatever the output dtype, so uint32 keys
    # hold the same values as int64 ones in half the bytes and sort in about
    # half the time.  Wider ranges need 64-bit keys.
    key_dtype = np.uint32 if k <= 1 << 32 else np.int64
    out = np.empty(trials, dtype=np.int64)
    chunk = max(1, _SAMPLER_CELLS // s)
    for done in range(0, trials, chunk):
        draws = g.integers(0, k, size=(min(chunk, trials - done), s), dtype=key_dtype)
        draws.sort(axis=1)
        repeats = np.count_nonzero(draws[:, 1:] == draws[:, :-1], axis=1)
        out[done : done + len(draws)] = k - s + repeats
    return out


def grouped_urn_empty_counts(spec: GroupedUrnSpec, trials: int, rng: RngStream) -> np.ndarray:
    """Vectorized batch of X draws, in the block layout of GROUPED_BLOCK_CELLS.

    Per group, a uniform s_i-subset per trial is obtained by ranking i.i.d.
    uniforms over the k urns, which is exchangeable hence uniform over
    subsets.  A group's uniforms are drawn in slices of about _SAMPLER_CELLS.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    k = spec.k
    sizes = [si for si in spec.s_vec if si]  # a zero group draws nothing
    _check_sampler_size(trials, k, trials * k * max(1, len(sizes)))
    g = rng.generator()
    out = np.empty(trials, dtype=np.int64)
    block = max(1, GROUPED_BLOCK_CELLS // k)
    rows = max(1, _SAMPLER_CELLS // k)
    for done in range(0, trials, block):
        hit = np.zeros((min(block, trials - done), k), dtype=bool)
        for si in sizes:
            for r in range(0, len(hit), rows):
                part = hit[r : r + rows]
                idx = np.argpartition(g.random(part.shape), si - 1, axis=1)[:, :si]
                np.put_along_axis(part, idx, True, axis=1)
        out[done : done + len(hit)] = k - hit.sum(axis=1)
    return out


def _chain_cost(k: int, groups, n_groups: int) -> int:
    """The chain's work in word multiplications, counted until
    EXACT_COST_MAX is passed.

    An update of group i multiplies a weight of at most ``bits`` bits (the
    running sum of ``step``) by a factor of at most C(k, s_i), which has at
    most ``step`` bits; it costs the product of their word counts.  In the
    classical model the factor is one word.  Every group costs at least 1,
    so n_groups refuses long group lists without walking them.
    """
    cost = _ENTRY_COST * (k + 1)
    if cost + n_groups > EXACT_COST_MAX:
        return cost + n_groups
    lo = hi = bits = 0
    for si in groups():
        step = max(1, min(si, k - si) * k.bit_length())  # >= C(k, si).bit_length()
        bits += step
        words = (1 + bits // 64) * (1 + step // 64)
        for h in range(lo, hi + 1):
            cost += (min(si, k - h) - max(0, si - h) + 1) * words
            if cost > EXACT_COST_MAX:
                return cost
        lo, hi = max(lo, si), min(k, hi + si)
    return cost


def _occupancy_counts(k: int, groups, n_groups: int) -> tuple[list[int], int]:
    """Placements leaving e = 0..k urns empty, and the number of placements.

    ``groups()`` returns a fresh iterable of the n_groups group sizes.
    Occupied counts reachable after each group form the interval [lo, hi].
    """
    if _chain_cost(k, groups, n_groups) > EXACT_COST_MAX:
        raise CapacityError(
            f"exact urn distribution limited to {EXACT_COST_MAX} word "
            f"multiplications ({_ENTRY_COST} per pmf entry plus the chain's updates)"
        )
    lo = hi = 0
    w = [1]  # w[h - lo]: placements leaving h urns occupied
    total = 1
    for si in groups():
        nlo, nhi = max(lo, si), min(k, hi + si)
        nw = [0] * (nhi - nlo + 1)
        for h in range(lo, hi + 1):
            wh = w[h - lo]
            j0 = max(0, si - h)
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
    counts, total = _occupancy_counts(k, lambda: repeat(1, s), s)
    return [c / total for c in counts]


def grouped_urn_exact(spec: GroupedUrnSpec) -> list[float]:
    """Exact distribution of X over 0..k empty urns."""
    counts, total = _occupancy_counts(spec.k, lambda: spec.s_vec, spec.b)
    return [c / total for c in counts]


def survival_from_pmf(pmf) -> np.ndarray:
    """S(t) = P(value >= t) for t = 0..k from a pmf over 0..k."""
    pmf = np.asarray(pmf, dtype=float)
    return np.cumsum(pmf[::-1])[::-1]


def check_survival_size(k: int) -> None:
    if k > SURVIVAL_K_MAX:
        raise CapacityError(f"urn survival table limited to k = {SURVIVAL_K_MAX} (got k = {k})")


def survival_from_samples(samples, k: int) -> np.ndarray:
    """Empirical S(t) = P(value >= t) for t = 0..k.

    Tail counts are summed as integers and divided once, so S(0) is
    exactly 1 and S never increases.
    """
    check_survival_size(k)
    counts = np.bincount(np.asarray(samples, dtype=np.int64), minlength=k + 1)
    return np.cumsum(counts[::-1])[::-1] / len(samples)


@dataclass(frozen=True)
class DominanceReport:
    """margin = max_t [S_X(t) - S_Y(t)]; a violation is a positive margin."""

    k: int
    s_vec: tuple[int, ...]
    margin: float
    violation: bool


def dominance_check(spec: GroupedUrnSpec) -> DominanceReport:
    """Compare survival functions of X (grouped) and Y (classical, same s).

    Exact: with tail counts Sx, Sy over denominators Dx, Dy, X is
    dominated by Y when Sx(t) * Dy <= Sy(t) * Dx at every t.
    """
    cx, dx = _occupancy_counts(spec.k, lambda: spec.s_vec, spec.b)
    cy, dy = _occupancy_counts(spec.k, lambda: repeat(1, spec.s), spec.s)
    tail_x = accumulate(reversed(cx))
    tail_y = accumulate(reversed(cy))
    worst = max(a * dy - b * dx for a, b in zip(tail_x, tail_y))
    return DominanceReport(
        k=spec.k,
        s_vec=spec.s_vec,
        margin=worst / (dx * dy),
        violation=worst > 0,
    )
