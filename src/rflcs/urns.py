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
# Draws held in memory at once by the classical sampler; its samples do not
# depend on this value.
_CLASSICAL_CHUNK_DRAWS = 4_000_000
# Stream layout of the grouped sampler: trials are drawn in blocks of
# max(1, GROUPED_BLOCK_CELLS // k), and within a block one (block x k) array
# of uniforms per group, in s_vec order.  Changing it changes the samples.
GROUPED_BLOCK_CELLS = 1 << 22


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


def classical_urn_empty_counts(k: int, s: int, trials: int, rng: RngStream) -> np.ndarray:
    """Vectorized batch of Y draws; chunked to bound memory."""
    if k < 1 or s < 0 or trials < 1:
        raise ValueError("require k >= 1, s >= 0, trials >= 1")
    g = rng.generator()
    if s == 0:
        return np.full(trials, k, dtype=np.int64)
    out = np.empty(trials, dtype=np.int64)
    chunk = max(1, _CLASSICAL_CHUNK_DRAWS // s)
    done = 0
    while done < trials:
        m = min(chunk, trials - done)
        draws = g.integers(0, k, size=(m, s))
        draws.sort(axis=1)
        distinct = 1 + np.count_nonzero(np.diff(draws, axis=1), axis=1)
        out[done : done + m] = k - distinct
        done += m
    return out


def grouped_urn_empty_counts(spec: GroupedUrnSpec, trials: int, rng: RngStream) -> np.ndarray:
    """Vectorized batch of X draws, in the block layout of GROUPED_BLOCK_CELLS.

    Per group, a uniform s_i-subset per trial is obtained by ranking i.i.d.
    uniforms over the k urns, which is exchangeable hence uniform over
    subsets.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    g = rng.generator()
    out = np.empty(trials, dtype=np.int64)
    block = max(1, GROUPED_BLOCK_CELLS // spec.k)
    done = 0
    while done < trials:
        m = min(block, trials - done)
        hit = np.zeros((m, spec.k), dtype=bool)
        for si in spec.s_vec:
            if si == 0:
                continue
            keys = g.random((m, spec.k))
            idx = np.argpartition(keys, si - 1, axis=1)[:, :si]
            np.put_along_axis(hit, idx, True, axis=1)
        out[done : done + m] = spec.k - hit.sum(axis=1)
        done += m
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


def survival_from_samples(samples, k: int) -> np.ndarray:
    """Empirical S(t) = P(value >= t) for t = 0..k.

    Tail counts are summed as integers and divided once, so S(0) is
    exactly 1 and S never increases.
    """
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
