"""Deterministic seeded RNG streams.

A stream is identified by (master_seed, stream_index).  The pair is mixed
down to a single 64-bit seed with the splitmix64 finalizer (constants from
Steele, Lea & Flood, "Fast splittable pseudorandom number generators"),
and that seed drives numpy's PCG64.  Identical (master_seed, stream_index)
therefore always yields identical samples under one numpy, independent of
how work is scheduled across parallel workers.  PCG64's raw words for a
fixed seed are stable across platforms and numpy versions, but numpy's RNG
policy (NEP 19) does not extend that to the ``Generator`` methods that turn
them into samples (``integers``, ``random``, ``permutation``, ``choice``),
so a numpy release may change the samples of a stream.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def mix64(z: int) -> int:
    """splitmix64 finalizer: a bijective 64-bit state mixer."""
    z = (z + _GAMMA) & _MASK64
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


@dataclass(frozen=True)
class RngStream:
    """Immutable handle for one reproducible random stream."""

    master_seed: int
    stream_index: int = 0

    @cached_property
    def seed(self) -> int:
        """64-bit seed derived from (master_seed, stream_index), computed on
        the first read."""
        return mix64(mix64(self.master_seed & _MASK64) ^ (self.stream_index & _MASK64))

    def generator(self) -> np.random.Generator:
        """Fresh generator for this stream; same stream, same output."""
        return np.random.Generator(np.random.PCG64(self.seed))

    def substream(self, index: int) -> "RngStream":
        """Derive a child stream; children of distinct indices are independent."""
        return RngStream(self.seed, index)
