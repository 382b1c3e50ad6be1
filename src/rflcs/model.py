"""Domain types: instances, planted certificates and solver results.

Symbols are integers in [0, k).  All types are immutable, checked when
built, and safe to share across concurrent workers; a generated uniform
pair is range-checked on its draw, before it becomes two tuples, and not
scanned again.  An Instance's planted certificate is a repetition-free
common subsequence of x and y at its recorded positions, so its length is
a lower bound on the instance's repetition-free LCS.  A noncrossing
matching is a tuple of edges (i, j), ascending on both sides, each with
symbol x[i] = y[j]; it carries no symbols of its own.  Validators here
double as test oracles: they recompute everything from the raw
sequences.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional, Sequence


@dataclass(frozen=True)
class PlantedCertificate:
    """A repetition-free sequence z embedded at known positions of both sides."""

    z: tuple[int, ...]
    positions_x: tuple[int, ...]
    positions_y: tuple[int, ...]

    @property
    def l(self) -> int:
        return len(self.z)

    def __post_init__(self):
        if len(set(self.z)) != len(self.z):
            raise ValueError("planted sequence has a repeated symbol")
        for name, pos in (("positions_x", self.positions_x), ("positions_y", self.positions_y)):
            if len(pos) != len(self.z):
                raise ValueError(f"{name} length != planted length")
            if any(pos[i] >= pos[i + 1] for i in range(len(pos) - 1)):
                raise ValueError(f"{name} not strictly increasing")


@dataclass(frozen=True)
class Instance:
    """A pair of length-n sequences over alphabet [0, k) plus provenance."""

    n: int
    k: int
    x: tuple[int, ...]
    y: tuple[int, ...]
    seed: int = 0
    planted: Optional[PlantedCertificate] = None

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("n must be nonnegative")
        if self.k < 1:
            raise ValueError("k must be positive")
        if len(self.x) != self.n or len(self.y) != self.n:
            raise ValueError("sequence lengths differ from n")
        for seq in (self.x, self.y):
            if seq and not (0 <= min(seq) and max(seq) < self.k):
                raise ValueError("symbol out of range [0, k)")
        # PlantedCertificate has checked z and the positions on their own;
        # only the edges' fit to x and y needs the sequences
        cert = self.planted
        if cert is not None and not all(
            0 <= i < self.n and 0 <= j < self.n and self.x[i] == c == self.y[j]
            for c, i, j in zip(cert.z, cert.positions_x, cert.positions_y)
        ):
            raise ValueError("planted certificate does not match x and y")

    @classmethod
    def _drawn(cls, n: int, k: int, x: tuple[int, ...], y: tuple[int, ...], seed: int) -> "Instance":
        """An instance with no planted certificate whose n and k, lengths
        and symbols the caller has checked: built without
        `__post_init__`, which would scan x and y again."""
        inst = object.__new__(cls)
        inst.__dict__.update(n=n, k=k, x=x, y=y, seed=seed, planted=None)
        return inst

    def to_json(self) -> str:
        planted = None
        if self.planted is not None:
            planted = {
                "l": self.planted.l,
                "z": list(self.planted.z),
                "positions_x": list(self.planted.positions_x),
                "positions_y": list(self.planted.positions_y),
            }
        doc = {
            "n": self.n,
            "k": self.k,
            "seed": self.seed,
            "x": list(self.x),
            "y": list(self.y),
            "planted": planted,
        }
        return json.dumps(doc)

    @classmethod
    def from_json(cls, text: str | bytes) -> "Instance":
        """Parse an instance (a missing seed means 0) from text, or from
        bytes in UTF-8.  Every refused document raises one ValueError,
        "malformed instance JSON: ...", whether it is not UTF-8 or not JSON
        or nested too deep to parse, lacks a field, holds a non-integer
        field, gives a planted l other than len(z), or is refused by a
        constructor."""
        try:
            # decoded here, not by json.loads, which would take UTF-16 too
            doc = json.loads(text.decode("utf-8") if isinstance(text, bytes) else text)
            if not isinstance(doc, dict):
                raise TypeError("not an object")
            n, k, x, y = doc["n"], doc["k"], tuple(doc["x"]), tuple(doc["y"])
            seed = doc.get("seed", 0)
            ints = (n, k, seed, *x, *y)
            planted = p = doc.get("planted")
            if p is not None:
                planted = PlantedCertificate(
                    tuple(p["z"]), tuple(p["positions_x"]), tuple(p["positions_y"])
                )
                ints += (p.get("l", 0), *planted.z, *planted.positions_x, *planted.positions_y)
            if not all(type(v) is int for v in ints):
                raise TypeError("n, k, seed, symbols and planted fields must be integers")
            if planted is not None and p.get("l", planted.l) != planted.l:
                raise ValueError("planted l is not len(z)")
            return cls(n=n, k=k, x=x, y=y, seed=seed, planted=planted)
        except (KeyError, TypeError, ValueError, RecursionError) as exc:
            raise ValueError(f"malformed instance JSON: {exc!r}") from exc


@dataclass(frozen=True)
class SolveResult:
    """A solver's answer: its witness matching and that matching's length.

    The witness is a tuple of edges (i, j) ascending on both sides, each
    joining x[i] to y[j] = x[i], so the symbol of an edge is x[i].
    """

    witness: tuple[tuple[int, int], ...]

    @property
    def length(self) -> int:
        return len(self.witness)


@dataclass(frozen=True)
class LcsLength:
    """A length-only answer, min(L, cap) for `solvers.lcs_length`: it reads
    the same `.length` as a SolveResult, and keeps no witness."""

    length: int


def is_subsequence(z: Sequence[int], x: Sequence[int]) -> bool:
    """Greedy left-to-right embedding test."""
    it = iter(x)
    return all(c in it for c in z)


def is_repetition_free(z: Sequence[int]) -> bool:
    """True iff no symbol occurs twice in z."""
    return len(set(z)) == len(z)


def validate_matching(
    edges: Sequence[tuple[int, int]], inst: Instance, require_repetition_free: bool = False
) -> bool:
    """Check edges against inst: index ranges, strict ascent on both sides,
    x[i] == y[j] on every edge, and (optionally) distinct symbols."""
    prev_i, prev_j = -1, -1
    for i, j in edges:
        if not (0 <= i < inst.n and 0 <= j < inst.n):
            return False
        if i <= prev_i or j <= prev_j:
            return False
        if inst.x[i] != inst.y[j]:
            return False
        prev_i, prev_j = i, j
    if require_repetition_free and not is_repetition_free([inst.x[i] for i, _ in edges]):
        return False
    return True
