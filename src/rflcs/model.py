"""Domain types: instances, planted certificates, noncrossing matchings.

Symbols are integers in [0, k).  All types are immutable after
construction and safe to share across concurrent workers.  Validators
here double as test oracles: they recompute everything from the raw
sequences rather than trusting cached fields.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence


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
    def from_json(cls, text: str) -> "Instance":
        """Parse an instance; a malformed document raises ValueError."""
        doc = json.loads(text)
        if not isinstance(doc, dict):
            raise ValueError("malformed instance JSON: not an object")
        try:
            planted = None
            if doc.get("planted") is not None:
                p = doc["planted"]
                planted = PlantedCertificate(
                    z=tuple(p["z"]),
                    positions_x=tuple(p["positions_x"]),
                    positions_y=tuple(p["positions_y"]),
                )
            n, k, x, y = doc["n"], doc["k"], tuple(doc["x"]), tuple(doc["y"])
            if not all(type(v) is int for v in (n, k, *x, *y)):
                raise TypeError("n, k and symbols must be integers")
            return cls(n=n, k=k, x=x, y=y, seed=doc.get("seed", 0), planted=planted)
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed instance JSON: {exc!r}") from exc


@dataclass(frozen=True)
class NoncrossingMatching:
    """Strictly increasing index pairs into (x, y), one symbol per edge."""

    edges: tuple[tuple[int, int], ...]
    symbols: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.edges)

    def __iter__(self) -> Iterator[tuple[int, int]]:
        return iter(self.edges)


@dataclass(frozen=True)
class SolveResult:
    """A solver's answer: a witness matching, with its length and symbol
    set read off it."""

    witness: NoncrossingMatching

    @property
    def length(self) -> int:
        return len(self.witness)

    @property
    def symbol_set(self) -> frozenset[int]:
        return frozenset(self.witness.symbols)


def is_subsequence(z: Sequence[int], x: Sequence[int]) -> bool:
    """Greedy left-to-right embedding test."""
    it = iter(x)
    return all(c in it for c in z)


def is_common_subsequence(z: Sequence[int], x: Sequence[int], y: Sequence[int]) -> bool:
    """True iff z embeds in both x and y."""
    return is_subsequence(z, x) and is_subsequence(z, y)


def is_repetition_free(z: Sequence[int]) -> bool:
    """True iff no symbol occurs twice in z."""
    return len(set(z)) == len(z)


def validate_matching(
    m: NoncrossingMatching, inst: Instance, require_repetition_free: bool = False
) -> bool:
    """Check m against inst: index ranges, strict monotonicity on both sides,
    symbols recomputed from the sequences, and (optionally) distinctness."""
    if len(m.edges) != len(m.symbols):
        return False
    prev_i, prev_j = -1, -1
    for (i, j), c in zip(m.edges, m.symbols):
        if not (0 <= i < inst.n and 0 <= j < inst.n):
            return False
        if i <= prev_i or j <= prev_j:
            return False
        if inst.x[i] != c or inst.y[j] != c:
            return False
        prev_i, prev_j = i, j
    if require_repetition_free and not is_repetition_free(m.symbols):
        return False
    return True


def validate_certificate(inst: Instance) -> bool:
    """True iff inst.planted is present and consistent with (x, y)."""
    cert = inst.planted
    if cert is None:
        return False
    if not is_repetition_free(cert.z):
        return False
    if any(not (0 <= p < inst.n) for p in cert.positions_x + cert.positions_y):
        return False
    for i, c in enumerate(cert.z):
        if inst.x[cert.positions_x[i]] != c or inst.y[cert.positions_y[i]] != c:
            return False
    return True


def matching_from_edges(inst: Instance, edges: Sequence[tuple[int, int]]) -> NoncrossingMatching:
    """Build a matching carrying its symbols redundantly, read off inst.x."""
    edges = tuple(sorted(edges))
    return NoncrossingMatching(edges=edges, symbols=tuple(inst.x[i] for i, _ in edges))
