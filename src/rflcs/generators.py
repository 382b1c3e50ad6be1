"""Seeded instance generators: uniform random pairs and planted pairs.

Both generators are pure functions of (parameters, stream): the stream's
derived seed is recorded on the instance for provenance.
"""

from __future__ import annotations

from .errors import CapacityError
from .model import Instance, PlantedCertificate
from .rng import RngStream

# gen_planted_pair draws a permutation of [0, k), so k sets its memory.
PLANTED_K_MAX = 10**7
# Both generators hold each side as a tuple of n Python ints, so n sets their
# memory: `gen --k 2147483648` peaks at 187 MB at n = 2^20 and 607 MB at
# n = 2^22 (x86-64, Python 3.11, numpy 2.4).  Larger n is refused before
# any draw.
N_MAX = 1 << 20


def gen_uniform_pair(n: int, k: int, rng: RngStream) -> Instance:
    """Two sequences of n symbols, each uniform and independent over [0, k)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if k < 1:
        raise ValueError("k must be positive")
    if n > N_MAX:
        raise CapacityError(f"generation limited to n <= {N_MAX}")
    g = rng.generator()
    x = tuple(g.integers(0, k, size=n).tolist())
    y = tuple(g.integers(0, k, size=n).tolist())
    return Instance(n=n, k=k, x=x, y=y, seed=rng.seed)


def gen_planted_pair(n: int, k: int, l: int, rng: RngStream) -> Instance:
    """Uniform pair with a repetition-free sequence of length l planted in both.

    z is a uniform l-subset of [0, k) in uniform order; in each side, l
    distinct positions are chosen uniformly at random, sorted, and
    overwritten with z in order.  The certificate is recorded, so the
    instance's repetition-free LCS is at least l.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if k < 1:
        raise ValueError("k must be positive")
    if not (0 <= l <= min(n, k)):
        raise ValueError("planted length must satisfy 0 <= l <= min(n, k)")
    if n > N_MAX:
        raise CapacityError(f"generation limited to n <= {N_MAX}")
    if k > PLANTED_K_MAX:
        raise CapacityError(f"planted generation limited to k <= {PLANTED_K_MAX}")
    g = rng.generator()
    x = g.integers(0, k, size=n).tolist()
    y = g.integers(0, k, size=n).tolist()
    z = tuple(g.permutation(k)[:l].tolist())
    pos_x = tuple(sorted(g.choice(n, size=l, replace=False).tolist())) if l else ()
    pos_y = tuple(sorted(g.choice(n, size=l, replace=False).tolist())) if l else ()
    for i, c in enumerate(z):
        x[pos_x[i]] = c
        y[pos_y[i]] = c
    cert = PlantedCertificate(z=z, positions_x=pos_x, positions_y=pos_y)
    return Instance(n=n, k=k, x=tuple(x), y=tuple(y), seed=rng.seed, planted=cert)
