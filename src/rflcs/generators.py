"""Seeded instance generators: uniform random pairs and planted pairs.

Both generators are pure functions of (parameters, stream): the stream's
derived seed is recorded on the instance for provenance.  Each draws x and
y by one call of 2n symbols; bounded draws in a row continue one stream, so
x is the first n of them and y the next n, as from two calls of n.
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
# Both generators draw symbols as numpy int64, whose bound k may be at most
# 2^63.  Larger k is refused before any draw.
K_MAX = 1 << 63


def _check_size(n: int, k: int) -> None:
    """Refuse a size before any draw: ValueError for n < 0 or k < 1, and
    CapacityError past N_MAX or K_MAX."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if k < 1:
        raise ValueError("k must be positive")
    if n > N_MAX:
        raise CapacityError(f"generation limited to n <= {N_MAX}")
    if k > K_MAX:
        raise CapacityError(f"generation limited to k <= {K_MAX}")


def gen_uniform_pair(n: int, k: int, rng: RngStream) -> Instance:
    """Two sequences of n symbols, each uniform and independent over [0, k).

    The draw is range-checked once, by two numpy reductions, so the
    instance is built without scanning its tuples again."""
    _check_size(n, k)
    draw = rng.generator().integers(0, k, size=2 * n)
    if n and (draw.min() < 0 or int(draw.max()) >= k):  # k may be 2^63, past int64
        raise ValueError("symbol out of range [0, k)")
    xy = draw.tolist()
    return Instance._drawn(n, k, tuple(xy[:n]), tuple(xy[n:]), rng.seed)


def gen_planted_pair(n: int, k: int, l: int, rng: RngStream) -> Instance:
    """Uniform pair with a repetition-free sequence of length l planted in both.

    z is a uniform l-subset of [0, k) in uniform order; in each side, l
    distinct positions are chosen uniformly at random, sorted, and
    overwritten with z in order.  The certificate is recorded, so the
    instance's repetition-free LCS is at least l.
    """
    # l first: an oversized l with an oversized n stays a usage error
    if not (0 <= l <= min(n, k)):
        raise ValueError("planted length must satisfy 0 <= l <= min(n, k)")
    _check_size(n, k)
    if k > PLANTED_K_MAX:
        raise CapacityError(f"planted generation limited to k <= {PLANTED_K_MAX}")
    g = rng.generator()
    xy = g.integers(0, k, size=2 * n).tolist()
    x, y = xy[:n], xy[n:]
    z = tuple(g.permutation(k)[:l].tolist())
    pos_x = tuple(sorted(g.choice(n, size=l, replace=False).tolist())) if l else ()
    pos_y = tuple(sorted(g.choice(n, size=l, replace=False).tolist())) if l else ()
    for i, c in enumerate(z):
        x[pos_x[i]] = c
        y[pos_y[i]] = c
    cert = PlantedCertificate(z=z, positions_x=pos_x, positions_y=pos_y)
    return Instance(n=n, k=k, x=tuple(x), y=tuple(y), seed=rng.seed, planted=cert)
