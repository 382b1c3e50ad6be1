"""Machine-speed reference: scale measured times to a fixed machine speed.

On a few cores of a shared host the same pure-Python loop runs up to twice
as slowly for seconds to minutes at a time, far more than the bounds the
benchmark sets.  So every timed call is bracketed by a fixed reference loop
that does not touch rflcs, and the call's time is reported scaled to the
reference's nominal speed:

    scaled = measured * NOMINAL_S / (mean of the reference times around it)

A change to the program moves the scaled time as it moves the measured one,
since the reference does not depend on the program.  A slower phase of the
machine stretches the call and the reference alike and cancels.  Measured
and reference times are both kept in the run record.
"""

from __future__ import annotations

import time

# About the time of reference_work() on a 2-CPU x86-64 machine running at
# full speed, so scaled times read roughly as seconds on such a machine.
NOMINAL_S = 0.025


def reference_work() -> int:
    """Fixed interpreter-bound work in the style of the program's hot loops:
    a list-indexed table fill (like the LCS table), dict and tuple churn
    (like the subset DP) and a keyed sort."""
    width = 160
    row = [0] * width
    for i in range(250):
        prev, row = row, [0] * width
        for j in range(1, width):
            if (i ^ j) & 7 == 0:
                row[j] = prev[j - 1] + 1
            else:
                a, b = prev[j], row[j - 1]
                row[j] = a if a >= b else b
    table: dict[int, tuple[int, int]] = {}
    for i in range(80000):
        table[i & 2047] = (i, i >> 3)
    keys = sorted(table, key=lambda v: (v * 2654435761) & 0xFFFF)
    return row[-1] + len(keys)


def reference_seconds() -> float:
    start = time.perf_counter()
    reference_work()
    return time.perf_counter() - start


def scaled(seconds: float, reference_s: float) -> float:
    """``seconds`` measured while the reference took ``reference_s``."""
    return seconds * NOMINAL_S / reference_s
