"""Benchmark workloads: fixed lists of calls into rflcs, written as argv.

A run repeats its workload's list in passes, one client in a closed loop.
Pass ``p`` gives every seeded invocation its own seed, derived from the
master seed, the pass and the invocation's position, so a run covers many
distinct instances and the same master seed always gives the same argv.
Sweeps always run with ``--workers 1``; the two-worker replay in run.py is
outside the timed phase.

The battery samples the urn models by calling the two ``rflcs.urns``
samplers directly (LIBRARY_CALLS, written in the same argv form), because
both CLI paths to them fail on some seeds: ``rflcs urn`` exits 2 with
"math domain error" when the survival sum rounds above 1, and ``rflcs
check`` reports FAIL when its regime-1 item, which tests the heuristic's
lower estimate against a tail bound for R itself, exceeds its slack.
Move the battery back to those commands once they are fixed.

Trial counts are sized so that one pass takes about 2.5 s on a 2-CPU
machine.  The run reports medians over passes; short passes let a 40 s run
hold a dozen of them, which spreads them over the slow and fast phases of a
shared machine and over many instances.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

# Bump when the seed derivation or argv layout changes, so stored
# determinism records from older definitions are not compared.
DEFINITION_VERSION = 2

LIBRARY_CALLS = ("urns.classical_urn_empty_counts", "urns.grouped_urn_empty_counts")
SEEDED_COMMANDS = ("sweep", "check", "urn", *LIBRARY_CALLS)

# Run before timing (and by each set-up probe) so imports and lazy set-up
# are done.  k=4 exercises the exact per-segment path, k=30 the LIS path.
WARMUP = ("sweep", "--regime", "2", "--rho", "1", "--k-list", "4,30",
          "--trials", "2", "--seed", "0", "--workers", "1")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    invocations: tuple[tuple[str, ...], ...]

    def pass_argvs(self, seed: int, pass_index: int) -> list[list[str]]:
        """The argv of every invocation in pass ``pass_index``."""
        out = []
        for i, template in enumerate(self.invocations):
            argv = list(template)
            if argv[0] in SEEDED_COMMANDS:
                argv += ["--seed", str(derive_seed(seed, pass_index, i))]
            if argv[0] == "sweep":
                argv += ["--workers", "1"]
            out.append(argv)
        return out

    def digest(self) -> str:
        doc = {"version": DEFINITION_VERSION, "invocations": self.invocations}
        return hashlib.sha256(json.dumps(doc).encode()).hexdigest()


def derive_seed(seed: int, pass_index: int, position: int) -> int:
    """A 31-bit seed for one invocation, independent of the program's RNG."""
    digest = hashlib.sha256(f"{seed}/{pass_index}/{position}".encode()).digest()
    return int.from_bytes(digest[:4], "big") >> 1


def option(argv, flag: str, default=None):
    """Value following ``flag`` in argv, or ``default``."""
    argv = list(argv)
    if flag in argv:
        return argv[argv.index(flag) + 1]
    return default


def instances(argv) -> int:
    """Problem instances a solver runs on: sweep trials, uniformity pairs."""
    if argv[0] == "sweep":
        return int(option(argv, "--trials")) * len(option(argv, "--k-list").split(","))
    if argv[0] == "uniformity":
        return int(option(argv, "--k")) ** (2 * int(option(argv, "--n")))
    return 0


def _split(*commands: str) -> tuple[tuple[str, ...], ...]:
    return tuple(tuple(c.split()) for c in commands)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="exact-sweep",
            why="exact solves with m=13 common symbols: the subset DP in rflcs_exact takes "
            "nearly all the time, LCS and urns are idle; a DP rewrite shows here",
            invocations=_split(
                "sweep --regime 3 --xi 1 --k-list 13 --trials 8 --estimator exact",
                "sweep --regime 2 --rho 4 --k-list 13 --trials 8 --estimator exact",
                "sweep --regime 3 --xi 2 --k-list 13 --trials 8 --estimator exact",
            ),
        ),
        Workload(
            name="bracket-sweep",
            why="all three regimes with the default bracket estimator: the quadratic LCS "
            "table takes nearly all the time and the exact DP is bypassed",
            invocations=_split(
                "sweep --regime 1 --n 800 --k-list 400 --trials 4",
                "sweep --regime 2 --rho 1 --k-list 16,50,100,200 --trials 2",
                "sweep --regime 3 --xi 1 --k-list 16,40,60 --trials 1",
            ),
        ),
        Workload(
            name="battery",
            why="urn Monte Carlo samplers (the 922-ball coupon case sets peak memory) and "
            "exact urn distributions, plus 117649 tiny exact solves where per-call cost dominates",
            invocations=_split(
                "urns.classical_urn_empty_counts --k 100 --s 922 --trials 50000",
                "urns.grouped_urn_empty_counts --k 50 --s-vec 10,10,10,10,10 --trials 50000",
                "uniformity --n 3 --k 7",
                "urn-exact --k 7 --s-vec 2,3,3,2",
                "urn-exact --k 30 --s 200",
            ),
        ),
    )
}
