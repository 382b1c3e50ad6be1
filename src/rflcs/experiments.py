"""Monte Carlo harness: regime sweeps, exhaustive uniformity check, and the
tail-bound verification battery.

Determinism contract: every report is a pure function of its config and
master seed.  Each trial owns the stream (master_seed -> k index ->
trial ordinal), and results are merged in trial order, so the worker
count never changes output bytes.

Exact estimates have no size check of their own: the solver's work budget
raises CapacityError from the first trial that exceeds it, whatever the
nominal k.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import astuple, dataclass, fields
from itertools import product
from typing import Optional, Sequence

import numpy as np

from .bounds import lambda_empty, bernstein_tail, coupon_tail, occupancy_tail, regime_target
from .errors import CapacityError
from .generators import gen_uniform_pair
from .rng import RngStream
from .solvers import _canonical_edges, lcs_length, rflcs_exact, segment_merge_heuristic
from .urns import classical_urn_empty_counts

# Caps of uniformity_test_exhaustive: the k^(2n) pairs it tallies, which also
# bounds the k^n sequences it scans for patterns, and the solves, which follow
# the patterns, not the pairs (153 for 117,649 pairs at n = 3, k = 7; 2^21 for
# 4.2M at n = 11, k = 2).  At about 40 us a solve, the largest shape admitted,
# (9, 2) with 2^17 solves, takes about 5 s.
UNIFORMITY_PAIRS_MAX = 10_000_000
UNIFORMITY_SOLVES_MAX = 1 << 17
# A CSV-byte policy, not a capacity gate: bracket sweeps solve segments
# exactly for k up to this and by LIS above it, which fixes which rows
# report which floor.
EXACT_SEGMENTS_K_MAX = 20


@dataclass(frozen=True)
class SweepConfig:
    regime: int
    k_list: tuple[int, ...]
    trials: int
    master_seed: int
    rho: float = 0.0
    xi: float = 0.0
    estimator: str = "bracket"  # exact | bracket
    n_override: Optional[int] = None

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.estimator not in ("exact", "bracket"):
            raise ValueError("estimator must be exact or bracket")


@dataclass(frozen=True)
class SweepRow:
    regime: int
    k: int
    n: int
    trials: int
    mean_R: float
    stderr: float
    lower: float
    upper: float
    theory_target: float
    tail_xi: float
    tail_value: float


CSV_HEADER = ",".join(f.name for f in fields(SweepRow))


@dataclass(frozen=True)
class SweepReport:
    rows: tuple[SweepRow, ...]

    def to_csv(self) -> str:
        def fmt(v) -> str:
            if isinstance(v, int):
                return str(v)
            return f"{v:.10g}"

        lines = [CSV_HEADER]
        lines += (",".join(fmt(v) for v in astuple(r)) for r in self.rows)
        return "\n".join(lines) + "\n"


def _mean_stderr(values: Sequence[int]) -> tuple[float, float]:
    """Sample mean and its standard error; the error of one value is 0."""
    vals = np.array(values, dtype=float)
    stderr = float(vals.std(ddof=1) / math.sqrt(len(vals))) if len(vals) > 1 else 0.0
    return float(vals.mean()), stderr


def _sweep_trial(args: tuple[int, int, int, int, int, str]) -> tuple[int, int]:
    """One trial; returns (lower, upper) estimates of R for one instance."""
    master_seed, k_idx, trial, n, k, estimator = args
    stream = RngStream(master_seed, k_idx).substream(trial)
    inst = gen_uniform_pair(n, k, stream)
    if estimator == "exact":
        val = rflcs_exact(inst).length
        return val, val
    per_segment = "exact" if k <= EXACT_SEGMENTS_K_MAX else "lis"
    lower = segment_merge_heuristic(inst, per_segment=per_segment).length
    upper = lcs_length(inst.x, inst.y, cap=k).length
    return lower, upper


def _usable_cpus() -> int:
    """CPUs this process may run on, or the machine's count where the
    platform cannot tell."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def run_regime_sweep(config: SweepConfig, workers: int = 1) -> SweepReport:
    """One row per k: Monte Carlo estimates of E[R] with theory overlays."""
    if workers < 1:
        raise ValueError("workers must be >= 1")
    rows = []
    # Under fork a pool starts all its workers at the first submit, so it
    # never gets more workers than there are trials to share or CPUs to run
    # them on.
    workers = min(workers, config.trials, _usable_cpus())
    with ProcessPoolExecutor(max_workers=workers) if workers > 1 else nullcontext() as pool:
        for k_idx, k in enumerate(config.k_list):
            rt = regime_target(
                config.regime, k, rho=config.rho, xi=config.xi, n=config.n_override
            )
            n = rt.n
            jobs = [
                (config.master_seed, k_idx, trial, n, k, config.estimator)
                for trial in range(config.trials)
            ]
            if pool is not None:
                results = list(pool.map(_sweep_trial, jobs, chunksize=8))
            else:
                results = [_sweep_trial(j) for j in jobs]
            lowers, uppers = zip(*results)
            # exact: lower == upper; bracket: mean_R reports the floor
            mean, stderr = _mean_stderr(lowers)
            rows.append(
                SweepRow(
                    regime=config.regime,
                    k=k,
                    n=n,
                    trials=config.trials,
                    mean_R=mean,
                    stderr=stderr,
                    lower=mean,
                    upper=float(np.mean(uppers)),
                    theory_target=rt.target,
                    tail_xi=config.xi,
                    tail_value=rt.tail(config.xi),
                )
            )
    return SweepReport(rows=tuple(rows))


def run_fixed_k_saturation(k: int, n: int, trials: int, rng: RngStream) -> tuple[float, float]:
    """(mean, stderr) of exact R over `trials` seeded instances of length n
    over k symbols, trial t drawn from rng.substream(t).

    Raises CapacityError from the first trial whose instance exceeds the
    exact solver's work budget.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    return _mean_stderr(
        [rflcs_exact(gen_uniform_pair(n, k, rng.substream(t))).length for t in range(trials)]
    )


def uniformity_test_exhaustive(n: int, k: int) -> dict[int, int]:
    """Number of the k^(2n) pairs whose canonical witness has l symbols, per l.

    The canonical witness is defined on positions, so an injective renaming
    of the symbols renames its symbols and changes nothing else (the
    relabelling lemma).  So only the patterns are solved: the x equal to
    their relabelling by first occurrence to 0, ..., d - 1, each standing for
    perm(k, d) sequences.  One stand-in, d, takes the place of every symbol
    absent from x: an absent symbol is never matched, so the y that differ
    only in which absent symbol fills some positions share one solve,
    weighted (k - d)^(#stand-ins).

    By the same lemma each l-subset of [0, k) is the symbol set of
    size_counts[l] / C(k, l) pairs, so these counts are the whole tally:
    the CLI derives every subset's bucket from them.  The lemma itself is
    checked against one solve per pair in TestUniformity.test_matches_all_pairs
    and acceptance criterion 07.
    """
    if n < 0 or k < 1:
        raise ValueError("require n >= 0 and k >= 1")
    # n > 12 is refused first, so k ** (2 n) never grows huge: for k >= 2 it
    # already means more than 4^12 > UNIFORMITY_PAIRS_MAX pairs.
    if n > 12 or k ** (2 * n) > UNIFORMITY_PAIRS_MAX:
        raise CapacityError(
            f"uniformity_test_exhaustive limited to n <= 12 and "
            f"{UNIFORMITY_PAIRS_MAX} pairs (requested {k}^{2 * n})"
        )
    patterns = []  # (px, d)
    for x in product(range(k), repeat=n):
        label: dict[int, int] = {}
        if x == tuple(label.setdefault(c, len(label)) for c in x):
            patterns.append((x, len(label)))
    solves = sum(min(d + 1, k) ** n for _, d in patterns)
    if solves > UNIFORMITY_SOLVES_MAX:
        raise CapacityError(
            f"uniformity_test_exhaustive limited to {UNIFORMITY_SOLVES_MAX} solves "
            f"(n = {n}, k = {k} needs {solves})"
        )
    size_counts: dict[int, int] = {}
    for px, d in patterns:
        copies = math.perm(k, d)
        for py in product(range(min(d + 1, k)), repeat=n):
            l = len(_canonical_edges(px, py))
            size_counts[l] = size_counts.get(l, 0) + copies * (k - d) ** py.count(d)
    return size_counts


@dataclass(frozen=True)
class TailboundItem:
    name: str
    observed: float
    bound: float
    slack: float
    passed: bool


def _tail_item(name: str, p_hat: float, bound: float, trials: int) -> TailboundItem:
    """Passes when the observed tail p_hat is at most the bound plus 3
    standard errors of a proportion min(max(p_hat, bound), 1) over `trials`."""
    p = min(max(p_hat, bound), 1.0)
    slack = 3.0 * math.sqrt(p * (1.0 - p) / trials)
    return TailboundItem(name, p_hat, bound, slack, passed=p_hat <= bound + slack)


def run_tailbound_suite(
    rng: RngStream, trials: int = 100_000, solver_trials: int = 30
) -> tuple[TailboundItem, ...]:
    """Fixed battery of Monte Carlo vs closed-form bound comparisons, one
    item per comparison in a fixed order; `rflcs check` fails unless every
    item passed.

    Occupancy items use `trials` urn samples; the matching-length item
    uses `solver_trials` heuristic solves.  Statistical slack is 3
    standard errors throughout (the coupon item keeps the fixed 0.02
    budget, i.e. the bound 0.01 doubled).
    """
    items: list[TailboundItem] = []

    # Bernstein-style upper tail at k=50, s=50, a in {2, 4, 6}.
    k1, s1 = 50, 50
    lam = lambda_empty(k1, s1)
    y1 = classical_urn_empty_counts(k1, s1, trials, rng.substream(1))
    for a in (2.0, 4.0, 6.0):
        p_hat = float(np.mean(y1 >= lam + a))
        items.append(
            _tail_item(f"bernstein_k{k1}_s{s1}_a{a:g}", p_hat, bernstein_tail(k1, s1, a), trials)
        )

    # Coupon-collector zero-empty-urn tail at k=100, xi=1.
    k2, xi2 = 100, 1.0
    s2, bound2 = coupon_tail(k2, xi2)
    y2 = classical_urn_empty_counts(k2, s2, trials, rng.substream(2))
    p_hat2 = float(np.mean(y2 != 0))
    items.append(
        TailboundItem(
            name=f"coupon_k{k2}_xi{xi2:g}",
            observed=p_hat2,
            bound=bound2,
            slack=bound2,  # fixed budget: bound + bound = 0.02
            passed=p_hat2 <= 2.0 * bound2,
        )
    )

    # Collision lower tail at k=10^4, s=50, a=10.
    k3, s3, a3 = 10_000, 50, 10.0
    y3 = classical_urn_empty_counts(k3, s3, trials, rng.substream(3))
    p_hat3 = float(np.mean((k3 - y3) <= s3 - a3))
    items.append(
        _tail_item(f"occupancy_k{k3}_s{s3}_a{a3:g}", p_hat3, occupancy_tail(k3, s3, a3), trials)
    )

    # Small-growth regime lower tail via the heuristic lower estimate.
    k4, n4, xi4 = 400, 800, 0.5
    rt = regime_target(1, k4, n=n4)
    threshold = (1.0 - xi4) * rt.target
    below = 0
    for t in range(solver_trials):
        inst = gen_uniform_pair(n4, k4, rng.substream(4).substream(t))
        res = segment_merge_heuristic(inst, per_segment="lis")
        if res.length <= threshold:
            below += 1
    items.append(
        _tail_item(
            f"regime1_k{k4}_n{n4}_xi{xi4:g}", below / solver_trials, rt.tail(xi4), solver_trials
        )
    )

    return tuple(items)
