"""Output checks: each returns the list of problems found in one invocation.

An invocation with any problem counts as one failed operation.  The checks
recompute what they can from the argv alone and take the program's word
only for the regime's sequence length (``bounds.regime_target``).
"""

from __future__ import annotations

import json
import math
import warnings

from .workloads import option

SWEEP_HEADER = "regime,k,n,trials,mean_R,stderr,lower,upper,theory_target,tail_xi,tail_value"
URN_HEADER = "model,k,s_vec,t,survival,stderr"
PMF_TOLERANCE = 1e-12


def check_invocation(argv, rc, stdout: str) -> list[str]:
    """Problems with one invocation (see workloads.py) that returned ``rc``."""
    if rc != 0:
        return [f"exit code {rc}"]
    checker = CHECKERS.get(argv[0])
    if checker is None:
        return [f"no output check for command {argv[0]!r}"]
    try:
        return checker(argv, stdout)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"unparsable output: {type(exc).__name__}: {exc}"]


def check_sweep(argv, stdout: str) -> list[str]:
    from rflcs.bounds import regime_target

    problems = []
    lines = stdout.splitlines()
    if not lines or lines[0] != SWEEP_HEADER:
        return ["sweep header mismatch"]
    regime = int(option(argv, "--regime"))
    k_list = [int(v) for v in option(argv, "--k-list").split(",")]
    trials = int(option(argv, "--trials"))
    rho = float(option(argv, "--rho", 0.0))
    xi = float(option(argv, "--xi", 0.0))
    n_override = option(argv, "--n")
    n_override = int(n_override) if n_override is not None else None
    exact = option(argv, "--estimator", "bracket") == "exact"
    rows = [line.split(",") for line in lines[1:]]
    if len(rows) != len(k_list):
        return [f"expected {len(k_list)} sweep rows, got {len(rows)}"]
    for row, k in zip(rows, k_list):
        if len(row) != len(SWEEP_HEADER.split(",")):
            problems.append(f"k={k}: {len(row)} columns")
            continue
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            n_expected = regime_target(regime, k, rho=rho, xi=xi, n=n_override).n
        if (int(row[0]), int(row[1]), int(row[3])) != (regime, k, trials):
            problems.append(f"k={k}: regime/k/trials columns {row[:4]}")
        if int(row[2]) != n_expected:
            problems.append(f"k={k}: n={row[2]}, expected {n_expected}")
        mean_r, lower, upper = float(row[4]), float(row[6]), float(row[7])
        if not lower <= upper <= k:
            problems.append(f"k={k}: bracket not ordered: lower={lower} upper={upper}")
        if exact and not mean_r == lower == upper:
            problems.append(f"k={k}: exact row with mean_R={mean_r} lower={lower} upper={upper}")
    return problems


def check_uniformity(argv, stdout: str) -> list[str]:
    doc = json.loads(stdout)
    n, k = int(option(argv, "--n")), int(option(argv, "--k"))
    total = k ** (2 * n)
    problems = []
    if doc["uniform"] is not True:
        problems.append("uniform is not true")
    if doc["total_pairs"] != total:
        problems.append(f"total_pairs={doc['total_pairs']}, expected {total}")
    counted = sum(doc["size_counts"].values())
    if counted != total:
        problems.append(f"size_counts sum to {counted}, expected {total}")
    return problems


def check_urn_exact(argv, stdout: str) -> list[str]:
    pmf = json.loads(stdout)
    k = int(option(argv, "--k"))
    problems = []
    if len(pmf) != k + 1:
        problems.append(f"pmf has {len(pmf)} entries, expected {k + 1}")
    if any(not (0.0 <= p <= 1.0) for p in pmf):
        problems.append("pmf entry outside [0, 1]")
    if abs(math.fsum(pmf) - 1.0) > PMF_TOLERANCE:
        problems.append(f"pmf sums to {math.fsum(pmf)!r}")
    return problems


def check_urn(argv, stdout: str) -> list[str]:
    lines = stdout.splitlines()
    if not lines or lines[0] != URN_HEADER:
        return ["urn header mismatch"]
    k = int(option(argv, "--k"))
    rows = [line.split(",") for line in lines[1:]]
    if [int(r[3]) for r in rows] != list(range(k + 1)):
        return [f"survival rows are not t = 0..{k}"]
    survival = [float(r[4]) for r in rows]
    problems = []
    if survival[0] != 1.0:
        problems.append(f"survival starts at {survival[0]}")
    if any(b > a for a, b in zip(survival, survival[1:])):
        problems.append("survival increases")
    if survival[-1] < 0.0:
        problems.append("negative survival")
    return problems


def check_samples(argv, stdout: str) -> list[str]:
    """Empty-urn counts from a sampler: a histogram over 0..k that sums to
    the trial count and stays within the range the group sizes allow."""
    lines = stdout.splitlines()
    if not lines or not lines[-1].startswith("sha256="):
        return ["missing sample digest"]
    k, trials = int(option(argv, "--k")), int(option(argv, "--trials"))
    if option(argv, "--s") is not None:  # classical: s balls, one urn each
        sizes = [1] * int(option(argv, "--s"))
    else:
        sizes = [int(v) for v in option(argv, "--s-vec").split(",")]
    counts = [int(line.split(",")[1]) for line in lines[:-1]]
    if len(counts) != k + 1:
        return [f"histogram has {len(counts)} bins, expected {k + 1}"]
    problems = []
    if sum(counts) != trials:
        problems.append(f"histogram holds {sum(counts)} samples, expected {trials}")
    lo, hi = k - min(sum(sizes), k), k - max(sizes, default=0)
    outside = [t for t, c in enumerate(counts) if c and not lo <= t <= hi]
    if outside:
        problems.append(f"empty counts {outside} outside [{lo}, {hi}]")
    return problems


def check_check(argv, stdout: str) -> list[str]:
    lines = stdout.splitlines()
    if not lines:
        return ["no check lines"]
    return [f"not PASS: {line}" for line in lines if not line.startswith("PASS ")]


CHECKERS = {
    "sweep": check_sweep,
    "uniformity": check_uniformity,
    "urn-exact": check_urn_exact,
    "urn": check_urn,
    "check": check_check,
    "urns.classical_urn_empty_counts": check_samples,
    "urns.grouped_urn_empty_counts": check_samples,
}
