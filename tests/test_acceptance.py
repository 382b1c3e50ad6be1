"""Acceptance battery: one test per criterion, one printed PASS/FAIL line
each.  All stochastic items run on the frozen master seed with fixed
stream offsets, so every number here is reproducible bit for bit."""

import math
import time
from itertools import combinations

import numpy as np

from conftest import all_pairs_uniformity, exhaustive_lcs
from rflcs.bounds import claim_inequality_gap, coupon_tail, lambda_empty
from rflcs.experiments import (
    SweepConfig,
    run_fixed_k_saturation,
    run_regime_sweep,
    run_tailbound_suite,
    uniformity_test_exhaustive,
)
from rflcs.generators import gen_uniform_pair
from rflcs.rng import RngStream
from rflcs.solvers import lcs_length, rflcs_bruteforce, rflcs_exact
from rflcs.urns import (
    GroupedUrnSpec,
    classical_urn_empty_counts,
    classical_urn_exact,
    dominance_check,
    grouped_urn_exact,
    survival_from_pmf,
)

MASTER_SEED = 42


def report(name: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"{name}: {detail}"


def seeded_instances(count, stream_index, n_max=8, ks=(2, 3, 4)):
    base = RngStream(MASTER_SEED, stream_index)
    for t in range(count):
        g = base.substream(t).generator()
        n = int(g.integers(1, n_max + 1))
        k = int(g.choice(ks))
        yield gen_uniform_pair(n, k, base.substream(100_000 + t))


def test_criterion_01_oracle_equivalence():
    start = time.monotonic()
    mismatches = 0
    for inst in seeded_instances(200, stream_index=101):
        if rflcs_exact(inst).length != rflcs_bruteforce(inst).length:
            mismatches += 1
    elapsed = time.monotonic() - start
    report(
        "criterion-01 oracle-equivalence",
        mismatches == 0 and elapsed < 60.0,
        f"mismatches={mismatches}/200 runtime={elapsed:.1f}s (limit 60s)",
    )


def test_criterion_02_lcs_and_upper_bounds():
    lcs_bad = bound_bad = 0
    for inst in seeded_instances(200, stream_index=102):
        L = lcs_length(inst.x, inst.y).length
        if L != exhaustive_lcs(inst.x, inst.y):
            lcs_bad += 1
        if rflcs_exact(inst).length > min(L, inst.k):
            bound_bad += 1
    report(
        "criterion-02 lcs-correctness",
        lcs_bad == 0 and bound_bad == 0,
        f"lcs mismatches={lcs_bad}/200, R>min(L,k) violations={bound_bad}/200",
    )


def test_criterion_03_empty_urn_mean():
    worst = 0.0
    for k in range(1, 21):
        for s in range(0, 101):
            probs = classical_urn_exact(k, s)
            mean = sum(m * p for m, p in enumerate(probs))
            worst = max(worst, abs(mean - lambda_empty(k, s)))
    trials = 100_000
    ys = classical_urn_empty_counts(10, 10, trials, RngStream(MASTER_SEED, 103))
    mc_mean = float(ys.mean())
    se = float(ys.std(ddof=1)) / math.sqrt(trials)
    mc_ok = abs(mc_mean - 3.4868) <= 4 * se
    report(
        "criterion-03 urn-mean",
        worst <= 1e-9 and mc_ok,
        f"max |mean - lambda| = {worst:.2e} (tol 1e-9); "
        f"MC mean {mc_mean:.4f} vs 3.4868 within 4se={4 * se:.4f}",
    )


def test_criterion_04_dominance():
    spec = GroupedUrnSpec(k=6, s_vec=(2, 2, 3))
    sx = survival_from_pmf(grouped_urn_exact(spec))
    sy = survival_from_pmf(classical_urn_exact(6, spec.s))
    exact_margin = float(np.max(sx - sy))
    big = GroupedUrnSpec(k=50, s_vec=(10,) * 5)
    rep = dominance_check(big)
    report(
        "criterion-04 dominance",
        exact_margin <= 0.0 and not rep.violation,
        f"exact margin {exact_margin:.2e} (tol 0); "
        f"k=50 s_vec=10x5 exact dominance, integer margin {rep.margin:.2e}",
    )


def test_criterion_05_coupon_tail():
    start = time.monotonic()
    k, xi, trials = 100, 1.0, 100_000
    s, bound = coupon_tail(k, xi)
    ys = classical_urn_empty_counts(k, s, trials, RngStream(MASTER_SEED, 105))
    p_hat = float(np.mean(ys != 0))
    elapsed = time.monotonic() - start
    report(
        "criterion-05 coupon-tail",
        s == 922 and p_hat <= 2 * bound and elapsed < 120.0,
        f"s={s}, P(Y!=0)={p_hat:.4f} <= 0.02, runtime={elapsed:.1f}s (limit 120s)",
    )


def test_criterion_06_tailbound_battery():
    items = run_tailbound_suite(RngStream(MASTER_SEED), trials=100_000)
    targeted = [item for item in items if item.name.startswith(("bernstein", "occupancy"))]
    assert len(targeted) == 4
    bad = [item.name for item in targeted if not item.passed]
    report(
        "criterion-06 tailbound-battery",
        not bad,
        "all bernstein/occupancy items within 3se" if not bad else f"failed: {bad}",
    )


def test_criterion_07_uniformity_exact():
    # read off one solve per pair, not off the tally, whose buckets the
    # relabelling lemma makes uniform by construction
    start = time.monotonic()
    uniform, agrees = {}, {}
    for n, k in ((3, 2), (3, 3)):
        size_counts, subset_counts = all_pairs_uniformity(n, k)
        uniform[n, k] = all(
            len(bucket) == math.comb(k, l) and len(set(bucket.values())) == 1
            for l, bucket in subset_counts.items()
        )
        got = uniformity_test_exhaustive(n, k)
        derived = {
            l: {frozenset(s): c // math.comb(k, l) for s in combinations(range(k), l)}
            for l, c in got.items()
            if l
        }
        agrees[n, k] = (got, derived) == (size_counts, subset_counts)
    elapsed = time.monotonic() - start
    report(
        "criterion-07 uniformity",
        all(uniform.values()) and all(agrees.values()) and elapsed < 60.0,
        f"all-pairs uniform={uniform}, tally == all-pairs: {agrees}, "
        f"runtime={elapsed:.1f}s (limit 60s)",
    )


def test_criterion_08_claim_grid():
    worst = max(
        claim_inequality_gap(round(0.01 * i, 2), rho)
        for i in range(101)
        for rho in (0.1, 1.0, 5.0)
    )
    report("criterion-08 claim-grid", worst <= 1e-12, f"max gap {worst:.2e} (tol 1e-12)")


def test_criterion_09_fixed_k_saturation():
    start = time.monotonic()
    mean, _ = run_fixed_k_saturation(4, 500, 200, RngStream(MASTER_SEED).substream(3000))
    elapsed = time.monotonic() - start
    report(
        "criterion-09 fixed-k-saturation",
        mean >= 3.99 and elapsed < 120.0,
        f"mean R = {mean:.4f} >= 3.99, runtime={elapsed:.1f}s (limit 120s)",
    )


def test_criterion_10_regime3_proxy(pilot):
    ref = pilot["regime3_saturation"]
    start = time.monotonic()
    base = RngStream(pilot["master_seed"])
    k, n, trials = ref["k"], ref["n"], ref["trials"]
    vals = [
        rflcs_exact(gen_uniform_pair(n, k, base.substream(ref["stream_base"] + t))).length
        for t in range(trials)
    ]
    frac = sum(v == k for v in vals) / trials
    elapsed = time.monotonic() - start
    floor = ref["fraction_full"]
    se = math.sqrt(floor * (1.0 - floor) / trials)
    report(
        "criterion-10 regime3-saturation",
        frac >= floor - 2 * se and elapsed < 300.0,
        f"fraction R={k}: {frac:.3f} >= pilot {floor:.3f} - 2se ({2 * se:.3f}), "
        f"runtime={elapsed:.1f}s (limit 300s)",
    )


def test_criterion_11_regime2_floor():
    base = RngStream(MASTER_SEED)
    k, xi, trials = 12, 0.25, 100
    details = []
    ok = True
    for rho in (1.0, 2.0):
        n = math.ceil(rho * k * math.sqrt(k) / 2.0)
        offset = 2000 + int(rho * 100)
        vals = [
            rflcs_exact(gen_uniform_pair(n, k, base.substream(offset + t))).length
            for t in range(trials)
        ]
        mean = sum(vals) / trials
        floor = (1.0 - xi) * k * (1.0 - math.exp(-rho))
        ok = ok and mean >= floor
        details.append(f"rho={rho:g}: mean {mean:.3f} >= {floor:.2f}")
    report("criterion-11 regime2-floor", ok, "; ".join(details))


def test_criterion_12_determinism():
    cfg = SweepConfig(
        regime=2,
        k_list=(4, 8),
        trials=20,
        master_seed=MASTER_SEED,
        rho=1.0,
        estimator="exact",
    )
    a = run_regime_sweep(cfg, workers=1).to_csv()
    b = run_regime_sweep(cfg, workers=8).to_csv()
    report(
        "criterion-12 determinism",
        a == b,
        f"workers 1 vs 8 byte-identical: {a == b} ({len(a)} bytes)",
    )
