import math
import os
from itertools import combinations

import pytest

import rflcs.experiments
from conftest import FIXTURES, all_pairs_uniformity, run_child
from rflcs.bounds import regime_target
from rflcs.errors import CapacityError
from rflcs.experiments import (
    CSV_HEADER,
    SweepConfig,
    run_fixed_k_saturation,
    run_regime_sweep,
    run_tailbound_suite,
    uniformity_test_exhaustive,
)
from rflcs.rng import RngStream


class TestSweep:
    def config(self, **kw):
        base = dict(
            regime=2,
            k_list=(4, 6),
            trials=8,
            master_seed=5,
            rho=1.0,
            estimator="exact",
        )
        base.update(kw)
        return SweepConfig(**base)

    def test_rejects_exact_estimator_beyond_cap(self):
        # regime 3 at k = 200 (n = 22,479, m = 200): refused at set-up
        config = self.config(regime=3, xi=1.0, k_list=(4, 200), trials=2)
        with pytest.raises(CapacityError):
            run_regime_sweep(config)

    def test_csv_shape(self):
        report = run_regime_sweep(self.config())
        csv = report.to_csv()
        lines = csv.strip().split("\n")
        assert lines[0] == CSV_HEADER
        assert len(lines) == 3
        assert csv.endswith("\n")

    def test_exact_estimator_lower_equals_upper(self):
        report = run_regime_sweep(self.config())
        for row in report.rows:
            assert row.lower == row.upper == row.mean_R

    def test_bracket_orders_estimates(self):
        report = run_regime_sweep(self.config(estimator="bracket", k_list=(6,)))
        row = report.rows[0]
        assert row.lower <= row.upper
        assert row.mean_R == row.lower

    @pytest.mark.parametrize(
        "regime, k, params",
        [
            # the LCS passes k in every trial of the first three, so the
            # capped upper pass stops at k, and in none of the last two; k
            # above EXACT_SEGMENTS_K_MAX solves the floor's segments by LIS
            (3, 8, dict(xi=1.0)),
            (3, 21, dict(xi=0.5)),
            (2, 12, dict(rho=2.0)),
            (2, 24, dict(rho=1.0)),
            (1, 25, dict(n=30)),
        ],
    )
    @pytest.mark.filterwarnings("ignore:regime 1 assumes")
    def test_every_bracket_trial_brackets_exact(self, regime, k, params):
        # per trial, not per mean: the instance of (seed, k index, trial)
        # has lower <= R <= upper, R from the exact solver on that instance
        n = regime_target(regime, k, **params).n
        for trial in range(20):
            job = (7, 1, trial, n, k)
            lower, upper = rflcs.experiments._sweep_trial((*job, "bracket"))
            r, _ = rflcs.experiments._sweep_trial((*job, "exact"))
            assert lower <= r <= upper, (trial, lower, r, upper)

    def test_worker_independence(self):
        cfg = self.config(trials=6)
        a = run_regime_sweep(cfg, workers=1).to_csv()
        b = run_regime_sweep(cfg, workers=3).to_csv()
        assert a == b

    @staticmethod
    def serial_pool(monkeypatch):
        """Replace the process pool by one that maps serially, so no process
        is started; returns the max_workers of every pool opened."""
        opened = []

        class SerialPool:
            def __init__(self, max_workers):
                opened.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs, chunksize=1):
                return map(fn, jobs)

        monkeypatch.setattr(rflcs.experiments, "ProcessPoolExecutor", SerialPool)
        return opened

    def test_pool_capped_at_trial_count(self, monkeypatch):
        opened = self.serial_pool(monkeypatch)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
        cfg = self.config(trials=2)
        assert run_regime_sweep(cfg, workers=64).to_csv() == run_regime_sweep(cfg).to_csv()
        assert opened == [2]
        run_regime_sweep(self.config(trials=1), workers=4)
        assert opened == [2]  # one trial opens no pool

    def test_pool_capped_at_usable_cpus(self, monkeypatch):
        opened = self.serial_pool(monkeypatch)
        cfg = self.config(trials=8, k_list=(4,))
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5}, raising=False)
        expected = run_regime_sweep(cfg).to_csv()
        assert run_regime_sweep(cfg, workers=64).to_csv() == expected
        assert opened == [3]
        # where the affinity call is missing, the machine's CPU count caps it
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        assert run_regime_sweep(cfg, workers=64).to_csv() == expected
        assert opened == [3, 2]
        monkeypatch.setattr(os, "cpu_count", lambda: None)  # unknown: one CPU
        assert run_regime_sweep(cfg, workers=64).to_csv() == expected
        assert opened == [3, 2]

    def test_seed_sensitivity(self):
        a = run_regime_sweep(self.config(master_seed=5)).to_csv()
        b = run_regime_sweep(self.config(master_seed=6)).to_csv()
        assert a != b

    def test_n_override(self):
        # n=10 deliberately exceeds the regime-1 small-n guidance for k=9
        with pytest.warns(UserWarning):
            report = run_regime_sweep(
                self.config(regime=1, k_list=(9,), n_override=10, rho=0.0)
            )
        assert report.rows[0].n == 10

    @pytest.mark.filterwarnings("ignore:regime 1 assumes")
    @pytest.mark.parametrize(
        "params, k, n",
        [
            (dict(regime=2, rho=1.0), 4, 4),
            (dict(regime=3, xi=1.0), 2, 3),
            (dict(regime=1, n_override=4), 7, 4),
            (dict(regime=1, n_override=3), 14, 3),
        ],
    )
    def test_matches_exact_pmf(self, params, k, n):
        # E[R] over all k^(2n) pairs, from the uniformity tally: the exact
        # sweep's mean lies within 4 standard errors of it, the bracket's
        # mean floor at most 4 above it and its mean ceiling at most 4 below
        trials = 2000
        exact, bracket = (
            run_regime_sweep(
                self.config(k_list=(k,), trials=trials, master_seed=42, estimator=est, **params)
            ).rows[0]
            for est in ("exact", "bracket")
        )
        assert exact.n == bracket.n == n
        pmf = {l: c / k ** (2 * n) for l, c in uniformity_test_exhaustive(n, k).items()}
        mean = sum(l * p for l, p in pmf.items())
        se = math.sqrt(sum((l - mean) ** 2 * p for l, p in pmf.items()) / trials)
        assert abs(exact.mean_R - mean) <= 4 * se
        assert bracket.lower <= mean + 4 * se
        assert bracket.upper >= mean - 4 * se


class TestSaturation:
    def test_small_run(self):
        mean, stderr = run_fixed_k_saturation(3, 60, 20, RngStream(50))
        assert 0.0 <= mean <= 3.0
        assert stderr >= 0.0

    def test_determinism(self):
        a = run_fixed_k_saturation(3, 40, 10, RngStream(51))
        b = run_fixed_k_saturation(3, 40, 10, RngStream(51))
        assert a == b

    def test_capacity(self):
        # n = 22,479 at k = 200: refused at set-up
        with pytest.raises(CapacityError):
            run_fixed_k_saturation(200, 22479, 2, RngStream(52))

    def test_large_k_small_m(self):
        # k = 30, but n = 10 keeps every m <= 10
        mean, _ = run_fixed_k_saturation(30, 10, 2, RngStream(52))
        assert 0.0 <= mean <= 10.0


class TestUniformity:
    def test_trivial_n1(self):
        # matched pairs (0,0) and (1,1) give length 1; the others length 0
        assert uniformity_test_exhaustive(1, 2) == {0: 2, 1: 2}

    def test_n2_k2_counts(self):
        size_counts = uniformity_test_exhaustive(2, 2)
        assert sum(size_counts.values()) == 16
        for l, c in size_counts.items():
            assert c % math.comb(2, l) == 0

    # every shape with at most 50,000 pairs (n = 0 has one pair whatever k,
    # so it takes the n = 1 range of k); (3, 3) by itself has x with 0, 1 and 2
    # absent symbols, and n = 1 has x with up to 222
    @pytest.mark.parametrize("n", range(13))
    def test_matches_all_pairs(self, n):
        ks = [k for k in range(1, 224) if k ** (2 * n) <= 50_000]
        assert ks
        for k in ks:
            got = uniformity_test_exhaustive(n, k)
            size_counts, subset_counts = all_pairs_uniformity(n, k)
            assert got == size_counts
            # the key order too is that of the loop over all pairs
            assert list(got) == list(size_counts)
            assert sum(got.values()) == k ** (2 * n)
            # every l-subset's bucket, as the CLI derives it (the
            # relabelling lemma), is what one solve per pair counts
            assert subset_counts == {
                l: {frozenset(s): c // math.comb(k, l) for s in combinations(range(k), l)}
                for l, c in got.items()
                if l
            }

    @pytest.mark.parametrize("n, k, solves", [(3, 7, 153), (4, 3, 1_069), (3, 3, 116)])
    def test_solves_once_per_class(self, monkeypatch, n, k, solves):
        # one solve per pattern of x (x relabelled by first occurrence) and per
        # y over its labels plus one stand-in for the symbols absent from x,
        # not one per pair: at n = 3 the patterns 000, 001, 010, 011 and 012
        # with 2, 3, 3, 3 and 4 labels (3 at k = 3) give 8 + 3 * 27 + 64 = 153
        calls = 0
        solve = rflcs.experiments._canonical_edges

        def counting(x, y):
            nonlocal calls
            calls += 1
            return solve(x, y)

        monkeypatch.setattr(rflcs.experiments, "_canonical_edges", counting)
        uniformity_test_exhaustive(n, k)
        assert calls == solves

    def test_capacity(self):
        with pytest.raises(CapacityError):
            uniformity_test_exhaustive(6, 5)

    def test_rejects_empty_alphabet(self):
        with pytest.raises(ValueError):
            uniformity_test_exhaustive(2, 0)


class TestTailboundSuite:
    def test_reference_seed_small_budget(self):
        items = run_tailbound_suite(RngStream(42), trials=20_000, solver_trials=10)
        assert len(items) == 6
        names = [item.name for item in items]
        assert names[0].startswith("bernstein")
        assert any(n.startswith("coupon") for n in names)
        assert any(n.startswith("occupancy") for n in names)
        assert any(n.startswith("regime1") for n in names)
        for item in items:
            assert 0.0 <= item.observed <= 1.0
            assert item.bound >= 0.0

    def test_determinism(self):
        a = run_tailbound_suite(RngStream(7), trials=5_000, solver_trials=3)
        b = run_tailbound_suite(RngStream(7), trials=5_000, solver_trials=3)
        assert a == b


def test_regime2_row_consistent_with_target():
    cfg = SweepConfig(
        regime=2, k_list=(8,), trials=12, master_seed=9, rho=2.0, estimator="exact"
    )
    row = run_regime_sweep(cfg).rows[0]
    assert row.n == math.ceil(2.0 * 8 * math.sqrt(8) / 2)
    assert math.isclose(row.theory_target, 8 * (1 - math.exp(-2.0)))
    assert row.mean_R <= 8.0


def test_demo_sweep_script():
    # scripts/demo_sweep.py builds its SweepConfigs by keyword: one exact
    # sweep per regime, two alphabet sizes each
    script = FIXTURES.parents[1] / "scripts" / "demo_sweep.py"
    code, out, err, _ = run_child(str(script), "--trials", "2")
    assert code == 0, err
    blocks = out.strip("\n").split("\n\n")
    assert len(blocks) == 3
    for regime, block in enumerate(blocks, start=1):
        title, header, *rows = block.split("\n")
        assert title == f"# regime {regime}" and header == CSV_HEADER
        assert len(rows) == 2 and all(row.startswith(f"{regime},") for row in rows)
