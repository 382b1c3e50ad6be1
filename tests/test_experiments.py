import math

import pytest

import rflcs.experiments
from conftest import all_pairs_uniformity
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

    def test_worker_independence(self):
        cfg = self.config(trials=6)
        a = run_regime_sweep(cfg, workers=1).to_csv()
        b = run_regime_sweep(cfg, workers=3).to_csv()
        assert a == b

    def test_pool_capped_at_trial_count(self, monkeypatch):
        # a fake pool that maps serially, so no process is started
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
        cfg = self.config(trials=2)
        assert run_regime_sweep(cfg, workers=64).to_csv() == run_regime_sweep(cfg).to_csv()
        assert opened == [2]
        run_regime_sweep(self.config(trials=1), workers=4)
        assert opened == [2]  # one trial opens no pool

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
        tally = uniformity_test_exhaustive(n, k)
        pmf = {l: c / tally.total_pairs for l, c in tally.size_counts.items()}
        mean = sum(l * p for l, p in pmf.items())
        se = math.sqrt(sum((l - mean) ** 2 * p for l, p in pmf.items()) / trials)
        assert abs(exact.mean_R - mean) <= 4 * se
        assert bracket.lower <= mean + 4 * se
        assert bracket.upper >= mean - 4 * se


class TestSaturation:
    def test_small_run(self):
        stats = run_fixed_k_saturation(3, 60, 20, RngStream(50))
        assert stats.trials == 20
        assert 0.0 <= stats.mean <= 3.0
        assert stats.stderr >= 0.0

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
        stats = run_fixed_k_saturation(30, 10, 2, RngStream(52))
        assert stats.trials == 2 and 0.0 <= stats.mean <= 10.0


class TestUniformity:
    def test_trivial_n1(self):
        report = uniformity_test_exhaustive(1, 2)
        assert report.uniform
        assert report.total_pairs == 4
        # matched pairs (0,0) and (1,1) give length 1; the others length 0
        assert report.size_counts == {0: 2, 1: 2}

    def test_n2_k2_counts(self):
        report = uniformity_test_exhaustive(2, 2)
        assert report.uniform
        assert sum(report.size_counts.values()) == 16
        for bucket in report.subset_counts.values():
            assert len(set(bucket.values())) == 1

    # every shape with at most 50,000 pairs (n = 0 has one pair whatever k,
    # so it takes the n = 1 range of k); (3, 3) by itself has x with 0, 1 and 2
    # absent symbols, and n = 1 has x with up to 222
    @pytest.mark.parametrize("n", range(13))
    def test_matches_all_pairs(self, n):
        ks = [k for k in range(1, 224) if k ** (2 * n) <= 50_000]
        assert ks
        for k in ks:
            report = uniformity_test_exhaustive(n, k)
            size_counts, subset_counts = all_pairs_uniformity(n, k)
            assert report.size_counts == size_counts
            assert report.subset_counts == subset_counts
            # the CLI sorts each bucket's keys, but the report's key order is
            # still that of the loop over all pairs, sizes included
            assert list(report.size_counts) == list(size_counts)
            assert [list(b) for b in report.subset_counts.values()] == [
                list(b) for b in subset_counts.values()
            ]
            assert report.total_pairs == sum(size_counts.values())

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
        report = run_tailbound_suite(RngStream(42), trials=20_000, solver_trials=10)
        assert len(report.items) == 6
        names = [item.name for item in report.items]
        assert names[0].startswith("bernstein")
        assert any(n.startswith("coupon") for n in names)
        assert any(n.startswith("occupancy") for n in names)
        assert any(n.startswith("regime1") for n in names)
        for item in report.items:
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
