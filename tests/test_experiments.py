import math
import os
from itertools import combinations

import pytest

import rflcs.experiments
from conftest import all_pairs_uniformity, serial_pool
from rflcs.bounds import regime_target
from rflcs.errors import CapacityError
from rflcs.experiments import (
    TailboundItem,
    run_fixed_k_saturation,
    run_regime_sweep,
    run_tailbound_suite,
    uniformity_test_exhaustive,
)
from rflcs.rng import RngStream


class TestSweep:
    def config(self, **kw):
        """run_regime_sweep's keyword arguments."""
        base = dict(regime=2, k_list=(4, 6), trials=8, seed=5, rho=1.0, estimator="exact")
        base.update(kw)
        return base

    def test_rejects_exact_estimator_beyond_cap(self):
        # regime 3 at k = 200 (n = 22,479, m = 200): refused at set-up
        config = self.config(regime=3, xi=1.0, k_list=(4, 200), trials=2)
        with pytest.raises(CapacityError):
            run_regime_sweep(**config)

    @pytest.mark.parametrize(
        "kw, message",
        [
            (dict(trials=0), "trials must be >= 1"),
            (dict(estimator="heuristic"), "estimator must be exact or bracket"),
            (dict(workers=0), "workers must be >= 1"),
        ],
    )
    def test_rejects_bad_arguments(self, kw, message):
        with pytest.raises(ValueError, match=message):
            run_regime_sweep(**self.config(**kw))

    def test_one_row_per_k(self):
        rows = run_regime_sweep(**self.config())
        assert [(row.regime, row.k, row.trials) for row in rows] == [(2, 4, 8), (2, 6, 8)]

    def test_exact_estimator_lower_equals_upper(self):
        for row in run_regime_sweep(**self.config()):
            assert row.lower == row.upper == row.mean_R

    def test_bracket_orders_estimates(self):
        (row,) = run_regime_sweep(**self.config(estimator="bracket", k_list=(6,)))
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
            stream = RngStream(7, 1).substream(trial)
            lower, upper = rflcs.experiments._sweep_trial(stream, n, k, "bracket")
            r, _ = rflcs.experiments._sweep_trial(stream, n, k, "exact")
            assert lower <= r <= upper, (trial, lower, r, upper)

    def test_worker_independence(self):
        cfg = self.config(trials=6)
        assert run_regime_sweep(**cfg, workers=1) == run_regime_sweep(**cfg, workers=3)

    def test_pool_capped_at_trial_count(self, monkeypatch):
        opened = serial_pool(monkeypatch)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
        cfg = self.config(trials=2)
        assert run_regime_sweep(**cfg, workers=64) == run_regime_sweep(**cfg)
        assert opened == [2]
        run_regime_sweep(**self.config(trials=1), workers=4)
        assert opened == [2]  # one trial opens no pool

    def test_pool_capped_at_usable_cpus(self, monkeypatch):
        opened = serial_pool(monkeypatch)
        cfg = self.config(trials=8, k_list=(4,))
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5}, raising=False)
        expected = run_regime_sweep(**cfg)
        assert run_regime_sweep(**cfg, workers=64) == expected
        assert opened == [3]
        # where the affinity call is missing, the machine's CPU count caps it
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        assert run_regime_sweep(**cfg, workers=64) == expected
        assert opened == [3, 2]
        monkeypatch.setattr(os, "cpu_count", lambda: None)  # unknown: one CPU
        assert run_regime_sweep(**cfg, workers=64) == expected
        assert opened == [3, 2]

    def test_pool_chunks_follow_pool_map_default(self, monkeypatch):
        # ceil(trials / (4 workers)) trials a chunk, as multiprocessing.Pool.map
        chunksizes = []
        opened = serial_pool(monkeypatch, chunksizes)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        for trials in (8, 200):
            cfg = self.config(k_list=(4,), trials=trials)
            assert run_regime_sweep(**cfg, workers=2) == run_regime_sweep(**cfg)
        assert opened == [2, 2] and chunksizes == [1, 25]

    def test_every_k_checked_before_any_trial(self, monkeypatch):
        # regime_target refuses k = 1, so k = 16's trials never run
        calls = []
        trial = rflcs.experiments._sweep_trial
        monkeypatch.setattr(
            rflcs.experiments, "_sweep_trial", lambda *a, **kw: calls.append(a) or trial(*a, **kw)
        )
        with pytest.raises(ValueError, match="k must be >= 2"):
            run_regime_sweep(3, (16, 1), 2, 1, xi=1.0)
        assert calls == []

    def test_seed_sensitivity(self):
        a = run_regime_sweep(**self.config(seed=5))
        b = run_regime_sweep(**self.config(seed=6))
        assert a != b

    def test_n_override(self):
        # n=10 deliberately exceeds the regime-1 small-n guidance for k=9
        with pytest.warns(UserWarning):
            (row,) = run_regime_sweep(**self.config(regime=1, k_list=(9,), n=10, rho=0.0))
        assert row.n == 10

    @pytest.mark.filterwarnings("ignore:regime 1 assumes")
    @pytest.mark.parametrize(
        "params, k, n",
        [
            (dict(regime=2, rho=1.0), 4, 4),
            (dict(regime=3, xi=1.0), 2, 3),
            (dict(regime=1, n=4), 7, 4),
            (dict(regime=1, n=3), 14, 3),
        ],
    )
    def test_matches_exact_pmf(self, params, k, n):
        # E[R] over all k^(2n) pairs, from the uniformity tally: the exact
        # sweep's mean lies within 4 standard errors of it, the bracket's
        # mean floor at most 4 above it and its mean ceiling at most 4 below
        trials = 2000
        exact, bracket = (
            run_regime_sweep(
                **self.config(k_list=(k,), trials=trials, seed=42, estimator=est, **params)
            )[0]
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

    def test_rejects_no_trials(self):
        with pytest.raises(ValueError, match="trials must be >= 1"):
            run_fixed_k_saturation(3, 40, 0, RngStream(53))


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
        items = run_tailbound_suite(RngStream(42), trials=20_000)
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
        a = run_tailbound_suite(RngStream(7), trials=5_000)
        b = run_tailbound_suite(RngStream(7), trials=5_000)
        assert a == b

    def test_passed_is_observed_within_bound_plus_slack(self):
        # the coupon item's case: slack = bound, so 0.02 passes at the edge
        assert TailboundItem("coupon", 0.02, 0.01, 0.01).passed
        assert not TailboundItem("coupon", 0.0200001, 0.01, 0.01).passed


def test_regime2_row_consistent_with_target():
    (row,) = run_regime_sweep(2, (8,), 12, 9, rho=2.0, estimator="exact")
    assert row.n == math.ceil(2.0 * 8 * math.sqrt(8) / 2)
    assert math.isclose(row.theory_target, 8 * (1 - math.exp(-2.0)))
    assert row.mean_R <= 8.0
