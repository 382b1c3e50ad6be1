import hashlib
import math
import os
import sys
import threading
import time
from itertools import repeat
from operator import length_hint

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import (
    argpartition_grouped_urn_empty_counts,
    classical_urn_inclusion_exclusion,
    grouped_urn_enumeration,
    int64_classical_urn_empty_counts,
    run_child,
    walked_chain_cost,
)
from rflcs import urns
from rflcs.bounds import lambda_empty
from rflcs.errors import CapacityError
from rflcs.rng import RngStream
from rflcs.urns import (
    GroupedUrnSpec,
    classical_urn_empty_counts,
    classical_urn_exact,
    dominance_check,
    grouped_urn_empty_counts,
    grouped_urn_exact,
    survival_from_pmf,
    survival_from_samples,
)

grouped_specs = st.integers(1, 6).flatmap(
    lambda k: st.tuples(
        st.just(k),
        st.lists(st.integers(0, k), min_size=0, max_size=4),
    )
)


def _refused(k, groups) -> bool:
    """Whether the exact chain refuses these groups with a CapacityError."""
    try:
        urns._occupancy_counts(k, groups)
    except CapacityError:
        return True
    return False


class TestSpecs:
    def test_totals(self):
        spec = GroupedUrnSpec(k=6, s_vec=(2, 2, 3))
        assert spec.s == 7

    def test_rejects_oversized_group(self):
        with pytest.raises(ValueError):
            GroupedUrnSpec(k=3, s_vec=(4,))
        with pytest.raises(ValueError):
            GroupedUrnSpec(k=0, s_vec=())


class TestExactDistributions:
    def test_classical_degenerate(self):
        assert classical_urn_exact(3, 0) == [0.0, 0.0, 0.0, 1.0]

    def test_classical_one_ball(self):
        probs = classical_urn_exact(4, 1)
        assert probs == [0.0, 0.0, 0.0, 1.0, 0.0]

    def test_classical_two_urns_two_balls(self):
        # Y=1 iff both balls land in the same urn
        probs = classical_urn_exact(2, 2)
        assert probs == [0.5, 0.5, 0.0]

    def test_classical_sums_to_one_and_matches_mean(self):
        for k, s in [(5, 3), (10, 10), (20, 100), (7, 0)]:
            probs = classical_urn_exact(k, s)
            assert math.isclose(sum(probs), 1.0, abs_tol=1e-12)
            mean = sum(m * p for m, p in enumerate(probs))
            assert math.isclose(mean, lambda_empty(k, s), abs_tol=1e-9)

    def test_classical_capacity(self):
        # beyond the chain's cost cap, refused before any table is built
        with pytest.raises(CapacityError):
            classical_urn_exact(10**9, 10**9)
        with pytest.raises(CapacityError):
            classical_urn_exact(2, urns.EXACT_COST_MAX)
        with pytest.raises(CapacityError):
            classical_urn_exact(5, 10**30)  # refused by the charge, not an OverflowError
        assert math.isclose(sum(classical_urn_exact(40, 5)), 1.0, abs_tol=1e-12)

    def test_classical_capacity_weighs_integer_size(self):
        # few updates, but on weights of s * log2(k) bits: seconds of work
        for k, s in [(3, 99_000), (200, 1500)]:
            start = time.monotonic()
            with pytest.raises(CapacityError):
                classical_urn_exact(k, s)
            assert time.monotonic() - start < 1.0
        for k, s in [(100, 922), (50, 2000)]:
            assert math.isclose(sum(classical_urn_exact(k, s)), 1.0, abs_tol=1e-12)

    def test_classical_matches_inclusion_exclusion(self):
        for k in range(1, 31):
            for s in [0, *range(7, 197, 7), 200]:
                assert classical_urn_exact(k, s) == classical_urn_inclusion_exclusion(k, s)

    def test_grouped_single_full_group(self):
        probs = grouped_urn_exact(GroupedUrnSpec(k=4, s_vec=(4,)))
        assert probs == [1.0, 0.0, 0.0, 0.0, 0.0]

    def test_grouped_two_singletons(self):
        # both balls hit the same urn with prob 1/3, leaving 2 urns empty
        probs = grouped_urn_exact(GroupedUrnSpec(k=3, s_vec=(1, 1)))
        assert np.allclose(probs, [0.0, 2 / 3, 1 / 3, 0.0])

    def test_grouped_singleton_groups_match_classical(self):
        # all-singleton groups are exactly the classical model
        k, b = 5, 4
        grouped = grouped_urn_exact(GroupedUrnSpec(k=k, s_vec=(1,) * b))
        classical = classical_urn_exact(k, b)
        assert grouped == classical

    def test_grouped_capacity(self):
        with pytest.raises(CapacityError):
            grouped_urn_exact(GroupedUrnSpec(k=urns.EXACT_COST_MAX, s_vec=(1,)))
        with pytest.raises(CapacityError):
            grouped_urn_exact(GroupedUrnSpec(k=1000, s_vec=(500,) * 10))
        # one or two updates, but wide weights times wide factors
        for spec in (GroupedUrnSpec(50_000, (5000, 5000)), GroupedUrnSpec(200_000, (100_000,))):
            start = time.monotonic()
            with pytest.raises(CapacityError):
                grouped_urn_exact(spec)
            assert time.monotonic() - start < 1.0
        for spec in (GroupedUrnSpec(30, (15, 15)), GroupedUrnSpec(50, (10,) * 5)):
            assert math.isclose(sum(grouped_urn_exact(spec)), 1.0, abs_tol=1e-12)

    @pytest.mark.parametrize(
        "k, grid", [(1, (0, 1)), (3, (99_000,)), (200, (1500,)), (urns.URN_K_MAX, (440, 470))]
    )
    def test_classical_refusals_match_walked_cost(self, k, grid):
        # the chain refuses exactly when the pre-walk's cost passes the cap:
        # at the last admitted s, the first refused one, and a fixed grid
        cap = urns.EXACT_COST_MAX
        rest = repeat(1, cap)
        assert walked_chain_cost(k, lambda: rest, cap) > cap
        first = cap - length_hint(rest)  # the group during which the walk passed the cap
        for s in (first - 1, first, *grid):
            walked = walked_chain_cost(k, lambda: repeat(1, s), s)
            assert _refused(k, repeat(1, s)) == (walked > cap), (k, s)

    @given(
        st.one_of(
            # long lists of narrow groups
            st.integers(1, 40).flatmap(
                lambda k: st.tuples(st.just(k), st.lists(st.integers(0, k), max_size=600))
            ),
            # a few wide groups
            st.integers(1, urns.URN_K_MAX).flatmap(
                lambda k: st.tuples(st.just(k), st.lists(st.integers(0, k), max_size=3))
            ),
        )
    )
    @example((1, []))
    @example((200_000, [100_000]))
    @example((50_000, [5_000, 5_000]))
    @example((1000, [500] * 10))
    @settings(max_examples=60, deadline=None)
    def test_grouped_refusals_match_walked_cost(self, args):
        k, s_vec = args
        walked = walked_chain_cost(k, lambda: s_vec, len(s_vec))
        assert _refused(k, s_vec) == (walked > urns.EXACT_COST_MAX)

    @given(grouped_specs)
    @settings(max_examples=60, deadline=None)
    def test_grouped_matches_enumeration(self, args):
        k, s_vec = args
        spec = GroupedUrnSpec(k=k, s_vec=tuple(s_vec))
        assert grouped_urn_exact(spec) == grouped_urn_enumeration(k, s_vec)

    @given(grouped_specs)
    @settings(max_examples=40, deadline=None)
    def test_grouped_pmf_properties(self, args):
        k, s_vec = args
        probs = grouped_urn_exact(GroupedUrnSpec(k=k, s_vec=tuple(s_vec)))
        assert math.isclose(sum(probs), 1.0, abs_tol=1e-12)
        assert all(p >= 0 for p in probs)
        max_hit = min(k, sum(s_vec))
        # at least k - sum(s_i) urns stay empty
        assert all(p == 0 for p in probs[: k - max_hit])


class TestSampling:
    def test_batch_matches_exact_mean(self):
        k, s, trials = 10, 10, 50_000
        ys = classical_urn_empty_counts(k, s, trials, RngStream(42))
        lam = lambda_empty(k, s)
        se = float(ys.std(ddof=1)) / math.sqrt(trials)
        assert abs(float(ys.mean()) - lam) <= 4 * se

    def test_batch_determinism(self):
        a = classical_urn_empty_counts(8, 12, 100, RngStream(43))
        b = classical_urn_empty_counts(8, 12, 100, RngStream(43))
        assert (a == b).all()

    def test_grouped_batch_matches_exact_pmf(self):
        spec = GroupedUrnSpec(k=6, s_vec=(2, 2, 3))
        trials = 50_000
        xs = grouped_urn_empty_counts(spec, trials, RngStream(44))
        emp = np.bincount(xs, minlength=spec.k + 1) / trials
        exact = np.array(grouped_urn_exact(spec))
        se = np.sqrt(exact * (1 - exact) / trials)
        assert (np.abs(emp - exact) <= 4 * se + 1e-9).all()

    def test_classical_independent_of_chunk_size(self, monkeypatch):
        def draw():
            return np.concatenate(
                [
                    classical_urn_empty_counts(100, 922, 300, RngStream(49)),
                    classical_urn_empty_counts(7, 13, 301, RngStream(50)),
                ]
            )

        monkeypatch.setattr(urns, "_SAMPLER_CELLS", 7)
        small = draw()
        monkeypatch.setattr(urns, "_SAMPLER_CELLS", 10**9)
        assert (draw() == small).all()

    @pytest.mark.parametrize("cells", [7, urns._SAMPLER_CELLS, 10**9])
    def test_classical_matches_int64_keys(self, monkeypatch, cells):
        # uint32 keys give the samples of the loop that drew int64 keys, up
        # to the k cap; 301 trials and, where it stays small, one past two
        # whole chunks end mid-chunk
        monkeypatch.setattr(urns, "_SAMPLER_CELLS", cells)
        for k in (1, 2, 100, urns.URN_K_MAX):
            for s in (1, 7, 922):
                chunk = max(1, cells // s)
                for trials in {301, 2 * chunk + 1} if chunk * s <= 1 << 18 else {301}:
                    got = classical_urn_empty_counts(k, s, trials, RngStream(k, s))
                    want = int64_classical_urn_empty_counts(k, s, trials, RngStream(k, s))
                    assert got.dtype == want.dtype == np.int64
                    assert (got == want).all(), (k, s, trials)

    def test_grouped_independent_of_slice_size(self, monkeypatch):
        # k = 1000 spans three blocks, with row slices of 1 row or whole
        # blocks; k = 12 has slices of 1, 4 (the last one ragged) or 301 rows
        def draw():
            return np.concatenate(
                [
                    grouped_urn_empty_counts(GroupedUrnSpec(1000, (3, 0, 5)), 10_000, RngStream(51)),
                    grouped_urn_empty_counts(GroupedUrnSpec(12, (0, 3, 5)), 301, RngStream(52)),
                ]
            )

        assert urns.GROUPED_BLOCK_CELLS // 1000 < 10_000 // 2
        outputs = []
        for cells in (7, 50, 10**9):
            monkeypatch.setattr(urns, "_SAMPLER_CELLS", cells)
            outputs.append(draw())
        assert all((out == outputs[0]).all() for out in outputs[1:])

    # k = 1, k at the cap (a row per slice at the first two cell counts),
    # zero groups, s_i = k, and ragged last slices: k = 3 has slices of 2
    # rows at 7 cells, k = 1000 slices of 262 rows in blocks of 4194 trials
    GROUPED_ORACLE_SHAPES = (
        (GroupedUrnSpec(1, (1, 0, 1)), 5),
        (GroupedUrnSpec(urns.URN_K_MAX, (400, 0, urns.URN_K_MAX, 1)), 2),
        (GroupedUrnSpec(4, ()), 3),
        (GroupedUrnSpec(4, (0, 0)), 3),
        (GroupedUrnSpec(3, (2, 0, 3, 1)), 301),
        (GroupedUrnSpec(12, (12, 5)), 301),
        (GroupedUrnSpec(1000, (3, 0, 5)), 5000),
    )

    @pytest.mark.parametrize("cells", [7, urns._SAMPLER_CELLS, 10**9])
    def test_grouped_matches_argpartition_oracle(self, monkeypatch, cells):
        # the threshold marks give the samples argpartition gave
        monkeypatch.setattr(urns, "_SAMPLER_CELLS", cells)
        for spec, trials in self.GROUPED_ORACLE_SHAPES:
            got = grouped_urn_empty_counts(spec, trials, RngStream(spec.k, trials))
            want = argpartition_grouped_urn_empty_counts(spec, trials, RngStream(spec.k, trials))
            assert got.dtype == want.dtype == np.int64
            assert (got == want).all(), (spec, trials)

    def test_tie_at_threshold_marks_argpartition_choice(self, monkeypatch):
        # row 0 ties three ways at its 2nd smallest value, so the slice has
        # more than 2 marks a row and takes argpartition's choice
        u = np.array(
            [[0.5, 0.2, 0.5, 0.9, 0.5], [0.3, 0.1, 0.7, 0.6, 0.4], [0.8, 0.8, 0.1, 0.9, 0.95]]
        )
        si = 2
        hit = np.zeros(u.shape, dtype=bool)
        want = hit.copy()
        np.put_along_axis(want, np.argpartition(u, si - 1, axis=1)[:, :si], True, axis=1)
        urns._mark_smallest(hit, u, si)
        assert (hit == want).all()
        assert hit.sum(axis=1).tolist() == [si] * 3
        # a slice without ties at its thresholds, even with ties below them,
        # is marked by the thresholds alone
        def no_argpartition(*args, **kwargs):
            raise AssertionError("a slice without ties took argpartition")

        monkeypatch.setattr(np, "argpartition", no_argpartition)
        hit = np.zeros((2, 4), dtype=bool)
        u = np.array([[0.1, 0.1, 0.5, 0.7], [0.9, 0.3, 0.2, 0.6]])
        urns._mark_smallest(hit, u, 3)
        assert hit.tolist() == [[True, True, True, False], [False, True, True, True]]

    def test_helper_thread_joined(self, monkeypatch):
        # on one usable CPU as on two, each sampler call reduces on one
        # helper thread, which is gone when the sampler returns; a short
        # switch interval lets the threads interleave often, and a reduction
        # that read or wrote out of turn would change the samples
        pools = []

        class Recorded(urns.ThreadPoolExecutor):
            def __init__(self, max_workers):
                pools.append(max_workers)
                super().__init__(max_workers)

        monkeypatch.setattr(urns, "ThreadPoolExecutor", Recorded)
        monkeypatch.setattr(urns, "_SAMPLER_CELLS", 50)
        spec = GroupedUrnSpec(12, (0, 3, 5))
        classical_want = int64_classical_urn_empty_counts(100, 7, 301, RngStream(55))
        grouped_want = argpartition_grouped_urn_empty_counts(spec, 301, RngStream(56))
        before = threading.active_count()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for cpus in ({0}, {0, 1}):
                monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
                pools.clear()
                classical = classical_urn_empty_counts(100, 7, 301, RngStream(55))
                assert threading.active_count() == before
                grouped = grouped_urn_empty_counts(spec, 301, RngStream(56))
                assert threading.active_count() == before
                assert (classical == classical_want).all(), cpus
                assert (grouped == grouped_want).all(), cpus
                assert pools == [1, 1], cpus
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize("trials", [1, 301])
    @pytest.mark.parametrize("reduction", ["_count_empty", "_mark_smallest", "_count_unhit"])
    def test_reduction_error_reaches_caller(self, monkeypatch, cpus, trials, reduction):
        # one chunk raises at the end of the loop, many at the next submit;
        # either way, on one usable CPU as on two, the error reaches the
        # caller and no thread survives
        def fail(*args):
            raise RuntimeError("injected")

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        monkeypatch.setattr(urns, reduction, fail)
        monkeypatch.setattr(urns, "_SAMPLER_CELLS", 50)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="injected"):
            if reduction == "_count_empty":
                classical_urn_empty_counts(100, 7, trials, RngStream(57))
            else:
                grouped_urn_empty_counts(GroupedUrnSpec(12, (3, 5)), trials, RngStream(57))
        assert threading.active_count() == before

    def test_memory_bound_battery_samplers(self):
        # the battery's two samplers at 50,000 trials, imports included:
        # sorting 4M draws at once and (block x k) key arrays took 99 and
        # 94 MB; slices of _SAMPLER_CELLS cells take 39 and 43 MB, and uint32
        # keys take the classical one to 37 MB.  Drawing one chunk while the
        # helper thread reduces the one before keeps the classical one at
        # 37 MB and takes the grouped one to 44 MB.  This child, running
        # both, peaks at 45 MB (imports alone 28 MB; numpy 2.4, Python 3.11)
        cap_mb = 70
        script = (
            "from rflcs.rng import RngStream\n"
            "from rflcs.urns import GroupedUrnSpec, classical_urn_empty_counts, grouped_urn_empty_counts\n"
            "classical_urn_empty_counts(100, 922, 50_000, RngStream(1))\n"
            "grouped_urn_empty_counts(GroupedUrnSpec(50, (10,) * 5), 50_000, RngStream(2))\n"
        )
        code, _, err, peak_mb = run_child("-c", script)
        assert code == 0, err
        assert peak_mb < cap_mb

    def test_grouped_stream_layout_pinned(self):
        # k=1000 gives blocks of 4194 trials, so 10_000 trials span three
        spec = GroupedUrnSpec(k=1000, s_vec=(3, 5))
        assert urns.GROUPED_BLOCK_CELLS // spec.k < 10_000 // 2
        xs = grouped_urn_empty_counts(spec, 10_000, RngStream(48))
        digest = hashlib.sha256(xs.astype("<i8").tobytes()).hexdigest()
        assert digest == "0d6aefe48d2a2469e2e562b4b6bcfc2dd4bde7fc56b3c2b53335dc834b5dede7"

    def test_zero_balls(self):
        ys = classical_urn_empty_counts(7, 0, 10, RngStream(45))
        assert (ys == 7).all()

    def test_count_gate(self, monkeypatch):
        cap = urns.SAMPLER_COUNT_MAX
        assert len(classical_urn_empty_counts(2, 1, cap, RngStream(53))) == cap
        for k, s, trials in ((2, cap + 1, 1), (2, 1, cap + 1)):
            with pytest.raises(CapacityError, match="balls per classical trial"):
                classical_urn_empty_counts(k, s, trials, RngStream(53))
        with pytest.raises(CapacityError, match="balls per classical trial"):
            grouped_urn_empty_counts(GroupedUrnSpec(2, (1,)), cap + 1, RngStream(53))

        # k past the cap is refused before a generator is made
        def no_generator(self):
            raise AssertionError("a refused call drew")

        monkeypatch.setattr(RngStream, "generator", no_generator)
        for k in (urns.URN_K_MAX + 1, cap + 1, 2**40):
            with pytest.raises(CapacityError, match="limited to k"):
                classical_urn_empty_counts(k, 3, 2, RngStream(53))
            with pytest.raises(CapacityError, match="limited to k"):
                grouped_urn_empty_counts(GroupedUrnSpec(k, (1,)), 1, RngStream(53))

    def test_cells_gate(self):
        # trials * s classical, trials * k per nonzero group (at least once)
        # grouped; a call at the cap is not run here, it takes about a minute
        cells = urns.SAMPLER_CELLS_MAX
        for k, s, trials in ((10, 2**16, cells // 2**16 + 1), (10, cells // 2**20 + 1, 2**20)):
            with pytest.raises(CapacityError, match="cells per call"):
                classical_urn_empty_counts(k, s, trials, RngStream(54))
        for spec, trials in (
            (GroupedUrnSpec(2**20, (1,)), 2**20),
            (GroupedUrnSpec(2**20, (0,)), 2**20),
            (GroupedUrnSpec(2**12, (1,) * 2**10 + (0,)), 2**10 + 1),
        ):
            with pytest.raises(CapacityError, match="cells per call"):
                grouped_urn_empty_counts(spec, trials, RngStream(54))
        # zero groups draw nothing and are not counted
        ys = grouped_urn_empty_counts(GroupedUrnSpec(4, (0,) * 10**5 + (1,)), 3, RngStream(54))
        assert (ys == 3).all()


class TestSurvival:
    def test_from_pmf(self):
        surv = survival_from_pmf([0.2, 0.5, 0.3])
        assert np.allclose(surv, [1.0, 0.8, 0.3])

    def test_from_samples(self):
        surv = survival_from_samples(np.array([0, 1, 1, 2]), 2)
        assert np.allclose(surv, [1.0, 0.75, 0.25])

    def test_k_gate(self):
        k = urns.URN_K_MAX
        assert len(survival_from_samples(np.array([k]), k)) == k + 1
        with pytest.raises(CapacityError):
            survival_from_samples(np.array([1]), k + 1)


class TestDominance:
    def test_exact_route_no_violation(self):
        spec = GroupedUrnSpec(k=6, s_vec=(2, 2, 3))
        rep = dominance_check(spec)
        assert not rep.violation
        assert rep.margin == 0.0  # S_X(0) = S_Y(0) = 1

    def test_large_spec_no_violation(self):
        # float survivals of this spec differ by +1.1e-16 at some t; the
        # integer comparison shows that is rounding, not a violation
        rep = dominance_check(GroupedUrnSpec(k=50, s_vec=(10,) * 5))
        assert not rep.violation and rep.margin == 0.0

    def test_flags_a_violation(self, monkeypatch):
        # with the two models swapped, the classical count is not dominated
        spec = GroupedUrnSpec(k=6, s_vec=(2, 2, 3))
        exact = urns._occupancy_counts
        swapped = iter([exact(6, repeat(1, 7)), exact(6, spec.s_vec)])
        monkeypatch.setattr(urns, "_occupancy_counts", lambda *args: next(swapped))
        rep = dominance_check(spec)
        assert rep.violation and rep.margin > 0.0

    def test_comparison_capacity(self):
        # 2 (k + 1) tail products, each weighted by the word counts of the
        # two denominators; the chains of these specs fit the cap.  This one
        # took 5-7 s uncharged
        start = time.monotonic()
        with pytest.raises(CapacityError, match="dominance check"):
            dominance_check(GroupedUrnSpec(400_000, (1,) * 100))
        assert time.monotonic() - start < 1.0
        # with 100 singletons both denominators are k^100, of 23 words for k
        # near 19,000: 2 (k + 1) 23^2 passes the cap between these two k
        assert not dominance_check(GroupedUrnSpec(18_902, (1,) * 100)).violation
        with pytest.raises(CapacityError, match="dominance check"):
            dominance_check(GroupedUrnSpec(18_903, (1,) * 100))

    @given(grouped_specs)
    @settings(max_examples=30, deadline=None)
    def test_property_exact_dominance(self, args):
        # grouped placements collide less, so the grouped empty count is
        # stochastically below the classical one at equal ball totals
        k, s_vec = args
        spec = GroupedUrnSpec(k=k, s_vec=tuple(s_vec))
        sx = survival_from_pmf(grouped_urn_exact(spec))
        sy = survival_from_pmf(classical_urn_exact(k, spec.s))
        assert (sx <= sy + 1e-12).all()
