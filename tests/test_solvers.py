import gc
import math
import time
from itertools import permutations

import pytest
from hypothesis import assume, given, settings, strategies as st

import rflcs.solvers

from conftest import (
    enumerate_canonical,
    exhaustive_lcs,
    exhaustive_rflcs,
    loop_canonical_edges,
    quadratic_lcs_edges,
    run_child,
    subset_dp_canonical_edges,
    subset_dp_frontiers,
)
from rflcs import cli
from rflcs.bounds import regime_target
from rflcs.errors import CapacityError
from rflcs.generators import gen_uniform_pair
from rflcs.model import Instance, is_subsequence, validate_matching
from rflcs.rng import RngStream
from rflcs.solvers import (
    _canonical_edges,
    _next_tables,
    _segments,
    degree_one_edges,
    lcs_length,
    lis_indices,
    rflcs_bruteforce,
    rflcs_exact,
    segment_merge_heuristic,
)


def equal_length_pairs(k_max, n_max):
    """Pairs of sequences of one length n <= n_max over [0, k), k <= k_max."""
    return st.tuples(st.integers(1, k_max), st.integers(0, n_max)).flatmap(
        lambda kn: st.tuples(
            st.lists(st.integers(0, kn[0] - 1), min_size=kn[1], max_size=kn[1]),
            st.lists(st.integers(0, kn[0] - 1), min_size=kn[1], max_size=kn[1]),
        )
    )


def small_instances(count, n_max=8, ks=(2, 3, 4), seed=77):
    for t in range(count):
        g = RngStream(seed, t).generator()
        n = int(g.integers(1, n_max + 1))
        k = int(g.choice(ks))
        yield gen_uniform_pair(n, k, RngStream(seed, 10_000 + t).substream(0)), n, k


class TestLcs:
    def test_identical(self):
        assert lcs_length([0, 1, 2], [0, 1, 2]).length == 3

    def test_disjoint(self):
        res = lcs_length([0, 0], [1, 1])
        assert res.length == 0 and res.witness.edges == ()

    def test_witness_is_valid_common_subsequence(self):
        inst = gen_uniform_pair(40, 3, RngStream(20))
        res = lcs_length(inst.x, inst.y)
        assert validate_matching(res.witness, inst, require_repetition_free=False)
        assert len(res.witness.edges) == res.length

    def test_against_enumeration(self):
        for inst, _, _ in small_instances(60, seed=21):
            assert lcs_length(inst.x, inst.y).length == exhaustive_lcs(inst.x, inst.y)


    @settings(max_examples=400, deadline=None)
    @given(
        st.integers(1, 8).flatmap(
            lambda k: st.tuples(
                st.lists(st.integers(0, k - 1), max_size=40),
                st.lists(st.integers(0, k - 1), max_size=40),
            )
        )
    )
    def test_witness_matches_quadratic_table(self, pair):
        # the same edges, tie-breaks included, not just the same length
        x, y = pair
        assert lcs_length(x, y).witness.edges == quadratic_lcs_edges(x, y)

    @pytest.mark.parametrize("n, k", [(267, 16), (500, 100), (800, 400)])
    def test_witness_matches_quadratic_table_at_sweep_sizes(self, n, k):
        # regime 3 k=16, regime 2 k=100 and regime 1 n=800 shapes
        inst = gen_uniform_pair(n, k, RngStream(n))
        assert lcs_length(inst.x, inst.y).witness.edges == quadratic_lcs_edges(inst.x, inst.y)

    def test_memory_bound_regime3_k200(self):
        # regime 3 at k = 200 (n = 22,479): the kept rows take about
        # n^2 / 8 = 63 MB, where a table of Python ints would need about 4 GB.
        cap_mb = 400
        script = (
            "from rflcs.generators import gen_uniform_pair\n"
            "from rflcs.model import validate_matching\n"
            "from rflcs.rng import RngStream\n"
            "from rflcs.solvers import lcs_length\n"
            "inst = gen_uniform_pair(22479, 200, RngStream(1))\n"
            "res = lcs_length(inst.x, inst.y)\n"
            "ok = validate_matching(res.witness, inst, require_repetition_free=False)\n"
            "print(res.length, ok)\n"
        )
        code, out, _, peak_mb = run_child("-c", script)
        assert code == 0
        length, ok = out.split()
        assert ok == "True" and int(length) > 0
        assert peak_mb < cap_mb


class TestLis:
    def test_basic(self):
        assert len(lis_indices([3, 1, 2, 0, 4])) == 3

    def test_indices_are_increasing_run(self):
        perm = [5, 0, 3, 1, 6, 2, 4]
        idx = lis_indices(perm)
        vals = [perm[i] for i in idx]
        assert vals == sorted(vals)
        assert len(idx) == 4

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            lis_indices([1, 1])

    @given(st.permutations(range(8)))
    def test_matches_bruteforce(self, perm):
        best = 0
        for mask in range(1 << len(perm)):
            sub = [perm[i] for i in range(len(perm)) if mask >> i & 1]
            if sub == sorted(sub):
                best = max(best, len(sub))
        assert len(lis_indices(perm)) == best


class TestDegreeOne:
    def test_repeated_symbols_excluded(self):
        edges = degree_one_edges([0, 1, 0, 2], [2, 1, 3, 3])
        assert edges == [(1, 1, 1), (3, 0, 2)]

    @given(st.lists(st.integers(0, 6), max_size=14), st.lists(st.integers(0, 6), max_size=14))
    def test_matches_definition(self, x, y):
        # every edge x[i] = y[j] whose two vertices have degree 1, by i
        want = [
            (i, j, c)
            for i, c in enumerate(x)
            for j, d in enumerate(y)
            if c == d and y.count(c) == 1 and x.count(d) == 1
        ]
        assert degree_one_edges(x, y) == want


class TestExactSolver:
    def test_oracle_equivalence(self):
        for inst, _, _ in small_instances(120, seed=23):
            assert rflcs_exact(inst).length == exhaustive_rflcs(inst.x, inst.y)

    def test_witness_valid_and_repetition_free(self):
        for inst, _, _ in small_instances(40, seed=24):
            res = rflcs_exact(inst)
            assert validate_matching(res.witness, inst, require_repetition_free=True)
            assert len(res.witness.edges) == res.length

    def test_canonical_matches_enumeration(self):
        for inst, _, _ in small_instances(60, n_max=7, seed=25):
            length, edges = enumerate_canonical(inst)
            got = rflcs_exact(inst).witness
            assert len(got.edges) == length
            assert got.edges == (edges or ())

    def test_upper_bounds(self):
        for inst, _, k in small_instances(40, seed=26):
            r = rflcs_exact(inst).length
            assert r <= min(lcs_length(inst.x, inst.y).length, k)

    def test_capacity_gate(self):
        # regime 3 at k = 200 (n = 22,479, m = 200): the set-up is charged
        # against the work budget and refused before it is allocated
        inst = gen_uniform_pair(22479, 200, RngStream(3))
        start = time.monotonic()
        with pytest.raises(CapacityError, match="work budget"):
            rflcs_exact(inst)
        assert time.monotonic() - start < 1.0
        # 25 and 21 common symbols: refused by the former cap of 20 on m,
        # solved within the budget
        inst = gen_uniform_pair(400, 25, RngStream(3))
        res = rflcs_exact(inst)
        assert validate_matching(res.witness, inst, require_repetition_free=True)
        assert res.length == 25
        x = tuple(range(21))
        assert rflcs_exact(Instance(n=len(x), k=len(x), x=x, y=x)).length == 21

    def test_frontiers_match_bruteforce(self):
        # every mask's frontier is the set of Pareto-minimal suffix lengths
        # (a, b) in which some ordering of the subset embeds in both sequences
        for inst, n, _ in small_instances(40, n_max=7, seed=28):
            x, y = inst.x, inst.y
            syms = sorted(set(x) & set(y))
            expected = {}
            for mask in range(1 << len(syms)):
                subset = [c for i, c in enumerate(syms) if mask >> i & 1]

                def fits(a, b):
                    return any(
                        is_subsequence(p, x[n - a:]) and is_subsequence(p, y[n - b:])
                        for p in permutations(subset)
                    )

                points = [
                    (a, b)
                    for a in range(n + 1)
                    for b in range(n + 1)
                    if fits(a, b)
                    and not (a and fits(a - 1, b))
                    and not (b and fits(a, b - 1))
                ]
                if points:
                    expected[mask] = points
            assert subset_dp_frontiers(x, y, syms) == expected

    @settings(max_examples=300, deadline=None)
    @given(equal_length_pairs(10, 32))
    def test_witness_matches_subset_dp(self, pair):
        x, y = pair
        assert _canonical_edges(x, y) == subset_dp_canonical_edges(x, y)

    @pytest.mark.parametrize(
        "regime, k, param",
        [(3, 13, dict(xi=1.0)), (2, 13, dict(rho=4.0)), (3, 13, dict(xi=2.0)), (2, 20, dict(rho=2.0))],
    )
    def test_witness_matches_subset_dp_at_benchmark_shapes(self, regime, k, param):
        # the three exact-sweep shapes of the benchmark (m = 13, eight
        # trials each, laid out as a sweep at seed 11 lays them out) and one
        # regime 2 rho = 2 instance at k = 20, where the DP takes seconds
        n = regime_target(regime, k, **param).n
        trials = 8 if k == 13 else 1
        for t in range(trials):
            inst = gen_uniform_pair(n, k, RngStream(11, 0).substream(t))
            assert _canonical_edges(inst.x, inst.y) == subset_dp_canonical_edges(inst.x, inst.y)

    def test_block_reversal(self):
        # without the LCS bound the search needs about 4.2M states here,
        # far past the budget; with it, 9, one per edge of the witness.  The
        # expected witness is the subset DP's (subset_dp_canonical_edges,
        # m = 20), pinned because that DP takes about 19 s and 800 MB on
        # this instance.
        x = tuple(range(20)) * 5
        y = tuple(range(19, -1, -1)) * 5
        assert _canonical_edges(x, y) == [
            (0, 19), (1, 38), (2, 57), (3, 76), (8, 91),
            (27, 92), (46, 93), (65, 94), (84, 95),
        ]

    @settings(max_examples=300, deadline=None)
    @given(equal_length_pairs(12, 32))
    def test_certificate_needs_no_more_budget(self, pair):
        # with the budget cut to exactly what the solver took when it found
        # the optimum by ascending queries and recovered the witness edge by
        # edge, the same witness comes back and nothing is refused
        x, y = pair
        edges, units = loop_canonical_edges(x, y)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(rflcs.solvers, "EXACT_BUDGET", units)
            assert _canonical_edges(x, y) == edges

    @settings(max_examples=300, deadline=None)
    @given(equal_length_pairs(12, 32))
    def test_failed_query_bounds_the_optimum(self, pair):
        # a query above the optimum R leaves the root's memo failed[0] with
        # R <= failed[0] - 1 < need, so the next query neither passes R by
        # nor repeats its need
        x, y = pair
        optimum = len(loop_canonical_edges(x, y)[0])
        failures = []
        smallest_path = rflcs.solvers._smallest_path

        def recording(search, need):
            edges = smallest_path(search, need)
            if edges is None:
                failures.append((need, search[8][0]))  # search[8] is the memo
            return edges

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(rflcs.solvers, "_smallest_path", recording)
            edges = _canonical_edges(x, y)
        for need, root in failures:
            assert optimum <= root - 1 < need
        assert len(edges) == optimum

    @settings(max_examples=300, deadline=None)
    @given(
        equal_length_pairs(12, 12),
        st.lists(st.integers(0, 10**6), min_size=12, max_size=12, unique=True),
        st.integers(0, 10**6),
    )
    def test_edges_invariant_under_relabelling(self, pair, pi, stand_in):
        # what the uniformity tally rests on: an injective renaming of the
        # symbols, or one stand-in for every symbol of y absent from x, leaves
        # the canonical edges as they are
        x, y = pair
        assume(stand_in not in x)
        edges = _canonical_edges(x, y)
        assert _canonical_edges([pi[c] for c in x], [pi[c] for c in y]) == edges
        assert _canonical_edges(x, [c if c in x else stand_in for c in y]) == edges

    @pytest.mark.parametrize(
        "regime, k, param",
        [(3, 13, dict(xi=1.0)), (2, 13, dict(rho=4.0)), (3, 13, dict(xi=2.0)), (2, 20, dict(rho=2.0))],
    )
    def test_certificate_needs_no_more_budget_at_benchmark_shapes(self, monkeypatch, regime, k, param):
        n = regime_target(regime, k, **param).n
        for t in range(8):
            inst = gen_uniform_pair(n, k, RngStream(12, 0).substream(t))
            edges, units = loop_canonical_edges(inst.x, inst.y)
            monkeypatch.setattr(rflcs.solvers, "EXACT_BUDGET", units - 1)
            with pytest.raises(CapacityError):  # the oracle's count is exact
                loop_canonical_edges(inst.x, inst.y)
            monkeypatch.setattr(rflcs.solvers, "EXACT_BUDGET", units)
            assert _canonical_edges(inst.x, inst.y) == edges
            monkeypatch.undo()

    def test_exact_sweep_is_certified(self, monkeypatch, capsys):
        # every trial of this exact sweep reaches the ceiling min(L, m) = 13,
        # so each makes one query, and that query returns the witness
        queries = []
        smallest_path = rflcs.solvers._smallest_path

        def counting(search, need):
            queries.append(need)
            return smallest_path(search, need)

        monkeypatch.setattr(rflcs.solvers, "_smallest_path", counting)
        argv = ["sweep", "--regime", "3", "--xi", "1", "--k-list", "13", "--trials", "8",
                "--estimator", "exact", "--seed", "42", "--workers", "1"]
        assert cli.main(argv) == 0
        assert capsys.readouterr().out.count("\n") == 2  # header and the k = 13 row
        assert queries == [13] * 8

    def test_no_cyclic_garbage(self):
        # a solve leaves nothing for the cycle collector: cyclic garbage
        # piles up between collections and shows in the peak RSS of a sweep
        n = regime_target(3, 13, xi=1.0).n
        inst = gen_uniform_pair(n, 13, RngStream(11, 0).substream(0))
        gc.collect()
        gc.disable()
        try:
            rflcs_exact(inst)
            assert gc.collect() == 0
        finally:
            gc.enable()

    @pytest.mark.parametrize("n, k, seed, m", [(30, 25, 27, 16), (60, 400, 1, 7)])
    def test_large_k_small_m_solves(self, n, k, seed, m):
        inst = gen_uniform_pair(n, k, RngStream(seed))
        assert len(set(inst.x) & set(inst.y)) == m
        res = rflcs_exact(inst)
        assert validate_matching(res.witness, inst, require_repetition_free=True)
        assert res.symbol_set == frozenset(res.witness.symbols)

    def test_canonical_allows_large_k_small_alphabet(self):
        # nominal k is large but only a few symbols actually occur
        x = tuple([0, 1, 2] * 4)
        y = tuple([2, 1, 0] * 4)
        inst = Instance(n=12, k=100, x=x, y=y)
        m = rflcs_exact(inst).witness
        assert validate_matching(m, inst)

    @given(
        st.tuples(st.integers(1, 100), st.integers(0, 7)).flatmap(
            lambda kn: st.tuples(
                st.just(kn[0]),
                st.lists(st.integers(0, kn[0] - 1), min_size=kn[1], max_size=kn[1]),
                st.lists(st.integers(0, kn[0] - 1), min_size=kn[1], max_size=kn[1]),
            )
        )
    )
    @settings(max_examples=80, deadline=None)
    def test_property_canonical_any_k(self, args):
        k, x, y = args
        inst = Instance(n=len(x), k=k, x=tuple(x), y=tuple(y))
        _, edges = enumerate_canonical(inst)
        assert rflcs_exact(inst).witness.edges == (edges or ())

    @given(
        st.integers(2, 4).flatmap(
            lambda k: st.tuples(
                st.just(k),
                st.lists(st.integers(0, k - 1), min_size=1, max_size=7),
            )
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_property_exact_equals_enumeration(self, args):
        k, x = args
        y = list(reversed(x))
        inst = Instance(n=len(x), k=k, x=tuple(x), y=tuple(y))
        assert rflcs_exact(inst).length == exhaustive_rflcs(x, y)

    @given(
        st.lists(st.integers(0, 5), max_size=40),
        st.lists(st.integers(0, 8), unique=True, max_size=9),
    )
    @settings(max_examples=300, deadline=None)
    def test_next_tables_match_definition(self, seq, syms):
        # nxt[c][p] = min{q >= p : seq[q] == c}, else len(seq); seq may be
        # empty, and symbols 6..8 never occur in it
        n = len(seq)
        tables = _next_tables(seq, syms)
        assert list(tables) == syms
        for c in syms:
            assert tables[c] == [
                min((q for q in range(p, n) if seq[q] == c), default=n) for p in range(n + 1)
            ]


class TestBruteforce:
    def test_matches_exhaustive(self):
        for inst, _, _ in small_instances(40, seed=28):
            res = rflcs_bruteforce(inst)
            assert res.length == exhaustive_rflcs(inst.x, inst.y)
            assert validate_matching(res.witness, inst, require_repetition_free=True)

    def test_capacity_gate(self):
        inst = gen_uniform_pair(13, 3, RngStream(29))
        with pytest.raises(CapacityError):
            rflcs_bruteforce(inst)


class TestSegmentPlan:
    """The heuristic's aligned blocks and their size."""

    def test_fold_into_last(self):
        assert _segments(10, 4) == [(0, 4), (4, 10)]

    def test_short_input(self):
        assert _segments(3, 4) == [(0, 3)]
        assert _segments(0, 4) == []

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            segment_merge_heuristic(gen_uniform_pair(10, 3, RngStream(33)), 0)

    @pytest.mark.parametrize("k", [4, 12, 16, 30, 81, 400])
    def test_default_size_is_ceil_k_three_quarters(self, monkeypatch, k):
        # k = 16 and 81 have an integer k^(3/4), where a rounding slip shows
        sizes = []

        def recording(n, n_tilde):
            sizes.append(n_tilde)
            return _segments(n, n_tilde)

        monkeypatch.setattr(rflcs.solvers, "_segments", recording)
        inst = gen_uniform_pair(2 * k, k, RngStream(34, k))
        default = segment_merge_heuristic(inst, per_segment="lis")
        explicit = segment_merge_heuristic(inst, math.ceil(k**0.75), per_segment="lis")
        assert sizes == [math.ceil(k**0.75)] * 2
        assert default == explicit


class TestHeuristic:
    def test_lower_bounds_exact(self):
        for t in range(30):
            inst = gen_uniform_pair(60, 8, RngStream(30, t))
            heur = segment_merge_heuristic(inst, 6, per_segment="exact")
            assert heur.length <= rflcs_exact(inst).length
            assert validate_matching(heur.witness, inst, require_repetition_free=True)

    def test_lis_variant_feasible(self):
        for t in range(20):
            inst = gen_uniform_pair(200, 40, RngStream(31, t))
            heur = segment_merge_heuristic(inst, 16, per_segment="lis")
            assert validate_matching(heur.witness, inst, require_repetition_free=True)
            assert heur.length <= inst.k

    def test_exact_segments_gated_on_budget(self):
        # one segment of regime 3 at k = 200 (n = 22,479): refused at set-up
        inst = gen_uniform_pair(22479, 200, RngStream(3))
        with pytest.raises(CapacityError):
            segment_merge_heuristic(inst, inst.n, per_segment="exact")

    def test_single_segment_exact_equals_solver(self):
        inst = gen_uniform_pair(30, 5, RngStream(32))
        heur = segment_merge_heuristic(inst, inst.n, per_segment="exact")
        assert heur.length == rflcs_exact(inst).length
