import gc
import math
import random
import time
from bisect import bisect_left
from itertools import permutations

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import rflcs.solvers

from conftest import (
    degree_one_edges,
    enumerate_canonical,
    exhaustive_lcs,
    exhaustive_rflcs,
    full_lcs_rows,
    loop_canonical_edges,
    per_segment_lis_witness,
    quadratic_lcs_edges,
    row_backtrack_lcs_edges,
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
    _ceil_three_quarters,
    _lcs_upto,
    _segments,
    _search_tables,
    lcs_length,
    lcs_witness,
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


# Offsets that put symbols below 0, in [0, 256), across 255 | 256 and across
# 2^63: the exact solver's set-up uses bytes(x) and bytes(y) in the first
# range and relabels the common symbols into byte chunks elsewhere.
SYMBOL_OFFSETS = (0, -6, 250, 1000, (1 << 63) - 4, 1 << 70)


def offset_pairs(k_max, n_max):
    """equal_length_pairs with every symbol moved by one of SYMBOL_OFFSETS."""
    def shift(args):
        offset, (x, y) = args
        return [c + offset for c in x], [c + offset for c in y]

    return st.tuples(st.sampled_from(SYMBOL_OFFSETS), equal_length_pairs(k_max, n_max)).map(shift)


def many_common(m, offset):
    """A pair with m common symbols, seven apart from offset on, in opposite
    orders, and below offset one symbol of each side that the other lacks."""
    syms = [offset + 7 * t for t in range(m)]
    return [*syms, offset - 1, *syms[::2]], [offset - 2, *syms[::-1], *syms[1::2]]


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
        res = lcs_witness([0, 0], [1, 1])
        assert res.length == 0 and res.witness == ()

    def test_witness_is_valid_common_subsequence(self):
        inst = gen_uniform_pair(40, 3, RngStream(20))
        res = lcs_witness(inst.x, inst.y)
        assert validate_matching(res.witness, inst, require_repetition_free=False)
        assert len(res.witness) == res.length

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
        assert lcs_witness(x, y).witness == quadratic_lcs_edges(x, y)

    @pytest.mark.parametrize("n, k", [(267, 16), (500, 100), (800, 400)])
    def test_witness_matches_quadratic_table_at_sweep_sizes(self, n, k):
        # regime 3 k=16, regime 2 k=100 and regime 1 n=800 shapes
        inst = gen_uniform_pair(n, k, RngStream(n))
        assert lcs_witness(inst.x, inst.y).witness == quadratic_lcs_edges(inst.x, inst.y)

    def test_memory_bound_regime3_k200(self):
        # regime 3 at k = 200 (n = 22,479): the kept rows take about
        # n^2 / 8 = 63 MB, where a table of Python ints would need about 4 GB.
        cap_mb = 400
        script = (
            "from rflcs.generators import gen_uniform_pair\n"
            "from rflcs.model import validate_matching\n"
            "from rflcs.rng import RngStream\n"
            "from rflcs.solvers import lcs_witness\n"
            "inst = gen_uniform_pair(22479, 200, RngStream(1))\n"
            "res = lcs_witness(inst.x, inst.y)\n"
            "ok = validate_matching(res.witness, inst, require_repetition_free=False)\n"
            "print(res.length, ok)\n"
        )
        code, out, _, peak_mb = run_child("-c", script)
        assert code == 0
        length, ok = out.split()
        assert ok == "True" and int(length) > 0
        assert peak_mb < cap_mb

    @staticmethod
    def check_capped(x, y, cap, L):
        res = lcs_witness(x, y, cap=cap)
        edges = res.witness
        assert res.length == len(edges) == min(L, cap)
        assert all(a < c and b < d for (a, b), (c, d) in zip(edges, edges[1:]))
        assert all(x[i] == y[j] for i, j in edges)
        if L <= cap:
            assert edges == quadratic_lcs_edges(x, y)
        # the witness of the longest prefix of x whose LCS is at most cap
        p = len(x)
        while len(quadratic_lcs_edges(x[:p], y)) > cap:
            p -= 1
        assert edges == quadratic_lcs_edges(x[:p], y)
        rows = rflcs.solvers._lcs_rows(x, y, cap)
        assert rows == rflcs.solvers._lcs_rows(x, y)[: p + 1]

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(1, 5).flatmap(
            lambda k: st.tuples(
                st.lists(st.integers(0, k - 1), max_size=10),
                st.lists(st.integers(0, k - 1), max_size=14),
            )
        ),
        st.integers(0, 12),
    )
    def test_capped_against_enumeration(self, pair, cap):
        x, y = pair
        self.check_capped(x, y, cap, exhaustive_lcs(x, y))

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(1, 30).flatmap(
            lambda k: st.tuples(
                st.lists(st.integers(0, k - 1), max_size=60),
                st.lists(st.integers(0, k - 1), max_size=60),
            )
        ),
        st.integers(0, 70),
    )
    def test_capped_against_quadratic_table(self, pair, cap):
        x, y = pair
        self.check_capped(x, y, cap, len(quadratic_lcs_edges(x, y)))

    def test_capped_at_sweep_size(self):
        # regime 3 at k = 60 (n = 2,855): L = 636 against the cap k
        inst = gen_uniform_pair(2855, 60, RngStream(1))
        L = lcs_length(inst.x, inst.y).length
        res = lcs_witness(inst.x, inst.y, cap=60)
        assert L > 60 and res.length == 60
        assert validate_matching(res.witness, inst, require_repetition_free=False)
        assert len(rflcs.solvers._lcs_rows(inst.x, inst.y, 60)) < inst.n // 4

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(1, 5).flatmap(
            lambda k: st.tuples(
                st.lists(st.integers(0, k - 1), max_size=14),
                st.lists(st.integers(0, k - 1), max_size=14),
            )
        ).flatmap(
            lambda pair: st.tuples(
                st.just(pair),
                st.lists(
                    st.tuples(
                        st.integers(0, len(pair[0])),
                        st.integers(0, len(pair[1])),
                        st.integers(0, 16),
                    ),
                    max_size=12,
                ),
            )
        )
    )
    @example((([], []), [(0, 0, 0), (0, 0, 3)]))
    @example((([0, 1, 0], []), [(3, 0, 2), (0, 0, 0)]))
    @example((([0, 1, 0], [1, 0]), [(3, 2, 0), (3, 0, 1), (1, 2, 2), (3, 2, 5)]))
    def test_rows_on_demand(self, args):
        # queries (t, b, c) in any order on one growing list of rows read
        # min(D(t, b), c), with D from every row; a query past the filled
        # rows fills them up to row t or to the first row that reaches c at
        # b, whichever comes first, and no further
        (x, y), queries = args
        full = full_lcs_rows(x, y)
        masks = {c: sum(1 << j for j, s in enumerate(y) if s == c) for c in set(y)}
        rows = [(1 << len(y)) - 1]
        for t, b, c in queries:
            last = len(rows) - 1
            d = [b - (row & ((1 << b) - 1)).bit_count() for row in full]
            assert _lcs_upto(rows, x, masks, t, b, c) == min(d[t], c)
            assert rows == full[: len(rows)]
            reach = next((r for r in range(last, t) if d[r] >= c), t)
            assert len(rows) - 1 == max(last, reach)

    def test_rejects_negative_cap(self):
        with pytest.raises(ValueError, match="cap"):
            lcs_length([0], [0], cap=-1)
        with pytest.raises(ValueError, match="cap"):
            lcs_witness([0], [0], cap=-1)

    @settings(max_examples=400, deadline=None)
    @given(
        st.integers(1, 6).flatmap(
            lambda k: st.tuples(
                st.lists(st.integers(0, k - 1), max_size=40),
                st.lists(st.integers(0, k - 1), max_size=40),
            )
        ),
        st.sampled_from([0, -7, -(2**64), 2**63 - 2, 2**70]),
        st.one_of(st.none(), st.integers(0, 45)),
    )
    @example(([], [0, 1]), 0, None)
    @example(([0, 1], []), 0, 3)
    @example(([0, 1, 0], [1, 0]), -7, 0)
    @example(([0, 1, 0], [1, 0]), 2**70, 5)
    def test_length_is_one_row_of_the_row_store(self, pair, offset, cap):
        # min(L, cap) from one row: the witness's length, capped, and the
        # answer of _lcs_upto's row store, read from the same rows of x (no
        # row past the one where D first reaches the cap); with cap 0, caps
        # past L, empty sides and symbols below 0 or past 2^63
        x, y = ([offset + s for s in seq] for seq in pair)

        class Read(list):  # x, recording the rows it is read up to
            rows = 0

            def __getitem__(self, key):
                self.rows = max(self.rows, key.stop)
                return list.__getitem__(self, key)

        xs = Read(x)
        length = lcs_length(xs, y, cap).length
        L = len(lcs_witness(x, y).witness)
        assert length == (L if cap is None else min(L, cap))
        rows = [(1 << len(y)) - 1]
        c = len(x) if cap is None else cap
        assert _lcs_upto(rows, x, rflcs.solvers._match_masks(y), len(x), len(y), c) == length
        assert xs.rows == len(rows) - 1

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 1600),
        st.sampled_from([1024, 1025, 1600]),
        st.integers(1, 128),
        st.sampled_from([0, -(2**64), 2**63 - 30, 2**70]),
        st.one_of(st.none(), st.integers(0, 1700)),
        st.randoms(use_true_random=False),
    )
    @example(1500, 1024, 128, 2**63 - 64, None, random.Random(1))
    @example(1500, 1600, 40, 0, 300, random.Random(2))
    def test_length_with_packed_masks(self, nx, ny, k, offset, cap, rnd):
        # y of at least 1,024 symbols and at least 8 per distinct symbol, so
        # the masks come from `_packed_masks`; against the backtrack on rows
        # built from masks ORed bit by bit
        x = [offset + rnd.randrange(k) for _ in range(nx)]
        y = [offset + rnd.randrange(k) for _ in range(ny)]
        assert ny >= rflcs.solvers._MASKS_NUMPY_MIN
        assert ny >= rflcs.solvers._MASKS_NUMPY_PER_SYMBOL * len(set(y))
        L = len(row_backtrack_lcs_edges(x, y))
        assert lcs_length(x, y, cap).length == (L if cap is None else min(L, cap))

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(0, 1600),
        st.sampled_from([0, 1, 1023, 1024, 1025, 1600]),
        st.one_of(st.integers(1, 150), st.integers(1, 2000)),
        st.sampled_from([0, 2**63 - 3, 2**64, 2**70]),
        st.one_of(st.none(), st.integers(0, 80)),
        st.randoms(use_true_random=False),
    )
    @example(1030, 1024, 5, 0, None, random.Random(1))
    @example(1030, 1024, 5, 0, 7, random.Random(2))
    @example(1500, 1500, 60, 2**63 - 30, None, random.Random(3))
    @example(1500, 1500, 60, 2**63 - 30, 40, random.Random(4))
    @example(1500, 1500, 900, 0, None, random.Random(5))
    def test_witness_matches_row_backtrack(self, nx, ny, k, offset, cap, rnd):
        # from len(y) = 1024 on, with at least 8 positions per symbol, the
        # match masks come from numpy blocks; the witness, capped or not, is
        # still the backtrack on every row, also with symbols on both sides
        # of 2^63 or past 2^64
        x = [offset + rnd.randrange(k) for _ in range(nx)]
        y = [offset + rnd.randrange(k) for _ in range(ny)]
        assert lcs_witness(x, y, cap).witness == row_backtrack_lcs_edges(x, y, cap)

    @pytest.mark.parametrize("block", [1, 1000, rflcs.solvers._MASK_BLOCK_BYTES])
    @pytest.mark.parametrize(
        "ny, k, offset",
        [(1023, 4, 0), (1024, 4, 0), (1024, 128, 0), (1024, 129, 0), (3000, 60, 2**63 - 30),
         (3000, 60, 2**70), (20000, 7, 0)],
    )
    def test_match_masks(self, monkeypatch, block, ny, k, offset):
        # the loop's masks from every builder: numpy from len(y) = 1024 on
        # with at least 8 positions per symbol, in blocks of 1 to all symbols
        monkeypatch.setattr(rflcs.solvers, "_MASK_BLOCK_BYTES", block)
        packed = []
        build = rflcs.solvers._packed_masks

        def recording(ys):
            packed.append(ys.dtype)
            return build(ys)

        monkeypatch.setattr(rflcs.solvers, "_packed_masks", recording)
        rnd = random.Random(ny * k)
        y = [offset + rnd.randrange(k) for _ in range(ny)]
        want: dict[int, int] = {}
        for j, c in enumerate(y):
            want[c] = want.get(c, 0) | 1 << j
        assert rflcs.solvers._match_masks(y) == want
        assert packed == ([] if ny < 1024 or ny < 8 * len(want) else [object if offset else np.int64])


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
            assert len(res.witness) == res.length

    def test_canonical_matches_enumeration(self):
        for inst, _, _ in small_instances(60, n_max=7, seed=25):
            length, edges = enumerate_canonical(inst)
            got = rflcs_exact(inst).witness
            assert len(got) == length
            assert got == (edges or ())

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
        # a query above the optimum R fails and leaves the root's bound as the
        # next need, with R <= next need < need; so the queries never pass R
        # by nor repeat a need, and the last is R (none when no symbol is
        # common)
        x, y = pair
        optimum = len(loop_canonical_edges(x, y)[0])
        needs = []
        smallest_path = rflcs.solvers._smallest_path

        def recording(search, need):
            needs.append(need)
            return smallest_path(search, need)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(rflcs.solvers, "_smallest_path", recording)
            edges = _canonical_edges(x, y)
        for need, next_need in zip(needs, needs[1:]):
            assert optimum <= next_need < need
        assert needs[-1:] == ([optimum] if optimum else [])
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
        "shape, units",
        [
            ((3, 13, dict(xi=1.0), 12), [365] * 8),
            ((2, 13, dict(rho=4.0), 12), [191, 191, 193, 191, 192, 193, 178, 191]),
            ((3, 13, dict(xi=2.0), 12), [635] * 8),
            ("block reversal", [286]),
            ((2, 40, dict(rho=1.0), 1), [30819]),
        ],
        ids=[
            "regime3-xi1-k13", "regime2-rho4-k13", "regime3-xi2-k13", "block-reversal",
            "regime2-rho1-k40",
        ],
    )
    def test_budget_units_pinned(self, monkeypatch, shape, units):
        # units of EXACT_BUDGET (set-up plus expanded states) that each solve
        # spends, measured when the next-occurrence tables were built in full
        # before the search; so any change in the states a search expands
        # shows here.  A solve succeeds exactly when its units fit the budget.
        # The m = 13 shapes are the eight trials of each benchmark shape at
        # seed 12, the k = 40 one is trial 0 of a seed-1 sweep (two solves,
        # about 0.7 s)
        if shape == "block reversal":
            pairs = [(tuple(range(20)) * 5, tuple(range(19, -1, -1)) * 5)]
        else:
            regime, k, param, seed = shape
            n = regime_target(regime, k, **param).n
            streams = [RngStream(seed, 0).substream(t) for t in range(len(units))]
            pairs = [(inst.x, inst.y) for inst in (gen_uniform_pair(n, k, s) for s in streams)]
        for (x, y), u in zip(pairs, units):
            monkeypatch.setattr(rflcs.solvers, "EXACT_BUDGET", u)
            _canonical_edges(x, y)
            monkeypatch.setattr(rflcs.solvers, "EXACT_BUDGET", u - 1)
            with pytest.raises(CapacityError):
                _canonical_edges(x, y)

    @pytest.mark.parametrize(
        "regime, k, param, filled",
        [
            (3, 13, dict(xi=1.0), [14, 15, 15, 14, 14, 14, 14, 15]),
            (2, 13, dict(rho=4.0), [18, 22, 34, 21, 21, 35, 18, 19]),
            (3, 13, dict(xi=2.0), [14] * 8),
        ],
        ids=["regime3-xi1-k13", "regime2-rho4-k13", "regime3-xi2-k13"],
    )
    def test_lcs_rows_filled_pinned(self, monkeypatch, regime, k, param, filled):
        # LCS rows (row 0 included) that each solve of the eight trials of a
        # benchmark shape at seed 12 fills, of n + 1 = 182, 95 and 302; a
        # change that fills more of them, or all, shows here
        fill = rflcs.solvers._lcs_upto
        seen = []

        def recording(rows, *args):
            seen.append(rows)
            return fill(rows, *args)

        monkeypatch.setattr(rflcs.solvers, "_lcs_upto", recording)
        n = regime_target(regime, k, **param).n
        counts = []
        for t in range(8):
            inst = gen_uniform_pair(n, k, RngStream(12, 0).substream(t))
            seen.clear()
            _canonical_edges(inst.x, inst.y)
            counts.append(len(seen[0]))
        assert counts == filled

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
        assert rflcs_exact(inst).witness == (edges or ())

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

    @given(offset_pairs(12, 40))
    @example((list(range(256)), list(range(255, -1, -1))))  # bytes(x): 255 is a symbol
    @example(many_common(254, 0))  # relabelled: one chunk, a code to spare
    @example(many_common(255, 0))  # one full chunk
    @example(many_common(256, 0))  # two chunks
    @example(many_common(510, (1 << 63) - 300))  # two full chunks, across 2^63
    @settings(max_examples=300, deadline=None)
    def test_search_tables_match_definition(self, pair):
        # every common symbol owns one bit and sits once in the root, at its
        # first positions.  Its lookup at p is its first position at or after
        # p, else -1 (the search looks up only symbols left in both
        # suffixes).  The suffix masks give the bits of the symbols left in
        # seq[p:], and masks[c] the positions of c in reversed y.
        x, y = pair
        common = sorted(set(x) & set(y))
        find_x, find_y, root, suf_x, suf_y, masks = _search_tables(x, y, common)
        assert root == sorted(root)
        bit = {x[p]: b for p, _, b in root}
        assert sorted(bit) == common
        assert len(set(bit.values())) == len(common)
        assert all(b.bit_count() == 1 for b in bit.values())
        for p, q, b in root:
            assert (p, q) == (x.index(x[p]), y.index(x[p]))
        for seq, find, (lasts, suffix) in ((x, find_x, suf_x), (y, find_y, suf_y)):
            n = len(seq)
            for c, b in bit.items():
                t = b.bit_length() - 1
                nxt = -1
                for p in range(n, -1, -1):
                    if p < n and seq[p] == c:
                        nxt = p
                    assert find(t, p) == nxt
            left = 0
            for p in range(n, -1, -1):
                if p < n:
                    left |= bit.get(seq[p], 0)
                assert suffix[bisect_left(lasts, p)] == left
        expected = dict.fromkeys(common, 0)
        for q, c in enumerate(y):
            if c in expected:
                expected[c] |= 1 << len(y) - 1 - q
        assert masks == expected

    @given(offset_pairs(12, 24))
    @settings(max_examples=300, deadline=None)
    def test_equals_frozen_oracle_on_any_symbols(self, pair):
        # the witness of the frozen oracle, within the units of EXACT_BUDGET
        # it took, whatever range the symbols lie in
        x, y = pair
        edges, units = loop_canonical_edges(x, y)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(rflcs.solvers, "EXACT_BUDGET", units)
            assert _canonical_edges(x, y) == edges


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
        inst = gen_uniform_pair(10, 3, RngStream(33))
        with pytest.raises(ValueError, match="segment size"):
            segment_merge_heuristic(inst, 0)
        with pytest.raises(ValueError, match="per_segment"):
            segment_merge_heuristic(inst, 4, per_segment="dp")

    def test_ceil_three_quarters_is_exact(self):
        # the least t with t^4 >= k^3; as the float formula wherever that is
        # exact, so no segment plan moves
        for k in range(1, 10**6 + 1):
            assert _ceil_three_quarters(k) == math.ceil(k**0.75)
        moved = []
        for k in [k for t in range(1, 10**4 + 1) for k in (t**4 - 1, t**4, t**4 + 1) if k]:
            got = _ceil_three_quarters(k)
            assert got**4 >= k**3 > (got - 1) ** 4
            if got != math.ceil(k**0.75):
                moved.append((k, got))
        # only past 2^53, where k^0.75 rounds t^4 + 1 down to t^3: a plan
        # moves only for n >= t^3 > 9 * 10^11, and no instance is that long
        assert all(k == round(k ** 0.25) ** 4 + 1 > 2**53 for k, _ in moved)
        assert all(got == round(k ** 0.25) ** 3 + 1 for k, got in moved)
        assert _ceil_three_quarters(10**400) == 10**300
        assert _ceil_three_quarters(10**400 + 1) == 10**300 + 1

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

    @settings(max_examples=400, deadline=None)
    @given(
        st.one_of(st.integers(1, 40), st.sampled_from([2**63, 2**63 + 7, 2**70])).flatmap(
            lambda k: st.tuples(
                st.just(k),
                st.integers(0, 60).flatmap(
                    lambda n: st.tuples(
                        st.lists(st.integers(0, min(k, 40) - 1), min_size=n, max_size=n),
                        st.lists(st.integers(0, min(k, 40) - 1), min_size=n, max_size=n),
                    )
                ),
                st.booleans(),
                st.one_of(st.none(), st.integers(1, 70)),
            )
        )
    )
    @example((1, ([0, 0, 0], [0, 0, 0]), False, None))
    @example((5, ([], []), False, 3))
    @example((30, ([0, 1, 2], [2, 1, 0]), False, 12))
    @example((30, ([0, 1, 2, 3, 4], [4, 3, 2, 1, 0]), False, 1))
    @example((10, ([0, 1, 2, 3, 4, 5, 6, 7, 8, 9], [1, 0, 3, 2, 5, 4, 7, 6, 9, 8]), False, 3))
    @example((2**70, ([0, 1, 2, 3], [3, 1, 2, 0]), True, None))
    def test_lis_path_equals_per_segment_path(self, args):
        # n = 0, n < n_tilde, n_tilde = 1, a folded last block, k = 1, and
        # symbols on both sides of 2^63 (high=True moves each odd symbol c to
        # k - 1 - c)
        k, (x, y), high, n_tilde = args
        if high:
            x, y = ([k - 1 - c if c % 2 else c for c in seq] for seq in (x, y))
        inst = Instance(n=len(x), k=k, x=tuple(x), y=tuple(y))
        size = n_tilde or _ceil_three_quarters(k)
        got = segment_merge_heuristic(inst, n_tilde, per_segment="lis").witness
        assert got == per_segment_lis_witness(inst, size)

    def test_single_segment_exact_equals_solver(self):
        inst = gen_uniform_pair(30, 5, RngStream(32))
        heur = segment_merge_heuristic(inst, inst.n, per_segment="exact")
        assert heur.length == rflcs_exact(inst).length
