import math
from types import SimpleNamespace

import numpy as np
import pytest
from scipy import stats

from rflcs.errors import CapacityError
from rflcs.generators import K_MAX, N_MAX, PLANTED_K_MAX, gen_planted_pair, gen_uniform_pair
from rflcs.model import Instance
from rflcs.rng import RngStream
from rflcs.solvers import rflcs_exact


class TestRngStream:
    def test_same_stream_same_output(self):
        a = RngStream(123, 5).generator().integers(0, 1000, size=20)
        b = RngStream(123, 5).generator().integers(0, 1000, size=20)
        assert (a == b).all()

    def test_distinct_streams_differ(self):
        a = RngStream(123, 5).generator().integers(0, 1000, size=20)
        b = RngStream(123, 6).generator().integers(0, 1000, size=20)
        assert not (a == b).all()

    def test_known_mix_constants_stable(self):
        # regression pin: derived seeds must never change across releases
        assert RngStream(0, 0).seed == RngStream(0, 0).seed
        assert RngStream(0, 0).seed != RngStream(0, 1).seed
        assert RngStream(1, 0).seed != RngStream(0, 0).seed


# bounds below and at numpy's switch from 32-bit to 64-bit draws, and past it
DRAW_BOUNDS = [1, 2, 3, 13, 400, 2**31, 2**32, 2**32 + 1, 2**40, 2**63]


def two_call_planted(n, k, l, stream):
    """gen_planted_pair as it was when it drew x and y by one call each:
    returns x, y, z and the planted positions."""
    g = stream.generator()
    x = g.integers(0, k, size=n).tolist()
    y = g.integers(0, k, size=n).tolist()
    z = tuple(g.permutation(k)[:l].tolist())
    pos_x = tuple(sorted(g.choice(n, size=l, replace=False).tolist())) if l else ()
    pos_y = tuple(sorted(g.choice(n, size=l, replace=False).tolist())) if l else ()
    for i, c in enumerate(z):
        x[pos_x[i]] = c
        y[pos_y[i]] = c
    return tuple(x), tuple(y), z, pos_x, pos_y


class TestUniformPair:
    @pytest.mark.parametrize("k", DRAW_BOUNDS)
    @pytest.mark.parametrize("n", [0, 1, 6, 7, 100, 101])
    def test_one_draw_equals_two(self, n, k):
        # one draw of 2n symbols gives the x and y of two draws of n, and
        # leaves the stream where they leave it, for odd n as for even
        for seed in range(5):
            stream = RngStream(seed, n)
            g = stream.generator()
            x = tuple(g.integers(0, k, size=n).tolist())
            y = tuple(g.integers(0, k, size=n).tolist())
            after = g.integers(0, k, size=3).tolist()
            inst = gen_uniform_pair(n, k, stream)
            assert (inst.x, inst.y) == (x, y)
            g = stream.generator()
            g.integers(0, k, size=2 * n)
            assert g.integers(0, k, size=3).tolist() == after

    @pytest.mark.parametrize("k", [1, 2, 13, 2**32, 2**32 + 1, 2**63])
    @pytest.mark.parametrize("n", [0, 1, 2, 181, 1001])
    def test_equals_checked_constructor(self, n, k):
        # the instance built from the range-checked draw, without the
        # constructor's checks, equals the one the constructor checks
        inst = gen_uniform_pair(n, k, RngStream(7, n))
        checked = Instance(n=inst.n, k=inst.k, x=inst.x, y=inst.y, seed=inst.seed)
        assert inst == checked
        assert (hash(inst), repr(inst)) == (hash(checked), repr(checked))
        assert all(type(c) is int for c in inst.x + inst.y)

    @pytest.mark.parametrize("bad", [-1, 13, 2**62])
    def test_draw_out_of_range_refused(self, monkeypatch, bad):
        # a draw outside [0, k), in x or in y, is refused on the draw itself
        for at in (0, 5, 9):
            draw = np.arange(10) % 13
            draw[at] = bad
            fake = SimpleNamespace(integers=lambda lo, hi, size: draw[:size])
            monkeypatch.setattr(RngStream, "generator", lambda self: fake)
            with pytest.raises(ValueError, match=r"out of range \[0, k\)"):
                gen_uniform_pair(5, 13, RngStream(1))

    def test_empty(self):
        inst = gen_uniform_pair(0, 3, RngStream(1))
        assert inst.x == () and inst.y == ()

    def test_determinism(self):
        a = gen_uniform_pair(50, 5, RngStream(9, 3))
        b = gen_uniform_pair(50, 5, RngStream(9, 3))
        assert a == b

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            gen_uniform_pair(5, 0, RngStream(1))
        with pytest.raises(ValueError):
            gen_uniform_pair(-1, 2, RngStream(1))

    def test_n_cap_refused_before_any_draw(self):
        class NoDraws:
            seed = 0

            def generator(self):
                raise AssertionError("drew before the n cap was checked")

        with pytest.raises(CapacityError):
            gen_uniform_pair(N_MAX + 1, 2, NoDraws())
        with pytest.raises(CapacityError):
            gen_planted_pair(N_MAX + 1, 2, 1, NoDraws())

    def test_k_cap_refused_before_any_draw(self):
        # numpy's int64 draws take k up to 2^63; past it the refusal names
        # the limit, where numpy would raise a ValueError
        class NoDraws:
            seed = 0

            def generator(self):
                raise AssertionError("drew before the k cap was checked")

        assert K_MAX == 2**63
        inst = gen_uniform_pair(3, K_MAX, RngStream(1))
        assert all(0 <= c < K_MAX for c in inst.x + inst.y)
        with pytest.raises(CapacityError, match=f"k <= {K_MAX}"):
            gen_uniform_pair(3, K_MAX + 1, NoDraws())

    def test_symbol_frequency_binomial(self):
        n = 100_000
        inst = gen_uniform_pair(n, 2, RngStream(11))
        freq = sum(1 for c in inst.x if c == 0) / n
        sigma = math.sqrt(0.25 / n)
        assert abs(freq - 0.5) <= 4 * sigma

    def test_marginal_uniformity_chi_square(self):
        n, k = 100_000, 7
        inst = gen_uniform_pair(n, k, RngStream(12))
        counts = np.bincount(inst.x, minlength=k)
        _, p = stats.chisquare(counts)
        assert p > 1e-3


class TestPlantedPair:
    @pytest.mark.parametrize("k", [k for k in DRAW_BOUNDS if k <= PLANTED_K_MAX])
    @pytest.mark.parametrize("n", [1, 6, 7, 100, 101])
    def test_one_draw_equals_two(self, n, k):
        # the pair, the planted sequence and its positions are those of the
        # generator that drew x and y by one call each
        for seed in range(5):
            stream = RngStream(seed, n)
            l = min(n, k) // 2
            inst = gen_planted_pair(n, k, l, stream)
            cert = inst.planted
            got = (inst.x, inst.y, cert.z, cert.positions_x, cert.positions_y)
            assert got == two_call_planted(n, k, l, stream)

    def test_l_zero_matches_uniform_distribution(self):
        # same parameters, many streams: planted l=0 and uniform should be
        # indistinguishable symbol-wise (both are plain uniform draws)
        inst = gen_planted_pair(30, 4, 0, RngStream(3))
        assert inst.planted is not None and inst.planted.l == 0
        counts = np.zeros(4)
        for t in range(200):
            p = gen_planted_pair(20, 4, 0, RngStream(4, t))
            counts += np.bincount(p.x, minlength=4)
        _, pval = stats.chisquare(counts)
        assert pval > 1e-3

    def test_certificate_validates_and_bounds_optimum(self):
        inst = gen_planted_pair(8, 6, 4, RngStream(5))
        assert inst.planted is not None
        assert rflcs_exact(inst).length >= 4

    def test_l_equals_n(self):
        inst = gen_planted_pair(5, 8, 5, RngStream(6))
        assert inst.x == inst.planted.z
        assert inst.y == inst.planted.z

    def test_rejects_oversized_l(self):
        with pytest.raises(ValueError):
            gen_planted_pair(4, 8, 5, RngStream(1))
        with pytest.raises(ValueError):
            gen_planted_pair(8, 4, 5, RngStream(1))

    def test_capacity(self):
        # the planted word comes from a permutation of [0, k): O(k) memory
        with pytest.raises(CapacityError):
            gen_planted_pair(4, PLANTED_K_MAX + 1, 2, RngStream(1))
        assert gen_planted_pair(4, 10**5, 2, RngStream(1)).planted is not None

    def test_many_certificates_validate(self):
        for t in range(50):
            inst = gen_planted_pair(12, 9, 6, RngStream(7, t))
            assert inst.planted is not None
