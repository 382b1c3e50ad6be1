import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rflcs.bounds import (
    BoundParams,
    bernstein_tail,
    claim_inequality_gap,
    coupon_tail,
    expectation_lower_bound,
    lambda_empty,
    occupancy_tail,
    p1_bound,
    p2_bound_reduction,
    regime_target,
)


class TestLambda:
    def test_known_value(self):
        # k=10, s=10: 10 * 0.9^10 = 3.4867844010
        assert math.isclose(lambda_empty(10, 10), 3.4867844010, abs_tol=1e-9)

    def test_zero_balls(self):
        assert lambda_empty(7, 0) == 7.0

    def test_single_urn(self):
        assert lambda_empty(1, 1) == 0.0

    def test_monotone_in_s(self):
        vals = [lambda_empty(10, s) for s in range(50)]
        assert all(a > b for a, b in zip(vals, vals[1:]))


class TestBernstein:
    def test_a_zero_is_vacuous(self):
        assert bernstein_tail(50, 50, 0.0) == 1.0

    def test_decreasing_in_a(self):
        vals = [bernstein_tail(50, 50, a) for a in (1, 2, 4, 8)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_in_unit_interval(self):
        for a in (0.5, 3.0, 100.0):
            assert 0.0 <= bernstein_tail(20, 30, a) <= 1.0

    def test_rejects_negative_a(self):
        with pytest.raises(ValueError):
            bernstein_tail(10, 10, -1.0)


class TestCoupon:
    def test_reference_point(self):
        s, bound = coupon_tail(100, 1.0)
        assert s == math.ceil(2 * 100 * math.log(100)) == 922
        assert bound == 0.01

    def test_xi_zero(self):
        s, bound = coupon_tail(10, 0.0)
        assert bound == 1.0
        assert s == math.ceil(10 * math.log(10))

    def test_rejects_small_k(self):
        with pytest.raises(ValueError):
            coupon_tail(1, 1.0)


class TestOccupancy:
    def test_reference_point(self):
        # (e * 2500 / 10^5)^10
        expect = (math.e * 50 * 50 / (10_000 * 10.0)) ** 10.0
        assert math.isclose(occupancy_tail(10_000, 50, 10.0), expect, rel_tol=1e-12)

    def test_clamped_when_vacuous(self):
        assert occupancy_tail(10, 50, 1.0) == 1.0

    def test_rejects_nonpositive_a(self):
        with pytest.raises(ValueError):
            occupancy_tail(10, 5, 0.0)

    def test_no_balls(self):
        # with s = 0 no urn is occupied, so P(k - Y <= -a) = 0 for every a > 0
        assert occupancy_tail(10, 0, 1.0) == 0.0
        assert occupancy_tail(10, 0, 0.5) == 0.0

    def test_rejects_negative_s(self):
        with pytest.raises(ValueError):
            occupancy_tail(10, -1, 1.0)

    def test_float_overflow(self):
        # k * a overflows to inf, so e s^2 / (k a) reads 0 (or nan when e s^2
        # overflows too); the bound comes from logs instead
        assert occupancy_tail(10**30, 1, 1e300) == 0.0
        # (e * 64e306 / 30e307)^2: k * a overflows although the bound is 0.34
        expect = (math.e * 64 / 300) ** 2
        assert math.isclose(occupancy_tail(15 * 10**307, 8 * 10**153, 2.0), expect, rel_tol=1e-12)
        # e s^2 / (k a) = e * 100 / 3 > 1: vacuous, not the 0 that nan gave
        assert occupancy_tail(10**308, 10**155, 3.0) == 1.0


class TestSegmentedBounds:
    def params(self, **kw):
        base = dict(k=100, n=1000, n_tilde=100, b=10, delta=0.1)
        base.update(kw)
        return BoundParams(**base)

    def test_m_bounds(self):
        p = self.params()
        assert math.isclose(p.m_l, 0.9 * 2 * 100 / 10.0)

    def test_p1_t_zero_unclamped_prefactor(self):
        p = self.params(t=0.0)
        raw = p1_bound(p, clamp=False)
        assert math.isclose(raw, (2 * math.e * (p.m_l + 1)) ** p.b, rel_tol=1e-9)
        assert p1_bound(p) == 1.0

    def test_p1_decreasing_in_t(self):
        vals = [p1_bound(self.params(t=t), clamp=False) for t in (0, 50, 100, 200)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_p1_clamped_in_unit_interval(self):
        for t in (0, 10, 1000):
            assert 0.0 <= p1_bound(self.params(t=float(t))) <= 1.0

    def test_p2_reduction(self):
        p = self.params(r=40.0, t=7.5, a=4.0)
        q = p2_bound_reduction(p)
        assert q.k == 100 and q.s == 33 and q.threshold == 36.0

    def test_p2_rejects_r_below_t(self):
        with pytest.raises(ValueError):
            p2_bound_reduction(self.params(r=1.0, t=2.0))

    def test_rejects_inconsistent_segmentation(self):
        with pytest.raises(ValueError):
            BoundParams(k=10, n=10, n_tilde=4, b=3, delta=0.1)


class TestClaim:
    def test_boundary_zero(self):
        assert claim_inequality_gap(0.0, 1.0) == 0.0
        assert abs(claim_inequality_gap(1.0, 1.0)) <= 1e-15

    def test_interior_strictly_negative(self):
        assert claim_inequality_gap(0.5, 1.0) < 0.0

    @given(st.floats(0.0, 1.0), st.floats(0.0, 50.0))
    @settings(max_examples=200)
    def test_property_nonpositive(self, x, rho):
        assert claim_inequality_gap(x, rho) <= 1e-12


class TestRegimeTargets:
    def test_regime1(self):
        rt = regime_target(1, 100, n=50)
        assert rt.n == 50
        assert math.isclose(rt.target, 2 * 50 / 10.0)
        assert 0.0 <= rt.tail(0.5) <= 1.0

    def test_regime1_requires_n(self):
        with pytest.raises(ValueError):
            regime_target(1, 100)
        with pytest.raises(ValueError, match="nonnegative"):
            regime_target(1, 100, n=-5)

    def test_regime1_warns_when_n_large(self):
        with pytest.warns(UserWarning):
            regime_target(1, 9, n=100)

    def test_regime2(self):
        rt = regime_target(2, 12, rho=1.0)
        assert rt.n == math.ceil(12 * math.sqrt(12) / 2)
        assert math.isclose(rt.target, 12 * (1 - math.exp(-1.0)))

    def test_regime3_reference_point(self):
        rt = regime_target(3, 12, xi=1.0)
        assert rt.n == 155
        assert rt.target == 12.0
        assert math.isclose(rt.tail(1.0), 2 / 12)

    @pytest.mark.parametrize("regime, param", [(2, dict(rho=1.0)), (3, dict(xi=1.0))])
    def test_regimes_2_and_3_refuse_n(self, regime, param):
        # they set n themselves: a given n would sit beside the target at theirs
        with pytest.raises(ValueError, match="regime 1 only"):
            regime_target(regime, 16, n=20, **param)

    def test_rejects_unknown_regime(self):
        with pytest.raises(ValueError):
            regime_target(4, 10)


class TestExpectationLowerBound:
    def test_value(self):
        assert expectation_lower_bound(10.0, 0.25) == 7.5

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            expectation_lower_bound(0.0, 0.5)
        with pytest.raises(ValueError):
            expectation_lower_bound(1.0, 1.5)


def test_bernstein_against_exact_distribution():
    # the closed form must upper bound the true tail wherever we can
    # evaluate the distribution exactly
    from rflcs.urns import classical_urn_exact

    k, s = 20, 30
    probs = np.array(classical_urn_exact(k, s))
    lam = lambda_empty(k, s)
    for a in (1.0, 2.0, 4.0):
        true_tail = float(probs[[m >= lam + a for m in range(k + 1)]].sum())
        assert true_tail <= bernstein_tail(k, s, a) + 1e-12
