import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rflcs.bounds import (
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
    def p1(self, clamp=True, **kw):
        base = dict(k=100, n=1000, n_tilde=100, b=10, delta=0.1, t=0.0)
        base.update(kw)
        return p1_bound(**base, clamp=clamp)

    def test_m_bounds(self):
        # at t = 0 the unclamped bound is (2e(m_l + 1))^b, so m_l is read back
        # from it and checked against (1 - delta) 2 n_tilde / sqrt(k)
        for k, n_tilde, b, delta in ((100, 100, 10, 0.1), (4, 7, 3, 0.5), (81, 30, 2, 0.25)):
            raw = self.p1(clamp=False, k=k, n_tilde=n_tilde, b=b, delta=delta)
            m_l = raw ** (1.0 / b) / (2 * math.e) - 1
            assert math.isclose(m_l, (1 - delta) * 2 * n_tilde / math.sqrt(k), rel_tol=1e-9)

    def test_p1_t_zero_unclamped_prefactor(self):
        # m_l = (1 - delta) 2 n_tilde / sqrt(k) = 0.9 * 2 * 100 / 10 = 18
        raw = self.p1(clamp=False)
        assert math.isclose(raw, (2 * math.e * (18 + 1)) ** 10, rel_tol=1e-9)
        assert self.p1() == 1.0

    def test_p1_decreasing_in_t(self):
        vals = [self.p1(clamp=False, t=t) for t in (0, 50, 100, 200)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_p1_clamped_in_unit_interval(self):
        for t in (0, 10, 1000):
            assert 0.0 <= self.p1(t=float(t)) <= 1.0

    def test_p1_huge_t(self):
        # t^2 overflows past t = 1.34e154; the bound is exp(-inf) = 0 there,
        # as at t = 1.3e154, not an OverflowError
        for t in (1.3e154, 1.4e154, 1e200, 1.7e308):
            assert self.p1(t=t) == 0.0
            assert self.p1(clamp=False, t=t) == 0.0

    def test_p1_n_beyond_float(self):
        # n = 10^309 does not convert to a float; the exponent t^2 sqrt(k) /
        # (16 (1+delta) n) is then taken from logs instead of an OverflowError
        n = 10**309
        assert self.p1(n=n, t=1.0) == 1.0
        raw = self.p1(clamp=False, n=n, t=1.0)
        assert math.isclose(raw, (2 * math.e * (18 + 1)) ** 10, rel_tol=1e-9)
        # the exponent is about 1.8e-81 here; log(t * t) would read inf
        assert self.p1(n=10**400, t=1e160) == 1.0
        assert self.p1(n=n, t=0.0) == 1.0
        assert self.p1(n=n, t=1e200) == 0.0
        assert self.p1(clamp=False, n=n, t=1e200) == 0.0

    def test_p1_t_squared_and_n_both_inf(self):
        # t^2 and 16 (1+delta) n both overflow to inf, whose quotient is nan
        for t, expected in ((1e200, 0.0), (1.4e154, 1.0)):
            assert self.p1(n=10**308, t=t) == expected
        assert self.p1(clamp=False, n=10**308, t=1e200) == 0.0

    def test_p1_k_beyond_float(self):
        # sqrt(k) does not convert: m_l is about 5.7e-155, so the prefactor
        # is log(2e), and the exponent sqrt(k) / 176 about 1.8e152
        k = 10**309
        assert self.p1(k=k, n=10, n_tilde=1, b=1, t=1.0) == 0.0
        assert self.p1(k=k, n=10, n_tilde=1, b=1) == 1.0
        raw = self.p1(clamp=False, k=k, n=10, n_tilde=1, b=1)
        assert math.isclose(raw, 2 * math.e, rel_tol=1e-12)

    def test_p1_n_tilde_beyond_float(self):
        # 2 n_tilde does not convert: m_l is about 1.3e399, and the prefactor
        # 2 log(2e (m_l + 1)) about 1841
        args = dict(k=2, n=10**400, n_tilde=10**399, b=2)
        assert self.p1(**args) == 1.0
        assert self.p1(clamp=False, **args) == math.inf
        # at t = 1.51e202 the exponent t^2 sqrt(2) / (17.6 * 10^400) is 9.2
        # below the prefactor; the value is a 60-digit Decimal evaluation
        assert math.isclose(self.p1(clamp=False, **args, t=1.51e202), 9915.7933869, rel_tol=1e-9)

    def test_p1_b_beyond_float(self):
        # b log(2e (m_l + 1)) does not convert: the prefactor reads inf
        args = dict(k=4, n=10**400, n_tilde=1, b=10**399)
        assert self.p1(**args) == 1.0
        assert self.p1(clamp=False, **args) == math.inf

    def test_p1_term_reads_inf(self):
        # m_l = 1.8e308 reads inf, although the prefactor is about 712 and
        # the exponent 5.7e10
        assert self.p1(k=1, n=10**308, n_tilde=10**308, b=1, t=1e160) == 0.0
        # t^2 reads inf, although the exponent is 5.7e11 and the prefactor
        # 10^12 log(2e * 2.8), about 2.7e12
        assert self.p1(k=1, n=10**307, n_tilde=1, b=10**12, t=1e160) == 1.0
        # 16 (1 + delta) n reads inf, so t^2 over it read 0, although the
        # exponent is 2.8e136
        assert self.p1(k=10**290, n=2 * 10**307, n_tilde=1, b=1, t=1e150) == 0.0

    def test_p1_both_terms_read_inf(self):
        # log prefactor = log b + log log(2e (m_l + 1)), about 919.3; the log
        # exponent 600 log 10 + (log k) / 2 - log(17.6 n) is 803 at
        # k = 10^300 and 1609 at k = 10^1000
        args = dict(n=10**400, n_tilde=1, b=10**399, t=1e300)
        assert self.p1(k=10**300, **args) == 1.0
        assert self.p1(k=10**1000, **args) == 0.0
        # log prefactor about 6.6, log exponent about 709.3; the exponent
        # over the prefactor read nan
        assert self.p1(k=100, n=15 * 10**307, n_tilde=15 * 10**307, b=1, t=1.7e308) == 0.0

    def test_rejects_inconsistent_segmentation(self):
        with pytest.raises(ValueError):
            p1_bound(k=10, n=10, n_tilde=4, b=3, delta=0.1, t=0.0)

    @pytest.mark.parametrize(
        "kw", [dict(k=0), dict(n=0), dict(n_tilde=0), dict(b=0), dict(delta=0.0), dict(t=-1.0)]
    )
    def test_p1_rejects_bad_inputs(self, kw):
        with pytest.raises(ValueError):
            self.p1(**kw)

    def test_p2_reduction(self):
        assert p2_bound_reduction(100, 7.5, 4.0, 40.0) == (33, 36.0)

    def test_p2_rejects_r_below_t(self):
        with pytest.raises(ValueError):
            p2_bound_reduction(100, 2.0, 0.0, 1.0)

    @pytest.mark.parametrize("k, t, a", [(0, 1.0, 0.0), (100, -1.0, 0.0), (100, 1.0, -1.0)])
    def test_p2_rejects_bad_inputs(self, k, t, a):
        with pytest.raises(ValueError):
            p2_bound_reduction(k, t, a, 2.0)


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


def _clamp(v):
    return min(1.0, max(0.0, v))


class TestRegimeTargets:
    @pytest.mark.parametrize("k", [2, 7, 16, 100, 1000, 10**6])
    def test_formula_grid(self, k):
        # n, target and tail(dev) are the docstring's formulas, to the bit
        devs = (0.0, 0.1, 0.5, 1.0, 3.0, 25.0)
        sqrt_k = math.sqrt(k)
        for n in (0, 1, 5, 40):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                rt = regime_target(1, k, n=n)
            target = 2.0 * n / sqrt_k
            assert (rt.regime, rt.n, rt.target) == (1, n, target)
            assert [rt.tail(d) for d in devs] == [
                _clamp(2.0 * math.exp(-d * d * target / 10.0)) for d in devs
            ]
        for rho in (0.01, 0.5, 1.0, 4.0):
            rt = regime_target(2, k, rho=rho)
            target = k * (1.0 - math.exp(-rho))
            assert (rt.regime, rt.n) == (2, math.ceil(rho * k * sqrt_k / 2.0))
            assert rt.target == target
            assert [rt.tail(d) for d in devs] == [
                _clamp(2.0 * math.exp(-d * d * target / 35.0)) for d in devs
            ]
        for xi in (0.01, 0.5, 1.0, 2.5):
            rt = regime_target(3, k, xi=xi)
            assert (rt.regime, rt.n) == (3, math.ceil((0.5 + xi) * k * sqrt_k * math.log(k)))
            assert rt.target == float(k)
            assert [rt.tail(d) for d in devs] == [_clamp(2.0 / k**xi)] * len(devs)
        for regime, param in ((1, dict(n=0)), (2, dict(rho=1.0)), (3, dict(xi=1.0))):
            assert type(regime_target(float(regime), k, **param).regime) is int

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

    @pytest.mark.filterwarnings("ignore:regime 1 assumes")
    def test_regime1_target_overflow(self):
        # n = 10^308 fits a float, but 2n/sqrt(2) does not: refused, where it
        # used to give an infinite target, which the CLI printed as Infinity
        with pytest.raises(OverflowError):
            regime_target(1, 2, n=10**308)
        assert regime_target(1, 2, n=10**307).target == 2e307 / math.sqrt(2)

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
