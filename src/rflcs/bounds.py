"""Closed-form evaluators for occupancy tail bounds and regime targets.

Probability-valued bounds are computed in log space and clamped into
[0, 1] by default, since several of them are vacuous (exceed 1) for
small parameters and must not be reported as probabilities above 1.
Where an unclamped value is needed (diagnostics, monotonicity checks),
pass clamp=False.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Optional


@dataclass(frozen=True)
class BoundParams:
    """Bookkeeping for the segmented-bound evaluators.

    m_l is the (1 - delta)-scaled per-segment target 2*n_tilde/sqrt(k).
    """

    k: int
    n: int
    n_tilde: int
    b: int
    delta: float
    t: float = 0.0
    a: float = 0.0
    r: float = 0.0

    def __post_init__(self):
        if self.k < 1 or self.n < 1 or self.n_tilde < 1 or self.b < 1:
            raise ValueError("k, n, n_tilde, b must be positive")
        if not (0.0 < self.delta < 1.0):
            raise ValueError("delta must lie in (0, 1)")
        if self.b * self.n_tilde > self.n:
            raise ValueError("b * n_tilde must not exceed n")
        if min(self.t, self.a, self.r) < 0:
            raise ValueError("t, a, r must be nonnegative")

    @property
    def m_l(self) -> float:
        return (1.0 - self.delta) * 2.0 * self.n_tilde / math.sqrt(self.k)


def _clamp01(v: float) -> float:
    return min(1.0, max(0.0, v))


def lambda_empty(k: int, s: int) -> float:
    """Expected number of empty urns: k * (1 - 1/k)^s."""
    if k < 1 or s < 0:
        raise ValueError("require k >= 1 and s >= 0")
    return k * (1.0 - 1.0 / k) ** s


def bernstein_tail(k: int, s: int, a: float) -> float:
    """Upper tail exp(-a^2 / (2 (k p q + a/3))) for P(Y >= lambda + a),
    with p = lambda/k and q = 1 - p."""
    if a < 0:
        raise ValueError("a must be nonnegative")
    if a == 0:
        return 1.0
    p = lambda_empty(k, s) / k
    q = 1.0 - p
    denom = 2.0 * (k * p * q + a / 3.0)
    if denom == 0.0:
        return 0.0
    return _clamp01(math.exp(-(a * a) / denom))


def coupon_tail(k: int, xi: float) -> tuple[int, float]:
    """s = ceil((1+xi) k ln k) and the bound k^(-xi) on P(Y != 0)."""
    if k < 2:
        raise ValueError("k must be >= 2")
    if xi < 0:
        raise ValueError("xi must be nonnegative")
    s = math.ceil((1.0 + xi) * k * math.log(k))
    return s, _clamp01(k**-xi)


def occupancy_tail(k: int, s: int, a: float) -> float:
    """(e s^2 / (k a))^a, clamped to 1 from above; bounds P(k - Y <= s - a)."""
    if k < 1 or s < 0:
        raise ValueError("require k >= 1 and s >= 0")
    if a <= 0:
        raise ValueError("a must be positive")
    if s == 0:
        return 0.0
    base = math.e * s * s / (k * a)
    if not 0.0 < base < math.inf:
        # k a overflowed (base reads 0 or nan) or e s^2 did (base reads
        # inf): the same bound from logs
        log_base = 1.0 + 2.0 * math.log(s) - math.log(k) - math.log(a)
        return math.exp(a * min(log_base, 0.0))
    if base >= 1.0:
        return 1.0
    return _clamp01(math.exp(a * math.log(base)))


def p1_bound(params: BoundParams, clamp: bool = True) -> float:
    """(2e(m_l+1))^b * exp(-t^2 / (16 (1+delta) n / sqrt(k))), in log space."""
    log_val = params.b * math.log(2.0 * math.e * (params.m_l + 1.0)) - (
        params.t**2
    ) / (16.0 * (1.0 + params.delta) * params.n / math.sqrt(params.k))
    if clamp:
        return math.exp(min(log_val, 0.0))
    return math.exp(log_val) if log_val < 709.0 else math.inf


@dataclass(frozen=True)
class OccupancyQuery:
    """Reduced query: evaluate P(k - Y^{(k,s)} <= threshold)."""

    k: int
    s: int
    threshold: float


def p2_bound_reduction(params: BoundParams) -> OccupancyQuery:
    """Reduce the symbol-overlap probability to a classical-urn query with
    s = ceil(r - t) and threshold r - a; callers evaluate the query exactly
    or by Monte Carlo."""
    if params.r < params.t:
        raise ValueError("require r >= t")
    return OccupancyQuery(
        k=params.k, s=math.ceil(params.r - params.t), threshold=params.r - params.a
    )


def claim_inequality_gap(x: float, rho: float) -> float:
    """exp(-rho(1-x)) - exp(-rho) - x(1 - exp(-rho)); analytically <= 0 on
    [0,1] x [0, inf)."""
    if not (0.0 <= x <= 1.0):
        raise ValueError("x must lie in [0, 1]")
    if rho < 0:
        raise ValueError("rho must be nonnegative")
    return math.exp(-rho * (1.0 - x)) - math.exp(-rho) - x * (1.0 - math.exp(-rho))


@dataclass(frozen=True)
class RegimeTarget:
    """Sequence length, limiting target for E[R], and deviation tail."""

    regime: int
    n: int
    target: float
    tail: Callable[[float], float]


def regime_target(
    regime: int,
    k: int,
    rho: float = 0.0,
    xi: float = 0.0,
    n: Optional[int] = None,
) -> RegimeTarget:
    """Targets and large-deviation tails for the three growth regimes.

    Regime 1 (n small relative to k^(3/2)): caller supplies n; target
    2n/sqrt(k).  Regime 2 (n = rho k^(3/2) / 2): target k(1 - e^-rho).
    Regime 3 (n = (1/2 + xi) k^(3/2) ln k): target k, saturation with
    high probability.  n and s are rounded up where the asymptotic
    statement treats them as reals.  Regimes 2 and 3 fix n themselves, so
    an n given for them is refused rather than paired with the target at
    another n.
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    if n is not None and regime in (2, 3):
        raise ValueError(f"regime {regime} sets n itself; n is for regime 1 only")
    sqrt_k = math.sqrt(k)
    if regime == 1:
        if n is None:
            raise ValueError("regime 1 requires an explicit n")
        if n < 0:
            raise ValueError("n must be nonnegative")
        if n > k * sqrt_k / 10.0:
            warnings.warn(
                "regime 1 assumes n much smaller than k^(3/2); "
                f"n={n} exceeds k*sqrt(k)/10={k * sqrt_k / 10:.1f}",
                stacklevel=2,
            )
        target = 2.0 * n / sqrt_k
        return RegimeTarget(
            regime=1,
            n=n,
            target=target,
            tail=lambda dev, _t=target: _clamp01(2.0 * math.exp(-dev * dev * _t / 10.0)),
        )
    if regime == 2:
        if rho <= 0:
            raise ValueError("regime 2 requires rho > 0")
        n2 = math.ceil(rho * k * sqrt_k / 2.0)
        target = k * (1.0 - math.exp(-rho))
        return RegimeTarget(
            regime=2,
            n=n2,
            target=target,
            tail=lambda dev, _t=target: _clamp01(2.0 * math.exp(-dev * dev * _t / 35.0)),
        )
    if regime == 3:
        if xi <= 0:
            raise ValueError("regime 3 requires xi > 0")
        n3 = math.ceil((0.5 + xi) * k * sqrt_k * math.log(k))
        return RegimeTarget(
            regime=3,
            n=n3,
            target=float(k),
            tail=lambda _dev, _k=k, _xi=xi: _clamp01(2.0 / _k**_xi),
        )
    raise ValueError(f"unknown regime tag {regime!r}")


def expectation_lower_bound(x: float, p_below: float) -> float:
    """x * (1 - P(X <= x)): the standard expectation certificate from a
    lower tail bound on a nonnegative random variable."""
    if x <= 0:
        raise ValueError("x must be positive")
    if not (0.0 <= p_below <= 1.0):
        raise ValueError("p_below must lie in [0, 1]")
    return x * (1.0 - p_below)
