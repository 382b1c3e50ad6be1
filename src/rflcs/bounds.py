"""Closed-form evaluators for occupancy tail bounds and regime targets.

Probability-valued bounds are computed in log space and clamped into
[0, 1], since several of them are vacuous (exceed 1) for small parameters
and must not be reported as probabilities above 1.  Where an unclamped
value of p1_bound is needed (diagnostics, monotonicity checks), pass
clamp=False.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Optional


def _clamp01(v: float) -> float:
    return min(1.0, max(0.0, v))


def _exp(log_v: float) -> float:
    return math.exp(log_v) if log_v < 709.0 else math.inf


def _or_from_log(value: Callable[[], float], log_v: float) -> float:
    """value() of a positive term, or exp(log_v) where value() overflows: an
    int does not fit a float, or the result reads inf, nan or 0 (a divisor
    overflowed)."""
    try:
        v = value()
    except OverflowError:
        v = math.inf
    return v if 0.0 < v < math.inf else _exp(log_v)


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


def p1_bound(
    k: int, n: int, n_tilde: int, b: int, delta: float, t: float, clamp: bool = True
) -> float:
    """(2e(m_l+1))^b * exp(-t^2 / (16 (1+delta) n / sqrt(k))), in log space,
    where m_l = (1 - delta) 2 n_tilde / sqrt(k) is the per-segment target of
    b segments of n_tilde symbols each."""
    if min(k, n, n_tilde, b) < 1 or not (0.0 < delta < 1.0) or b * n_tilde > n or t < 0:
        raise ValueError("require k, n, n_tilde, b >= 1, 0 < delta < 1, b * n_tilde <= n, t >= 0")
    # each term is also taken from logs, for where its float expression
    # overflows: 2 log t since t^2 may, and log(m_l + 1) from log m_l
    log_exponent = (
        2.0 * (math.log(t) if t > 0.0 else -math.inf) + 0.5 * math.log(k)
        - math.log(16.0 * (1.0 + delta)) - math.log(n)
    )
    log_m_l = math.log(2.0 * (1.0 - delta)) + math.log(n_tilde) - 0.5 * math.log(k)
    log_prefactor = math.log(b) + math.log(
        math.log(2.0 * math.e) + max(log_m_l, 0.0) + math.log1p(math.exp(-abs(log_m_l)))
    )
    exponent = _or_from_log(
        lambda: (t * t) / (16.0 * (1.0 + delta) * n / math.sqrt(k)), log_exponent
    )
    prefactor = _or_from_log(
        lambda: b * math.log(2.0 * math.e * ((1.0 - delta) * 2.0 * n_tilde / math.sqrt(k) + 1.0)),
        log_prefactor,
    )
    log_val = prefactor - exponent
    if math.isinf(prefactor) or math.isinf(exponent):  # a term read inf: compare logs
        log_val = math.copysign(math.inf, log_prefactor - log_exponent)
    return math.exp(min(log_val, 0.0)) if clamp else _exp(log_val)


def p2_bound_reduction(k: int, t: float, a: float, r: float) -> tuple[int, float]:
    """Reduce the symbol-overlap probability to the classical-urn query
    P(k - Y^{(k,s)} <= threshold), with s = ceil(r - t) and threshold r - a;
    callers evaluate the query exactly or by Monte Carlo."""
    if k < 1 or min(t, a) < 0 or r < t:
        raise ValueError("require k >= 1, t >= 0, a >= 0 and r >= t")
    return math.ceil(r - t), r - a


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
    2n/sqrt(k), tail 2 exp(-dev^2 target / 10).  Regime 2 (n = rho
    k^(3/2) / 2): target k(1 - e^-rho), tail 2 exp(-dev^2 target / 35).
    Regime 3 (n = (1/2 + xi) k^(3/2) ln k): target k, saturation with
    high probability, tail 2 k^-xi.  Tails are clamped to [0, 1].  n and
    s are rounded up where the asymptotic statement treats them as reals.
    Regimes 2 and 3 fix n themselves, so an n given for them is refused
    rather than paired with the target at another n.
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
        tail = lambda dev: _clamp01(2.0 * math.exp(-dev * dev * target / 10.0))
    elif regime == 2:
        if rho <= 0:
            raise ValueError("regime 2 requires rho > 0")
        n = math.ceil(rho * k * sqrt_k / 2.0)
        target = k * (1.0 - math.exp(-rho))
        tail = lambda dev: _clamp01(2.0 * math.exp(-dev * dev * target / 35.0))
    elif regime == 3:
        if xi <= 0:
            raise ValueError("regime 3 requires xi > 0")
        n = math.ceil((0.5 + xi) * k * sqrt_k * math.log(k))
        target = float(k)
        tail = lambda _dev: _clamp01(2.0 / k**xi)
    else:
        raise ValueError(f"unknown regime tag {regime!r}")
    return RegimeTarget(regime=int(regime), n=n, target=target, tail=tail)


def expectation_lower_bound(x: float, p_below: float) -> float:
    """x * (1 - P(X <= x)): the standard expectation certificate from a
    lower tail bound on a nonnegative random variable."""
    if x <= 0:
        raise ValueError("x must be positive")
    if not (0.0 <= p_below <= 1.0):
        raise ValueError("p_below must lie in [0, 1]")
    return x * (1.0 - p_below)
