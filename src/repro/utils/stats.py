"""Streaming statistics used by the Monte Carlo estimators.

The convergence analysis in Section 3.3 of the paper bounds the empirical
risk via the weak law of large numbers in terms of the sample variance, so
the engine needs numerically stable running mean/variance (Welford) over
possibly millions of samples, plus a binomial confidence interval for the
raw success probability.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Tuple


@dataclass
class RunningStats:
    """Welford running mean and variance.

    ``push`` accepts weighted observations — importance sampling pushes
    ``w_i * e_i`` values, random sampling pushes plain indicators.
    """

    count: int = 0
    mean: float = 0.0
    _m2: float = 0.0
    _history: List[float] = field(default_factory=list)
    record_history: bool = False

    def push(self, value: float) -> None:
        self.count += 1
        delta = value - self.mean
        self.mean += delta / self.count
        self._m2 += delta * (value - self.mean)
        if self.record_history:
            self._history.append(self.mean)

    def extend(self, values) -> None:
        for v in values:
            self.push(v)

    @property
    def variance(self) -> float:
        """Unbiased sample variance (0.0 with fewer than two samples)."""
        if self.count < 2:
            return 0.0
        return self._m2 / (self.count - 1)

    @property
    def std_error(self) -> float:
        """Standard error of the running mean."""
        if self.count < 2:
            return float("inf")
        return math.sqrt(self.variance / self.count)

    @property
    def history(self) -> List[float]:
        """Running-mean trajectory (only if ``record_history`` is set)."""
        return list(self._history)

    def merge(self, other: "RunningStats") -> "RunningStats":
        """Combine two independent accumulators (parallel chunks)."""
        if other.count == 0:
            return self
        if self.count == 0:
            self.count = other.count
            self.mean = other.mean
            self._m2 = other._m2
            return self
        total = self.count + other.count
        delta = other.mean - self.mean
        self._m2 += other._m2 + delta * delta * self.count * other.count / total
        self.mean += delta * other.count / total
        self.count = total
        return self


def wilson_interval(successes: int, trials: int, z: float = 1.96) -> Tuple[float, float]:
    """Wilson score interval for a binomial proportion.

    Preferred over the normal approximation because SSF is typically tiny
    (successful attacks are rare events).
    """
    if trials <= 0:
        raise ValueError("trials must be positive")
    if not 0 <= successes <= trials:
        raise ValueError("successes must lie in [0, trials]")
    p = successes / trials
    denom = 1 + z * z / trials
    centre = p + z * z / (2 * trials)
    spread = z * math.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials))
    lo = max(0.0, (centre - spread) / denom)
    hi = min(1.0, (centre + spread) / denom)
    return (lo, hi)


def _lower_gamma_series(a: float, x: float) -> float:
    """Regularized lower incomplete gamma P(a, x) by series (x < a + 1)."""
    term = 1.0 / a
    total = term
    denom = a
    for _ in range(500):
        denom += 1.0
        term *= x / denom
        total += term
        if abs(term) < abs(total) * 1e-15:
            break
    return total * math.exp(-x + a * math.log(x) - math.lgamma(a))


def _upper_gamma_cf(a: float, x: float) -> float:
    """Regularized upper incomplete gamma Q(a, x) by Lentz's continued
    fraction (x >= a + 1)."""
    tiny = 1e-300
    b = x + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, 500):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-15:
            break
    return h * math.exp(-x + a * math.log(x) - math.lgamma(a))


def chi2_sf(x: float, df: float) -> float:
    """Survival function of the chi-square distribution, Pr[X >= x].

    Pure-python (series / continued-fraction regularized incomplete
    gamma) so the goodness-of-fit gate needs no ``scipy`` at runtime;
    agrees with ``scipy.stats.chi2.sf`` to ~1e-12 over the tested range.
    """
    if df <= 0:
        raise ValueError("df must be positive")
    if x <= 0:
        return 1.0
    a, half_x = df / 2.0, x / 2.0
    if half_x < a + 1.0:
        return max(0.0, min(1.0, 1.0 - _lower_gamma_series(a, half_x)))
    return max(0.0, min(1.0, _upper_gamma_cf(a, half_x)))


@dataclass(frozen=True)
class Chi2Result:
    """Pearson chi-square goodness-of-fit verdict."""

    statistic: float
    dof: int
    p_value: float
    n_cells: int      # cells after pooling
    n_pooled: int     # low-expectation cells merged into the pool


def chi_square_gof(
    observed: Dict[Hashable, int],
    expected_probs: Dict[Hashable, float],
    min_expected: float = 5.0,
) -> Chi2Result:
    """Pearson chi-square test of observed counts against a discrete spec.

    ``expected_probs`` must cover the declared support (summing to ~1);
    cells whose expected count falls below ``min_expected`` are pooled
    (the usual validity condition for the chi-square approximation).  An
    observation outside the declared support is a hard spec violation and
    returns ``p_value = 0.0``.  With fewer than two cells after pooling
    the test is vacuous and returns ``p_value = 1.0``.
    """
    n = sum(observed.values())
    if n <= 0:
        raise ValueError("observed counts must sum to a positive total")
    support = {k for k, p in expected_probs.items() if p > 0.0}
    outside = [k for k, c in observed.items() if c > 0 and k not in support]
    if outside:
        return Chi2Result(math.inf, 0, 0.0, len(support), 0)

    cells = sorted(
        ((expected_probs[k] * n, observed.get(k, 0)) for k in support),
        reverse=True,
    )
    kept: List[Tuple[float, int]] = []
    pool_exp, pool_obs, n_pooled = 0.0, 0, 0
    for exp, obs in cells:
        if exp >= min_expected:
            kept.append((exp, obs))
        else:
            pool_exp += exp
            pool_obs += obs
            n_pooled += 1
    if n_pooled:
        if pool_exp >= min_expected or not kept:
            kept.append((pool_exp, pool_obs))
        else:  # fold an undersized pool into the smallest kept cell
            exp, obs = kept.pop()
            kept.append((exp + pool_exp, obs + pool_obs))
    if len(kept) < 2:
        return Chi2Result(0.0, 0, 1.0, len(kept), n_pooled)

    statistic = sum((obs - exp) ** 2 / exp for exp, obs in kept)
    dof = len(kept) - 1
    return Chi2Result(statistic, dof, chi2_sf(statistic, dof), len(kept), n_pooled)


def samples_for_risk(variance: float, epsilon: float, delta: float) -> int:
    """Chebyshev bound from the paper: N >= sigma^2 / (delta * eps^2).

    Returns the number of Monte Carlo samples guaranteeing
    ``Pr[|SSF_hat - SSF| >= eps] <= delta`` given a sample variance.
    """
    if epsilon <= 0 or not 0 < delta < 1:
        raise ValueError("epsilon must be > 0 and delta in (0, 1)")
    if variance < 0:
        raise ValueError("variance must be non-negative")
    return max(1, math.ceil(variance / (delta * epsilon * epsilon)))
