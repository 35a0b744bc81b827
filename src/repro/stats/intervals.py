"""Confidence intervals and point estimates for binomial proportions.

The Monte-Carlo halves of every experiment estimate probabilities of events
(a window of size γ, disjoint shifts, bug manifestation).  Each estimate is
a binomial proportion, and the benchmarks report it with a confidence
interval so that "matches the paper's closed form" is a checkable statement
rather than a vibe.

Two interval constructions are provided:

* :func:`wilson_interval` — the Wilson score interval.  Good coverage for
  moderate counts, never escapes ``[0, 1]``, cheap.  This is the default
  everywhere.
* :func:`clopper_pearson_interval` — the exact (conservative) interval via
  the beta-distribution quantile identity.  Used in tests of the interval
  code itself and available for callers who want guaranteed coverage.

Both are implemented from scratch (the Clopper–Pearson case through a
continued-fraction incomplete-beta evaluation) so the library's core has no
SciPy dependency.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "Proportion",
    "wilson_interval",
    "clopper_pearson_interval",
    "normal_quantile",
]


@dataclass(frozen=True)
class Proportion:
    """A binomial proportion estimate with a confidence interval.

    Attributes
    ----------
    successes, trials:
        The raw counts the estimate was computed from.
    estimate:
        The maximum-likelihood point estimate ``successes / trials``.
    low, high:
        The confidence-interval endpoints.
    confidence:
        The nominal coverage of ``[low, high]``, e.g. ``0.99``.
    """

    successes: int
    trials: int
    estimate: float
    low: float
    high: float
    confidence: float

    def contains(self, value: float) -> bool:
        """Whether ``value`` lies within the confidence interval."""
        return self.low <= value <= self.high

    @property
    def half_width(self) -> float:
        """Half the width of the interval — a resolution measure."""
        return (self.high - self.low) / 2.0

    def __str__(self) -> str:
        return (
            f"{self.estimate:.6f} "
            f"[{self.low:.6f}, {self.high:.6f}] "
            f"({self.successes}/{self.trials} @ {self.confidence:.0%})"
        )


def normal_quantile(probability: float) -> float:
    """Inverse CDF of the standard normal distribution.

    Uses the Acklam rational approximation (relative error below 1.15e-9
    over the full open interval), refined with one Halley step against the
    exact CDF computed from :func:`math.erfc`.  Accurate to close to machine
    precision, which is far tighter than any Monte-Carlo use requires.
    """
    if not 0.0 < probability < 1.0:
        raise ValueError(f"probability must be in (0, 1), got {probability}")

    # Acklam's coefficients.
    a = (-3.969683028665376e01, 2.209460984245205e02, -2.759285104469687e02,
         1.383577518672690e02, -3.066479806614716e01, 2.506628277459239e00)
    b = (-5.447609879822406e01, 1.615858368580409e02, -1.556989798598866e02,
         6.680131188771972e01, -1.328068155288572e01)
    c = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e00,
         -2.549732539343734e00, 4.374664141464968e00, 2.938163982698783e00)
    d = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e00,
         3.754408661907416e00)
    p_low = 0.02425

    if probability < p_low:
        q = math.sqrt(-2.0 * math.log(probability))
        x = (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / (
            (((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0)
    elif probability <= 1.0 - p_low:
        q = probability - 0.5
        r = q * q
        x = (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) * q / (
            ((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0)
    else:
        q = math.sqrt(-2.0 * math.log(1.0 - probability))
        x = -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / (
            (((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0)

    # One Halley refinement step against the exact normal CDF.
    cdf = 0.5 * math.erfc(-x / math.sqrt(2.0))
    pdf = math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)
    error = cdf - probability
    if pdf > 0.0:
        u = error / pdf
        x -= u / (1.0 + x * u / 2.0)
    return x


def wilson_interval(successes: int, trials: int, confidence: float = 0.99) -> Proportion:
    """Wilson score interval for a binomial proportion.

    Parameters
    ----------
    successes, trials:
        Event counts; requires ``0 <= successes <= trials`` and
        ``trials >= 1``.
    confidence:
        Nominal two-sided coverage in ``(0, 1)``.
    """
    _check_counts(successes, trials, confidence)
    z = normal_quantile(0.5 + confidence / 2.0)
    p_hat = successes / trials
    z2 = z * z
    denom = 1.0 + z2 / trials
    centre = (p_hat + z2 / (2.0 * trials)) / denom
    spread = (z / denom) * math.sqrt(p_hat * (1.0 - p_hat) / trials + z2 / (4.0 * trials * trials))
    low = max(0.0, centre - spread)
    high = min(1.0, centre + spread)
    # Degenerate counts: the MLE endpoint itself must be inside the interval
    # (float rounding of centre ± spread can otherwise exclude 0 or 1).
    if successes == 0:
        low = 0.0
    if successes == trials:
        high = 1.0
    return Proportion(successes, trials, p_hat, low, high, confidence)


def clopper_pearson_interval(
    successes: int, trials: int, confidence: float = 0.99
) -> Proportion:
    """Exact (Clopper–Pearson) interval for a binomial proportion.

    Conservative: actual coverage is at least the nominal level.  Endpoints
    are beta-distribution quantiles, solved by bisection on a from-scratch
    regularised incomplete beta function.
    """
    _check_counts(successes, trials, confidence)
    alpha = 1.0 - confidence
    p_hat = successes / trials
    if successes == 0:
        low = 0.0
    else:
        low = _beta_quantile(alpha / 2.0, successes, trials - successes + 1)
    if successes == trials:
        high = 1.0
    else:
        high = _beta_quantile(1.0 - alpha / 2.0, successes + 1, trials - successes)
    return Proportion(successes, trials, p_hat, low, high, confidence)


def _check_counts(successes: int, trials: int, confidence: float) -> None:
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if not 0 <= successes <= trials:
        raise ValueError(f"successes {successes} outside [0, {trials}]")
    _check_confidence(confidence)


def _check_confidence(confidence: float) -> None:
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0, 1), got {confidence}")


def _log_beta(a: float, b: float) -> float:
    return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)


def _beta_cdf(x: float, a: float, b: float) -> float:
    """Regularised incomplete beta I_x(a, b) via Lentz continued fractions."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    log_front = a * math.log(x) + b * math.log1p(-x) - _log_beta(a, b)
    front = math.exp(log_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_continued_fraction(x, a, b) / a
    return 1.0 - math.exp(
        b * math.log1p(-x) + a * math.log(x) - _log_beta(b, a)
    ) * _beta_continued_fraction(1.0 - x, b, a) / b


def _beta_continued_fraction(x: float, a: float, b: float) -> float:
    """Lentz's algorithm for the incomplete-beta continued fraction."""
    tiny = 1e-30
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    result = d
    for m in range(1, 300):
        m2 = 2 * m
        numerator = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + numerator * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + numerator / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        result *= d * c
        numerator = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + numerator * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + numerator / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        result *= delta
        if abs(delta - 1.0) < 1e-14:
            return result
    return result  # pragma: no cover - 300 iterations always suffices here


def _beta_quantile(probability: float, a: float, b: float) -> float:
    """Quantile of Beta(a, b) by bisection on the regularised CDF."""
    low, high = 0.0, 1.0
    for _ in range(200):
        mid = (low + high) / 2.0
        if _beta_cdf(mid, a, b) < probability:
            low = mid
        else:
            high = mid
        if high - low < 1e-13:
            break
    return (low + high) / 2.0
