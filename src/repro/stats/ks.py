"""Two-sample Kolmogorov-Smirnov machinery.

The paper (section 4, footnote 2) compares the access-delay sample of
each probing-packet index against the pooled steady-state sample using
the KS statistic, converting one of the two empirical *discrete*
distributions to a continuous one by linear interpolation.  This module
implements that exact procedure, the plain two-sample KS distance, and
the 95% (or arbitrary-level) acceptance threshold
``c(alpha) * sqrt((n + m) / (n * m))``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np


def interpolated_cdf(sample: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """Continuous (piecewise-linear) CDF built from a discrete sample.

    This is the paper's interpolation trick: the step CDF is replaced
    by the linear interpolant through the points
    ``(x_(k), k / n)`` so that two discrete samples can be compared as
    if one of them came from a continuous distribution.
    """
    sorted_sample = np.sort(np.asarray(sample, dtype=float))
    n = len(sorted_sample)
    if n == 0:
        raise ValueError("empty sample")
    probabilities = np.arange(1, n + 1) / n

    def cdf(x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return np.interp(x, sorted_sample, probabilities, left=0.0, right=1.0)

    return cdf


def ks_distance(sample_a: np.ndarray, sample_b: np.ndarray) -> float:
    """Plain two-sample KS statistic sup_x |F_a(x) - F_b(x)|."""
    a = np.sort(np.asarray(sample_a, dtype=float))
    b = np.sort(np.asarray(sample_b, dtype=float))
    if len(a) == 0 or len(b) == 0:
        raise ValueError("empty sample")
    grid = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, grid, side="right") / len(a)
    cdf_b = np.searchsorted(b, grid, side="right") / len(b)
    return float(np.max(np.abs(cdf_a - cdf_b)))


def ks_threshold(n: int, m: int, alpha: float = 0.05) -> float:
    """Rejection threshold for the two-sample KS test.

    ``D > c(alpha) * sqrt((n + m)/(n m))`` rejects equality at level
    ``alpha``, with ``c(alpha) = sqrt(-ln(alpha / 2) / 2)`` (the paper's
    "Threshold 95% CI" line uses ``alpha = 0.05``).
    """
    if n <= 0 or m <= 0:
        raise ValueError("sample sizes must be positive")
    if not 0 < alpha < 1:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    c_alpha = math.sqrt(-math.log(alpha / 2.0) / 2.0)
    return c_alpha * math.sqrt((n + m) / (n * m))


@dataclass
class KSResult:
    """Outcome of a two-sample KS comparison."""

    statistic: float
    threshold: float
    n: int
    m: int
    alpha: float


def ks_2samp_interpolated(sample: np.ndarray, reference: np.ndarray,
                          alpha: float = 0.05) -> KSResult:
    """KS test of ``sample`` against an interpolated ``reference``.

    ``reference`` (typically the pooled steady-state access delays of
    the last 500 probing packets) is converted to a continuous CDF by
    linear interpolation; the statistic is the maximum deviation of the
    sample's empirical CDF from it, evaluated at the sample points
    (both one-sided deviations around each step are checked).
    """
    sample = np.sort(np.asarray(sample, dtype=float))
    reference = np.asarray(reference, dtype=float)
    n, m = len(sample), len(reference)
    if n == 0 or m == 0:
        raise ValueError("empty sample")
    continuous = interpolated_cdf(reference)
    ref_at_sample = continuous(sample)
    upper = np.arange(1, n + 1) / n
    lower = np.arange(0, n) / n
    statistic = float(np.max(np.maximum(np.abs(upper - ref_at_sample),
                                        np.abs(lower - ref_at_sample))))
    return KSResult(statistic=statistic, threshold=ks_threshold(n, m, alpha),
                    n=n, m=m, alpha=alpha)
