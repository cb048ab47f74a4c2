"""Statistical substrate.

* :mod:`repro.stats.ks` — two-sample Kolmogorov-Smirnov machinery,
  including the paper's trick of linearly interpolating one empirical
  distribution when comparing two discrete samples (footnote 2);
* :mod:`repro.stats.descriptive` — means, confidence intervals,
  histogramming helpers used by the figure reproductions;
* :mod:`repro.stats.warmup` — warm-up (initial-transient) truncation
  heuristics: the MSER-m family used in section 7.4, plus the fixed
  cut the truncation ablation compares against.
"""

from repro.stats.ks import (
    KSResult,
    interpolated_cdf,
    ks_2samp_interpolated,
    ks_distance,
    ks_threshold,
)
from repro.stats.descriptive import (
    bootstrap_ci,
    histogram,
    mean_confidence_interval,
)
from repro.stats.warmup import (
    TruncationResult,
    batch_means,
    fixed_truncation,
    mser,
    mser_m,
)

__all__ = [
    "KSResult",
    "TruncationResult",
    "batch_means",
    "bootstrap_ci",
    "fixed_truncation",
    "histogram",
    "interpolated_cdf",
    "ks_2samp_interpolated",
    "ks_distance",
    "ks_threshold",
    "mean_confidence_interval",
    "mser",
    "mser_m",
]
