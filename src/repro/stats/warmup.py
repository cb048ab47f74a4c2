"""Warm-up (initial transient) truncation heuristics.

Section 7.4 of the paper recasts short-train bandwidth measurement as a
*simulation warm-up* problem and applies the MSER-m heuristic to the
inter-arrival (dispersion) samples of a probing train, discarding the
samples MSER flags as transient.  This module implements:

* :func:`mser` / :func:`mser_m` — the Marginal Standard Error Rule with
  optional batching (MSER-2 is what figure 17 uses);
* :func:`fixed_truncation` — the fixed-cut alternative the truncation
  ablation compares against;
* :func:`batch_means` — utility batching.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class TruncationResult:
    """Outcome of a warm-up truncation heuristic.

    ``truncate_before`` is the index (in the *original* sample) of the
    first observation considered to be in steady state; ``truncated``
    is the retained tail.
    """

    truncate_before: int
    truncated: np.ndarray
    scores: np.ndarray


def batch_means(sample: np.ndarray, m: int) -> np.ndarray:
    """Non-overlapping batch means of size ``m`` (tail dropped)."""
    sample = np.asarray(sample, dtype=float)
    if m < 1:
        raise ValueError(f"batch size must be >= 1, got {m}")
    n_batches = len(sample) // m
    if n_batches == 0:
        return np.array([])
    return sample[:n_batches * m].reshape(n_batches, m).mean(axis=1)


def mser(sample: np.ndarray, max_cut_fraction: float = 0.75) -> TruncationResult:
    """Marginal Standard Error Rule (MSER) truncation.

    For each candidate truncation point ``d`` the MSER statistic is::

        MSER(d) = Var(X_{d+1..n}) / (n - d)

    (up to a constant, the squared standard error of the truncated
    mean); the selected ``d`` minimizes it.  Following standard
    practice the search is restricted to the first
    ``max_cut_fraction`` of the sample so the statistic is not
    minimized by a spuriously tiny tail.
    """
    sample = np.asarray(sample, dtype=float)
    n = len(sample)
    if n < 2:
        raise ValueError("need at least two observations")
    if not 0 < max_cut_fraction <= 1:
        raise ValueError(
            f"max_cut_fraction must be in (0, 1], got {max_cut_fraction}")
    max_cut = max(1, int(np.floor(n * max_cut_fraction)))
    # Suffix sums score every candidate cutoff in one vectorized pass:
    # kept counts, truncated means and variances for all d at once.
    suffix_sum = np.cumsum(sample[::-1])[::-1]
    suffix_sq = np.cumsum((sample ** 2)[::-1])[::-1]
    kept = n - np.arange(n)
    mean = suffix_sum / kept
    var = suffix_sq / kept - mean ** 2
    scores = np.where((np.arange(n) < max_cut) & (kept >= 2),
                      np.maximum(var, 0.0) / kept, np.inf)
    best = int(np.argmin(scores[:max_cut]))
    return TruncationResult(truncate_before=best, truncated=sample[best:],
                            scores=scores)


def mser_m(sample: np.ndarray, m: int = 2,
           max_cut_fraction: float = 0.75) -> TruncationResult:
    """MSER applied to batch means of size ``m`` (MSER-m).

    The paper's figure 17 uses MSER-2 on the inter-arrival times of a
    20-packet train.  The returned ``truncate_before`` is expressed in
    *original-sample* units (batch index times ``m``).
    """
    sample = np.asarray(sample, dtype=float)
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    batched = batch_means(sample, m)
    if len(batched) < 2:
        raise ValueError(
            f"sample of {len(sample)} too short for MSER-{m}")
    batch_result = mser(batched, max_cut_fraction=max_cut_fraction)
    cut = batch_result.truncate_before * m
    return TruncationResult(truncate_before=cut, truncated=sample[cut:],
                            scores=batch_result.scores)


def fixed_truncation(sample: np.ndarray, cut: int) -> TruncationResult:
    """Discard the first ``cut`` observations unconditionally."""
    sample = np.asarray(sample, dtype=float)
    if cut < 0 or cut >= len(sample):
        raise ValueError(
            f"cut must be in [0, {len(sample) - 1}], got {cut}")
    return TruncationResult(truncate_before=cut, truncated=sample[cut:],
                            scores=np.array([]))
