"""Tests for descriptive statistics."""

import numpy as np
import pytest

from repro.stats.descriptive import (
    bootstrap_ci,
    histogram,
    mean_confidence_interval,
)


class TestMeanConfidenceInterval:
    def test_contains_mean(self, rng):
        sample = rng.normal(5, 1, 100)
        mean, lo, hi = mean_confidence_interval(sample)
        assert lo < mean < hi
        assert mean == pytest.approx(np.mean(sample))

    def test_wider_at_higher_confidence(self, rng):
        sample = rng.normal(0, 1, 50)
        _, lo95, hi95 = mean_confidence_interval(sample, 0.95)
        _, lo99, hi99 = mean_confidence_interval(sample, 0.99)
        assert hi99 - lo99 > hi95 - lo95

    def test_coverage(self, rng):
        covered = 0
        for _ in range(200):
            sample = rng.normal(0, 1, 30)
            _, lo, hi = mean_confidence_interval(sample, 0.95)
            if lo <= 0 <= hi:
                covered += 1
        assert covered / 200 > 0.88

    def test_validation(self):
        with pytest.raises(ValueError):
            mean_confidence_interval(np.array([1.0]))
        with pytest.raises(ValueError):
            mean_confidence_interval(np.array([1.0, 2.0]), confidence=1.5)


class TestBootstrapCi:
    def test_contains_point(self, rng):
        sample = rng.exponential(2.0, 100)
        point, lo, hi = bootstrap_ci(sample, n_boot=200)
        assert lo <= point <= hi

    def test_custom_statistic(self, rng):
        sample = rng.normal(0, 1, 100)
        point, lo, hi = bootstrap_ci(sample, statistic=np.median, n_boot=200)
        assert point == pytest.approx(np.median(sample))

    def test_deterministic_with_seed(self, rng):
        sample = rng.normal(0, 1, 50)
        first = bootstrap_ci(sample, seed=3)
        second = bootstrap_ci(sample, seed=3)
        assert first == second

    def test_validation(self):
        with pytest.raises(ValueError):
            bootstrap_ci(np.array([]))
        with pytest.raises(ValueError):
            bootstrap_ci(np.array([1.0]), confidence=0.0)


class TestHistogram:
    def test_counts_sum_to_n(self, rng):
        sample = rng.normal(0, 1, 500)
        counts, edges = histogram(sample, bins=20)
        assert counts.sum() == 500
        assert len(edges) == 21

    def test_explicit_range(self):
        counts, edges = histogram(np.array([1.0, 2.0, 3.0]), bins=2,
                                  range_=(0.0, 4.0))
        assert edges[0] == 0.0
        assert edges[-1] == 4.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            histogram(np.array([]))
