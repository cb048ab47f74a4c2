"""Tests for the KS machinery."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats as sps

from repro.stats.ks import (
    interpolated_cdf,
    ks_2samp_interpolated,
    ks_distance,
    ks_threshold,
)


class TestInterpolatedCdf:
    def test_monotone(self):
        sample = np.array([1.0, 2.0, 5.0, 7.0])
        cdf = interpolated_cdf(sample)
        grid = np.linspace(0, 10, 100)
        values = cdf(grid)
        assert np.all(np.diff(values) >= 0)

    def test_clamped_to_unit_interval(self):
        cdf = interpolated_cdf(np.array([1.0, 2.0]))
        assert cdf(np.array([-10.0]))[0] == 0.0
        assert cdf(np.array([10.0]))[0] == 1.0

    def test_linear_between_points(self):
        cdf = interpolated_cdf(np.array([0.0, 1.0]))
        assert cdf(np.array([0.5]))[0] == pytest.approx(0.75)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            interpolated_cdf(np.array([]))


class TestKsDistance:
    def test_identical_samples_zero(self):
        sample = np.array([1.0, 2.0, 3.0])
        assert ks_distance(sample, sample) == 0.0

    def test_disjoint_samples_one(self):
        assert ks_distance([1.0, 2.0], [10.0, 11.0]) == 1.0

    def test_matches_scipy(self, rng):
        a = rng.normal(0, 1, 200)
        b = rng.normal(0.3, 1, 300)
        ours = ks_distance(a, b)
        scipy_stat = sps.ks_2samp(a, b, method="asymp").statistic
        assert ours == pytest.approx(scipy_stat, abs=1e-12)

    def test_symmetry(self, rng):
        a = rng.normal(0, 1, 50)
        b = rng.normal(1, 2, 80)
        assert ks_distance(a, b) == pytest.approx(ks_distance(b, a))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ks_distance([], [1.0])

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.floats(min_value=-100, max_value=100),
                    min_size=1, max_size=50),
           st.lists(st.floats(min_value=-100, max_value=100),
                    min_size=1, max_size=50))
    def test_bounded_in_unit_interval(self, a, b):
        d = ks_distance(np.array(a), np.array(b))
        assert 0.0 <= d <= 1.0


class TestKsThreshold:
    def test_formula_95(self):
        # c(0.05) = 1.3581...
        expected = np.sqrt(-np.log(0.025) / 2) * np.sqrt(2 / 100)
        assert ks_threshold(100, 100) == pytest.approx(expected)

    def test_smaller_alpha_larger_threshold(self):
        assert ks_threshold(100, 100, 0.01) > ks_threshold(100, 100, 0.05)

    def test_more_samples_smaller_threshold(self):
        assert ks_threshold(1000, 1000) < ks_threshold(100, 100)

    def test_validation(self):
        with pytest.raises(ValueError):
            ks_threshold(0, 10)
        with pytest.raises(ValueError):
            ks_threshold(10, 10, alpha=1.5)

    def test_consistent_with_scipy_pvalue(self, rng):
        """Samples from the same distribution should rarely exceed the
        95% threshold."""
        rejections = 0
        trials = 200
        for _ in range(trials):
            a = rng.exponential(1.0, 80)
            b = rng.exponential(1.0, 80)
            if ks_distance(a, b) > ks_threshold(80, 80):
                rejections += 1
        assert rejections / trials < 0.12


class TestKs2SampInterpolated:
    def test_same_distribution_accepted(self, rng):
        reference = rng.normal(0, 1, 2000)
        sample = rng.normal(0, 1, 100)
        result = ks_2samp_interpolated(sample, reference)
        assert result.statistic <= result.threshold

    def test_shifted_distribution_rejected(self, rng):
        reference = rng.normal(0, 1, 2000)
        sample = rng.normal(2.0, 1, 100)
        result = ks_2samp_interpolated(sample, reference)
        assert result.statistic > result.threshold
        assert result.statistic > 0.5

    def test_statistic_bounded(self, rng):
        result = ks_2samp_interpolated(rng.uniform(0, 1, 50),
                                       rng.uniform(0, 1, 500))
        assert 0.0 <= result.statistic <= 1.0

    def test_result_fields(self, rng):
        result = ks_2samp_interpolated(rng.uniform(0, 1, 50),
                                       rng.uniform(0, 1, 500), alpha=0.01)
        assert result.n == 50
        assert result.m == 500
        assert result.alpha == 0.01

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ks_2samp_interpolated(np.array([]), np.array([1.0]))

    def test_atomic_distribution_floor_artifact(self):
        """Documented caveat: against an atomic reference, the
        interpolated statistic has a floor of ~half the atom mass even
        for a sample drawn from the same distribution."""
        atom = np.full(500, 1.0)
        spread = np.linspace(2.0, 3.0, 500)
        reference = np.concatenate([atom, spread])
        sample = np.concatenate([np.full(50, 1.0),
                                 np.linspace(2.0, 3.0, 50)])
        interp = ks_2samp_interpolated(sample, reference).statistic
        plain = ks_distance(sample, reference)
        assert interp > 0.2      # the artifact
        assert plain < 0.05      # the plain statistic is honest
