"""Tests for warm-up truncation heuristics (MSER-m and friends)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.stats.warmup import (
    batch_means,
    fixed_truncation,
    mser,
    mser_m,
)


class TestBatchMeans:
    def test_exact_batches(self):
        out = batch_means(np.array([1.0, 3.0, 5.0, 7.0]), 2)
        assert np.allclose(out, [2.0, 6.0])

    def test_tail_dropped(self):
        out = batch_means(np.array([1.0, 3.0, 5.0]), 2)
        assert np.allclose(out, [2.0])

    def test_batch_one_identity(self):
        sample = np.array([1.0, 2.0, 3.0])
        assert np.allclose(batch_means(sample, 1), sample)

    def test_too_small_sample(self):
        assert len(batch_means(np.array([1.0]), 2)) == 0

    def test_bad_m_rejected(self):
        with pytest.raises(ValueError):
            batch_means(np.array([1.0]), 0)


class TestMser:
    def test_detects_obvious_transient(self, rng):
        transient = np.full(20, 10.0) + rng.normal(0, 0.1, 20)
        steady = np.full(200, 1.0) + rng.normal(0, 0.1, 200)
        sample = np.concatenate([transient, steady])
        result = mser(sample)
        assert 15 <= result.truncate_before <= 30

    def test_stationary_sample_keeps_most(self, rng):
        sample = rng.normal(0, 1, 300)
        result = mser(sample)
        assert result.truncate_before < 100

    def test_truncated_matches_index(self, rng):
        sample = rng.normal(0, 1, 50)
        result = mser(sample)
        assert np.array_equal(result.truncated,
                              sample[result.truncate_before:])

    def test_max_cut_fraction_respected(self, rng):
        sample = rng.normal(0, 1, 100)
        result = mser(sample, max_cut_fraction=0.25)
        assert result.truncate_before < 25

    def test_needs_two_observations(self):
        with pytest.raises(ValueError):
            mser(np.array([1.0]))

    def test_bad_fraction_rejected(self):
        with pytest.raises(ValueError):
            mser(np.array([1.0, 2.0]), max_cut_fraction=0.0)

    def test_constant_sample_zero_cut(self):
        result = mser(np.full(50, 3.0))
        assert result.truncate_before == 0


class TestMserM:
    def test_cut_in_original_units(self, rng):
        transient = np.full(20, 10.0)
        steady = np.full(180, 1.0) + rng.normal(0, 0.05, 180)
        sample = np.concatenate([transient, steady])
        result = mser_m(sample, m=2)
        assert result.truncate_before % 2 == 0
        assert 14 <= result.truncate_before <= 30

    def test_m1_equals_plain_mser(self, rng):
        sample = rng.normal(0, 1, 80)
        assert mser_m(sample, m=1).truncate_before == \
            mser(sample).truncate_before

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            mser_m(np.array([1.0, 2.0, 3.0]), m=2)

    def test_bad_m_rejected(self):
        with pytest.raises(ValueError):
            mser_m(np.arange(10.0), m=0)

    def test_truncated_values(self, rng):
        sample = rng.normal(0, 1, 40)
        result = mser_m(sample, m=2)
        assert np.array_equal(result.truncated,
                              sample[result.truncate_before:])


class TestFixedTruncation:
    def test_basic(self):
        result = fixed_truncation(np.arange(10.0), 3)
        assert result.truncate_before == 3
        assert np.array_equal(result.truncated, np.arange(3.0, 10.0))

    def test_zero_cut(self):
        result = fixed_truncation(np.arange(5.0), 0)
        assert len(result.truncated) == 5

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            fixed_truncation(np.arange(5.0), 5)
        with pytest.raises(ValueError):
            fixed_truncation(np.arange(5.0), -1)


class TestMserProperties:
    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.floats(min_value=-1e3, max_value=1e3),
                    min_size=2, max_size=200))
    def test_truncation_always_valid(self, values):
        sample = np.array(values)
        result = mser(sample)
        assert 0 <= result.truncate_before < len(sample)
        assert len(result.truncated) >= 1

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=1, max_value=30),
           st.integers(min_value=40, max_value=200),
           st.integers(min_value=0, max_value=2**31))
    def test_bigger_transient_bigger_cut(self, transient_len, steady_len,
                                         seed):
        rng = np.random.default_rng(seed)
        sample = np.concatenate([
            np.full(transient_len, 50.0),
            rng.normal(0, 1, steady_len),
        ])
        result = mser(sample)
        # The cut lands at or after the end of the flat transient
        # (noise may push it slightly further).
        assert result.truncate_before >= transient_len - 1


class TestMserVectorizedRegression:
    """The vectorized MSER scan is pinned to the original loop."""

    @staticmethod
    def _loop_reference(sample, max_cut_fraction=0.75):
        """The pre-vectorization per-cutoff loop, verbatim."""
        sample = np.asarray(sample, dtype=float)
        n = len(sample)
        max_cut = max(1, int(np.floor(n * max_cut_fraction)))
        suffix_sum = np.cumsum(sample[::-1])[::-1]
        suffix_sq = np.cumsum((sample ** 2)[::-1])[::-1]
        scores = np.full(n, np.inf)
        for d in range(0, max_cut):
            kept = n - d
            if kept < 2:
                break
            mean = suffix_sum[d] / kept
            var = suffix_sq[d] / kept - mean ** 2
            scores[d] = max(var, 0.0) / kept
        best = int(np.argmin(scores[:max_cut]))
        return best, scores

    def test_matches_loop_on_random_samples(self):
        rng = np.random.default_rng(0)
        for trial in range(30):
            n = int(rng.integers(2, 200))
            sample = rng.exponential(1.0, n)
            if trial % 3 == 0:  # transient-shaped prefix
                cut = int(rng.integers(0, n))
                sample[:cut] += rng.uniform(1.0, 5.0)
            result = mser(sample)
            best, scores = self._loop_reference(sample)
            assert result.truncate_before == best
            # Scalar ``x ** 2`` and the vectorized power can differ in
            # the last ulp; the scan itself must agree to 1e-12.
            finite = np.isfinite(scores)
            assert np.array_equal(finite, np.isfinite(result.scores))
            assert np.allclose(result.scores[finite], scores[finite],
                               rtol=1e-12, atol=0.0)

    def test_matches_loop_on_tiny_and_cut_fractions(self):
        rng = np.random.default_rng(1)
        for fraction in (0.1, 0.5, 1.0):
            for n in (2, 3, 5, 17):
                sample = rng.normal(0, 1, n)
                result = mser(sample, max_cut_fraction=fraction)
                best, scores = self._loop_reference(sample, fraction)
                assert result.truncate_before == best
                finite = np.isfinite(scores)
                assert np.array_equal(finite, np.isfinite(result.scores))
                assert np.allclose(result.scores[finite], scores[finite],
                                   rtol=1e-12, atol=0.0)

    def test_constant_sample_truncates_nothing(self):
        result = mser(np.ones(50))
        assert result.truncate_before == 0
