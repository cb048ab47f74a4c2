"""Tests for the MSER-based measurement correction."""

import numpy as np
import pytest

from repro.core.correction import (
    mser_corrected_gap,
    mser_corrected_rate,
    mser_truncation_index,
)
from repro.core.dispersion import TrainMeasurement


def measurement_with_gaps(gaps, size=1500):
    n = len(gaps) + 1
    send = np.arange(n) * 1e-3
    recv = np.concatenate([[0.0], np.cumsum(gaps)]) + 0.002
    return TrainMeasurement(send, recv, size)


def transient_measurement(seed=0, n=21, fast=2e-3, slow=4e-3, k=6):
    rng = np.random.default_rng(seed)
    gaps = np.concatenate([
        np.full(k, fast), np.full(n - 1 - k, slow)
    ]) + rng.normal(0, 1e-4, n - 1)
    return measurement_with_gaps(np.abs(gaps))


class TestMserCorrectedGap:
    def test_removes_fast_transient(self):
        result = mser_corrected_gap(transient_measurement(), m=2)
        assert result.truncated_packets >= 4
        assert result.corrected_gap > result.raw_gap

    def test_no_change_for_stationary_train(self):
        rng = np.random.default_rng(1)
        gaps = np.abs(3e-3 + rng.normal(0, 1e-5, 30))
        result = mser_corrected_gap(measurement_with_gaps(gaps), m=2)
        assert result.corrected_gap == pytest.approx(result.raw_gap,
                                                     rel=0.05)

    def test_fields(self):
        m = transient_measurement()
        result = mser_corrected_gap(m, m=2)
        assert result.n == m.n
        assert result.raw_gap == pytest.approx(m.output_gap)


class TestMserTruncationIndex:
    def test_profile_based_cut(self):
        trains = [transient_measurement(seed=s) for s in range(30)]
        cut = mser_truncation_index(trains, m=2)
        assert 4 <= cut <= 10

    def test_no_cut_for_stationary(self):
        rng = np.random.default_rng(2)
        trains = [measurement_with_gaps(np.abs(
            3e-3 + rng.normal(0, 1e-5, 40))) for _ in range(40)]
        # A stationary profile should keep (almost) everything.
        assert mser_truncation_index(trains, m=2) <= 8

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            mser_truncation_index([])


class TestMserCorrectedRate:
    def test_corrected_rate_closer_to_steady(self):
        trains = [transient_measurement(seed=s) for s in range(40)]
        raw_gap = np.mean([t.output_gap for t in trains])
        raw_rate = 1500 * 8 / raw_gap
        corrected = mser_corrected_rate(trains, m=2)
        steady_rate = 1500 * 8 / 4e-3
        assert abs(corrected - steady_rate) < abs(raw_rate - steady_rate)

    def test_per_train_variant_runs(self):
        trains = [transient_measurement(seed=s) for s in range(10)]
        rate = mser_corrected_rate(trains, m=2, per_train=True)
        assert rate > 0

    def test_mixed_sizes_rejected(self):
        with pytest.raises(ValueError):
            mser_corrected_rate([
                transient_measurement(),
                measurement_with_gaps(np.full(20, 3e-3), size=40),
            ])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            mser_corrected_rate([])

