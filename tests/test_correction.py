"""Tests for the MSER-based measurement correction."""

import numpy as np
import pytest

from repro.core.correction import mser_corrected_rate, mser_truncation_index
from repro.core.dispersion import TrainMeasurement


def measurement_with_gaps(*gaps, size=1500):
    """One train per sequence of per-packet gaps."""
    n = len(gaps[0]) + 1
    send = np.tile(np.arange(n) * 1e-3, (len(gaps), 1))
    recv = np.array([np.concatenate([[0.0], np.cumsum(row)])
                     for row in gaps]) + 0.002
    return TrainMeasurement(send, recv, size)


def transient_gaps(seed=0, n=21, fast=2e-3, slow=4e-3, k=6):
    rng = np.random.default_rng(seed)
    gaps = np.concatenate([
        np.full(k, fast), np.full(n - 1 - k, slow)
    ]) + rng.normal(0, 1e-4, n - 1)
    return np.abs(gaps)


def transient_measurement(seeds=(0,)):
    return measurement_with_gaps(*[transient_gaps(seed=s) for s in seeds])


def empty_measurement():
    return TrainMeasurement(np.empty((0, 21)), np.empty((0, 21)), 1500)


class TestMserCorrectedGap:
    """MSER-m on a single train: its profile is its own gaps."""

    @staticmethod
    def corrected_gap(m):
        return m.size_bytes * 8 / mser_corrected_rate(m, m=2)

    def test_removes_fast_transient(self):
        m = transient_measurement()
        assert mser_truncation_index(m, m=2) >= 4
        assert self.corrected_gap(m) > m.output_gaps[0]

    def test_no_change_for_stationary_train(self):
        rng = np.random.default_rng(1)
        m = measurement_with_gaps(np.abs(3e-3 + rng.normal(0, 1e-5, 30)))
        assert self.corrected_gap(m) == pytest.approx(m.output_gaps[0],
                                                      rel=0.05)


class TestMserTruncationIndex:
    def test_profile_based_cut(self):
        trains = transient_measurement(seeds=range(30))
        cut = mser_truncation_index(trains, m=2)
        assert 4 <= cut <= 10

    def test_no_cut_for_stationary(self):
        rng = np.random.default_rng(2)
        trains = measurement_with_gaps(*[np.abs(
            3e-3 + rng.normal(0, 1e-5, 40)) for _ in range(40)])
        # A stationary profile should keep (almost) everything.
        assert mser_truncation_index(trains, m=2) <= 8

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            mser_truncation_index(empty_measurement())


class TestMserCorrectedRate:
    def test_corrected_rate_closer_to_steady(self):
        trains = transient_measurement(seeds=range(40))
        raw_gap = np.mean(trains.output_gaps)
        raw_rate = 1500 * 8 / raw_gap
        corrected = mser_corrected_rate(trains, m=2)
        steady_rate = 1500 * 8 / 4e-3
        assert abs(corrected - steady_rate) < abs(raw_rate - steady_rate)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            mser_corrected_rate(empty_measurement())

