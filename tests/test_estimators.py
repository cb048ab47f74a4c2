"""Tests for the dispersion-based estimators."""

import numpy as np
import pytest

from repro.core.dispersion import TrainMeasurement
from repro.core.estimators import (
    RateResponseCurve,
    achievable_throughput,
    packet_pair_capacity,
    rate_response_from_measurements,
    train_dispersion_rate,
)


def synthetic_measurement(gaps_out, gap_in=1e-3, size=1500):
    """Build a measurement with prescribed output gaps."""
    n = len(gaps_out) + 1
    send = np.arange(n) * gap_in
    recv = np.concatenate([[0.002], 0.002 + np.cumsum(gaps_out)])
    return TrainMeasurement(send, recv, size)


class TestPacketPairCapacity:
    def test_deterministic_pair(self):
        m = synthetic_measurement([1e-3])
        assert packet_pair_capacity([m]) == pytest.approx(12e6)

    def test_average_over_pairs(self):
        pairs = [synthetic_measurement([1e-3]),
                 synthetic_measurement([3e-3])]
        assert packet_pair_capacity(pairs) == pytest.approx(1500 * 8 / 2e-3)

    def test_uses_only_first_two_packets(self):
        train = synthetic_measurement([1e-3, 50e-3, 50e-3])
        assert packet_pair_capacity([train]) == pytest.approx(12e6)

    def test_fifo_pair_measures_capacity(self):
        """On an empty wired link, pair dispersion == service time."""
        from repro.testbed.channel import SimulatedFifoChannel
        from repro.traffic.probe import PacketPair
        channel = SimulatedFifoChannel(10e6)
        raws = channel.send_trains(PacketPair(), 10, seed=1)
        pairs = [TrainMeasurement(r.send_times, r.recv_times, r.size_bytes)
                 for r in raws]
        assert packet_pair_capacity(pairs) == pytest.approx(10e6, rel=1e-6)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            packet_pair_capacity([])

    def test_mixed_sizes_rejected(self):
        with pytest.raises(ValueError):
            packet_pair_capacity([synthetic_measurement([1e-3], size=1500),
                                  synthetic_measurement([1e-3], size=40)])


class TestTrainDispersionRate:
    def test_single_train(self):
        m = synthetic_measurement([1e-3, 1e-3, 2e-3])
        expected = 1500 * 8 / np.mean([1e-3, 1e-3, 2e-3])
        assert train_dispersion_rate([m]) == pytest.approx(expected)

    def test_averages_train_gaps(self):
        trains = [synthetic_measurement([1e-3, 1e-3]),
                  synthetic_measurement([3e-3, 3e-3])]
        assert train_dispersion_rate(trains) == pytest.approx(
            1500 * 8 / 2e-3)


class TestRateResponseCurve:
    def make_curve(self):
        return RateResponseCurve(
            input_rates=np.array([1e6, 2e6, 3e6, 4e6, 6e6]),
            output_rates=np.array([1e6, 2e6, 2.95e6, 3.2e6, 3.3e6]),
            size_bytes=1500, trains_per_rate=10)

    def test_achievable_throughput(self):
        assert self.make_curve().achievable_throughput() == 3e6

    def test_knee_rate(self):
        assert self.make_curve().knee_rate() == 4e6

    def test_knee_is_last_rate_when_no_deviation(self):
        curve = RateResponseCurve(np.array([1e6, 2e6]),
                                  np.array([1e6, 2e6]), 1500, 5)
        assert curve.knee_rate() == 2e6

    def test_misaligned_arrays_rejected(self):
        with pytest.raises(ValueError):
            RateResponseCurve(np.array([1.0]), np.array([1.0, 2.0]), 1500, 1)


class TestRateResponseAssembly:
    def test_grouping(self):
        by_rate = {
            2e6: [synthetic_measurement([6e-3, 6e-3], gap_in=6e-3)],
            6e6: [synthetic_measurement([3e-3, 3e-3], gap_in=2e-3)],
        }
        curve = rate_response_from_measurements(by_rate)
        assert list(curve.input_rates) == [2e6, 6e6]
        assert curve.output_rates[0] == pytest.approx(2e6)
        assert curve.output_rates[1] == pytest.approx(4e6)

    def test_achievable_from_grouped(self):
        by_rate = {
            2e6: [synthetic_measurement([6e-3], gap_in=6e-3)],
            6e6: [synthetic_measurement([3e-3], gap_in=2e-3)],
        }
        assert achievable_throughput(by_rate) == 2e6

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            rate_response_from_measurements({})

    def test_mixed_sizes_rejected(self):
        by_rate = {
            1e6: [synthetic_measurement([1e-3], size=1500)],
            2e6: [synthetic_measurement([1e-3], size=40)],
        }
        with pytest.raises(ValueError):
            rate_response_from_measurements(by_rate)
