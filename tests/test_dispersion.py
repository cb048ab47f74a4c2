"""Tests for the dispersion data model."""

import numpy as np
import pytest

from repro.core.dispersion import (
    TrainMeasurement,
    decompose_output_gap,
    output_gap,
)


def make_measurement(send=None, recv=None, size=1500):
    if send is None:
        send = np.array([0.0, 0.01, 0.02])
    if recv is None:
        recv = np.array([0.005, 0.016, 0.027])
    return TrainMeasurement(send_times=send, recv_times=recv,
                            size_bytes=size)


class TestOutputGap:
    def test_eq16(self):
        assert output_gap([0.0, 0.5, 1.2]) == pytest.approx(0.6)

    def test_two_packets(self):
        assert output_gap([1.0, 1.25]) == pytest.approx(0.25)

    def test_needs_two(self):
        with pytest.raises(ValueError):
            output_gap([1.0])

    def test_rejects_decreasing(self):
        with pytest.raises(ValueError):
            output_gap([1.0, 0.5])


class TestTrainMeasurement:
    def test_n(self):
        assert make_measurement().n == 3

    def test_output_gap(self):
        assert make_measurement().output_gap == pytest.approx(0.011)

    def test_per_packet_gaps(self):
        m = make_measurement()
        assert np.allclose(m.output_gaps, [0.011, 0.011])

    def test_one_way_delays(self):
        m = make_measurement()
        assert np.allclose(m.one_way_delays, [0.005, 0.006, 0.007])

    def test_clock_offset_cancels_in_gaps(self):
        base = make_measurement()
        offset = TrainMeasurement(base.send_times,
                                  base.recv_times + 123.456, 1500)
        assert offset.output_gap == pytest.approx(base.output_gap)

    def test_validation_shapes(self):
        with pytest.raises(ValueError):
            TrainMeasurement(np.array([0.0, 1.0]), np.array([0.0]), 1500)

    def test_validation_min_length(self):
        with pytest.raises(ValueError):
            TrainMeasurement(np.array([0.0]), np.array([0.0]), 1500)

    def test_validation_size(self):
        with pytest.raises(ValueError):
            make_measurement(size=0)

    def test_validation_ordering(self):
        with pytest.raises(ValueError):
            TrainMeasurement(np.array([0.0, -1.0]),
                             np.array([0.0, 1.0]), 1500)
        with pytest.raises(ValueError):
            TrainMeasurement(np.array([0.0, 1.0]),
                             np.array([1.0, 0.0]), 1500)

    def test_frozen(self):
        m = make_measurement()
        with pytest.raises(AttributeError):
            m.size_bytes = 40


class TestDecomposeOutputGap:
    def test_eq18_reconstruction(self):
        mu = np.array([1e-3, 1.5e-3, 2e-3])
        value = decompose_output_gap(
            input_gap=2e-3, access_delays=mu, residual_last=0.5e-3,
            workload_first=0.1e-3, workload_last=0.3e-3)
        expected = 2e-3 + 0.5e-3 / 2 + 0.2e-3 / 2 + 1e-3 / 2
        assert value == pytest.approx(expected)

    def test_steady_state_reduces_to_input_gap(self):
        mu = np.full(10, 2e-3)
        value = decompose_output_gap(5e-3, mu, 0.0, 0.0, 0.0)
        assert value == pytest.approx(5e-3)

    def test_validation(self):
        with pytest.raises(ValueError):
            decompose_output_gap(1e-3, np.array([1e-3]), 0, 0, 0)
        with pytest.raises(ValueError):
            decompose_output_gap(-1.0, np.array([1e-3, 1e-3]), 0, 0, 0)
