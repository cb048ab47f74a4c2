"""Tests for the dispersion data model."""

import numpy as np
import pytest

from repro.core.dispersion import (
    TrainMeasurement,
    decompose_output_gap,
    output_gaps_batch,
)


def make_measurement(send=None, recv=None, size=1500):
    if send is None:
        send = np.array([[0.0, 0.01, 0.02]])
    if recv is None:
        recv = np.array([[0.005, 0.016, 0.027]])
    return TrainMeasurement(send_times=send, recv_times=recv,
                            size_bytes=size)


class TestOutputGap:
    """Equation (16) over one-train batches."""

    def test_eq16(self):
        assert output_gaps_batch([[0.0, 0.5, 1.2]]) == pytest.approx([0.6])

    def test_two_packets(self):
        assert output_gaps_batch([[1.0, 1.25]]) == pytest.approx([0.25])

    def test_needs_two(self):
        with pytest.raises(ValueError):
            output_gaps_batch([[1.0]])

    def test_rejects_decreasing(self):
        with pytest.raises(ValueError):
            output_gaps_batch([[1.0, 0.5]])


class TestTrainMeasurement:
    def test_n(self):
        assert make_measurement().n == 3

    def test_repetitions(self):
        m = make_measurement(send=np.zeros((4, 3)), recv=np.ones((4, 3)))
        assert m.repetitions == 4

    def test_output_gap(self):
        assert make_measurement().output_gaps == pytest.approx([0.011])

    def test_output_gaps_per_train(self):
        m = make_measurement(send=np.zeros((2, 3)),
                             recv=np.array([[0.0, 1.0, 2.0],
                                            [0.0, 3.0, 5.0]]))
        assert np.array_equal(m.output_gaps, [1.0, 2.5])

    def test_per_packet_gaps(self):
        m = make_measurement()
        assert np.allclose(m.dispersions, [[0.011, 0.011]])

    def test_one_way_delays(self):
        m = make_measurement()
        assert np.allclose(m.one_way_delays, [[0.005, 0.006, 0.007]])

    def test_clock_offset_cancels_in_gaps(self):
        base = make_measurement()
        offset = TrainMeasurement(base.send_times,
                                  base.recv_times + 123.456, 1500)
        assert offset.output_gaps == pytest.approx(base.output_gaps)

    def test_stores_c_order(self):
        send = np.asfortranarray(np.arange(12.0).reshape(3, 4))
        m = TrainMeasurement(send, send + 1.0, 1500)
        assert m.send_times.flags.c_contiguous
        assert m.recv_times.flags.c_contiguous
        assert np.array_equal(m.send_times, send)

    def test_validation_shapes(self):
        with pytest.raises(ValueError):
            TrainMeasurement(np.array([[0.0, 1.0]]), np.array([[0.0]]), 1500)
        with pytest.raises(ValueError):
            TrainMeasurement(np.zeros((2, 3)), np.zeros((3, 3)), 1500)

    def test_validation_one_dimensional(self):
        with pytest.raises(ValueError):
            TrainMeasurement(np.array([0.0, 1.0]), np.array([0.5, 1.5]),
                             1500)

    def test_validation_min_length(self):
        with pytest.raises(ValueError):
            TrainMeasurement(np.array([[0.0]]), np.array([[0.0]]), 1500)

    def test_validation_no_trains(self):
        with pytest.raises(ValueError):
            TrainMeasurement(np.empty((0, 3)), np.empty((0, 3)), 1500)

    def test_validation_size(self):
        with pytest.raises(ValueError):
            make_measurement(size=0)
        with pytest.raises(ValueError):
            make_measurement(size=-1500)

    def test_validation_ordering(self):
        with pytest.raises(ValueError):
            TrainMeasurement(np.array([[0.0, -1.0]]),
                             np.array([[0.0, 1.0]]), 1500)
        with pytest.raises(ValueError):
            TrainMeasurement(np.array([[0.0, 1.0]]),
                             np.array([[1.0, 0.0]]), 1500)

    def test_validation_ordering_checks_every_row(self):
        send = np.array([[0.0, 1.0], [0.0, 1.0], [0.0, 1.0]])
        recv = np.array([[0.5, 1.5], [0.5, 1.5], [1.5, 0.5]])
        with pytest.raises(ValueError):
            TrainMeasurement(send, recv, 1500)

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
