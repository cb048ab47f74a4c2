"""Tests for the single-system train-sequence measurement procedure."""

import numpy as np
import pytest

from repro.core.dispersion import TrainMeasurement
from repro.core.estimators import train_dispersion_rate
from repro.testbed.channel import SimulatedWlanChannel
from repro.traffic.generators import PoissonGenerator
from repro.traffic.probe import ProbeTrain, TrainSequence


@pytest.fixture
def channel():
    return SimulatedWlanChannel(
        [("cross", PoissonGenerator(2.5e6, 1500))], warmup=0.1)


@pytest.fixture
def sequence():
    return TrainSequence(ProbeTrain.at_rate(8, 5e6), m=6,
                         mean_spacing=0.05, guard=0.02)


class TestSendTrainSequence:
    def test_returns_m_results(self, channel, sequence):
        raws = channel.send_train_sequence(sequence, seed=1)
        assert len(raws) == sequence.m
        assert all(len(r.send_times) == sequence.train.n for r in raws)

    def test_trains_are_time_ordered(self, channel, sequence):
        raws = channel.send_train_sequence(sequence, seed=2)
        for prev, cur in zip(raws, raws[1:]):
            assert cur.send_times[0] > prev.send_times[-1]

    def test_intra_train_gaps_match(self, channel, sequence):
        raws = channel.send_train_sequence(sequence, seed=3)
        for raw in raws:
            assert np.allclose(np.diff(raw.send_times),
                               sequence.train.gap)

    def test_reproducible(self, channel, sequence):
        a = channel.send_train_sequence(sequence, seed=4)
        b = channel.send_train_sequence(sequence, seed=4)
        assert np.array_equal(a[-1].recv_times, b[-1].recv_times)

    def test_each_train_shows_transient(self, channel):
        """Poisson spacing lets the system forget: every train's first
        packet is accelerated again."""
        sequence = TrainSequence(ProbeTrain.at_rate(30, 6e6), m=5,
                                 mean_spacing=0.2, guard=0.1)
        first = []
        later = []
        for seed in range(25):
            for raw in channel.send_train_sequence(sequence, seed=seed):
                first.append(raw.access_delays[0])
                later.append(raw.access_delays[-5:].mean())
        assert np.mean(first) < 0.9 * np.mean(later)

    def test_consistent_with_independent_repetitions(self, channel):
        """The limiting dispersion matches the independent-reps path."""
        train = ProbeTrain.at_rate(20, 8e6)
        sequence = TrainSequence(train, m=12, mean_spacing=0.15,
                                 guard=0.05)
        seq_raws = []
        for seed in range(8):
            seq_raws.extend(channel.send_train_sequence(sequence,
                                                        seed=seed))
        ind_raws = channel.send_trains(train, len(seq_raws), seed=99)

        def rate(raws):
            return train_dispersion_rate(TrainMeasurement(
                np.vstack([r.send_times for r in raws]),
                np.vstack([r.recv_times for r in raws]),
                raws[0].size_bytes))

        assert rate(seq_raws) == pytest.approx(rate(ind_raws), rel=0.1)
