"""Tests for the probing tool."""

import numpy as np
import pytest

from repro.testbed.channel import SimulatedFifoChannel, SimulatedWlanChannel
from repro.testbed.prober import Prober, ProbeSessionConfig
from repro.traffic.generators import PoissonGenerator


@pytest.fixture
def wlan_prober():
    channel = SimulatedWlanChannel(
        [("cross", PoissonGenerator(2e6, 1500))], warmup=0.1)
    return Prober(channel, ProbeSessionConfig(repetitions=10,
                                              ideal_clocks=True))


@pytest.fixture
def fifo_prober():
    return Prober(SimulatedFifoChannel(10e6),
                  ProbeSessionConfig(repetitions=10, ideal_clocks=True))


class TestMeasurement:
    def test_measure_train_count(self, wlan_prober):
        measurements = wlan_prober.measure_train(5, 2e6, repetitions=4)
        assert len(measurements) == 4
        assert all(m.n == 5 for m in measurements)

    def test_measure_pairs(self, wlan_prober):
        pairs = wlan_prober.measure_pairs(repetitions=3)
        assert all(m.n == 2 for m in pairs)

    def test_default_repetitions_from_config(self, wlan_prober):
        assert len(wlan_prober.measure_pairs()) == 10

    def test_ideal_clocks_expose_true_gaps(self, fifo_prober):
        m = fifo_prober.measure_train(5, 2e6, repetitions=1)[0]
        assert m.output_gap == pytest.approx(1500 * 8 / 2e6, rel=1e-9)

    def test_noisy_clocks_perturb_timestamps(self):
        channel = SimulatedFifoChannel(10e6, start_jitter=0.0)
        ideal = Prober(channel, ProbeSessionConfig(
            repetitions=1, ideal_clocks=True))
        noisy = Prober(channel, ProbeSessionConfig(
            repetitions=1, ideal_clocks=False))
        m_ideal = ideal.measure_train(5, 2e6)[0]
        m_noisy = noisy.measure_train(5, 2e6)[0]
        assert not np.allclose(m_ideal.recv_times, m_noisy.recv_times)

    def test_clock_noise_does_not_bias_long_trains(self):
        """~10 us timestamp errors are negligible against ms gaps."""
        channel = SimulatedFifoChannel(10e6, start_jitter=0.0)
        noisy = Prober(channel, ProbeSessionConfig(
            repetitions=5, ideal_clocks=False))
        rate = noisy.dispersion_rate(50, 2e6)
        assert rate == pytest.approx(2e6, rel=0.01)


class TestEstimates:
    def test_packet_pair_on_fifo_is_capacity(self, fifo_prober):
        assert fifo_prober.packet_pair_estimate() == pytest.approx(
            10e6, rel=0.01)

    def test_dispersion_rate_at_low_rate_is_input(self, wlan_prober):
        rate = wlan_prober.dispersion_rate(20, 1e6)
        assert rate == pytest.approx(1e6, rel=0.1)

    def test_rate_scan_returns_curve(self, wlan_prober):
        curve = wlan_prober.rate_scan([1e6, 2e6, 6e6], n=10,
                                      repetitions=5)
        assert len(curve.input_rates) == 3
        assert curve.trains_per_rate == 5

    def test_achievable_throughput_plausible(self, wlan_prober):
        b = wlan_prober.achievable_throughput(
            [1e6, 2e6, 3e6, 4e6, 5e6], n=40, repetitions=6,
            tolerance=0.1)
        # Cross at 2 Mb/s: B between the fair share and C - cross.
        assert 2.5e6 < b < 5.5e6

    def test_mser_corrected_rate_runs(self, wlan_prober):
        rate = wlan_prober.mser_corrected_rate(20, 6e6, repetitions=6)
        assert rate > 0


class TestSessionConfig:
    def test_defaults(self):
        config = ProbeSessionConfig()
        assert config.size_bytes == 1500
        assert config.repetitions == 40

    def test_prober_uses_size(self, fifo_prober):
        fifo_prober.config.size_bytes = 576
        m = fifo_prober.measure_train(3, 1e6, repetitions=1)[0]
        assert m.size_bytes == 576


class TestSequenceAndChirpSupport:
    def test_chirps_through_a_path(self):
        from repro.core.chirp import ChirpTrain, chirp_estimate
        from repro.path import NetworkPath, SimulatedPathChannel, WiredHop
        path = NetworkPath([WiredHop(10e6)])
        prober = Prober(SimulatedPathChannel(path),
                        ProbeSessionConfig(repetitions=5,
                                           ideal_clocks=True))
        chirp = ChirpTrain.covering_rates(2e6, 20e6, spread_factor=1.4)
        measurements = prober.measure_chirps(chirp, seed=3)
        estimate = chirp_estimate(measurements, chirp)
        # An empty 10 Mb/s link queues once the chirp sweeps past C.
        assert 6e6 < estimate < 16e6
