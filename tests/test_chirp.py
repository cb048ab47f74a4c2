"""Tests for the pathChirp-style chirp trains and analysis."""

import numpy as np
import pytest

from repro.core.chirp import (
    ChirpTrain,
    analyze_chirp,
    chirp_estimate,
)
from repro.core.dispersion import TrainMeasurement


class TestChirpTrain:
    def test_gaps_geometric(self):
        chirp = ChirpTrain(n=5, initial_gap=8e-3, spread_factor=2.0)
        assert np.allclose(chirp.gaps, [8e-3, 4e-3, 2e-3, 1e-3])

    def test_instantaneous_rates_increase(self):
        chirp = ChirpTrain(n=8, initial_gap=6e-3)
        assert np.all(np.diff(chirp.instantaneous_rates) > 0)

    def test_duration_is_gap_sum(self):
        chirp = ChirpTrain(n=5, initial_gap=8e-3, spread_factor=2.0)
        assert chirp.duration == pytest.approx(15e-3)

    def test_arrival_times(self):
        chirp = ChirpTrain(n=4, initial_gap=4e-3, spread_factor=2.0)
        assert np.allclose(chirp.arrival_times(1.0),
                           [1.0, 1.004, 1.006, 1.007])

    def test_packets_flow_and_seq(self):
        packets = ChirpTrain(n=4, initial_gap=1e-3).packets()
        assert [p.seq for _, p in packets] == [0, 1, 2, 3]
        assert all(p.flow == "probe" for _, p in packets)

    def test_covering_rates(self):
        chirp = ChirpTrain.covering_rates(1e6, 10e6, spread_factor=1.5)
        rates = chirp.instantaneous_rates
        assert rates[0] == pytest.approx(1e6)
        assert rates[-1] >= 10e6

    def test_validation(self):
        with pytest.raises(ValueError):
            ChirpTrain(n=2, initial_gap=1e-3)
        with pytest.raises(ValueError):
            ChirpTrain(n=5, initial_gap=0.0)
        with pytest.raises(ValueError):
            ChirpTrain(n=5, initial_gap=1e-3, spread_factor=1.0)
        with pytest.raises(ValueError):
            ChirpTrain.covering_rates(5e6, 1e6)


def measurement_for(chirp, delays, start=0.0):
    send = chirp.arrival_times(start)
    return TrainMeasurement([send], [send + np.asarray(delays)],
                            chirp.size_bytes)


def analyze(measurement, chirp, **kwargs):
    """:func:`analyze_chirp` on a one-chirp measurement's delays."""
    return analyze_chirp(measurement.one_way_delays[0], chirp, **kwargs)


class TestAnalyzeChirp:
    def test_clean_turning_point(self):
        chirp = ChirpTrain(n=10, initial_gap=8e-3, spread_factor=1.5)
        # Delays flat for the first 5 packets, then ramping: the
        # excursion starts at gap index ~4.
        delays = np.concatenate([np.full(5, 1e-3),
                                 1e-3 + np.linspace(1e-3, 8e-3, 5)])
        analysis = analyze(measurement_for(chirp, delays), chirp)
        assert analysis.turning_index < len(analysis.rates)
        assert 3 <= analysis.turning_index <= 5
        assert analysis.turning_rate_bps == pytest.approx(
            chirp.instantaneous_rates[analysis.turning_index])

    def test_no_excursion_reports_max_rate(self):
        chirp = ChirpTrain(n=8, initial_gap=4e-3)
        delays = np.full(8, 1.2e-3)
        analysis = analyze(measurement_for(chirp, delays), chirp)
        assert analysis.turning_index >= len(analysis.rates)
        assert analysis.turning_rate_bps == pytest.approx(
            chirp.instantaneous_rates[-1])

    def test_recovered_excursion_ignored(self):
        chirp = ChirpTrain(n=10, initial_gap=8e-3, spread_factor=1.5)
        # An early delay bump that decays back to baseline (a burst of
        # cross-traffic that cleared): no turning point.  The decay is
        # gradual so receive times stay monotone.
        delays = np.array([1.0, 1.0, 5.0, 3.0, 1.0, 1.0, 1.0, 1.0,
                           1.0, 1.0]) * 1e-3
        analysis = analyze(measurement_for(chirp, delays), chirp)
        assert analysis.turning_index >= len(analysis.rates)

    def test_size_mismatch_rejected(self):
        chirp = ChirpTrain(n=6, initial_gap=2e-3)
        other = ChirpTrain(n=5, initial_gap=2e-3)
        with pytest.raises(ValueError):
            analyze(measurement_for(other, np.full(5, 1e-3)), chirp)

    def test_departure_fraction_validation(self):
        chirp = ChirpTrain(n=5, initial_gap=2e-3)
        m = measurement_for(chirp, np.full(5, 1e-3))
        with pytest.raises(ValueError):
            analyze(m, chirp, departure_fraction=0.0)
        with pytest.raises(ValueError):
            analyze(m, chirp, departure_fraction=1.0)


class TestChirpOnWlan:
    def test_chirp_targets_achievable_throughput(self):
        from repro.analytic.bianchi import BianchiModel
        from repro.testbed import (Prober, ProbeSessionConfig,
                                   SimulatedWlanChannel)
        from repro.traffic import PoissonGenerator
        channel = SimulatedWlanChannel(
            [("cross", PoissonGenerator(4e6, 1500))], warmup=0.15)
        prober = Prober(channel, ProbeSessionConfig(repetitions=30,
                                                    ideal_clocks=True))
        chirp = ChirpTrain.covering_rates(0.8e6, 12e6, spread_factor=1.3)
        measurement = prober.measure_chirps(chirp, seed=5)
        estimate = chirp_estimate(measurement, chirp)
        bianchi = BianchiModel()
        capacity = bianchi.capacity()
        available = capacity - 4e6
        # The chirp's turning point is near B (loosely: chirps are
        # noisy), clearly above A and below C.
        assert estimate > 1.2 * available
        assert estimate < capacity

    def test_chirp_estimate_empty_rejected(self):
        chirp = ChirpTrain(n=5, initial_gap=1e-3)
        with pytest.raises(ValueError):
            chirp_estimate(TrainMeasurement(np.empty((0, 5)),
                                            np.empty((0, 5)), 1500), chirp)
