"""Tests for the clock error models."""

import numpy as np
import pytest

from repro.testbed.clocks import ClockModel, ntp_synced_pair


class TestClockModel:
    def test_perfect_clock_identity(self, rng):
        clock = ClockModel()
        times = np.array([0.0, 1.0, 2.0])
        assert np.array_equal(clock.timestamps(times, rng), times)

    def test_offset(self, rng):
        clock = ClockModel(offset=0.5)
        assert clock.timestamps(np.array([1.0]), rng)[0] == pytest.approx(1.5)

    def test_drift(self, rng):
        clock = ClockModel(drift_ppm=100.0)
        assert clock.timestamps(np.array([1000.0]), rng)[0] == pytest.approx(
            1000.1)

    def test_jitter_statistics(self, rng):
        clock = ClockModel(jitter_std=10e-6)
        times = np.linspace(0, 100, 5000)  # well-separated events
        stamped = clock.timestamps(times, rng)
        errors = stamped - times
        assert np.std(errors) == pytest.approx(10e-6, rel=0.15)

    def test_jitter_output_monotone(self, rng):
        clock = ClockModel(jitter_std=1e-3)
        times = np.linspace(0, 0.01, 100)  # closer than the jitter
        stamped = clock.timestamps(times, rng)
        assert np.all(np.diff(stamped) >= 0)

    def test_negative_jitter_rejected(self):
        with pytest.raises(ValueError):
            ClockModel(jitter_std=-1.0)

    def test_deterministic_without_jitter(self):
        clock = ClockModel(offset=0.1, drift_ppm=5.0)
        a = clock.timestamps(np.array([1.0]), np.random.default_rng(1))
        b = clock.timestamps(np.array([1.0]), np.random.default_rng(2))
        assert a == b


class TestNtpSyncedPair:
    def test_sender_is_reference(self, rng):
        sender, _ = ntp_synced_pair(rng)
        assert sender.offset == 0.0
        assert sender.drift_ppm == 0.0

    def test_receiver_offset_scale(self):
        offsets = []
        for seed in range(200):
            _, receiver = ntp_synced_pair(np.random.default_rng(seed))
            offsets.append(receiver.offset)
        assert np.std(offsets) == pytest.approx(10e-6, rel=0.25)

    def test_custom_error_budget(self, rng):
        _, receiver = ntp_synced_pair(rng, sync_error_std=1e-3,
                                      jitter_std=0.0)
        assert receiver.jitter_std == 0.0

    def test_negative_budget_rejected(self, rng):
        with pytest.raises(ValueError):
            ntp_synced_pair(rng, sync_error_std=-1.0)

    def test_dispersion_immune_to_offset(self, rng):
        """The core property the paper relies on: output gaps are
        unaffected by the (constant) clock offset."""
        _, receiver = ntp_synced_pair(rng, jitter_std=0.0, drift_ppm=0.0)
        departures = np.array([1.0, 1.002, 1.004])
        stamped = receiver.timestamps(departures, rng)
        assert np.allclose(np.diff(stamped), np.diff(departures))
