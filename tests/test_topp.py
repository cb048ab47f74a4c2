"""Tests for the TOPP regression estimator."""

import numpy as np
import pytest

from repro.analytic.rate_response import (
    complete_rate_response,
    fifo_rate_response,
)
from repro.core.estimators import RateResponseCurve
from repro.core.topp import topp_estimate, topp_from_prober


def curve_from_model(rates, outputs):
    return RateResponseCurve(np.asarray(rates, dtype=float),
                             np.asarray(outputs, dtype=float),
                             size_bytes=1500, trains_per_rate=1)


class TestToppOnModels:
    def test_recovers_fifo_parameters_exactly(self):
        capacity, available = 10e6, 4e6
        rates = np.arange(1e6, 20.01e6, 1e6)
        curve = curve_from_model(
            rates, fifo_rate_response(rates, capacity, available))
        estimate = topp_estimate(curve)
        assert estimate.capacity_bps == pytest.approx(capacity, rel=1e-3)
        assert estimate.available_bps == pytest.approx(available, rel=1e-2)

    def test_on_csma_recovers_fair_share_and_b(self):
        """The module-docstring claim: TOPP's 'C' is Bf, its 'A' is B."""
        fair_share, u_fifo = 3.3e6, 0.3
        rates = np.arange(0.5e6, 12.01e6, 0.5e6)
        curve = curve_from_model(
            rates, complete_rate_response(rates, fair_share, u_fifo))
        estimate = topp_estimate(curve)
        assert estimate.capacity_bps == pytest.approx(fair_share, rel=0.02)
        assert estimate.available_bps == pytest.approx(
            fair_share * (1 - u_fifo), rel=0.05)
        assert estimate.intercept == pytest.approx(u_fifo, abs=0.03)

    def test_segment_selection(self):
        capacity, available = 10e6, 4e6
        rates = np.arange(1e6, 20.01e6, 1e6)
        curve = curve_from_model(
            rates, fifo_rate_response(rates, capacity, available))
        estimate = topp_estimate(curve)
        # Segment starts strictly after the undisturbed region.
        assert rates[estimate.segment_start] > available

    def test_needs_enough_loaded_points(self):
        rates = np.array([1e6, 2e6, 3e6])
        curve = curve_from_model(rates, rates)  # pure diagonal
        with pytest.raises(ValueError):
            topp_estimate(curve)

    def test_rejects_unsorted_rates(self):
        curve = curve_from_model([2e6, 1e6], [2e6, 1e6])
        with pytest.raises(ValueError):
            topp_estimate(curve)

    def test_rejects_nonpositive_outputs(self):
        curve = curve_from_model([1e6, 2e6], [1e6, 0.0])
        with pytest.raises(ValueError):
            topp_estimate(curve)


class TestToppOnChannels:
    def test_fifo_measurement(self):
        from repro.testbed import (Prober, ProbeSessionConfig,
                                   SimulatedFifoChannel)
        from repro.traffic import PoissonGenerator
        channel = SimulatedFifoChannel(
            10e6, cross_generator=PoissonGenerator(4e6, 1500))
        prober = Prober(channel, ProbeSessionConfig(repetitions=8,
                                                    ideal_clocks=True))
        estimate = topp_from_prober(
            prober, np.arange(6e6, 16.01e6, 1e6), n=200, seed=1)
        assert estimate.capacity_bps == pytest.approx(10e6, rel=0.1)
        assert estimate.available_bps == pytest.approx(6e6, rel=0.15)

    def test_wlan_measurement_returns_fair_share(self):
        from repro.analytic.bianchi import BianchiModel
        from repro.testbed import (Prober, ProbeSessionConfig,
                                   SimulatedWlanChannel)
        from repro.traffic import PoissonGenerator
        channel = SimulatedWlanChannel(
            [("cross", PoissonGenerator(4.5e6, 1500))], warmup=0.15)
        prober = Prober(channel, ProbeSessionConfig(repetitions=6,
                                                    ideal_clocks=True))
        estimate = topp_from_prober(
            prober, np.arange(3.5e6, 10.01e6, 0.75e6), n=150, seed=2)
        bianchi = BianchiModel()
        # TOPP's "capacity" lands on the fair share, nowhere near C.
        assert estimate.capacity_bps == pytest.approx(
            bianchi.fair_share(2), rel=0.15)
        assert estimate.capacity_bps < 0.75 * bianchi.capacity()
