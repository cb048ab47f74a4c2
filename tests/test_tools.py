"""Tests for the pathload-style iterative tool."""

import pytest

from repro.analytic.bianchi import BianchiModel
from repro.core.tools import IterativeProbeTool, search_lockstep
from repro.testbed.channel import SimulatedFifoChannel, SimulatedWlanChannel
from repro.testbed.prober import Prober, ProbeSessionConfig
from repro.traffic.generators import PoissonGenerator


class TestIterativeProbeTool:
    def make_wlan_tool(self, cross_rate=4.5e6, **kwargs):
        channel = SimulatedWlanChannel(
            [("cross", PoissonGenerator(cross_rate, 1500))], warmup=0.15)
        prober = Prober(channel, ProbeSessionConfig(repetitions=6,
                                                    ideal_clocks=True))
        return IterativeProbeTool(prober, n=50, repetitions=6, **kwargs)

    def test_converges_to_achievable_throughput_on_wlan(self):
        """Section 7.2: wired tools measure B on CSMA/CA links."""
        tool = self.make_wlan_tool()
        result = search_lockstep([tool], 0.5e6, 8e6, [3])[0]
        bianchi = BianchiModel()
        fair_share = bianchi.fair_share(2)
        available = bianchi.capacity() - 4.5e6
        assert result.estimate_bps == pytest.approx(fair_share, rel=0.15)
        # ... and is nowhere near the available bandwidth.
        assert result.estimate_bps > 1.5 * available

    def test_converges_to_available_bandwidth_on_fifo(self):
        capacity, cross = 10e6, 4e6
        available = capacity - cross
        channel = SimulatedFifoChannel(
            capacity, cross_generator=PoissonGenerator(cross, 1500))
        prober = Prober(channel, ProbeSessionConfig(repetitions=6,
                                                    ideal_clocks=True))
        tolerance = 0.08
        tool = IterativeProbeTool(prober, n=100, repetitions=6,
                                  disturbance_tolerance=tolerance)
        result = search_lockstep([tool], 1e6, 12e6, [4])[0]
        # The disturbance tolerance shifts the detected knee to
        # ri such that C ri/(ri + C - A) = (1 - tol) ri, i.e.
        # ri = C (1/(1-tol) - 1) + A.
        expected_knee = capacity * (1 / (1 - tolerance) - 1) + available
        assert result.estimate_bps == pytest.approx(expected_knee, rel=0.1)
        # Tightening the tolerance moves the estimate toward A itself.
        tight = IterativeProbeTool(prober, n=100, repetitions=6,
                                   disturbance_tolerance=0.03)
        tight_result = search_lockstep([tight], 1e6, 12e6, [5])[0]
        assert tight_result.estimate_bps < result.estimate_bps
        assert tight_result.estimate_bps == pytest.approx(
            capacity * (1 / 0.97 - 1) + available, rel=0.1)

    def test_bracket_widens_when_high_undisturbed(self):
        channel = SimulatedFifoChannel(10e6)
        prober = Prober(channel, ProbeSessionConfig(repetitions=3,
                                                    ideal_clocks=True))
        tool = IterativeProbeTool(prober, n=20, repetitions=3)
        result = search_lockstep([tool], 1e6, 2e6, [5], max_iterations=3)[0]
        # Empty 10 Mb/s link: 2 Mb/s is never disturbed; bracket grows.
        assert result.high_bps == float("inf") or result.estimate_bps > 2e6

    def test_low_already_disturbed_reports_floor(self):
        tool = self.make_wlan_tool()
        result = search_lockstep([tool], 7e6, 9e6, [6])[0]
        assert result.estimate_bps == 7e6
        assert result.iterations == 0

    def test_history_recorded(self):
        tool = self.make_wlan_tool()
        result = search_lockstep([tool], 1e6, 8e6, [7], resolution_bps=1e6)[0]
        assert len(result.history) == result.iterations

    def test_validation(self):
        tool = self.make_wlan_tool()
        with pytest.raises(ValueError):
            search_lockstep([tool], 0.0, 1e6, [0])
        with pytest.raises(ValueError):
            search_lockstep([tool], 2e6, 1e6, [0])
        with pytest.raises(ValueError):
            search_lockstep([tool], 1e6, 2e6, [0], resolution_bps=0.0)

    def test_constructor_validation(self):
        prober = Prober(SimulatedFifoChannel(10e6))
        with pytest.raises(ValueError):
            IterativeProbeTool(prober, n=1)
        with pytest.raises(ValueError):
            IterativeProbeTool(prober, disturbance_tolerance=1.5)
