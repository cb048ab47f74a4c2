"""Tests for the intrusion residual."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.queueing.workload import intrusion_residual_recursive


class TestIntrusionResidual:
    def test_first_packet_zero(self):
        residual = intrusion_residual_recursive([1e-3, 1e-3], 2e-3)
        assert residual[0] == 0.0

    def test_fast_probing_accumulates(self):
        # mu = 1 ms, gap = 0.5 ms: each packet adds 0.5 ms of backlog.
        residual = intrusion_residual_recursive([1e-3] * 5, 0.5e-3)
        assert np.allclose(residual, [0.0, 0.5e-3, 1.0e-3, 1.5e-3, 2.0e-3])

    def test_slow_probing_never_queues(self):
        residual = intrusion_residual_recursive([1e-3] * 5, 5e-3)
        assert np.allclose(residual, 0.0)

    def test_utilization_shrinks_free_gap(self):
        mu = [1e-3, 1e-3]
        no_cross = intrusion_residual_recursive(mu, 2e-3)
        with_cross = intrusion_residual_recursive(mu, 2e-3,
                                                  utilizations=[0.8])
        assert with_cross[1] > no_cross[1]

    def test_empty_input(self):
        assert len(intrusion_residual_recursive([], 1e-3)) == 0

    def test_negative_gap_rejected(self):
        with pytest.raises(ValueError):
            intrusion_residual_recursive([1e-3], -1.0)

    def test_utilization_length_mismatch(self):
        with pytest.raises(ValueError):
            intrusion_residual_recursive([1e-3] * 3, 1e-3,
                                         utilizations=[0.5])

    def test_matches_simulated_hol_waits(self):
        """R_i from the recursion equals the DCF station's HOL waits."""
        from repro.testbed.channel import SimulatedWlanChannel
        from repro.traffic.generators import PoissonGenerator
        from repro.traffic.probe import ProbeTrain

        channel = SimulatedWlanChannel(
            [("x", PoissonGenerator(2e6, 1500))], start_jitter=0.0)
        train = ProbeTrain.at_rate(12, 6e6)
        raw = channel.send_train(train, seed=9)
        scenario = raw.scenario
        probe = scenario.station("probe").completed("probe")
        measured_residual = np.array([r.hol - r.arrival for r in probe])
        recursive = intrusion_residual_recursive(
            raw.access_delays, train.gap)
        assert np.allclose(measured_residual, recursive, atol=1e-9)


class TestResidualBounds:
    """Equation (23): ``max(0, sum_{i<n}(mu_i - g_I)) <= R_n <=
    sum_{i<n} mu_i`` on every sample path."""

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.floats(min_value=1e-4, max_value=1e-2),
                    min_size=2, max_size=30),
           st.floats(min_value=0.0, max_value=1e-2))
    def test_recursion_within_bounds(self, mu, gap):
        mu = np.array(mu)
        lower = max(0.0, float(np.sum(mu[:-1] - gap)))
        upper = float(np.sum(mu[:-1]))
        final = intrusion_residual_recursive(mu, gap)[-1]
        assert lower - 1e-12 <= final <= upper + 1e-12
