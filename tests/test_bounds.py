"""Tests for the transient dispersion bounds (sections 5-6)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analytic.bounds import (
    kappa,
    mean_head,
    mean_tail,
    output_gap_bounds,
    output_gap_bounds_strict,
    steady_state_achievable_throughput,
    transient_achievable_throughput,
)


INCREASING_MU = np.array([1.0e-3, 1.5e-3, 2.0e-3, 2.4e-3, 2.7e-3,
                          2.9e-3, 3.0e-3, 3.0e-3])


class TestKappa:
    def test_increasing_profile_positive(self):
        assert kappa(INCREASING_MU) > 0

    def test_flat_profile_zero(self):
        assert kappa(np.full(10, 2e-3)) == pytest.approx(0.0)

    def test_workload_drift_term(self):
        base = kappa(INCREASING_MU)
        drifted = kappa(INCREASING_MU, workload_drift=1e-3)
        assert drifted == pytest.approx(base + 1e-3 / 7)

    def test_needs_two_packets(self):
        with pytest.raises(ValueError):
            kappa(np.array([1e-3]))


class TestHeadTailMeans:
    def test_eq35_ordering_for_increasing_profile(self):
        # head <= tail <= mu_n (equation (35)).
        assert mean_head(INCREASING_MU) <= mean_tail(INCREASING_MU)
        assert mean_tail(INCREASING_MU) <= INCREASING_MU[-1]

    def test_flat_profile_equal(self):
        flat = np.full(5, 2e-3)
        assert mean_head(flat) == mean_tail(flat)


class TestOutputGapBounds:
    def test_bounds_ordered_across_gaps(self):
        for gap in np.linspace(1e-4, 2e-2, 50):
            bounds = output_gap_bounds(float(gap), INCREASING_MU, 0.2)
            assert bounds.lower <= bounds.upper + 1e-15

    def test_closed_form_at_high_rate(self):
        bounds = output_gap_bounds(1e-4, INCREASING_MU, u_fifo=0.3)
        assert bounds.lower == bounds.upper
        assert bounds.lower_region == "closed-form"
        expected = mean_tail(INCREASING_MU) + 0.3 * 1e-4
        assert bounds.lower == pytest.approx(expected)

    def test_low_rate_lower_bound_is_diagonal_plus_kappa(self):
        gap = 0.1  # far above any access delay
        bounds = output_gap_bounds(gap, INCREASING_MU, u_fifo=0.0)
        assert bounds.lower == pytest.approx(gap + kappa(INCREASING_MU))

    def test_validation(self):
        with pytest.raises(ValueError):
            output_gap_bounds(-1.0, INCREASING_MU)
        with pytest.raises(ValueError):
            output_gap_bounds(1e-3, np.array([1e-3]))
        with pytest.raises(ValueError):
            output_gap_bounds(1e-3, INCREASING_MU, u_fifo=1.0)
        with pytest.raises(ValueError):
            output_gap_bounds(1e-3, -INCREASING_MU)

    @settings(max_examples=50, deadline=None)
    @given(gap=st.floats(min_value=1e-5, max_value=0.1),
           u_fifo=st.floats(min_value=0.0, max_value=0.9),
           scale=st.floats(min_value=1e-4, max_value=1e-2))
    def test_bounds_always_ordered(self, gap, u_fifo, scale):
        mu = np.linspace(0.4, 1.0, 12) * scale
        bounds = output_gap_bounds(gap, mu, u_fifo)
        assert bounds.lower <= bounds.upper + 1e-15
        assert bounds.lower > 0

    @pytest.mark.filterwarnings("error")
    def test_subnormal_fifo_utilization_does_not_warn(self):
        """The upper knee ``(head + kappa) / u_fifo`` overflows to inf
        for a subnormal ``u_fifo``; that is the right knee, not an
        error (the input hypothesis found)."""
        mu = np.linspace(0.4, 1.0, 12) * 1e-4
        bounds = output_gap_bounds(1e-3, mu, 5e-324)
        assert bounds.upper_region == "region-2"
        assert bounds.upper == 1e-3 + kappa(mu)
        assert bounds.lower == bounds.upper


class TestStrictBounds:
    def test_ordered(self):
        for gap in np.linspace(1e-4, 2e-2, 30):
            bounds = output_gap_bounds_strict(float(gap), INCREASING_MU)
            assert bounds.lower <= bounds.upper + 1e-15

    def test_saturating_lower_bound(self):
        # gI far below every mu: the train backlogs completely and
        # E[gO] -> mean_head + gI/(n-1)-ish; the lower bound reduces to
        # head + kappa + gI/(n-1).
        gap = 1e-5
        bounds = output_gap_bounds_strict(gap, INCREASING_MU)
        n = len(INCREASING_MU)
        expected = (gap + (np.sum(INCREASING_MU[:-1]) - (n - 1) * gap)
                    / (n - 1) + kappa(INCREASING_MU))
        assert bounds.lower == pytest.approx(expected)

    def test_low_rate_lower_is_diagonal_plus_kappa(self):
        gap = 0.5
        bounds = output_gap_bounds_strict(gap, INCREASING_MU)
        assert bounds.lower == pytest.approx(gap + kappa(INCREASING_MU))

    def test_upper_always_head_plus_gap(self):
        gap = 3e-3
        bounds = output_gap_bounds_strict(gap, INCREASING_MU)
        assert bounds.upper == pytest.approx(
            gap + mean_head(INCREASING_MU) + kappa(INCREASING_MU))

    def test_strict_upper_not_below_paper_lower(self):
        """The strict interval must overlap the paper's lower bound."""
        for gap in np.linspace(1e-4, 1e-2, 20):
            strict = output_gap_bounds_strict(float(gap), INCREASING_MU)
            paper = output_gap_bounds(float(gap), INCREASING_MU, 0.0)
            assert strict.upper >= paper.lower - 1e-15


class TestTransientAchievableThroughput:
    def test_eq31_formula(self):
        b = transient_achievable_throughput(1500, INCREASING_MU)
        assert b == pytest.approx(1500 * 8 / float(np.mean(INCREASING_MU)))

    def test_short_train_b_exceeds_steady_state(self):
        """Equation (32): the transient B overestimates the steady B."""
        steady_mu = float(INCREASING_MU[-1])
        transient_b = transient_achievable_throughput(1500, INCREASING_MU)
        steady_b = steady_state_achievable_throughput(1500, steady_mu)
        assert transient_b > steady_b

    def test_fifo_utilization_reduces_b(self):
        plain = transient_achievable_throughput(1500, INCREASING_MU, 0.0)
        loaded = transient_achievable_throughput(1500, INCREASING_MU, 0.4)
        assert loaded == pytest.approx(plain * 0.6)

    def test_eq36_eq37_consistency(self):
        """As mu flattens, eq (31) converges to eq (37)."""
        flat = np.full(200, 3e-3)
        b31 = transient_achievable_throughput(1500, flat, 0.2)
        b37 = steady_state_achievable_throughput(1500, 3e-3, 0.2)
        assert b31 == pytest.approx(b37)

    def test_validation(self):
        with pytest.raises(ValueError):
            transient_achievable_throughput(0, INCREASING_MU)
        with pytest.raises(ValueError):
            transient_achievable_throughput(1500, np.array([]))
        with pytest.raises(ValueError):
            transient_achievable_throughput(1500, INCREASING_MU, 1.0)
        with pytest.raises(ValueError):
            steady_state_achievable_throughput(1500, 0.0)


class TestBoundsOnSimulatedPaths:
    """Equation (18)/(21) identities on real DCF sample paths."""

    @pytest.fixture(scope="class")
    def raw_trains(self):
        from repro.testbed.channel import SimulatedWlanChannel
        from repro.traffic.generators import PoissonGenerator
        from repro.traffic.probe import ProbeTrain

        channel = SimulatedWlanChannel(
            [("x", PoissonGenerator(2.5e6, 1500))], start_jitter=0.0)
        train = ProbeTrain.at_rate(8, 5e6)
        return train, channel.send_trains(train, 60, seed=21)

    def test_eq18_identity_per_path(self, raw_trains):
        """gO = gI + Rn/(n-1) + (mu_n - mu_1)/(n-1) exactly (W = 0)."""
        from repro.queueing.workload import intrusion_residual_recursive

        train, raws = raw_trains
        n = train.n
        for raw in raws:
            measured_go = (raw.recv_times[-1] - raw.recv_times[0]) / (n - 1)
            mu = raw.access_delays
            residual = intrusion_residual_recursive(mu, train.gap)
            reconstructed = (train.gap + residual[-1] / (n - 1)
                             + (mu[-1] - mu[0]) / (n - 1))
            assert measured_go == pytest.approx(reconstructed, abs=1e-9)

    def test_mean_gap_within_strict_bounds(self, raw_trains):
        train, raws = raw_trains
        n = train.n
        mu_means = np.vstack([r.access_delays for r in raws]).mean(axis=0)
        mean_go = float(np.mean(
            [(r.recv_times[-1] - r.recv_times[0]) / (n - 1) for r in raws]))
        bounds = output_gap_bounds_strict(train.gap, mu_means)
        slack = 0.05 * mean_go
        assert bounds.lower - slack <= mean_go <= bounds.upper + slack
