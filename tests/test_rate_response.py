"""Tests for the steady-state rate-response curves and metrics."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analytic.metrics import (
    achievable_throughput_from_curve,
    available_bandwidth,
    fluid_achievable_throughput,
)
from repro.analytic.rate_response import (
    achievable_throughput_complete,
    complete_rate_response,
    csma_rate_response,
    fifo_rate_response,
)


class TestFifoRateResponse:
    def test_diagonal_below_available(self):
        ri = np.array([1e6, 2e6, 3e6])
        ro = fifo_rate_response(ri, capacity=10e6, available_bandwidth=4e6)
        assert np.allclose(ro, ri)

    def test_sharing_above_available(self):
        ri = np.array([8e6])
        ro = fifo_rate_response(ri, 10e6, 4e6)
        assert ro[0] == pytest.approx(10e6 * 8e6 / (8e6 + 6e6))

    def test_continuous_at_knee(self):
        eps = 1.0
        below = fifo_rate_response(np.array([4e6 - eps]), 10e6, 4e6)[0]
        above = fifo_rate_response(np.array([4e6 + eps]), 10e6, 4e6)[0]
        assert below == pytest.approx(above, rel=1e-5)

    def test_asymptote_is_capacity(self):
        ro = fifo_rate_response(np.array([1e12]), 10e6, 4e6)[0]
        assert ro == pytest.approx(10e6, rel=1e-4)

    def test_zero_available_bandwidth(self):
        ro = fifo_rate_response(np.array([5e6]), 10e6, 0.0)
        assert ro[0] < 5e6

    def test_validation(self):
        with pytest.raises(ValueError):
            fifo_rate_response(np.array([1.0]), -1.0, 0.0)
        with pytest.raises(ValueError):
            fifo_rate_response(np.array([1.0]), 10e6, 11e6)
        with pytest.raises(ValueError):
            fifo_rate_response(np.array([-1.0]), 10e6, 4e6)

    @settings(max_examples=30, deadline=None)
    @given(st.floats(min_value=1e5, max_value=1e8),
           st.floats(min_value=0.0, max_value=1.0))
    def test_output_never_exceeds_input_or_capacity(self, capacity, frac):
        available = capacity * frac
        ri = np.linspace(1e4, 2 * capacity, 50)
        ro = fifo_rate_response(ri, capacity, available)
        assert np.all(ro <= ri + 1e-6)
        assert np.all(ro <= capacity + 1e-6)
        assert np.all(np.diff(ro) >= -1e-6)  # monotone non-decreasing


class TestCsmaRateResponse:
    def test_min_form(self):
        ri = np.array([1e6, 3e6, 9e6])
        ro = csma_rate_response(ri, achievable_throughput=3.4e6)
        assert np.allclose(ro, [1e6, 3e6, 3.4e6])

    def test_validation(self):
        with pytest.raises(ValueError):
            csma_rate_response(np.array([1.0]), 0.0)
        with pytest.raises(ValueError):
            csma_rate_response(np.array([-1.0]), 1e6)


class TestCompleteRateResponse:
    def test_reduces_to_csma_without_fifo(self):
        ri = np.linspace(1e5, 1e7, 40)
        complete = complete_rate_response(ri, fair_share=3.4e6, u_fifo=0.0)
        simple = csma_rate_response(ri, 3.4e6)
        assert np.allclose(complete, simple)

    def test_continuous_at_b(self):
        fair_share, u_fifo = 3.4e6, 0.3
        b = fair_share * (1 - u_fifo)
        eps = 1.0
        below = complete_rate_response(np.array([b - eps]), fair_share, u_fifo)
        above = complete_rate_response(np.array([b + eps]), fair_share, u_fifo)
        assert below[0] == pytest.approx(above[0], rel=1e-5)

    def test_asymptote_is_fair_share(self):
        ro = complete_rate_response(np.array([1e12]), 3.4e6, 0.3)
        assert ro[0] == pytest.approx(3.4e6, rel=1e-4)

    def test_achievable_throughput_eq5(self):
        assert achievable_throughput_complete(4e6, 0.25) == pytest.approx(3e6)

    def test_more_fifo_traffic_lower_output(self):
        ri = np.array([8e6])
        light = complete_rate_response(ri, 3.4e6, 0.1)[0]
        heavy = complete_rate_response(ri, 3.4e6, 0.5)[0]
        assert heavy < light

    def test_validation(self):
        with pytest.raises(ValueError):
            complete_rate_response(np.array([1.0]), 0.0, 0.1)
        with pytest.raises(ValueError):
            complete_rate_response(np.array([1.0]), 1e6, 1.0)
        with pytest.raises(ValueError):
            achievable_throughput_complete(1e6, -0.1)

    @settings(max_examples=30, deadline=None)
    @given(st.floats(min_value=1e5, max_value=1e7),
           st.floats(min_value=0.0, max_value=0.9))
    def test_monotone_and_bounded(self, fair_share, u_fifo):
        ri = np.linspace(1e4, 3e7, 60)
        ro = complete_rate_response(ri, fair_share, u_fifo)
        assert np.all(np.diff(ro) >= -1e-6)
        assert np.all(ro <= ri + 1e-6)
        assert np.all(ro <= fair_share + 1e-6)


class TestMetrics:
    def test_available_bandwidth(self):
        assert available_bandwidth(10e6, 4e6) == 6e6

    def test_available_bandwidth_clipped(self):
        assert available_bandwidth(10e6, 12e6) == 0.0

    def test_available_bandwidth_validation(self):
        with pytest.raises(ValueError):
            available_bandwidth(0.0, 1e6)
        with pytest.raises(ValueError):
            available_bandwidth(1e6, -1.0)

    def test_achievable_from_curve(self):
        ri = np.array([1e6, 2e6, 3e6, 4e6, 5e6])
        ro = np.array([1e6, 2e6, 3e6, 3.3e6, 3.4e6])
        assert achievable_throughput_from_curve(ri, ro) == 3e6

    def test_achievable_tolerance(self):
        ri = np.array([1e6, 2e6])
        ro = np.array([0.97e6, 1.8e6])
        assert achievable_throughput_from_curve(ri, ro, tolerance=0.05) == 1e6
        assert achievable_throughput_from_curve(ri, ro, tolerance=0.15) == 2e6

    def test_achievable_no_conforming_point(self):
        with pytest.raises(ValueError):
            achievable_throughput_from_curve(
                np.array([5e6]), np.array([2e6]))

    def test_achievable_validation(self):
        with pytest.raises(ValueError):
            achievable_throughput_from_curve(np.array([]), np.array([]))
        with pytest.raises(ValueError):
            achievable_throughput_from_curve(np.array([0.0]),
                                             np.array([0.0]))

    def test_fluid_achievable_no_contention_is_capacity(self):
        assert fluid_achievable_throughput(6.5e6, 0.0, 3.3e6) == 6.5e6

    def test_fluid_achievable_saturated_is_fair_share(self):
        assert fluid_achievable_throughput(6.5e6, 5e6, 3.3e6) == 3.3e6

    def test_fluid_achievable_middle_region(self):
        assert fluid_achievable_throughput(6.5e6, 2e6, 3.3e6) \
            == pytest.approx(4.5e6)

    def test_fluid_achievable_validation(self):
        with pytest.raises(ValueError):
            fluid_achievable_throughput(6.5e6, 0.0, 7e6)
