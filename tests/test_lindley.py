"""Tests for the Lindley recursion."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.queueing.lindley import lindley_batch, lindley_recursion


def _scalar_reference(arrivals, services):
    """The original per-packet loop, kept as the batched kernel's
    ground truth."""
    n = len(arrivals)
    starts = np.empty(n)
    departures = np.empty(n)
    previous = -np.inf
    for i in range(n):
        start = arrivals[i] if arrivals[i] > previous else previous
        starts[i] = start
        previous = start + services[i]
        departures[i] = previous
    return starts, departures


class TestLindleyRecursion:
    def test_empty_input(self):
        starts, departures = lindley_recursion(np.array([]), np.array([]))
        assert len(starts) == 0 and len(departures) == 0

    def test_single_packet(self):
        starts, departures = lindley_recursion([1.0], [0.5])
        assert starts[0] == 1.0
        assert departures[0] == 1.5

    def test_no_queueing_when_spaced_out(self):
        starts, departures = lindley_recursion([0.0, 10.0], [1.0, 1.0])
        assert list(starts) == [0.0, 10.0]
        assert list(departures) == [1.0, 11.0]

    def test_back_to_back_serialized(self):
        starts, departures = lindley_recursion([0.0, 0.0, 0.0],
                                               [1.0, 1.0, 1.0])
        assert list(starts) == [0.0, 1.0, 2.0]
        assert list(departures) == [1.0, 2.0, 3.0]

    def test_partial_overlap(self):
        starts, departures = lindley_recursion([0.0, 0.5], [1.0, 1.0])
        assert starts[1] == pytest.approx(1.0)
        assert departures[1] == pytest.approx(2.0)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            lindley_recursion([0.0, 1.0], [1.0])

    def test_decreasing_arrivals_rejected(self):
        with pytest.raises(ValueError):
            lindley_recursion([1.0, 0.5], [1.0, 1.0])

    def test_negative_service_rejected(self):
        with pytest.raises(ValueError):
            lindley_recursion([0.0], [-1.0])

    def test_2d_rejected(self):
        with pytest.raises(ValueError):
            lindley_recursion(np.zeros((2, 2)), np.ones((2, 2)))

    def test_zero_service_allowed(self):
        starts, departures = lindley_recursion([0.0, 0.0], [0.0, 1.0])
        assert departures[0] == 0.0
        assert departures[1] == 1.0


class TestLindleyProperties:
    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.tuples(
        st.floats(min_value=0.0, max_value=10.0),
        st.floats(min_value=0.0, max_value=1.0)),
        min_size=1, max_size=60))
    def test_invariants(self, pairs):
        arrivals = np.sort(np.array([a for a, _ in pairs]))
        services = np.array([s for _, s in pairs])
        starts, departures = lindley_recursion(arrivals, services)
        # Service never starts before arrival.
        assert np.all(starts >= arrivals - 1e-12)
        # Departures are arrivals + waiting + service, FIFO-ordered.
        assert np.all(np.diff(departures) >= -1e-12)
        # Work conservation: departure = start + service.
        assert np.allclose(departures, starts + services)
        # No service overlap.
        assert np.all(starts[1:] >= departures[:-1] - 1e-12)

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.floats(min_value=0.01, max_value=0.5),
                    min_size=2, max_size=40))
    def test_saturated_queue_is_pure_serialization(self, services):
        arrivals = np.zeros(len(services))
        services = np.array(services)
        _, departures = lindley_recursion(arrivals, services)
        assert np.allclose(departures, np.cumsum(services))


class TestLindleyBatch:
    def test_rows_match_scalar_recursion(self):
        rng = np.random.default_rng(0)
        arrivals = np.sort(rng.uniform(0, 5.0, (6, 50)), axis=1)
        services = rng.exponential(0.05, (6, 50))
        starts, departures = lindley_batch(arrivals, services)
        for r in range(6):
            s_ref, d_ref = _scalar_reference(arrivals[r], services[r])
            assert np.allclose(starts[r], s_ref, atol=1e-9)
            assert np.allclose(departures[r], d_ref, atol=1e-9)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.tuples(
        st.floats(min_value=0.0, max_value=10.0),
        st.floats(min_value=0.0, max_value=1.0)),
        min_size=1, max_size=40),
        st.integers(min_value=1, max_value=5))
    def test_property_matches_scalar_elementwise(self, pairs, reps):
        """Random workloads — including zero-service entries — agree
        with the scalar recursion element-wise on every row."""
        arrivals = np.sort(np.array([a for a, _ in pairs]))
        services = np.array([s for _, s in pairs])
        batch_a = np.tile(arrivals, (reps, 1)) + np.arange(reps)[:, None]
        batch_s = np.tile(services, (reps, 1))
        starts, departures = lindley_batch(batch_a, batch_s)
        for r in range(reps):
            s_ref, d_ref = _scalar_reference(batch_a[r], batch_s[r])
            assert np.allclose(starts[r], s_ref, atol=1e-9)
            assert np.allclose(departures[r], d_ref, atol=1e-9)

    def test_overload_serializes(self):
        """Overload edge case: arrivals far faster than the service
        rate collapse to pure serialization of the service times."""
        arrivals = np.zeros((3, 30))
        services = np.full((3, 30), 0.25)
        _, departures = lindley_batch(arrivals, services)
        assert np.allclose(departures, np.cumsum(services, axis=1))

    def test_zero_service_passes_through(self):
        arrivals = np.array([[0.0, 1.0, 1.0]])
        services = np.zeros((1, 3))
        starts, departures = lindley_batch(arrivals, services)
        assert np.allclose(departures, arrivals)
        assert np.allclose(starts, arrivals)

    def test_inf_padding_isolated_to_tail(self):
        arrivals = np.array([[0.0, 0.1, np.inf, np.inf],
                             [0.0, 0.2, 0.3, np.inf]])
        services = np.where(np.isfinite(arrivals), 0.5, 0.0)
        _, departures = lindley_batch(arrivals, services)
        assert np.allclose(departures[0, :2], [0.5, 1.0])
        assert np.allclose(departures[1, :3], [0.5, 1.0, 1.5])
        assert np.all(np.isinf(departures[0, 2:]))

    def test_validation(self):
        with pytest.raises(ValueError):
            lindley_batch(np.zeros(3), np.zeros(3))
        with pytest.raises(ValueError):
            lindley_batch(np.zeros((2, 3)), np.zeros((2, 2)))
        with pytest.raises(ValueError):
            lindley_batch(np.array([[1.0, 0.5]]), np.ones((1, 2)))
        with pytest.raises(ValueError):
            lindley_batch(np.zeros((1, 2)), -np.ones((1, 2)))

    def test_order_check_passes_inf_tails(self):
        arrivals = np.array([[0.0, 0.1, np.inf, np.inf]])
        lindley_batch(arrivals, np.zeros((1, 4)))

    def test_order_check_rejects_finite_after_inf(self):
        with pytest.raises(ValueError, match="non-decreasing"):
            lindley_batch(np.array([[0.0, np.inf, 0.2]]), np.zeros((1, 3)))

    def test_order_check_passes_nan(self):
        """A NaN compares false either way, so it never fails the
        order check (the recursion then carries it along)."""
        lindley_batch(np.array([[0.0, np.nan, 0.2], [np.nan, 0.1, 0.2]]),
                      np.zeros((2, 3)))

    def test_1d_recursion_matches_loop_reference(self):
        """The vectorized 1-D entry point agrees with the loop it
        replaced."""
        rng = np.random.default_rng(7)
        arrivals = np.sort(rng.uniform(0, 100.0, 5000))
        services = rng.exponential(1e-2, 5000)
        starts, departures = lindley_recursion(arrivals, services)
        s_ref, d_ref = _scalar_reference(arrivals, services)
        assert np.allclose(starts, s_ref, atol=1e-9)
        assert np.allclose(departures, d_ref, atol=1e-9)
