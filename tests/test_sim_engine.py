"""Tests for the discrete-event engine."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.sim.engine import Event, Simulator, SimulationError


class TestScheduling:
    def test_initial_clock_is_zero(self):
        assert Simulator().now == 0.0

    def test_custom_start_time(self):
        assert Simulator(start_time=5.0).now == 5.0

    def test_events_fire_in_time_order(self):
        sim = Simulator()
        fired = []
        sim.schedule(2.0, lambda: fired.append(2))
        sim.schedule(1.0, lambda: fired.append(1))
        sim.schedule(3.0, lambda: fired.append(3))
        sim.run()
        assert fired == [1, 2, 3]

    def test_clock_advances_to_event_time(self):
        sim = Simulator()
        seen = []
        sim.schedule(1.5, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [1.5]
        assert sim.now == 1.5

    def test_priority_breaks_ties(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append("late"), priority=1)
        sim.schedule(1.0, lambda: fired.append("early"), priority=-1)
        sim.schedule(1.0, lambda: fired.append("mid"), priority=0)
        sim.run()
        assert fired == ["early", "mid", "late"]

    def test_same_priority_fifo_order(self):
        sim = Simulator()
        fired = []
        for k in range(5):
            sim.schedule(1.0, lambda k=k: fired.append(k))
        sim.run()
        assert fired == [0, 1, 2, 3, 4]

    def test_schedule_after(self):
        sim = Simulator()
        seen = []
        sim.schedule(1.0, lambda: sim.schedule_after(
            0.5, lambda: seen.append(sim.now)))
        sim.run()
        assert seen == [1.5]

    def test_schedule_after_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            Simulator().schedule_after(-1.0, lambda: None)

    def test_schedule_in_past_rejected(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule(0.5, lambda: None)

    def test_schedule_nonfinite_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(math.inf, lambda: None)
        with pytest.raises(SimulationError):
            sim.schedule(math.nan, lambda: None)

    def test_events_scheduled_during_run_fire(self):
        sim = Simulator()
        fired = []

        def chain(k):
            fired.append(k)
            if k < 3:
                sim.schedule_after(1.0, lambda: chain(k + 1))

        sim.schedule(0.0, lambda: chain(0))
        sim.run()
        assert fired == [0, 1, 2, 3]
        assert sim.now == 3.0


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        sim = Simulator()
        fired = []
        event = sim.schedule(1.0, lambda: fired.append("x"))
        event.cancel()
        sim.run()
        assert fired == []

    def test_cancel_after_fire_raises(self):
        sim = Simulator()
        event = sim.schedule(1.0, lambda: None)
        sim.run()
        from repro.sim.engine import EventCancelled
        with pytest.raises(EventCancelled):
            event.cancel()

    def test_pending_property(self):
        sim = Simulator()
        event = sim.schedule(1.0, lambda: None)
        assert event.pending
        event.cancel()
        assert not event.pending

    def test_fired_event_not_pending(self):
        sim = Simulator()
        event = sim.schedule(1.0, lambda: None)
        sim.run()
        assert not event.pending



class TestRunControl:
    def test_run_until_stops_before_later_events(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append(1))
        sim.schedule(5.0, lambda: fired.append(5))
        sim.run(until=2.0)
        assert fired == [1]
        assert sim.now == 2.0

    def test_run_until_sets_clock_even_without_events(self):
        sim = Simulator()
        sim.run(until=4.0)
        assert sim.now == 4.0

    def test_run_max_events(self):
        sim = Simulator()
        fired = []
        for k in range(5):
            sim.schedule(float(k + 1), lambda k=k: fired.append(k))
        sim.run(max_events=2)
        assert fired == [0, 1]

    def test_events_processed_counter(self):
        sim = Simulator()
        for k in range(3):
            sim.schedule(float(k), lambda: None)
        sim.run()
        assert sim.events_processed == 3

    def test_clear_drops_pending_events(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append(1))
        sim.clear()
        sim.run()
        assert fired == []

    def test_not_reentrant(self):
        sim = Simulator()

        def recurse():
            sim.run()

        sim.schedule(1.0, recurse)
        with pytest.raises(SimulationError):
            sim.run()

    def test_resume_after_until(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append(1))
        sim.schedule(5.0, lambda: fired.append(5))
        sim.run(until=2.0)
        sim.run()
        assert fired == [1, 5]


class TestDocumentedErrorEdgeCases:
    """The documented misuse errors, hit from awkward angles."""

    def test_schedule_in_past_from_inside_callback(self):
        """The past-scheduling guard also holds mid-run, when `now`
        has advanced beyond the requested time."""
        sim = Simulator()
        errors = []

        def tries_to_rewind():
            try:
                sim.schedule(0.5, lambda: None)
            except SimulationError as exc:
                errors.append(str(exc))

        sim.schedule(2.0, tries_to_rewind)
        sim.run()
        assert errors and "before now=2.0" in errors[0]

    def test_schedule_within_tolerance_of_now_is_clamped(self):
        """Times a hair in the past (float noise) clamp to `now`
        instead of raising."""
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.run()
        event = sim.schedule(1.0 - 1e-13, lambda: None)
        assert event.time == 1.0

    def test_cancel_already_fired_event_from_later_callback(self):
        """A stale reference cancelled after its event fired raises
        EventCancelled even when the cancel happens mid-run."""
        from repro.sim.engine import EventCancelled

        sim = Simulator()
        errors = []
        stale = sim.schedule(1.0, lambda: None)

        def cancels_stale():
            try:
                stale.cancel()
            except EventCancelled as exc:
                errors.append(str(exc))

        sim.schedule(2.0, cancels_stale)
        sim.run()
        assert errors and "already fired" in errors[0]

    def test_cancel_twice_is_idempotent(self):
        sim = Simulator()
        fired = []
        event = sim.schedule(1.0, lambda: fired.append(1))
        event.cancel()
        event.cancel()  # only cancelling a *fired* event is an error
        sim.run()
        assert fired == []
        assert not event.pending

    def test_rerun_of_running_simulator_raises(self):
        """Re-running a simulator that is already running (the
        documented non-reentrancy error)."""
        sim = Simulator()
        errors = []

        def reenters():
            try:
                sim.run()
            except SimulationError as exc:
                errors.append(str(exc))

        sim.schedule(1.0, reenters)
        sim.run()
        assert errors == ["simulator is not reentrant"]

    def test_rerun_after_completion_is_safe(self):
        """A *finished* run is not an error: the heap is empty, the
        clock is preserved, and new work can be scheduled."""
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append(1))
        sim.run()
        sim.run()  # no-op, not an error
        assert sim.now == 1.0
        sim.schedule(2.0, lambda: fired.append(2))
        sim.run()
        assert fired == [1, 2]

    def test_run_skips_cancelled_and_keeps_the_clock(self):
        sim = Simulator()
        first = sim.schedule(1.0, lambda: None)
        second = sim.schedule(2.0, lambda: None)
        first.cancel()
        second.cancel()
        sim.run()
        assert sim.events_processed == 0
        assert sim.now == 0.0  # skipping cancelled events keeps the clock

    def test_run_failure_leaves_simulator_reusable(self):
        """A callback exception must not leave _running latched."""
        sim = Simulator()

        def boom():
            raise RuntimeError("boom")

        sim.schedule(1.0, boom)
        with pytest.raises(RuntimeError):
            sim.run()
        fired = []
        sim.schedule(2.0, lambda: fired.append(2))
        sim.run()  # the failed run released the reentrancy latch
        assert fired == [2]


class TestEventOrderingProperty:
    @given(st.lists(st.tuples(
        st.floats(min_value=0.0, max_value=1e4, allow_nan=False),
        st.integers(min_value=-3, max_value=3)), min_size=1, max_size=60))
    def test_firing_order_is_sorted(self, entries):
        sim = Simulator()
        fired = []
        for time, priority in entries:
            sim.schedule(time, lambda t=time, p=priority: fired.append((t, p)),
                         priority=priority)
        sim.run()
        assert fired == sorted(fired, key=lambda tp: (tp[0], tp[1]))

    @given(st.lists(st.floats(min_value=0.0, max_value=100.0,
                              allow_nan=False), min_size=1, max_size=50))
    def test_clock_never_moves_backwards(self, times):
        sim = Simulator()
        observed = []
        for time in times:
            sim.schedule(time, lambda: observed.append(sim.now))
        sim.run()
        assert all(t2 >= t1 for t1, t2 in zip(observed, observed[1:]))

    def test_event_repr_states(self):
        sim = Simulator()
        event = sim.schedule(1.0, lambda: None)
        assert "pending" in repr(event)
        event.cancel()
        assert "cancelled" in repr(event)
