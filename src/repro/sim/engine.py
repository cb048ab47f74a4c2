"""Event-driven simulation engine.

The engine keeps a binary heap of :class:`Event` objects ordered by
``(time, priority, sequence)``.  Events can be cancelled after being
scheduled (lazy deletion: cancelled events stay in the heap and are
skipped when popped), which the DCF medium uses to invalidate contention
rounds when a new arrival changes the set of contending stations.

Example
-------
>>> sim = Simulator()
>>> fired = []
>>> sim.schedule(1.0, lambda: fired.append(sim.now))
Event(t=1.0, ...)
>>> sim.run()
>>> fired
[1.0]
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import Callable, List, Optional


class SimulationError(RuntimeError):
    """Raised when the engine is used inconsistently.

    Examples include scheduling an event in the past or running a
    simulator whose clock would move backwards (which would indicate a
    corrupted heap).
    """


class EventCancelled(Exception):
    """Raised when interacting with an event that has been cancelled."""


class Event:
    """A scheduled callback.

    Instances are created through :meth:`Simulator.schedule`; user code
    normally only keeps a reference in order to be able to
    :meth:`cancel` the event later.
    """

    __slots__ = ("time", "priority", "seq", "callback", "cancelled", "fired")

    def __init__(self, time: float, priority: int, seq: int,
                 callback: Callable[[], None]) -> None:
        self.time = time
        self.priority = priority
        self.seq = seq
        self.callback = callback
        self.cancelled = False
        self.fired = False

    def cancel(self) -> None:
        """Mark the event so the engine skips it.

        Cancelling an event that already fired raises
        :class:`EventCancelled` because it almost always indicates a
        stale reference bug in the caller.
        """
        if self.fired:
            raise EventCancelled("cannot cancel an event that already fired")
        self.cancelled = True

    @property
    def pending(self) -> bool:
        """Whether the event is still going to fire."""
        return not self.cancelled and not self.fired

    def __lt__(self, other: "Event") -> bool:
        return (self.time, self.priority, self.seq) < (
            other.time, other.priority, other.seq)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "cancelled" if self.cancelled else (
            "fired" if self.fired else "pending")
        return f"Event(t={self.time!r}, priority={self.priority}, {state})"


class Simulator:
    """A discrete-event simulator with a cancellable event heap.

    Parameters
    ----------
    start_time:
        Initial value of the simulation clock, in seconds.
    """

    def __init__(self, start_time: float = 0.0) -> None:
        self._now = float(start_time)
        self._heap: List[Event] = []
        self._seq = itertools.count()
        self._running = False
        self._events_processed = 0

    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Number of events fired so far (excludes cancelled events)."""
        return self._events_processed

    def schedule(self, time: float, callback: Callable[[], None],
                 priority: int = 0) -> Event:
        """Schedule ``callback`` to run at absolute ``time``.

        ``priority`` breaks ties between simultaneous events: lower
        values fire first.  Scheduling in the past (beyond a small
        floating-point tolerance) raises :class:`SimulationError`.
        """
        if not math.isfinite(time):
            raise SimulationError(f"event time must be finite, got {time!r}")
        if time < self._now - 1e-12:
            raise SimulationError(
                f"cannot schedule event at {time} before now={self._now}")
        event = Event(max(time, self._now), priority, next(self._seq), callback)
        heapq.heappush(self._heap, event)
        return event

    def schedule_after(self, delay: float, callback: Callable[[], None],
                       priority: int = 0) -> Event:
        """Schedule ``callback`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"delay must be non-negative, got {delay}")
        return self.schedule(self._now + delay, callback, priority)

    def run(self, until: Optional[float] = None,
            max_events: Optional[int] = None) -> None:
        """Run events until the heap drains, ``until`` is reached, or
        ``max_events`` have fired.

        When ``until`` is given the clock is advanced to exactly
        ``until`` at the end of the run, even if the last event fired
        earlier, so that rate computations over a fixed horizon are
        well defined.

        This is the engine's hot loop (every simulated packet passes
        through it several times): the heap and ``heapq.heappop`` are
        bound to locals and lazily-deleted events are skipped on the
        raw ``cancelled`` flag — one attribute read per stale entry, no
        ``pending`` property call.
        """
        if self._running:
            raise SimulationError("simulator is not reentrant")
        self._running = True
        fired = 0
        heap = self._heap
        pop = heapq.heappop
        try:
            while heap:
                if max_events is not None and fired >= max_events:
                    break
                event = heap[0]
                if event.cancelled:
                    pop(heap)
                    continue
                event_time = event.time
                if until is not None and event_time > until:
                    break
                pop(heap)
                if event_time < self._now - 1e-12:
                    raise SimulationError(
                        f"clock would move backwards: "
                        f"{event_time} < {self._now}")
                if event_time > self._now:
                    self._now = event_time
                event.fired = True
                self._events_processed += 1
                event.callback()
                fired += 1
        finally:
            self._running = False
        if until is not None and self._now < until:
            self._now = until

    def clear(self) -> None:
        """Drop every pending event (the clock is preserved)."""
        self._heap.clear()
