"""A clock that reads wall time at a fixed reference speed of the host.

The benchmark runs on shared machines whose speed is not steady: a
CPU runs at full speed or up to ~1.7x slower while neighbours compete,
and the state switches every few seconds.  Raw wall times then depend
on when a run happens more than on the code.

:class:`SpeedClock` samples the host's speed while an operation runs:
every ``period`` seconds (``SIGALRM``), and whenever :meth:`sample` is
called, it times a fixed pure-Python loop that is independent of the
package under test.  :meth:`scaled` converts a wall interval into
*reference seconds*: each stretch between two samples counts
``stretch * REFERENCE_S / loop_time``, where ``loop_time`` is the mean
of the samples at its two ends.  On the fast state of a shared 2-CPU
Xeon host with Python 3.11 the loop takes about ``REFERENCE_S``, so
there a reference second is about a wall second.  The samples' own
time is excluded from every interval, raw or scaled.

Only the main thread of a process can run the clock (signal handlers
run there); a forked child inherits no interval timer.  A timer sample
that lands inside another sample only shortens the stretch between
them to nothing.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from typing import Callable, Dict, List, Optional

#: Integer multiply-adds, then small records built and sorted, per run
#: of the calibration loop: interpreter dispatch and allocation, the
#: two costs that dominate the package's per-point code.
LOOP_ITERATIONS = 8000
LOOP_RECORDS = 1500

#: Seconds the calibration loop takes at the reference speed.
REFERENCE_S = 0.0007

#: Seconds between timer samples while the clock runs.
PERIOD_S = 0.25


def calibration_loop() -> float:
    """Seconds one run of the fixed calibration loop takes."""
    start = time.perf_counter()
    total = 0
    for value in range(LOOP_ITERATIONS):
        total += value * value
    records = [{"key": value, "text": str(value)}
               for value in range(LOOP_RECORDS)]
    records.sort(key=lambda record: record["text"])
    return time.perf_counter() - start


class SpeedClock:
    """Speed samples over time; raw and reference-speed intervals."""

    def __init__(self, probe: Callable[[], float] = calibration_loop,
                 timer: Callable[[], float] = time.perf_counter,
                 period: float = PERIOD_S,
                 reference: float = REFERENCE_S) -> None:
        self.probe = probe
        self.timer = timer
        self.period = period
        self.reference = reference
        #: Sample start times, end times and loop durations, in order.
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.loops: List[float] = []
        self._previous_handler: Optional[object] = None

    def sample(self) -> None:
        """Time the loop now (best of two runs, so one preemption does
        not read as a slow host)."""
        start = self.timer()
        loop = min(self.probe(), self.probe())
        self.starts.append(start)
        self.ends.append(self.timer())
        self.loops.append(loop)

    def start(self) -> None:
        """Sample now and every ``period`` seconds until :meth:`stop`."""
        self._previous_handler = signal.signal(
            signal.SIGALRM, lambda signum, frame: self.sample())
        self.sample()
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)

    def stop(self) -> None:
        """Stop the timer (idempotent) and take a last sample."""
        if self._previous_handler is None:
            return
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous_handler)
        self._previous_handler = None
        self.sample()

    def raw(self, begin: float, end: float) -> float:
        """Wall seconds in ``[begin, end]`` outside the samples."""
        return self._integrate(begin, end, scaled=False)

    def scaled(self, begin: float, end: float) -> float:
        """Reference seconds in ``[begin, end]``: samples must exist at
        or before ``begin`` and at or after ``end``."""
        return self._integrate(begin, end, scaled=True)

    def _integrate(self, begin: float, end: float, scaled: bool) -> float:
        if not self.starts or begin < self.starts[0] \
                or end > self.ends[-1]:
            raise ValueError("the interval is not bracketed by samples")
        total = 0.0
        # Stretch k runs from the end of sample k to the start of k + 1.
        first = max(0, bisect.bisect_right(self.ends, begin) - 1)
        for k in range(first, len(self.starts) - 1):
            low = max(begin, self.ends[k])
            high = min(end, self.starts[k + 1])
            if self.ends[k] >= end:
                break
            if high <= low:
                continue
            weight = 1.0
            if scaled:
                weight = 2.0 * self.reference / (self.loops[k]
                                                 + self.loops[k + 1])
            total += (high - low) * weight
        return total

    def summary(self) -> Dict[str, float]:
        """Sample count and loop times (for the run record)."""
        return {"samples": len(self.loops),
                "loop_min_s": min(self.loops),
                "loop_median_s": statistics.median(self.loops),
                "loop_max_s": max(self.loops)}
