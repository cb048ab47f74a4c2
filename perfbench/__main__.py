"""``python -m perfbench SPEC.json``: one pass of a workload in a fresh
process, as ``perfbench/run.py`` spawns it.

The speed clock starts before the package under test, numpy included,
is imported, so the pass's set-up time is measured on it from the
first line that can run.
"""

import sys
import time

from perfbench.speed import SpeedClock

STARTED = time.monotonic()
CLOCK = SpeedClock()
CLOCK.start()

from perfbench import workloads  # noqa: E402  (timed on the clock)

try:
    code = workloads.main(sys.argv[1:], CLOCK, STARTED)
finally:
    CLOCK.stop()
sys.exit(code)
