"""Wired FIFO hop and trace-driven queueing substrate.

This package replaces two pieces of the paper's validation setup:

* the reference *wired* FIFO link whose rate-response curve (equation
  (1)) the paper contrasts against — :class:`repro.queueing.fifo.FifoHop`;
* the Matlab queueing simulator that "convolves a series of packet
  arrivals with a series of service times" —
  :class:`repro.queueing.trace.TraceDrivenQueue`, built on the Lindley
  recursion.

It also implements the intrusion residual ``R_i`` of section 5.1.
"""

from repro.queueing.lindley import lindley_recursion
from repro.queueing.workload import intrusion_residual_recursive
from repro.queueing.fifo import FifoHop, FifoResult
from repro.queueing.trace import TraceDrivenQueue, TraceQueueResult

__all__ = [
    "FifoHop",
    "FifoResult",
    "TraceDrivenQueue",
    "TraceQueueResult",
    "intrusion_residual_recursive",
    "lindley_recursion",
]
