"""Emulated testbed.

The paper's measurements ran on the EXTREME testbed: MGEN traffic,
driver-level timestamping, and NTP synchronization over a parallel
wired interface giving delay accuracies of about ten microseconds.
This package reproduces the *measurement tool* side of that setup:

* :mod:`repro.testbed.clocks` — clock error models (offset, drift,
  timestamping jitter) applied to sender/receiver timestamps;
* :mod:`repro.testbed.channel` — the channel abstraction a live prober
  would bind to scapy/raw sockets; here
  :class:`SimulatedWlanChannel` drives the DCF simulator instead, and
  :class:`SimulatedFifoChannel` drives the wired FIFO hop baseline;
* :mod:`repro.testbed.prober` — the probing tool itself: rate scans,
  packet pairs, train measurements, MSER-corrected measurements — all
  expressed over the channel interface so the code path is identical
  for simulated and live channels.
"""

from repro.testbed.clocks import ClockModel, ntp_synced_pair
from repro.testbed.channel import (
    Channel,
    SimulatedFifoChannel,
    SimulatedWlanChannel,
)
from repro.testbed.prober import Prober, ProbeSessionConfig

__all__ = [
    "Channel",
    "ClockModel",
    "ProbeSessionConfig",
    "Prober",
    "SimulatedFifoChannel",
    "SimulatedWlanChannel",
    "ntp_synced_pair",
]
