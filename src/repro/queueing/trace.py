"""Trace-driven queue — the paper's Matlab queueing simulator.

From appendix A: *"The queuing simulator convolves a series of packet
arrivals with a series of service times in order to measure several
metrics such as the queuing length distribution and the output
dispersion (inter-arrival) of packets."*

:class:`TraceDrivenQueue` does the same for the output dispersion: it
takes arrival instants and per-packet service times (constants, arrays,
or a sampler drawing from a measured access-delay distribution) and
produces the FIFO sample path and its output dispersions.  Feeding it
access-delay samples measured on the DCF simulator isolates the
queueing component of the probing process from the contention
component, as the paper's Matlab tool did.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

import numpy as np

from repro.queueing.lindley import lindley_recursion

ServiceSpec = Union[float, Sequence[float], Callable[[int, np.random.Generator], float]]


@dataclass
class TraceQueueResult:
    """Sample path produced by :class:`TraceDrivenQueue`."""

    arrivals: np.ndarray
    services: np.ndarray
    starts: np.ndarray
    departures: np.ndarray

    @property
    def output_gaps(self) -> np.ndarray:
        """Inter-departure times (dispersion samples)."""
        return np.diff(self.departures)

    @property
    def output_gap(self) -> float:
        """Train-level output dispersion (d_n - d_1)/(n - 1)."""
        if len(self.departures) < 2:
            raise ValueError("need at least two packets")
        return float(
            (self.departures[-1] - self.departures[0])
            / (len(self.departures) - 1))


class TraceDrivenQueue:
    """Convolves arrivals with service times through a FIFO queue.

    Parameters
    ----------
    services:
        One of: a scalar (deterministic service), a sequence aligned
        with the arrivals, or a callable ``f(index, rng) -> float``
        sampling the service of the ``index``-th packet — the hook used
        to replay *measured, index-dependent* access-delay
        distributions, i.e. the transient regime.
    """

    def __init__(self, services: ServiceSpec) -> None:
        self.services = services

    def _materialize(self, n: int,
                     rng: Optional[np.random.Generator]) -> np.ndarray:
        if callable(self.services):
            if rng is None:
                rng = np.random.default_rng()
            return np.array([self.services(i, rng) for i in range(n)])
        if np.isscalar(self.services):
            value = float(self.services)
            if value < 0:
                raise ValueError(f"service time must be >= 0, got {value}")
            return np.full(n, value)
        services = np.asarray(self.services, dtype=float)
        if len(services) != n:
            raise ValueError(
                f"got {len(services)} service times for {n} arrivals")
        return services

    def run(self, arrivals: Sequence[float],
            rng: Optional[np.random.Generator] = None) -> TraceQueueResult:
        """Push ``arrivals`` through the queue and return the sample path."""
        arrivals = np.asarray(arrivals, dtype=float)
        services = self._materialize(len(arrivals), rng)
        starts, departures = lindley_recursion(arrivals, services)
        return TraceQueueResult(arrivals=arrivals, services=services,
                                starts=starts, departures=departures)
