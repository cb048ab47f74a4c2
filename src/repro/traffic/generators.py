"""Cross-traffic generators.

Each generator produces an :class:`ArrivalSchedule` — a finite sequence
of ``(time, Packet)`` pairs over a horizon — which the simulators replay
as arrival events.  The paper's cross-traffic is Poisson (section 2.1);
CBR and on-off generators are provided for sensitivity studies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.traffic.packets import Packet


@dataclass
class ArrivalSchedule:
    """A finite, time-ordered list of packet arrivals."""

    arrivals: List[Tuple[float, Packet]]

    def __post_init__(self) -> None:
        times = [t for t, _ in self.arrivals]
        if any(t2 < t1 for t1, t2 in zip(times, times[1:])):
            raise ValueError("arrival times must be non-decreasing")

    def __len__(self) -> int:
        return len(self.arrivals)

    def __iter__(self) -> Iterator[Tuple[float, Packet]]:
        return iter(self.arrivals)

    @property
    def times(self) -> np.ndarray:
        """Arrival instants as an array."""
        return np.array([t for t, _ in self.arrivals], dtype=float)


class PoissonGenerator:
    """Poisson packet arrivals at a target bit rate.

    Parameters
    ----------
    rate_bps:
        Offered load in bits per second (network layer).
    size_bytes:
        Fixed packet size; the paper's cross-traffic uses fixed sizes per
        flow (e.g. 1500 B, or the 40/576/1000/1500 B mix of figure 9 —
        build one generator per size).
    flow:
        Flow label stamped on generated packets.
    """

    def __init__(self, rate_bps: float, size_bytes: int = 1500,
                 flow: str = "cross") -> None:
        if rate_bps < 0:
            raise ValueError(f"rate must be non-negative, got {rate_bps}")
        if size_bytes <= 0:
            raise ValueError(f"size must be positive, got {size_bytes}")
        self.rate_bps = float(rate_bps)
        self.size_bytes = int(size_bytes)
        self.flow = flow

    @property
    def packets_per_second(self) -> float:
        """Mean packet arrival rate (lambda)."""
        return self.rate_bps / (self.size_bytes * 8)

    def generate(self, horizon: float, rng: np.random.Generator,
                 start: float = 0.0) -> ArrivalSchedule:
        """Draw a Poisson sample path over ``[start, start + horizon)``."""
        if horizon < 0:
            raise ValueError(f"horizon must be non-negative, got {horizon}")
        lam = self.packets_per_second
        arrivals: List[Tuple[float, Packet]] = []
        if lam <= 0 or horizon == 0:
            return ArrivalSchedule(arrivals)
        # Draw exponential gaps in bulk, extending until the horizon.
        t = start
        end = start + horizon
        batch = max(16, int(lam * horizon * 1.2) + 8)
        while True:
            gaps = rng.exponential(1.0 / lam, size=batch)
            for gap in gaps:
                t += gap
                if t >= end:
                    return ArrivalSchedule(arrivals)
                arrivals.append(
                    (t, Packet(self.size_bytes, self.flow, created_at=t)))


class CBRGenerator:
    """Constant-bit-rate arrivals (periodic packets)."""

    def __init__(self, rate_bps: float, size_bytes: int = 1500,
                 flow: str = "cross", jitter: float = 0.0) -> None:
        if rate_bps < 0:
            raise ValueError(f"rate must be non-negative, got {rate_bps}")
        if size_bytes <= 0:
            raise ValueError(f"size must be positive, got {size_bytes}")
        if jitter < 0:
            raise ValueError(f"jitter must be non-negative, got {jitter}")
        self.rate_bps = float(rate_bps)
        self.size_bytes = int(size_bytes)
        self.flow = flow
        self.jitter = float(jitter)

    @property
    def interval(self) -> float:
        """Inter-packet gap in seconds."""
        if self.rate_bps == 0:
            return float("inf")
        return self.size_bytes * 8 / self.rate_bps

    def generate(self, horizon: float, rng: Optional[np.random.Generator] = None,
                 start: float = 0.0) -> ArrivalSchedule:
        """Emit periodic packets over ``[start, start + horizon)``.

        ``rng`` is only needed when ``jitter > 0`` (uniform jitter of up
        to ``jitter`` seconds is added to each nominal instant).
        """
        if horizon < 0:
            raise ValueError(f"horizon must be non-negative, got {horizon}")
        if self.rate_bps == 0 or horizon == 0:
            return ArrivalSchedule([])
        interval = self.interval
        count = int(horizon / interval) + 1
        times = start + np.arange(count) * interval
        if self.jitter > 0:
            if rng is None:
                raise ValueError("jitter requires an rng")
            times = times + rng.uniform(0, self.jitter, size=count)
            times.sort()
        arrivals = [(float(t), Packet(self.size_bytes, self.flow, created_at=float(t)))
                    for t in times if t < start + horizon]
        return ArrivalSchedule(arrivals)


class OnOffGenerator:
    """Exponential on-off bursty traffic.

    During ON periods packets are emitted as CBR at ``peak_rate_bps``;
    ON and OFF period lengths are exponential.  Used by the sensitivity
    benches to study how cross-traffic burstiness loosens the dispersion
    bounds (section 6.3.2 of the paper).
    """

    def __init__(self, peak_rate_bps: float, mean_on: float, mean_off: float,
                 size_bytes: int = 1500, flow: str = "cross") -> None:
        if peak_rate_bps <= 0:
            raise ValueError(f"peak rate must be positive, got {peak_rate_bps}")
        if mean_on <= 0 or mean_off < 0:
            raise ValueError("mean_on must be > 0 and mean_off >= 0")
        if size_bytes <= 0:
            raise ValueError(f"size must be positive, got {size_bytes}")
        self.peak_rate_bps = float(peak_rate_bps)
        self.mean_on = float(mean_on)
        self.mean_off = float(mean_off)
        self.size_bytes = int(size_bytes)
        self.flow = flow

    @property
    def mean_rate_bps(self) -> float:
        """Long-run average offered rate."""
        duty = self.mean_on / (self.mean_on + self.mean_off)
        return self.peak_rate_bps * duty

    def generate(self, horizon: float, rng: np.random.Generator,
                 start: float = 0.0) -> ArrivalSchedule:
        """Draw an on-off sample path over ``[start, start + horizon)``."""
        if horizon < 0:
            raise ValueError(f"horizon must be non-negative, got {horizon}")
        interval = self.size_bytes * 8 / self.peak_rate_bps
        arrivals: List[Tuple[float, Packet]] = []
        t = start
        end = start + horizon
        on = rng.random() < self.mean_on / (self.mean_on + self.mean_off)
        while t < end:
            if on:
                period = rng.exponential(self.mean_on)
                n = int(period / interval)
                for k in range(n):
                    at = t + k * interval
                    if at >= end:
                        break
                    arrivals.append(
                        (at, Packet(self.size_bytes, self.flow, created_at=at)))
                t += period
            else:
                t += rng.exponential(self.mean_off)
            on = not on
        return ArrivalSchedule(arrivals)


class TraceGenerator:
    """Replays an explicit list of (time, size) pairs.

    Useful in tests and in the trace-driven queueing simulator where the
    arrival process comes from a measured sample path.
    """

    def __init__(self, trace: Sequence[Tuple[float, int]], flow: str = "cross") -> None:
        self.trace = [(float(t), int(s)) for t, s in trace]
        if any(t2 < t1 for (t1, _), (t2, _) in zip(self.trace, self.trace[1:])):
            raise ValueError("trace times must be non-decreasing")
        self.flow = flow

    def generate(self, horizon: float,
                 rng: Optional[np.random.Generator] = None,
                 start: float = 0.0) -> ArrivalSchedule:
        """Replay the trace, clipped to ``[start, start + horizon)``."""
        arrivals = [(t, Packet(s, self.flow, created_at=t))
                    for t, s in self.trace if start <= t < start + horizon]
        return ArrivalSchedule(arrivals)
