"""Cross-traffic generators.

Each generator produces an :class:`ArrivalSchedule` — the arrival
instants and packet sizes of one flow over a horizon, held as arrays.
The batched FIFO kernel reads the arrays directly; iterating a schedule
yields the ``(time, Packet)`` pairs the event engine replays as arrival
events, so ``generate`` is the one draw path of both.  The paper's
cross-traffic is Poisson (section 2.1); CBR and on-off generators are
provided for sensitivity studies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.traffic.packets import Packet


@dataclass
class ArrivalSchedule:
    """A finite, time-ordered run of one flow's packet arrivals.

    ``times`` are non-decreasing instants and ``sizes`` the packet
    sizes in bytes, one per arrival; every packet carries ``flow``.
    """

    times: np.ndarray
    sizes: np.ndarray
    flow: str = "cross"

    def __post_init__(self) -> None:
        self.times = np.asarray(self.times, dtype=float)
        self.sizes = np.asarray(self.sizes, dtype=np.int64)
        if self.times.shape != self.sizes.shape or self.times.ndim != 1:
            raise ValueError(
                f"need one size per arrival, got {self.sizes.shape} sizes "
                f"for {self.times.shape} times")
        if np.any(self.times[1:] < self.times[:-1]):
            raise ValueError("arrival times must be non-decreasing")

    def __len__(self) -> int:
        return len(self.times)

    def __iter__(self) -> Iterator[Tuple[float, Packet]]:
        """The arrivals as ``(time, Packet)`` pairs, each packet made
        on demand with ``created_at`` equal to its time."""
        for t, size in zip(self.times.tolist(), self.sizes.tolist()):
            yield t, Packet(size, self.flow, created_at=t)


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
        """Draw a Poisson sample path over ``[start, start + horizon)``.

        Exponential gaps are drawn in batches until the path crosses
        the horizon.  Each batch is summed onto the last arrival by one
        ``cumsum`` over ``[t, gaps...]``, the same sequential sum as
        ``t += gap``, and cut at the horizon by ``searchsorted``.
        """
        if horizon < 0:
            raise ValueError(f"horizon must be non-negative, got {horizon}")
        lam = self.packets_per_second
        runs: List[np.ndarray] = []
        if lam > 0 and horizon > 0:
            t = start
            end = start + horizon
            batch = max(16, int(lam * horizon * 1.2) + 8)
            while True:
                gaps = rng.exponential(1.0 / lam, size=batch)
                path = np.cumsum(np.concatenate(([t], gaps)))[1:]
                inside = int(np.searchsorted(path, end))
                runs.append(path[:inside])
                if inside < batch:
                    break
                t = path[-1]
        times = np.concatenate(runs) if runs else np.empty(0)
        return ArrivalSchedule(times, np.full(len(times), self.size_bytes),
                               self.flow)


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
        times = np.empty(0)
        if self.rate_bps > 0 and horizon > 0:
            interval = self.interval
            count = int(horizon / interval) + 1
            times = start + np.arange(count) * interval
            if self.jitter > 0:
                if rng is None:
                    raise ValueError("jitter requires an rng")
                times = times + rng.uniform(0, self.jitter, size=count)
                times.sort()
            times = times[times < start + horizon]
        return ArrivalSchedule(times, np.full(len(times), self.size_bytes),
                               self.flow)


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
        times: List[float] = []
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
                    times.append(at)
                t += period
            else:
                t += rng.exponential(self.mean_off)
            on = not on
        return ArrivalSchedule(times, np.full(len(times), self.size_bytes),
                               self.flow)


class TraceGenerator:
    """Replays an explicit list of (time, size) pairs.

    Useful in tests and in the trace-driven queueing simulator where the
    arrival process comes from a measured sample path.
    """

    def __init__(self, trace: Sequence[Tuple[float, int]], flow: str = "cross") -> None:
        self.times = np.array([float(t) for t, _ in trace])
        self.sizes = np.array([int(s) for _, s in trace], dtype=np.int64)
        if np.any(self.times[1:] < self.times[:-1]):
            raise ValueError("trace times must be non-decreasing")
        self.flow = flow

    def generate(self, horizon: float,
                 rng: Optional[np.random.Generator] = None,
                 start: float = 0.0) -> ArrivalSchedule:
        """Replay the trace, clipped to ``[start, start + horizon)``."""
        inside = (self.times >= start) & (self.times < start + horizon)
        return ArrivalSchedule(self.times[inside], self.sizes[inside],
                               self.flow)
