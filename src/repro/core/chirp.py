"""pathChirp-style exponentially spaced probe chirps.

Ribeiro et al. (reference [19] of the paper) probe with *chirps*:
trains whose inter-packet gap shrinks geometrically, so a single train
sweeps a whole range of instantaneous rates.  The receiver looks at the
relative one-way delays: once the instantaneous rate passes the
turning point, queueing delay builds up and the delay signature starts
an *excursion* that does not recover.

On a CSMA/CA link the turning point a chirp finds is — like every other
dispersion tool — the achievable throughput, and because a chirp's
high-rate tail is short (few packets per rate), it is particularly
exposed to the transient-acceleration bias the paper analyzes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.core.dispersion import TrainMeasurement
from repro.traffic.packets import Packet


@dataclass(frozen=True)
class ChirpTrain:
    """A probe train with geometrically decreasing gaps.

    The k-th gap is ``initial_gap / spread_factor**k``; instantaneous
    rates therefore sweep ``L/initial_gap`` up to
    ``L/initial_gap * spread_factor**(n-2)``.

    Attributes
    ----------
    n:
        Number of packets (n - 1 gaps).
    initial_gap:
        First (largest) inter-packet gap, seconds.
    spread_factor:
        Geometric gap-shrink factor (pathChirp's gamma), > 1.
    size_bytes:
        Probe packet size L.
    """

    n: int
    initial_gap: float
    spread_factor: float = 1.2
    size_bytes: int = 1500

    def __post_init__(self) -> None:
        if self.n < 3:
            raise ValueError(f"a chirp needs at least 3 packets, got {self.n}")
        if self.initial_gap <= 0:
            raise ValueError("initial gap must be positive")
        if self.spread_factor <= 1.0:
            raise ValueError("spread factor must exceed 1")
        if self.size_bytes <= 0:
            raise ValueError("size must be positive")

    @classmethod
    def covering_rates(cls, low_bps: float, high_bps: float,
                       spread_factor: float = 1.2,
                       size_bytes: int = 1500) -> "ChirpTrain":
        """Build a chirp sweeping ``[low_bps, high_bps]``."""
        if not 0 < low_bps < high_bps:
            raise ValueError("need 0 < low < high")
        gaps_needed = int(np.ceil(np.log(high_bps / low_bps)
                                  / np.log(spread_factor))) + 1
        return cls(n=gaps_needed + 1,
                   initial_gap=size_bytes * 8 / low_bps,
                   spread_factor=spread_factor,
                   size_bytes=size_bytes)

    @property
    def gaps(self) -> np.ndarray:
        """The n-1 inter-packet gaps."""
        k = np.arange(self.n - 1)
        return self.initial_gap / self.spread_factor ** k

    @property
    def instantaneous_rates(self) -> np.ndarray:
        """Rate L/g_k carried by each gap."""
        return self.size_bytes * 8 / self.gaps

    @property
    def duration(self) -> float:
        """First-to-last packet arrival span."""
        return float(np.sum(self.gaps))

    def arrival_times(self, start: float = 0.0) -> np.ndarray:
        """Packet emission instants."""
        return start + np.concatenate([[0.0], np.cumsum(self.gaps)])

    def packets(self, start: float = 0.0) -> List[Tuple[float, Packet]]:
        """Materialize the chirp as (time, packet) pairs."""
        return [
            (float(t), Packet(self.size_bytes, flow="probe", seq=i,
                              created_at=float(t)))
            for i, t in enumerate(self.arrival_times(start))
        ]


@dataclass
class ChirpAnalysis:
    """Per-chirp turning-point analysis."""

    turning_rate_bps: float
    turning_index: int
    delays: np.ndarray
    rates: np.ndarray


def analyze_chirp(measurement: TrainMeasurement, chirp: ChirpTrain,
                  departure_fraction: float = 0.15) -> ChirpAnalysis:
    """Locate the chirp's turning point from one-way delays.

    A simplified pathChirp detector.  Relative one-way delays are
    baselined at their minimum; the *departure level* is
    ``baseline + departure_fraction * (peak - baseline)``.  The turning
    point is the last gap index still at or below the departure level
    from which the delays never drop back below it — the start of the
    final, unrecovered excursion.  If every excursion recovers (or the
    delays are flat), the chirp's maximum rate is reported: the path
    absorbed the whole sweep.
    """
    if measurement.n != chirp.n:
        raise ValueError(
            f"measurement has {measurement.n} packets, chirp {chirp.n}")
    if not 0 < departure_fraction < 1:
        raise ValueError("departure_fraction must be in (0, 1)")
    delays = measurement.one_way_delays
    delays = delays - float(np.min(delays))
    rates = chirp.instantaneous_rates
    n_gaps = len(rates)
    peak = float(np.max(delays))
    threshold = departure_fraction * peak
    start = n_gaps  # sentinel: no turning point
    for i in range(len(delays) - 1, -1, -1):
        if delays[i] <= threshold:
            start = i
            break
    unrecovered = (start < len(delays) - 1
                   and bool(np.all(delays[start + 1:] > threshold)))
    if peak <= 0 or not unrecovered:
        return ChirpAnalysis(
            turning_rate_bps=float(rates[-1]), turning_index=n_gaps,
            delays=delays, rates=rates)
    turning_index = min(start, n_gaps - 1)
    return ChirpAnalysis(
        turning_rate_bps=float(rates[turning_index]),
        turning_index=turning_index,
        delays=delays,
        rates=rates,
    )


def chirp_estimate(measurements: List[TrainMeasurement], chirp: ChirpTrain,
                   departure_fraction: float = 0.15) -> float:
    """Average turning-point rate over repeated chirps."""
    if len(measurements) == 0:
        raise ValueError("need at least one measurement")
    rates = [analyze_chirp(m, chirp, departure_fraction).turning_rate_bps
             for m in measurements]
    return float(np.mean(rates))
