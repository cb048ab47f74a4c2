"""The probing tool.

:class:`Prober` is the user-facing measurement tool of this repository:
point it at a :class:`repro.testbed.channel.Channel`, and it performs
the measurements the paper analyzes — packet-pair capacity probes, rate
scans, achievable-throughput estimation (equation (2)), and
MSER-corrected short-train measurements (section 7.4) — through
sender/receiver clocks with realistic error models.

The prober never looks below the network layer: everything it returns
is computed from timestamps, exactly like the tools whose behaviour the
paper explains.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.correction import mser_corrected_rate
from repro.core.dispersion import TrainMeasurement
from repro.core.estimators import (
    RateResponseCurve,
    packet_pair_capacity,
    rate_response_from_measurements,
    train_dispersion_rate,
)
from repro.testbed.channel import Channel, send_scan
from repro.testbed.clocks import ClockModel, ntp_synced_pair
from repro.traffic.probe import PacketPair, ProbeTrain


@dataclass
class ProbeSessionConfig:
    """Measurement-session parameters.

    Attributes
    ----------
    size_bytes:
        Probe packet size L.
    repetitions:
        Trains sent per measurement point (the paper's ``m``).
    clock_seed:
        Seed for the clock error models.
    ideal_clocks:
        Disable timestamp errors entirely (simulator ground truth).
    backend:
        Repetition backend of every channel request
        (:func:`repro.testbed.channel.send_scan`; probers measured in
        one scan must agree on it): ``event`` (default) shards
        event-engine repetitions, ``vector`` resolves
        the whole batch with the numpy kernel on channels that have
        one, ``auto`` lets the dispatcher pick the fastest backend the
        channel is eligible for.
    """

    size_bytes: int = 1500
    repetitions: int = 40
    clock_seed: int = 1234
    ideal_clocks: bool = False
    backend: str = "event"


class Prober:
    """Active bandwidth measurement over a channel."""

    def __init__(self, channel: Channel,
                 config: Optional[ProbeSessionConfig] = None) -> None:
        self.channel = channel
        self.config = config if config is not None else ProbeSessionConfig()
        self._clock_rng = np.random.default_rng(self.config.clock_seed)
        if self.config.ideal_clocks:
            self.sender_clock = ClockModel()
            self.receiver_clock = ClockModel()
        else:
            self.sender_clock, self.receiver_clock = ntp_synced_pair(
                self._clock_rng)

    # ------------------------------------------------------------------

    def _stamp(self, send_times: np.ndarray, recv_times: np.ndarray,
               size_bytes: int) -> TrainMeasurement:
        """Apply the clock error models to one train's true instants."""
        return TrainMeasurement(
            send_times=self.sender_clock.timestamps(send_times,
                                                    self._clock_rng),
            recv_times=self.receiver_clock.timestamps(recv_times,
                                                      self._clock_rng),
            size_bytes=size_bytes,
        )

    def _measure(self, trains: Sequence[object],
                 point_seeds: Sequence[int],
                 repetitions: Optional[int]
                 ) -> List[List[TrainMeasurement]]:
        """``repetitions`` copies of each train-shaped object, one
        list of measurements per train: the :func:`measure_points`
        whose every point names this prober."""
        return measure_points([self] * len(trains), trains, point_seeds,
                              repetitions)

    def measure_scan(self, n: int, rates_bps: Sequence[float],
                     point_seeds: Sequence[int],
                     repetitions: Optional[int] = None
                     ) -> List[List[TrainMeasurement]]:
        """``repetitions`` trains of ``n`` packets at each rate, as one
        channel request; point ``k`` probes at ``rates_bps[k]`` from
        ``point_seeds[k]``.  Returns one list of measurements per
        point, in the order given."""
        return self._measure(
            [ProbeTrain.at_rate(n, rate, self.config.size_bytes)
             for rate in rates_bps], point_seeds, repetitions)

    def measure_train(self, n: int, rate_bps: float,
                      repetitions: Optional[int] = None,
                      seed: int = 0) -> List[TrainMeasurement]:
        """Send ``repetitions`` trains of ``n`` packets at ``rate_bps``."""
        return self.measure_scan(n, [rate_bps], [seed], repetitions)[0]

    def measure_pairs(self, repetitions: Optional[int] = None,
                      seed: int = 0) -> List[TrainMeasurement]:
        """Send back-to-back packet pairs."""
        return self._measure([PacketPair(self.config.size_bytes)], [seed],
                             repetitions)[0]

    def measure_sequence(self, n: int, rate_bps: float, m: int,
                         mean_spacing: float = 0.2, guard: float = 0.05,
                         seed: int = 0) -> List[TrainMeasurement]:
        """Send ``m`` Poisson-spaced trains through ONE live system.

        The paper's literal measurement procedure (section 5.1.2);
        requires a channel exposing ``send_train_sequence`` (the
        simulated WLAN backend does).
        """
        from repro.traffic.probe import TrainSequence
        send = getattr(self.channel, "send_train_sequence", None)
        if send is None:
            raise TypeError(
                f"{type(self.channel).__name__} does not support "
                "train sequences")
        train = ProbeTrain.at_rate(n, rate_bps, self.config.size_bytes)
        sequence = TrainSequence(train, m=m, mean_spacing=mean_spacing,
                                 guard=guard)
        return [self._stamp(raw.send_times, raw.recv_times, raw.size_bytes)
                for raw in send(sequence, seed)]

    def measure_chirps(self, chirp, repetitions: Optional[int] = None,
                       seed: int = 0) -> List[TrainMeasurement]:
        """Send pathChirp-style chirps (any train-shaped object works:
        the channel only needs ``n``, ``duration``, ``size_bytes``,
        ``packets(start)`` and ``arrival_times(start)``)."""
        return self._measure([chirp], [seed], repetitions)[0]

    # ------------------------------------------------------------------
    # The measurements of the paper
    # ------------------------------------------------------------------

    def packet_pair_estimate(self, repetitions: Optional[int] = None,
                             seed: int = 0) -> float:
        """Packet-pair 'capacity' estimate (figure 16's inference)."""
        return packet_pair_capacity(self.measure_pairs(repetitions, seed))

    def dispersion_rate(self, n: int, rate_bps: float,
                        repetitions: Optional[int] = None,
                        seed: int = 0) -> float:
        """``L / E[g_O]`` at one probing rate."""
        return train_dispersion_rate(
            self.measure_train(n, rate_bps, repetitions, seed))

    def rate_scan(self, rates_bps: Sequence[float], n: int,
                  repetitions: Optional[int] = None,
                  seed: int = 0) -> RateResponseCurve:
        """Measure a rate-response curve over ``rates_bps``: the
        :func:`rate_scans` of this prober alone."""
        return rate_scans([(self, rates_bps, seed)], n, repetitions)[0]

    def achievable_throughput(self, rates_bps: Sequence[float], n: int,
                              repetitions: Optional[int] = None,
                              tolerance: float = 0.05,
                              seed: int = 0) -> float:
        """Equation (2): B from a measured rate scan."""
        return self.rate_scan(rates_bps, n, repetitions, seed) \
            .achievable_throughput(tolerance)

    def mser_corrected_rate(self, n: int, rate_bps: float, m: int = 2,
                            repetitions: Optional[int] = None,
                            seed: int = 0) -> float:
        """MSER-m-truncated dispersion rate (the paper's correction)."""
        return mser_corrected_rate(
            self.measure_train(n, rate_bps, repetitions, seed), m=m)


def _shared(probers: Sequence[Prober], setting: str):
    """The one value of a session setting all ``probers`` share."""
    values = {getattr(prober.config, setting) for prober in probers}
    if len(values) > 1:
        raise ValueError(f"the probers of one scan differ in {setting}: "
                         f"{sorted(values)}")
    return values.pop()


def measure_points(probers: Sequence[Prober], trains: Sequence[object],
                   point_seeds: Sequence[int],
                   repetitions: Optional[int] = None
                   ) -> List[List[TrainMeasurement]]:
    """``repetitions`` copies of each train-shaped object, each
    through its point's prober; one list of measurements per point.

    Point ``k`` sends ``trains[k]`` through ``probers[k].channel``
    from ``point_seeds[k]``; the whole scan is one channel request
    (:func:`repro.testbed.channel.send_scan`) on the probers' shared
    backend, so a kernel backend resolves it in one call and its rows
    are exactly the one-point requests' rows.  ``repetitions``
    defaults to the probers' shared session value.  Each prober
    stamps its own rows with its own clocks, in row order —
    point-major — as a loop over its points would.
    """
    reps = (repetitions if repetitions is not None
            else _shared(probers, "repetitions"))
    batch = send_scan([prober.channel for prober in probers], trains,
                      reps, point_seeds,
                      backend=_shared(probers, "backend"))
    rows = [probers[r // reps]._stamp(send, recv, batch.size_bytes)
            for r, (send, recv) in enumerate(zip(batch.send_times,
                                                 batch.recv_times))]
    return [rows[k * reps:(k + 1) * reps] for k in range(len(trains))]


def rate_scans(scans: Sequence[Tuple[Prober, Sequence[float], int]],
               n: int, repetitions: Optional[int] = None
               ) -> List[RateResponseCurve]:
    """One rate-response curve per ``(prober, rates, seed)`` scan, all
    measured as one :func:`measure_points` request.

    Each scan probes its sorted rates with ``n``-packet trains of its
    prober's packet size, point ``k`` seeded from ``seed + 7919 * k``.
    """
    probers, trains, seeds, spans = [], [], [], []
    for prober, rates_bps, seed in scans:
        rates = sorted(rates_bps)
        spans.append((len(trains), rates))
        for k, rate in enumerate(rates):
            probers.append(prober)
            trains.append(ProbeTrain.at_rate(n, rate,
                                             prober.config.size_bytes))
            seeds.append(seed + 7919 * k)
    measured = measure_points(probers, trains, seeds, repetitions)
    return [rate_response_from_measurements(
                dict(zip(rates, measured[lo:lo + len(rates)])))
            for lo, rates in spans]
