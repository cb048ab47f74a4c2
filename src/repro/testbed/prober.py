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
from typing import List, Optional, Sequence

import numpy as np

from repro.core.correction import mser_corrected_rate
from repro.core.dispersion import TrainMeasurement
from repro.core.estimators import (
    RateResponseCurve,
    packet_pair_capacity,
    rate_response_from_measurements,
    train_dispersion_rate,
)
from repro.testbed.channel import Channel
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
        Repetition backend handed to
        :meth:`repro.testbed.channel.Channel.send_trains`: ``event``
        (default) shards event-engine repetitions, ``vector`` resolves
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
        list of measurements per train.

        Point ``k`` sends ``trains[k]`` from ``point_seeds[k]``; the
        whole scan is one channel request
        (:meth:`repro.testbed.channel.Channel.send_scan`), so a kernel
        backend resolves it in one call and its rows are exactly the
        one-point requests' rows.  Clocks stamp the rows in row
        order, point-major, as a loop over the points would.
        """
        reps = (repetitions if repetitions is not None
                else self.config.repetitions)
        batch = self.channel.send_scan(trains, reps, point_seeds,
                                       backend=self.config.backend)
        rows = [self._stamp(send, recv, batch.size_bytes)
                for send, recv in zip(batch.send_times, batch.recv_times)]
        return [rows[k * reps:(k + 1) * reps] for k in range(len(trains))]

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
        """Measure a rate-response curve over ``rates_bps``.

        One :meth:`measure_scan` over the sorted rates, point ``k``
        seeded from ``seed + 7919 * k``.
        """
        rates = sorted(rates_bps)
        scan = self.measure_scan(
            n, rates, [seed + 7919 * k for k in range(len(rates))],
            repetitions)
        return rate_response_from_measurements(dict(zip(rates, scan)))

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
