"""Path hops: wired FIFO links and DCF wireless links.

A hop consumes the probing packets' arrival instants (absolute path
time), merges them with its *local* cross-traffic (redrawn per
repetition — the usual one-hop-persistent cross-traffic assumption of
the multi-hop probing literature), and returns the departure instants
plus the hop's propagation delay.

Each hop type has two faces: the per-packet :meth:`PathHop.carry`
(event engine / exact FIFO replay) and the batched
:meth:`PathHop.carry_batch`, which forwards a whole ``(repetitions,
n)`` arrival matrix through the hop's vector kernel in one pass — the
building block :meth:`repro.path.network.NetworkPath.carry_batch`
chains into the multihop kernel.  :meth:`PathHop.scenario_fragment`
describes the hop to the backend dispatcher so eligibility is derived,
never assumed.
"""

from __future__ import annotations

import abc
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.backends import ScenarioSpec
from repro.mac.params import PhyParams
from repro.mac.scenario import StationSpec, WlanScenario
from repro.queueing.fifo import FifoHop
from repro.sim.probe_vector import (
    classify_cross_generator,
    classify_cross_stations,
    cross_spec_from_generator,
    fifo_size_mismatch_detail,
    simulate_probe_arrivals_batch,
)
from repro.traffic.packets import Packet


def _classify_generator(generator: Optional[object],
                        label: str) -> Tuple[str, str]:
    """``(traffic kind, detail)`` of one cross-traffic generator."""
    if generator is None:
        return "none", ""
    try:
        kind, _ = classify_cross_generator(generator)
    except ValueError as exc:
        return "other", f"{label}: {exc}"
    return kind, ""


class PathHop(abc.ABC):
    """One store-and-forward element of a network path."""

    #: Propagation delay added after the hop's transmission, seconds.
    prop_delay: float = 0.0

    @abc.abstractmethod
    def carry(self, arrivals: Sequence[Tuple[float, Packet]],
              rng: np.random.Generator) -> np.ndarray:
        """Forward ``arrivals`` (time-ordered) and return departures.

        The returned array aligns with ``arrivals`` (FIFO order is
        preserved by both hop types) and includes ``prop_delay``.
        """

    def carry_batch(self, times: np.ndarray, size_bytes: int,
                    rep_seeds: Sequence[int]) -> np.ndarray:
        """Forward a ``(repetitions, n)`` arrival matrix in one pass.

        Statistically equivalent to mapping :meth:`carry` over the
        repetitions (each repetition redraws this hop's cross-traffic
        from its own stream); hop types without a vector kernel raise
        ``ValueError``.
        """
        raise ValueError(
            f"{type(self).__name__} has no vector kernel; "
            "run with backend='event'")

    def scenario_fragment(self, size_bytes: int = 1500) -> ScenarioSpec:
        """This hop's contribution to the path's dispatch spec.

        The base class declares an unknown system, so paths containing
        custom hop types only ever run the event engine.
        """
        return ScenarioSpec(system="other", workload="train",
                            cross_traffic="other",
                            cross_detail=f"{type(self).__name__} has no "
                                         "batched hop kernel; run with "
                                         "backend='event'")


class WiredHop(PathHop):
    """A constant-rate FIFO link with optional local cross-traffic."""

    def __init__(self, capacity_bps: float,
                 cross_generator: Optional[object] = None,
                 prop_delay: float = 0.0,
                 warmup: float = 0.1) -> None:
        if prop_delay < 0 or warmup < 0:
            raise ValueError("prop_delay and warmup must be non-negative")
        self.hop = FifoHop(capacity_bps)
        self.cross_generator = cross_generator
        self.prop_delay = float(prop_delay)
        self.warmup = float(warmup)

    def carry(self, arrivals: Sequence[Tuple[float, Packet]],
              rng: np.random.Generator) -> np.ndarray:
        if len(arrivals) == 0:
            return np.array([])
        first = arrivals[0][0]
        last = arrivals[-1][0]
        merged: List[Tuple[float, Packet]] = list(arrivals)
        if self.cross_generator is not None:
            window_start = max(0.0, first - self.warmup)
            # Enough horizon for the probe span plus queue drain.
            horizon = (last - window_start
                       + self.warmup + 0.1)
            merged.extend(self.cross_generator.generate(
                horizon, rng, start=window_start))
        result = self.hop.run(merged)
        by_uid = {r.packet.uid: r.departure for r in result.records}
        return np.array([by_uid[p.uid] + self.prop_delay
                         for _, p in arrivals])

    def scenario_fragment(self, size_bytes: int = 1500) -> ScenarioSpec:
        """A wired FIFO hop.

        The batched replay calls the generator's own ``generate`` per
        repetition, so any model with one would work — but the
        path-level spec can only carry one traffic vocabulary, so the
        fragment classifies conservatively (an unclassifiable
        generator demotes the path to the event engine).
        """
        kind, detail = _classify_generator(self.cross_generator,
                                           "wired-hop cross-traffic")
        return ScenarioSpec(system="fifo", workload="train",
                            cross_traffic=kind, cross_detail=detail)

    def carry_batch(self, times: np.ndarray, size_bytes: int,
                    rep_seeds: Sequence[int]) -> np.ndarray:
        """All repetitions through one batched Lindley recursion.

        Each repetition replays :meth:`carry`'s mechanics (same warmup
        window, same generator call), with the cross-traffic
        schedule's arrays merged into the probes by
        :meth:`repro.queueing.fifo.FifoHop.run_rows`, the one merge of
        the wired kernels.  So for *equal* rng streams the departures
        equal the event path's bit for bit.  Inside a chained path the
        per-hop seed derivations differ between backends, so the
        end-to-end contract is distributional (like the WLAN hops'),
        pinned by the multihop KS tests.
        """
        times = np.asarray(times, dtype=float)
        schedules = []
        for r, rep_seed in enumerate(rep_seeds):
            if self.cross_generator is None:
                schedules.append(None)
                continue
            window_start = max(0.0, float(times[r, 0]) - self.warmup)
            horizon = (float(times[r, -1]) - window_start
                       + self.warmup + 0.1)
            schedules.append(self.cross_generator.generate(
                horizon, np.random.default_rng(int(rep_seed)),
                start=window_start))
        _, departures = self.hop.run_rows(times, size_bytes, schedules)
        return departures + self.prop_delay


class WlanHop(PathHop):
    """A DCF wireless link with contending (and FIFO) cross-traffic.

    The probing packets enter the wireless sender's transmission queue;
    ``cross_stations`` contend from other stations and ``fifo_cross``
    shares the sender's queue — exactly the paper's figure-3 model, now
    embedded in a longer path.
    """

    def __init__(self, cross_stations: Sequence[Tuple[str, object]] = (),
                 fifo_cross: Optional[object] = None,
                 phy: Optional[PhyParams] = None,
                 prop_delay: float = 0.0,
                 warmup: float = 0.2,
                 drain_rate_floor: float = 1e6,
                 retry_limit: Optional[int] = None,
                 rts_threshold: Optional[int] = None) -> None:
        if prop_delay < 0 or warmup < 0:
            raise ValueError("prop_delay and warmup must be non-negative")
        if drain_rate_floor <= 0:
            raise ValueError("drain_rate_floor must be positive")
        self.cross_stations = list(cross_stations)
        self.fifo_cross = fifo_cross
        self.phy = phy if phy is not None else PhyParams.dot11b()
        self.prop_delay = float(prop_delay)
        self.warmup = float(warmup)
        self.drain_rate_floor = drain_rate_floor
        self.retry_limit = retry_limit
        self.rts_threshold = rts_threshold
        self._scenario = WlanScenario(self.phy, retry_limit=retry_limit,
                                      rts_threshold=rts_threshold)

    def carry(self, arrivals: Sequence[Tuple[float, Packet]],
              rng: np.random.Generator) -> np.ndarray:
        if len(arrivals) == 0:
            return np.array([])
        first = arrivals[0][0]
        last = arrivals[-1][0]
        # Shift the hop's local clock so cross-traffic can warm up
        # before the first probe packet arrives.
        offset = max(0.0, first - self.warmup)
        local_arrivals = [(t - offset, p) for t, p in arrivals]
        total_bytes = sum(p.size_bytes for _, p in arrivals)
        drain = total_bytes * 8 / self.drain_rate_floor
        horizon = (last - offset) + drain + 0.1
        specs = [StationSpec("probe", generator=self.fifo_cross,
                             arrivals=local_arrivals)]
        for name, generator in self.cross_stations:
            specs.append(StationSpec(name, generator=generator))
        result = self._scenario.run(
            specs, horizon=horizon, seed=int(rng.integers(0, 2 ** 31)))
        records = result.station("probe").records
        by_uid = {r.packet.uid: r for r in records}
        departures = []
        for _, packet in arrivals:
            record = by_uid[packet.uid]
            if not record.completed:
                raise RuntimeError("probe packet lost on wireless hop")
            departures.append(record.departure + offset + self.prop_delay)
        return np.array(departures)

    def scenario_fragment(self, size_bytes: int = 1500) -> ScenarioSpec:
        """Compile this hop's configuration, like the WLAN channel's
        :meth:`repro.testbed.channel.SimulatedWlanChannel.scenario_spec`
        (``size_bytes`` plays the probe train's role for the FIFO
        packet-size check)."""
        cross_kind, cross_detail = classify_cross_stations(
            self.cross_stations)
        fifo_kind, fifo_detail = _classify_generator(
            self.fifo_cross, "FIFO cross-traffic")
        if fifo_kind != "none" and fifo_kind != "other":
            fifo_size = getattr(self.fifo_cross, "size_bytes", size_bytes)
            if int(fifo_size) != int(size_bytes):
                fifo_kind = "other"
                fifo_detail = fifo_size_mismatch_detail(size_bytes,
                                                        fifo_size)
        return ScenarioSpec(
            system="wlan",
            workload="train",
            cross_traffic=cross_kind,
            fifo_cross=fifo_kind,
            rts_cts=self.rts_threshold is not None,
            retry_limit=self.retry_limit is not None,
            cross_detail=cross_detail,
            fifo_detail=fifo_detail,
        )

    def carry_batch(self, times: np.ndarray, size_bytes: int,
                    rep_seeds: Sequence[int]) -> np.ndarray:
        """All repetitions through one probe-train kernel pass.

        Mirrors :meth:`carry` per repetition: the hop's local clock is
        shifted so cross-traffic warms up before the first probe
        arrival, the arrival matrix rides the probe station's queue,
        and cross stations replay their batched sample paths over the
        repetition's own horizon — the event hop's — so a row's draws
        never depend on the rows batched with it.  Statistically
        equivalent to the event hop (pinned by the multihop KS tests);
        departures include ``prop_delay``.
        """
        times = np.asarray(times, dtype=float)
        n = times.shape[1]
        offset = np.maximum(0.0, times[:, 0] - self.warmup)
        local = times - offset[:, None]
        drain = n * size_bytes * 8 / self.drain_rate_floor
        horizon = local[:, -1] + drain + 0.1
        cross = [cross_spec_from_generator(generator)
                 for _, generator in self.cross_stations]
        fifo = (cross_spec_from_generator(self.fifo_cross)
                if self.fifo_cross is not None else None)
        batch = simulate_probe_arrivals_batch(
            local, size_bytes=size_bytes, seeds=np.asarray(rep_seeds),
            cross=cross, fifo_cross=fifo, horizon=horizon, phy=self.phy,
            rts_threshold=self.rts_threshold,
            retry_limit=self.retry_limit)
        return batch.recv_times + offset[:, None] + self.prop_delay
