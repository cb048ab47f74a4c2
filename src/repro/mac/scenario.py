"""Ready-made single-BSS scenarios.

:class:`WlanScenario` wires together the event engine, the medium and a
set of stations, replays arrival schedules and/or explicit probing
trains into them, runs the simulation to completion and returns a
:class:`ScenarioResult` with per-station packet records, throughputs and
queue traces.  This is the programmatic equivalent of the paper's NS2
setup (figure 2): one probing sender plus one or more contending
cross-traffic senders, all uplink, infinite queues, no RTS/CTS.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.mac.medium import PRIORITY_ARRIVAL, Medium
from repro.mac.params import PhyParams
from repro.mac.station import Station
from repro.sim.engine import Simulator
from repro.traffic.packets import Packet, PacketRecord


@dataclass
class StationSpec:
    """Describes one station in a scenario.

    ``generator`` and ``arrivals`` may be combined: the paper's
    complete model (figures 4 and 15) needs a probing station whose
    transmission queue also carries FIFO cross-traffic — give that
    station the probe train as ``arrivals`` and the FIFO cross-traffic
    as ``generator``.  A station with neither simply stays silent.

    Attributes
    ----------
    generator:
        Any object whose ``generate(horizon, rng, start)`` result
        iterates as ``(time, Packet)`` pairs: the
        :mod:`repro.traffic.generators` classes, whose
        :class:`~repro.traffic.generators.ArrivalSchedule` holds the
        arrivals as arrays and makes each packet as the scenario
        schedules it.
    arrivals:
        Explicit ``(time, Packet)`` pairs, e.g. a probing train from
        :meth:`repro.traffic.probe.ProbeTrain.packets`.
    start:
        Offset added to the generator's schedule (warm-up control).
    log_queue:
        Record the backlog trace of this station.
    """

    name: str
    generator: Optional[object] = None
    arrivals: Optional[Sequence[Tuple[float, Packet]]] = None
    start: float = 0.0
    log_queue: bool = False


@dataclass
class StationResult:
    """Per-station outcome of a scenario run."""

    name: str
    records: List[PacketRecord]
    queue_log: List[Tuple[float, int]] = field(default_factory=list)

    def completed(self, flow: Optional[str] = None) -> List[PacketRecord]:
        """Fully transmitted packets, optionally filtered by flow."""
        return [r for r in self.records
                if r.completed and (flow is None or r.packet.flow == flow)]

    def delivered_bits(self, t0: float, t1: float,
                       flow: Optional[str] = None) -> int:
        """Network-layer bits of departures in ``(t0, t1]``."""
        if t1 <= t0:
            raise ValueError(f"need t1 > t0, got ({t0}, {t1})")
        return sum(r.packet.size_bits for r in self.completed(flow)
                   if t0 < r.departure <= t1)

    def throughput_bps(self, t0: float, t1: float,
                       flow: Optional[str] = None) -> float:
        """Network-layer throughput of departures in ``(t0, t1]``."""
        return self.delivered_bits(t0, t1, flow) / (t1 - t0)

    def access_delays(self, flow: Optional[str] = None) -> np.ndarray:
        """mu_i of completed packets, in arrival order."""
        return np.array([r.access_delay for r in self.completed(flow)],
                        dtype=float)

    def departures(self, flow: Optional[str] = None) -> np.ndarray:
        """d_i of completed packets, in arrival order."""
        return np.array([r.departure for r in self.completed(flow)],
                        dtype=float)

    def queue_size_at(self, times: np.ndarray) -> np.ndarray:
        """Backlog (queued + in service) sampled at ``times``.

        The backlog trace is a right-continuous step function; requires
        the station to have been created with ``log_queue=True``.
        """
        if not self.queue_log:
            raise ValueError(f"station {self.name!r} has no queue log")
        log_t = np.array([t for t, _ in self.queue_log])
        log_q = np.array([q for _, q in self.queue_log])
        idx = np.searchsorted(log_t, np.asarray(times, dtype=float),
                              side="right") - 1
        out = np.where(idx >= 0, log_q[np.clip(idx, 0, None)], 0)
        return out.astype(float)


@dataclass
class ScenarioResult:
    """Outcome of a :class:`WlanScenario` run."""

    stations: Dict[str, StationResult]
    phy: PhyParams
    horizon: float
    duration: float
    successes: int
    collisions: int
    events_processed: int

    def station(self, name: str) -> StationResult:
        """Result for station ``name``."""
        return self.stations[name]


def saturated_station_specs(n_stations: int, packets_per_station: int,
                            size_bytes: int = 1500) -> List[StationSpec]:
    """Station specs for a saturated BSS: every queue pre-loaded at t=0.

    Each of the ``n_stations`` stations is handed all of its
    ``packets_per_station`` packets at time zero, so it stays backlogged
    (saturated) until its queue drains — the Bianchi regime.  Running
    these specs through :class:`WlanScenario` is the event-engine
    counterpart of :func:`repro.sim.vector.simulate_saturated_batch`;
    the two backends must stay statistically equivalent on it.
    """
    if n_stations < 1:
        raise ValueError(f"need at least one station, got {n_stations}")
    if packets_per_station < 1:
        raise ValueError(
            f"need at least one packet per station, got {packets_per_station}")
    return [
        StationSpec(
            name=f"sat{idx}",
            arrivals=[(0.0, Packet(size_bytes, flow="sat", seq=k,
                                   created_at=0.0))
                      for k in range(packets_per_station)])
        for idx in range(n_stations)
    ]


class WlanScenario:
    """Builds and runs single-channel DCF scenarios.

    Parameters
    ----------
    phy:
        PHY/MAC constants (default: 802.11b 11 Mb/s long preamble).
    retry_limit:
        MAC retry limit; ``None`` (default) retries forever, matching
        the paper's loss-free configuration.
    """

    def __init__(self, phy: Optional[PhyParams] = None,
                 retry_limit: Optional[int] = None,
                 immediate_access: bool = True,
                 rts_threshold: Optional[int] = None) -> None:
        self.phy = phy if phy is not None else PhyParams.dot11b()
        self.retry_limit = retry_limit
        self.immediate_access = immediate_access
        self.rts_threshold = rts_threshold

    def run(self, specs: Sequence[StationSpec], horizon: float,
            seed: Optional[int] = 0,
            until: Optional[float] = None) -> ScenarioResult:
        """Run the scenario.

        Generator-driven stations emit arrivals over ``[start, start +
        horizon)``.  The simulation then runs until the event heap
        drains (every queued packet is transmitted) unless ``until``
        caps it.
        """
        if horizon <= 0:
            raise ValueError(f"horizon must be positive, got {horizon}")
        sim = Simulator()
        rng = np.random.default_rng(seed)
        medium = Medium(sim, self.phy, rng, retry_limit=self.retry_limit,
                        immediate_access=self.immediate_access,
                        rts_threshold=self.rts_threshold)
        stations: Dict[str, Station] = {}
        for spec in specs:
            if spec.name in stations:
                raise ValueError(f"duplicate station name {spec.name!r}")
            station = Station(spec.name, sim, medium, log_queue=spec.log_queue)
            stations[spec.name] = station
            arrivals: List[Tuple[float, Packet]] = []
            if spec.arrivals is not None:
                arrivals.extend(spec.arrivals)
            if spec.generator is not None:
                arrivals.extend(
                    spec.generator.generate(horizon, rng, start=spec.start))
            for time, packet in arrivals:
                sim.schedule(time, functools.partial(station.enqueue, packet),
                             priority=PRIORITY_ARRIVAL)
        sim.run(until=until)
        return ScenarioResult(
            stations={name: StationResult(name, st.records, st.queue_log)
                      for name, st in stations.items()},
            phy=self.phy,
            horizon=horizon,
            duration=sim.now,
            successes=medium.successes,
            collisions=medium.collisions,
            events_processed=sim.events_processed,
        )
