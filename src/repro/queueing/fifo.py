"""A wired FIFO hop with constant capacity.

This is the reference system of the bandwidth-measurement literature
(equation (1) of the paper): a single bit carrier of capacity ``C``
multiplexing probe and cross-traffic in FIFO order.  The hop is
trace-driven: given the merged arrivals it applies the Lindley
recursion with deterministic service times ``L / C``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.queueing.lindley import lindley_batch, lindley_recursion
from repro.traffic.generators import ArrivalSchedule
from repro.traffic.packets import Packet, PacketRecord


@dataclass
class FifoResult:
    """Sample path of a FIFO-hop run."""

    records: List[PacketRecord]
    capacity_bps: float

    def by_flow(self, flow: str) -> List[PacketRecord]:
        """Records of a given flow, in arrival order."""
        return [r for r in self.records if r.packet.flow == flow]

    def throughput_bps(self, t0: float, t1: float,
                       flow: Optional[str] = None) -> float:
        """Network-layer throughput of departures within ``(t0, t1]``."""
        if t1 <= t0:
            raise ValueError(f"need t1 > t0, got ({t0}, {t1})")
        bits = sum(r.packet.size_bits for r in self.records
                   if (flow is None or r.packet.flow == flow)
                   and t0 < r.departure <= t1)
        return bits / (t1 - t0)

    def output_gap(self, flow: str = "probe") -> float:
        """Mean output dispersion g_O = (d_n - d_1)/(n-1) of a flow."""
        departures = [r.departure for r in self.by_flow(flow)]
        if len(departures) < 2:
            raise ValueError("need at least two packets to compute a gap")
        return (departures[-1] - departures[0]) / (len(departures) - 1)


class FifoHop:
    """Constant-rate FIFO link (the wired baseline).

    Parameters
    ----------
    capacity_bps:
        Link capacity C in bit/s.
    overhead_bytes:
        Optional per-packet overhead added to the service time (e.g.
        layer-2 framing); zero by default so that C is exactly the
        network-layer capacity, as assumed by equation (1).
    """

    def __init__(self, capacity_bps: float, overhead_bytes: int = 0) -> None:
        if capacity_bps <= 0:
            raise ValueError(f"capacity must be positive, got {capacity_bps}")
        if overhead_bytes < 0:
            raise ValueError(
                f"overhead must be non-negative, got {overhead_bytes}")
        self.capacity_bps = float(capacity_bps)
        self.overhead_bytes = int(overhead_bytes)

    def service_time(self, packet: Packet) -> float:
        """Transmission time of ``packet`` on this link."""
        bits = (packet.size_bytes + self.overhead_bytes) * 8
        return bits / self.capacity_bps

    def run(self, arrivals: Sequence[Tuple[float, Packet]]) -> FifoResult:
        """Serve ``arrivals`` (merged across flows) in FIFO order.

        Simultaneous arrivals are served in the order given (ties are
        kept stable), matching the fluid model's indifference to
        intra-instant ordering.
        """
        ordered = sorted(enumerate(arrivals), key=lambda x: (x[1][0], x[0]))
        times = np.array([t for _, (t, _) in ordered], dtype=float)
        packets = [p for _, (_, p) in ordered]
        services = np.array([self.service_time(p) for p in packets])
        starts, departures = lindley_recursion(times, services)
        records = []
        for i, packet in enumerate(packets):
            record = PacketRecord(packet, arrival=float(times[i]),
                                  hol=float(starts[i]),
                                  departure=float(departures[i]))
            records.append(record)
        return FifoResult(records=records, capacity_bps=self.capacity_bps)

    def run_rows(self, probe_times: np.ndarray, probe_bytes: int,
                 schedules: Sequence[Optional[ArrivalSchedule]]
                 ) -> Tuple[np.ndarray, np.ndarray]:
        """Serve one probe train per row in one batched Lindley pass.

        Row ``r``'s probes, all ``probe_bytes`` long, arrive at
        ``probe_times[r]`` (non-decreasing); ``schedules[r]`` holds the
        row's cross arrivals (``None``: none).  Each row's two arrival
        runs are merged by ``searchsorted`` position, a probe ahead of
        cross traffic arriving at the same instant, as :meth:`run`
        orders them; rows are padded at the tail with ``inf`` arrivals
        of zero service.  So every row is :meth:`run`'s sample path
        bit for bit.

        Returns the probes' ``(starts, departures)``, each shaped like
        ``probe_times``.
        """
        probe_times = np.asarray(probe_times, dtype=float)
        rows, n = probe_times.shape
        if len(schedules) != rows:
            raise ValueError(
                f"got {len(schedules)} schedules for {rows} rows")
        if np.any(probe_times[:, 1:] < probe_times[:, :-1]):
            raise ValueError("probe times must be non-decreasing in a row")
        width = n + max((len(s) for s in schedules if s is not None),
                        default=0)
        arrivals = np.full((rows, width), np.inf)
        services = np.zeros((rows, width))
        probe_pos = np.tile(np.arange(n), (rows, 1))
        for r, schedule in enumerate(schedules):
            if schedule is None or len(schedule) == 0:
                continue
            probe_pos[r] += np.searchsorted(schedule.times, probe_times[r])
            cross_pos = np.arange(len(schedule)) + np.searchsorted(
                probe_times[r], schedule.times, side="right")
            arrivals[r, cross_pos] = schedule.times
            services[r, cross_pos] = ((schedule.sizes + self.overhead_bytes)
                                      * 8 / self.capacity_bps)
        row = np.arange(rows)[:, None]
        arrivals[row, probe_pos] = probe_times
        services[row, probe_pos] = ((probe_bytes + self.overhead_bytes) * 8
                                    / self.capacity_bps)
        starts, departures = lindley_batch(arrivals, services)
        return starts[row, probe_pos], departures[row, probe_pos]
