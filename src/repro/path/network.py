"""Network paths and the path channel adapter."""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.backends import ScenarioSpec
from repro.path.hops import PathHop
from repro.sim.probe_vector import ProbeBatchResult
from repro.testbed.channel import Channel, RawTrainResult
from repro.traffic.packets import Packet
from repro.traffic.probe import ProbeTrain


def _combine_traffic(kinds: Sequence[str]) -> str:
    """Fold per-hop traffic kinds into one path-level vocabulary value."""
    distinct = set(kinds) - {"none"}
    if not distinct:
        return "none"
    if "other" in distinct:
        return "other"
    if len(distinct) == 1:
        return distinct.pop()
    return "mixed"


class NetworkPath:
    """An ordered chain of hops traversed by probing packets.

    Each hop sees the previous hop's departures as its arrivals; cross
    traffic is local to each hop (redrawn per repetition from
    independent substreams).
    """

    def __init__(self, hops: Sequence[PathHop]) -> None:
        if len(hops) == 0:
            raise ValueError("a path needs at least one hop")
        self.hops = list(hops)

    @property
    def n_hops(self) -> int:
        """Number of hops on the path."""
        return len(self.hops)

    def min_capacity_bps(self, size_bytes: int) -> float:
        """The narrowest hop's nominal capacity (the narrow link)."""
        return min(hop.nominal_capacity_bps(size_bytes)
                   for hop in self.hops)

    def base_delay(self) -> float:
        """Sum of propagation delays (zero-load, zero-size limit)."""
        return sum(hop.prop_delay for hop in self.hops)

    def carry(self, arrivals: Sequence[Tuple[float, Packet]],
              rng: np.random.Generator) -> np.ndarray:
        """Push packets through every hop; return final departures."""
        times = np.array([t for t, _ in arrivals], dtype=float)
        packets = [p for _, p in arrivals]
        for hop in self.hops:
            hop_rng = np.random.default_rng(rng.integers(0, 2 ** 31))
            times = hop.carry(list(zip(times, packets)), hop_rng)
        return times

    def carry_batch(self, times: np.ndarray, size_bytes: int,
                    rep_seeds: Sequence[int]) -> np.ndarray:
        """Chain every hop's vector kernel over a repetition batch.

        The kernel analogue of :meth:`carry`: each hop resolves the
        whole ``(repetitions, n)`` matrix in one batched pass
        (:meth:`repro.path.hops.PathHop.carry_batch`) and its
        departure matrix becomes the next hop's arrival process.
        Per-repetition, per-hop streams are derived from ``rep_seeds``
        so hop ``h`` redraws independent cross-traffic in every
        repetition, like the event chain's per-hop generators.
        """
        times = np.asarray(times, dtype=float)
        for h, hop in enumerate(self.hops):
            hop_seeds = [
                int(np.random.SeedSequence([int(s), h]).generate_state(1)[0])
                for s in rep_seeds]
            times = hop.carry_batch(times, size_bytes, hop_seeds)
        return times

    def scenario_spec(self, size_bytes: int = 1500) -> ScenarioSpec:
        """Fold the hops' fragments into one path-level spec.

        The per-axis combination is conservative: a single hop the
        kernels cannot model (unknown hop type, unsupported traffic)
        demotes the whole path — the dispatcher then explains which
        hop with the fragment's own detail sentence.
        """
        fragments = [hop.scenario_fragment(size_bytes)
                     for hop in self.hops]
        cross_kinds, fifo_kinds = [], []
        cross_detail = fifo_detail = ""
        rts = retry = False
        for k, fragment in enumerate(fragments):
            if fragment.system not in ("fifo", "wlan"):
                cross_kinds.append("other")
                cross_detail = cross_detail or (
                    fragment.cross_detail
                    or f"hop {k} ({type(self.hops[k]).__name__}) has no "
                       "batched hop kernel; run with backend='event'")
                continue
            cross_kinds.append(fragment.cross_traffic)
            if fragment.cross_traffic == "other" and not cross_detail:
                cross_detail = fragment.cross_detail
            fifo_kinds.append(fragment.fifo_cross)
            if fragment.fifo_cross == "other" and not fifo_detail:
                fifo_detail = fragment.fifo_detail
            rts = rts or fragment.rts_cts
            retry = retry or fragment.retry_limit
        return ScenarioSpec(
            system="path",
            workload="train",
            cross_traffic=_combine_traffic(cross_kinds),
            fifo_cross=_combine_traffic(fifo_kinds),
            rts_cts=rts,
            retry_limit=retry,
            cross_detail=cross_detail,
            fifo_detail=fifo_detail,
        )


class SimulatedPathChannel(Channel):
    """Adapts a :class:`NetworkPath` to the prober's channel interface.

    Every tool in :mod:`repro.core` — rate scans, packet pairs, TOPP
    regressions, chirps, MSER correction — runs end-to-end over the
    path through this adapter.
    """

    def __init__(self, path: NetworkPath, start: float = 0.5) -> None:
        if start < 0:
            raise ValueError("start must be non-negative")
        self.path = path
        self.start = float(start)

    def scenario_spec(self,
                      train: Optional[ProbeTrain] = None) -> ScenarioSpec:
        """The path's combined spec (see
        :meth:`repro.path.network.NetworkPath.scenario_spec`)."""
        size = train.size_bytes if train is not None else 1500
        return self.path.scenario_spec(size_bytes=size)

    def send_train(self, train: ProbeTrain, seed: int) -> RawTrainResult:
        rng = np.random.default_rng(seed)
        arrivals: List[Tuple[float, Packet]] = train.packets(
            start=self.start)
        departures = self.path.carry(arrivals, rng)
        return RawTrainResult(
            send_times=np.array([t for t, _ in arrivals]),
            recv_times=np.asarray(departures, dtype=float),
            size_bytes=train.size_bytes,
            access_delays=None,  # not observable end-to-end
        )

    def _send_rows(self, channels: Sequence[Channel],
                   trains: Sequence[ProbeTrain], seeds,
                   points) -> ProbeBatchResult:
        """One chained-kernel pass over the rows.

        The multihop vector backend: every hop resolves the rows at
        once and feeds the next (statistically equivalent to mapping
        :meth:`send_train` over the rows; the per-row seed is the
        executor's).  Each row sends its own train from ``start``.
        Access delays are not observable end-to-end, so the result
        carries NaNs there, like the event path's
        ``access_delays=None``.  Each hop derives its streams and
        horizons per row, so a chunk's rows are bit-identical to the
        dense run's.
        """
        # An ineligible path raises BackendUnavailableError (a
        # ValueError) with the structured capability mismatches.
        self.resolve_backend("vector", train=trains[0])
        send = np.stack([t.arrival_times(self.start)
                         for t in trains])[np.asarray(points)]
        recv = self.path.carry_batch(send, trains[0].size_bytes,
                                     [int(s) for s in seeds])
        return ProbeBatchResult(
            send_times=send,
            recv_times=recv,
            access_delays=np.full(send.shape, np.nan),
            size_bytes=trains[0].size_bytes,
        )
