"""Bianchi's saturation model of the IEEE 802.11 DCF.

G. Bianchi, "Performance Analysis of the IEEE 802.11 Distributed
Coordination Function", IEEE JSAC 2000 (reference [8] of the paper).

The model computes, for ``n`` saturated stations, the per-station
transmission probability ``tau`` and conditional collision probability
``p`` from the fixed point::

    tau = 2 (1 - 2p) / ((1 - 2p)(W + 1) + p W (1 - (2p)^m))
    p   = 1 - (1 - tau)^(n - 1)

with ``W = cw_min + 1`` and ``m`` backoff stages, and from them the
per-slot channel state probabilities and the saturation throughput.
It is used to predict the *fair share* of the wireless medium — the
paper's achievable throughput B when every contender is backlogged —
and to calibrate the event simulator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.mac.frames import AirtimeModel
from repro.mac.params import PhyParams

# Bisection on ``p`` stops once its bracket is narrower than
# _BISECTION_TOL, or after _BISECTION_STEPS halvings.
_BISECTION_TOL = 1e-12
_BISECTION_STEPS = 10_000


@dataclass
class BianchiSolution:
    """Fixed point and derived quantities of the Bianchi model."""

    n_stations: int
    tau: float
    collision_probability: float
    ptr: float
    ps: float
    throughput_per_station_bps: float
    total_throughput_bps: float
    mean_slot_duration: float
    mean_access_delay: float


class BianchiModel:
    """Saturation analysis of a DCF BSS with homogeneous stations.

    Parameters
    ----------
    phy:
        PHY/MAC constants.
    size_bytes:
        Network-layer packet size used by every station.
    """

    def __init__(self, phy: Optional[PhyParams] = None,
                 size_bytes: int = 1500) -> None:
        self.phy = phy if phy is not None else PhyParams.dot11b()
        if size_bytes <= 0:
            raise ValueError(f"size must be positive, got {size_bytes}")
        self.size_bytes = int(size_bytes)
        self.airtime = AirtimeModel(self.phy)

    # ------------------------------------------------------------------

    def _tau_of_p(self, p: float) -> float:
        w = self.phy.cw_min + 1
        m = self.phy.max_backoff_stage
        if p >= 0.5 - 1e-12:
            # The (2p)^m geometric sum degenerates; expand directly.
            denom = (1 - 2 * p) * (w + 1) + p * w * (1 - (2 * p) ** m)
            if abs(denom) < 1e-15:
                denom = 1e-15
            return 2 * (1 - 2 * p) / denom
        return (2 * (1 - 2 * p)
                / ((1 - 2 * p) * (w + 1) + p * w * (1 - (2 * p) ** m)))

    def solve(self, n_stations: int) -> BianchiSolution:
        """Solve the fixed point by bisection on ``p`` and derive rates."""
        if n_stations < 1:
            raise ValueError(f"need at least one station, got {n_stations}")
        if n_stations == 1:
            tau = self._tau_of_p(0.0)
            p = 0.0
        else:
            # f(p) = p - (1 - (1 - tau(p))^(n-1)) is increasing in p at
            # the fixed point; bisection on [0, 1) is robust.
            lo, hi = 0.0, 0.999999
            for _ in range(_BISECTION_STEPS):
                mid = (lo + hi) / 2
                tau = self._tau_of_p(mid)
                implied = 1 - (1 - tau) ** (n_stations - 1)
                if implied > mid:
                    lo = mid
                else:
                    hi = mid
                if hi - lo < _BISECTION_TOL:
                    break
            p = (lo + hi) / 2
            tau = self._tau_of_p(p)

        n = n_stations
        ptr = 1 - (1 - tau) ** n
        ps = (n * tau * (1 - tau) ** (n - 1) / ptr) if ptr > 0 else 0.0
        ps = min(1.0, max(0.0, ps))
        t_success = (self.airtime.success_duration(self.size_bytes)
                     + self.phy.difs)
        t_collision = (self.airtime.collision_duration(
            [self.size_bytes, self.size_bytes]) + self.phy.difs)
        sigma = self.phy.slot_time
        mean_slot = ((1 - ptr) * sigma
                     + ptr * ps * t_success
                     + ptr * (1 - ps) * t_collision)
        payload_bits = self.size_bytes * 8
        total = ptr * ps * payload_bits / mean_slot
        # Mean MAC access delay of a packet under saturation: one
        # successful delivery per station per 1/(throughput/packet)
        # interval (renewal argument).
        per_station = total / n
        mean_access_delay = payload_bits / per_station if per_station else float("inf")
        return BianchiSolution(
            n_stations=n,
            tau=tau,
            collision_probability=p,
            ptr=ptr,
            ps=ps,
            throughput_per_station_bps=per_station,
            total_throughput_bps=total,
            mean_slot_duration=mean_slot,
            mean_access_delay=mean_access_delay,
        )

    # ------------------------------------------------------------------

    def fair_share(self, n_stations: int) -> float:
        """Per-station saturation throughput — the fair share Bf.

        For the probe-plus-one-contender scenarios of figures 1 and 16
        this is ``fair_share(2)``.
        """
        return self.solve(n_stations).throughput_per_station_bps

    def capacity(self) -> float:
        """Single-station saturation throughput (the capacity C)."""
        return self.solve(1).throughput_per_station_bps

    def collision_fraction(self, n_stations: int) -> float:
        """Fraction of channel acquisitions that are collisions.

        Useful to validate the event simulator's collision counter:
        ``collisions / (collisions + successes)`` should approach
        ``(ptr - n tau (1-tau)^(n-1)) / ptr`` ... expressed via ps:
        ``1 - ps``.
        """
        return 1.0 - self.solve(n_stations).ps
