"""Frame airtime computations.

The airtime model turns network-layer packet sizes into on-air frame
durations and full exchange durations (DATA + SIFS + ACK), which is all
the medium model needs: with no channel errors modelled (as in the
paper, where losses are explicitly irrelevant), an exchange either
succeeds atomically or collides with another exchange.
"""

from __future__ import annotations

from typing import Iterable

from repro.mac.params import PhyParams


class AirtimeModel:
    """Computes frame and exchange durations for a given PHY."""

    def __init__(self, phy: PhyParams) -> None:
        self.phy = phy

    def data_airtime(self, size_bytes: int) -> float:
        """On-air duration of a data frame carrying ``size_bytes``.

        PLCP overhead plus (packet + MAC overhead) at the data rate.
        """
        if size_bytes <= 0:
            raise ValueError(f"size must be positive, got {size_bytes}")
        frame_bytes = size_bytes + self.phy.mac_overhead_bytes
        return self.phy.plcp_overhead + frame_bytes * 8 / self.phy.data_rate

    def ack_airtime(self) -> float:
        """On-air duration of an ACK at the basic rate."""
        return self.phy.plcp_overhead + self.phy.ack_bytes * 8 / self.phy.basic_rate

    def rts_airtime(self) -> float:
        """On-air duration of an RTS at the basic rate."""
        return self.phy.plcp_overhead + self.phy.rts_bytes * 8 / self.phy.basic_rate

    def cts_airtime(self) -> float:
        """On-air duration of a CTS at the basic rate."""
        return self.phy.plcp_overhead + self.phy.cts_bytes * 8 / self.phy.basic_rate

    def rts_preamble_duration(self) -> float:
        """RTS + SIFS + CTS + SIFS preceding the DATA frame."""
        return (self.rts_airtime() + self.phy.sifs
                + self.cts_airtime() + self.phy.sifs)

    def success_duration(self, size_bytes: int) -> float:
        """Busy-medium time of a successful exchange: DATA + SIFS + ACK."""
        return self.data_airtime(size_bytes) + self.phy.sifs + self.ack_airtime()

    def collision_duration(self, sizes_bytes: Iterable[int]) -> float:
        """Busy-medium time of a collision between several data frames.

        The medium is occupied for the longest colliding frame; the
        senders then wait an ACK timeout (SIFS + ACK airtime) before the
        channel is considered free again.  This matches NS2's behaviour
        to within the EIFS/DIFS difference, which does not affect the
        phenomena studied here.
        """
        sizes = list(sizes_bytes)
        if len(sizes) < 2:
            raise ValueError("a collision needs at least two frames")
        longest = max(self.data_airtime(s) for s in sizes)
        return longest + self.phy.sifs + self.ack_airtime()
