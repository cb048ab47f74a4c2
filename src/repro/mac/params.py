"""PHY/MAC timing parameters.

Defaults correspond to IEEE 802.11b DSSS with a long PLCP preamble at
11 Mb/s, which is the configuration of the paper's testbed (Prism
chipset cards) and NS2 setup (PHY rate 11 Mb/s, no RTS/CTS).  With
1500-byte packets this yields a link capacity of ~6.2-6.5 Mb/s,
matching the C ≈ 6.5 Mb/s the paper reports.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class PhyParams:
    """Timing and protocol constants for a DCF link.

    All durations are in seconds, rates in bit/s.

    Attributes
    ----------
    slot_time:
        Backoff slot duration (aSlotTime).
    sifs:
        Short interframe space.
    data_rate:
        PHY rate used for data MPDUs.
    basic_rate:
        PHY rate used for control frames (ACKs).
    plcp_overhead:
        PLCP preamble + header airtime prepended to every frame.
    cw_min / cw_max:
        Minimum / maximum contention window (number of slots minus one;
        the first backoff is drawn uniformly from ``[0, cw_min]``).
    mac_overhead_bytes:
        Bytes added to the network-layer packet by the MAC: 24 B MAC
        header + 4 B FCS + 8 B LLC/SNAP.
    ack_bytes:
        ACK frame size (14 B).
    difs_slots:
        DIFS = SIFS + ``difs_slots`` * slot (2 for DCF).
    """

    slot_time: float = 20e-6
    sifs: float = 10e-6
    data_rate: float = 11e6
    basic_rate: float = 2e6
    plcp_overhead: float = 192e-6
    cw_min: int = 31
    cw_max: int = 1023
    mac_overhead_bytes: int = 36
    ack_bytes: int = 14
    rts_bytes: int = 20
    cts_bytes: int = 14
    difs_slots: int = 2

    def __post_init__(self) -> None:
        if self.slot_time <= 0 or self.sifs <= 0:
            raise ValueError("slot_time and sifs must be positive")
        if self.data_rate <= 0 or self.basic_rate <= 0:
            raise ValueError("rates must be positive")
        if self.plcp_overhead < 0:
            raise ValueError("plcp_overhead must be non-negative")
        if self.cw_min < 0 or self.cw_max < self.cw_min:
            raise ValueError("need 0 <= cw_min <= cw_max")
        if self.mac_overhead_bytes < 0 or self.ack_bytes <= 0:
            raise ValueError("invalid frame overheads")
        if self.rts_bytes <= 0 or self.cts_bytes <= 0:
            raise ValueError("invalid RTS/CTS frame sizes")
        if self.difs_slots < 1:
            raise ValueError("difs_slots must be >= 1")

    @property
    def difs(self) -> float:
        """DCF interframe space."""
        return self.sifs + self.difs_slots * self.slot_time

    @property
    def max_backoff_stage(self) -> int:
        """Number of doublings from cw_min to cw_max."""
        stage = 0
        cw = self.cw_min
        while cw < self.cw_max:
            cw = min(self.cw_max, (cw + 1) * 2 - 1)
            stage += 1
        return stage

    @classmethod
    def dot11b(cls) -> "PhyParams":
        """802.11b, 11 Mb/s, long preamble (the paper's testbed)."""
        return cls()

    @classmethod
    def dot11g(cls, data_rate: float = 54e6) -> "PhyParams":
        """802.11g ERP-OFDM (pure-g network, short slot).

        ``plcp_overhead`` bundles the 20 us OFDM preamble+signal plus
        the 6 us signal extension.
        """
        return cls(
            slot_time=9e-6,
            sifs=10e-6,
            data_rate=data_rate,
            basic_rate=24e6,
            plcp_overhead=26e-6,
            cw_min=15,
            cw_max=1023,
        )
