"""Packet model shared by every substrate.

A :class:`Packet` is the unit handed to queues and MACs.  The
measurement pipeline never inspects payloads (the paper takes a strictly
network-layer view), so a packet is just a size, a flow label and a set
of timestamps filled in as it moves through the system.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional

_packet_ids = itertools.count()


@dataclass
class Packet:
    """A network-layer packet.

    Attributes
    ----------
    size_bytes:
        Network-layer size (IP datagram size).  MAC overhead is added by
        the airtime model, not here.
    flow:
        Flow label, e.g. ``"probe"`` or ``"cross"``.  Measurement code
        filters on it.
    seq:
        Sequence number within the flow (probing code sets it; cross
        traffic may leave it at ``-1``).
    created_at:
        Time the generator emitted the packet (the probing sequence's
        ``a_i`` when the packet goes straight into the transmission
        queue).
    """

    size_bytes: int
    flow: str = "cross"
    seq: int = -1
    created_at: float = 0.0
    uid: int = field(default_factory=lambda: next(_packet_ids))

    def __post_init__(self) -> None:
        if self.size_bytes <= 0:
            raise ValueError(f"packet size must be positive, got {self.size_bytes}")

    @property
    def size_bits(self) -> int:
        """Packet size in bits."""
        return self.size_bytes * 8


@dataclass
class PacketRecord:
    """Per-packet life-cycle record produced by the simulators.

    This is the sample-path data that the paper's analysis operates on:

    * ``arrival`` — the packet's arrival at the transmission queue
      (``a_i`` for probing packets);
    * ``hol`` — when the packet reached the head of the FIFO queue and
      started contending for channel access;
    * ``departure`` — when it was *completely transmitted* (``d_i``);
    * ``access_delay`` — ``departure - hol``, the paper's ``mu_i``
      (scheduling *plus* transmission time);
    * ``retries`` — number of MAC retransmissions it needed;
    * ``dropped`` — whether the MAC gave up (only with a finite retry
      limit; the paper uses infinite queues and effectively no losses).
    """

    packet: Packet
    arrival: float
    hol: Optional[float] = None
    departure: Optional[float] = None
    retries: int = 0
    dropped: bool = False

    @property
    def access_delay(self) -> Optional[float]:
        """The paper's mu_i: head-of-line to full transmission."""
        if self.departure is None or self.hol is None:
            return None
        return self.departure - self.hol

    @property
    def completed(self) -> bool:
        """Whether the packet was fully transmitted."""
        return self.departure is not None and not self.dropped
