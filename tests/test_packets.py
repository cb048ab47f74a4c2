"""Tests for the packet model and per-packet records."""

import pytest

from repro.traffic.packets import Packet, PacketRecord


class TestPacket:
    def test_defaults(self):
        packet = Packet(1500)
        assert packet.size_bytes == 1500
        assert packet.flow == "cross"
        assert packet.seq == -1

    def test_size_bits(self):
        assert Packet(1500).size_bits == 12000
        assert Packet(40).size_bits == 320

    def test_uids_unique(self):
        a, b = Packet(100), Packet(100)
        assert a.uid != b.uid

    def test_flow_label(self):
        assert Packet(100, flow="probe").flow == "probe"

    @pytest.mark.parametrize("bad", [0, -1, -1500])
    def test_rejects_nonpositive_size(self, bad):
        with pytest.raises(ValueError):
            Packet(bad)


class TestPacketRecord:
    def make(self, arrival=1.0, hol=2.0, departure=3.5):
        record = PacketRecord(Packet(1500, flow="probe"), arrival=arrival)
        record.hol = hol
        record.departure = departure
        return record

    def test_access_delay(self):
        assert self.make().access_delay == pytest.approx(1.5)

    def test_incomplete_record_delays_are_none(self):
        record = PacketRecord(Packet(100), arrival=0.0)
        assert record.access_delay is None

    def test_completed_requires_departure(self):
        record = PacketRecord(Packet(100), arrival=0.0)
        assert not record.completed
        record.hol = 0.0
        record.departure = 1.0
        assert record.completed

    def test_dropped_record_not_completed(self):
        record = self.make()
        record.dropped = True
        assert not record.completed
