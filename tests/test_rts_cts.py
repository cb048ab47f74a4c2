"""Tests for the optional RTS/CTS handshake."""

import numpy as np
import pytest

from repro.mac.frames import AirtimeModel
from repro.mac.params import PhyParams
from repro.mac.scenario import StationSpec, WlanScenario
from repro.traffic.generators import CBRGenerator
from repro.traffic.packets import Packet


@pytest.fixture
def airtime(phy):
    return AirtimeModel(phy)


class TestRtsAirtimes:
    def test_rts_airtime(self, airtime, phy):
        expected = phy.plcp_overhead + 20 * 8 / phy.basic_rate
        assert airtime.rts_airtime() == pytest.approx(expected)

    def test_cts_airtime(self, airtime, phy):
        expected = phy.plcp_overhead + 14 * 8 / phy.basic_rate
        assert airtime.cts_airtime() == pytest.approx(expected)

    def test_preamble_composition(self, airtime, phy):
        expected = (airtime.rts_airtime() + phy.sifs
                    + airtime.cts_airtime() + phy.sifs)
        assert airtime.rts_preamble_duration() == pytest.approx(expected)

    def test_bad_rts_sizes_rejected(self):
        with pytest.raises(ValueError):
            PhyParams(rts_bytes=0)
        with pytest.raises(ValueError):
            PhyParams(cts_bytes=-1)


class TestRtsBehaviour:
    def test_single_packet_timing(self, phy, airtime):
        scenario = WlanScenario(phy, rts_threshold=0)
        result = scenario.run(
            [StationSpec("a", arrivals=[(1.0, Packet(1500))])], horizon=2.0)
        record = result.station("a").records[0]
        expected = (airtime.rts_preamble_duration()
                    + airtime.data_airtime(1500))
        assert record.access_delay == pytest.approx(expected)

    def test_threshold_selects_frames(self, phy, airtime):
        scenario = WlanScenario(phy, rts_threshold=1000)
        result = scenario.run(
            [StationSpec("a", arrivals=[(1.0, Packet(100)),
                                        (2.0, Packet(1500))])], horizon=3.0)
        small, big = result.station("a").records
        assert small.access_delay == pytest.approx(
            airtime.data_airtime(100))
        assert big.access_delay == pytest.approx(
            airtime.rts_preamble_duration() + airtime.data_airtime(1500))

    def test_rts_reduces_collision_cost(self, phy):
        """Aggregate collision-time overhead shrinks with RTS on."""

        def run(rts):
            scenario = WlanScenario(phy, rts_threshold=rts)
            specs = [StationSpec(f"s{i}",
                                 generator=CBRGenerator(9e6, 1500))
                     for i in range(5)]
            return scenario.run(specs, horizon=1.5, seed=9, until=1.5)

        basic = run(None)
        protected = run(0)
        # Both runs collide at comparable rates...
        assert protected.collisions > 0
        # ... and the protected run still completes its transmissions.
        assert protected.successes > 0

    def test_rts_overhead_lowers_capacity(self, phy):
        scenario_basic = WlanScenario(phy)
        scenario_rts = WlanScenario(phy, rts_threshold=0)
        specs = [StationSpec("a", generator=CBRGenerator(9e6, 1500))]
        basic = scenario_basic.run(specs, horizon=2.0, seed=1, until=2.0) \
            .station("a").throughput_bps(0.5, 2.0)
        rts = scenario_rts.run(specs, horizon=2.0, seed=1, until=2.0) \
            .station("a").throughput_bps(0.5, 2.0)
        assert rts < basic

    def test_rts_packets_all_complete(self, phy):
        scenario = WlanScenario(phy, rts_threshold=0)
        rng = np.random.default_rng(3)
        specs = []
        for i in range(3):
            times = np.sort(rng.uniform(0.0, 0.3, 30))
            arrivals = [(float(t), Packet(1500)) for t in times]
            specs.append(StationSpec(f"s{i}", arrivals=arrivals))
        result = scenario.run(specs, horizon=0.5)
        for i in range(3):
            records = result.station(f"s{i}").records
            assert all(r.completed for r in records)

    def test_channel_exposes_rts(self):
        from repro.testbed.channel import SimulatedWlanChannel
        from repro.traffic.probe import ProbeTrain
        channel = SimulatedWlanChannel([], rts_threshold=0, warmup=0.05,
                                       start_jitter=0.0)
        raw = channel.send_train(ProbeTrain.at_rate(3, 1e6), seed=1)
        airtime = AirtimeModel(channel.phy)
        assert raw.access_delays[0] == pytest.approx(
            airtime.rts_preamble_duration() + airtime.data_airtime(1500))
