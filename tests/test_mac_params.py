"""Tests for PHY/MAC parameters and the airtime model."""

import pytest

from repro.mac.frames import AirtimeModel
from repro.mac.params import PhyParams


class TestPhyParams:
    def test_dot11b_defaults(self):
        phy = PhyParams.dot11b()
        assert phy.slot_time == pytest.approx(20e-6)
        assert phy.sifs == pytest.approx(10e-6)
        assert phy.data_rate == 11e6
        assert phy.cw_min == 31
        assert phy.cw_max == 1023

    def test_difs(self):
        phy = PhyParams.dot11b()
        assert phy.difs == pytest.approx(50e-6)

    def test_max_backoff_stage_dot11b(self):
        # 31 -> 63 -> 127 -> 255 -> 511 -> 1023: five doublings.
        assert PhyParams.dot11b().max_backoff_stage == 5

    def test_max_backoff_stage_dot11g(self):
        # 15 -> ... -> 1023: six doublings.
        assert PhyParams.dot11g().max_backoff_stage == 6

    def test_dot11g_short_slot(self):
        assert PhyParams.dot11g().slot_time == pytest.approx(9e-6)

    @pytest.mark.parametrize("field,value", [
        ("slot_time", 0.0),
        ("sifs", -1e-6),
        ("data_rate", 0.0),
        ("basic_rate", -1.0),
        ("plcp_overhead", -1e-6),
        ("cw_min", -1),
        ("ack_bytes", 0),
        ("difs_slots", 0),
    ])
    def test_validation(self, field, value):
        kwargs = {field: value}
        with pytest.raises(ValueError):
            PhyParams(**kwargs)

    def test_cw_max_below_cw_min_rejected(self):
        with pytest.raises(ValueError):
            PhyParams(cw_min=31, cw_max=15)

    def test_frozen(self):
        phy = PhyParams.dot11b()
        with pytest.raises(AttributeError):
            phy.slot_time = 1.0


class TestAirtimeModel:
    @pytest.fixture
    def airtime(self):
        return AirtimeModel(PhyParams.dot11b())

    def test_data_airtime_1500(self, airtime):
        # 192 us preamble + (1500 + 36) * 8 / 11e6.
        expected = 192e-6 + 1536 * 8 / 11e6
        assert airtime.data_airtime(1500) == pytest.approx(expected)

    def test_data_airtime_increases_with_size(self, airtime):
        assert airtime.data_airtime(1500) > airtime.data_airtime(40)

    def test_ack_airtime(self, airtime):
        expected = 192e-6 + 14 * 8 / 2e6
        assert airtime.ack_airtime() == pytest.approx(expected)

    def test_success_duration_composition(self, airtime):
        expected = (airtime.data_airtime(1000) + 10e-6
                    + airtime.ack_airtime())
        assert airtime.success_duration(1000) == pytest.approx(expected)

    def test_collision_duration_uses_longest(self, airtime):
        collision = airtime.collision_duration([40, 1500])
        assert collision == pytest.approx(airtime.success_duration(1500))

    def test_collision_needs_two_frames(self, airtime):
        with pytest.raises(ValueError):
            airtime.collision_duration([1500])

    def test_rejects_bad_size(self, airtime):
        with pytest.raises(ValueError):
            airtime.data_airtime(0)
