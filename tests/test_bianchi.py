"""Tests for the Bianchi DCF model."""

import pytest

from repro.analytic.bianchi import BianchiModel
from repro.mac.frames import AirtimeModel
from repro.mac.params import PhyParams


@pytest.fixture
def model():
    return BianchiModel(PhyParams.dot11b(), 1500)


class TestFixedPoint:
    def test_single_station_no_collisions(self, model):
        solution = model.solve(1)
        assert solution.collision_probability == 0.0
        assert solution.ps == 1.0

    def test_single_station_tau(self, model):
        # tau = 2/(W+1) with W = 32 when p = 0.
        assert model.solve(1).tau == pytest.approx(2 / 33)

    def test_collision_probability_increases_with_n(self, model):
        p2 = model.solve(2).collision_probability
        p5 = model.solve(5).collision_probability
        p10 = model.solve(10).collision_probability
        assert 0 < p2 < p5 < p10 < 1

    def test_fixed_point_consistency(self, model):
        for n in (2, 3, 5, 10):
            solution = model.solve(n)
            tau, p = solution.tau, solution.collision_probability
            implied_p = 1 - (1 - tau) ** (n - 1)
            assert p == pytest.approx(implied_p, abs=1e-6)

    def test_rejects_zero_stations(self, model):
        with pytest.raises(ValueError):
            model.solve(0)

    def test_rejects_bad_size(self):
        with pytest.raises(ValueError):
            BianchiModel(size_bytes=0)


class TestThroughput:
    def test_capacity_close_to_airtime_estimate(self, model):
        # One saturated station's renewal cycle: DIFS, the mean initial
        # backoff, then DATA + SIFS + ACK.
        phy = PhyParams.dot11b()
        cycle = (phy.difs + phy.cw_min / 2 * phy.slot_time
                 + AirtimeModel(phy).success_duration(1500))
        assert model.capacity() == pytest.approx(1500 * 8 / cycle,
                                                 rel=0.02)

    def test_total_throughput_decreases_beyond_two(self, model):
        # With CW_min = 31 the aggregate throughput peaks at a small
        # number of stations (less idle backoff waste than a lone
        # sender) and then decays as collisions dominate — exactly
        # Bianchi's published behaviour.
        totals = [model.solve(n).total_throughput_bps for n in (2, 5, 15, 40)]
        assert totals[0] > totals[1] > totals[2] > totals[3]

    def test_fair_share_halves_roughly(self, model):
        capacity = model.capacity()
        fair2 = model.fair_share(2)
        assert 0.4 * capacity < fair2 < 0.6 * capacity

    def test_fair_share_decreases_with_n(self, model):
        shares = [model.fair_share(n) for n in (2, 3, 4, 6)]
        assert all(a > b for a, b in zip(shares, shares[1:]))

    def test_per_station_sums_to_total(self, model):
        solution = model.solve(4)
        assert solution.throughput_per_station_bps * 4 == pytest.approx(
            solution.total_throughput_bps)

    def test_small_packets_lower_capacity(self):
        small = BianchiModel(size_bytes=100).capacity()
        large = BianchiModel(size_bytes=1500).capacity()
        assert small < large / 3

    def test_collision_fraction_range(self, model):
        assert model.collision_fraction(1) == 0.0
        frac2 = model.collision_fraction(2)
        frac8 = model.collision_fraction(8)
        assert 0 < frac2 < frac8 < 1

    def test_mean_access_delay_grows_with_n(self, model):
        d2 = model.solve(2).mean_access_delay
        d6 = model.solve(6).mean_access_delay
        assert d6 > d2 > 0

    def test_mean_slot_duration_positive(self, model):
        assert model.solve(3).mean_slot_duration > 0

    def test_dot11g_larger_capacity(self):
        b = BianchiModel(PhyParams.dot11b()).capacity()
        g = BianchiModel(PhyParams.dot11g()).capacity()
        assert g > 2.5 * b
