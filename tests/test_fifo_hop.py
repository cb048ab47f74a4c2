"""Tests for the wired FIFO hop."""

import numpy as np
import pytest

from repro.queueing.fifo import FifoHop
from repro.traffic.generators import ArrivalSchedule
from repro.traffic.packets import Packet
from repro.traffic.probe import ProbeTrain


class TestFifoHop:
    def test_service_time(self):
        hop = FifoHop(10e6)
        assert hop.service_time(Packet(1250)) == pytest.approx(1e-3)

    def test_service_time_with_overhead(self):
        hop = FifoHop(10e6, overhead_bytes=250)
        assert hop.service_time(Packet(1000)) == pytest.approx(1e-3)

    def test_rejects_bad_capacity(self):
        with pytest.raises(ValueError):
            FifoHop(0.0)

    def test_rejects_negative_overhead(self):
        with pytest.raises(ValueError):
            FifoHop(1e6, overhead_bytes=-1)

    def test_single_packet_timing(self):
        hop = FifoHop(10e6)
        result = hop.run([(1.0, Packet(1250))])
        record = result.records[0]
        assert record.hol == 1.0
        assert record.departure == pytest.approx(1.001)

    def test_fifo_across_flows(self):
        hop = FifoHop(10e6)
        result = hop.run([
            (0.0, Packet(1250, flow="cross")),
            (0.0001, Packet(1250, flow="probe")),
        ])
        probe = result.by_flow("probe")[0]
        cross = result.by_flow("cross")[0]
        assert probe.hol == pytest.approx(cross.departure)

    def test_unsorted_input_sorted_internally(self):
        hop = FifoHop(10e6)
        result = hop.run([(1.0, Packet(100)), (0.0, Packet(100))])
        arrivals = [r.arrival for r in result.records]
        assert arrivals == sorted(arrivals)

    def test_throughput(self):
        hop = FifoHop(10e6)
        train = ProbeTrain.at_rate(11, 5e6, 1250)
        result = hop.run(train.packets())
        # 10 full gaps at 2 ms carrying 10 kb each.
        t0, t1 = result.records[0].departure, result.records[-1].departure
        assert result.throughput_bps(t0, t1, flow="probe") \
            == pytest.approx(5e6, rel=0.01)

    def test_output_gap_undisturbed_train(self):
        hop = FifoHop(10e6)
        train = ProbeTrain.at_rate(10, 2e6, 1250)
        result = hop.run(train.packets())
        assert result.output_gap() == pytest.approx(train.gap, rel=1e-9)

    def test_output_gap_backlogged_train_is_service_time(self):
        hop = FifoHop(10e6)
        train = ProbeTrain.at_rate(10, 50e6, 1250)
        result = hop.run(train.packets())
        assert result.output_gap() == pytest.approx(
            hop.service_time(Packet(1250)), rel=1e-9)

    def test_output_gap_needs_two_packets(self):
        hop = FifoHop(10e6)
        result = hop.run([(0.0, Packet(100, flow="probe"))])
        with pytest.raises(ValueError):
            result.output_gap()

    def test_throughput_window_validation(self):
        hop = FifoHop(10e6)
        result = hop.run([(0.0, Packet(1250))])
        with pytest.raises(ValueError):
            result.throughput_bps(1.0, 1.0)


class TestRunRows:
    """``run_rows`` serves each row as ``run`` serves its arrivals."""

    def test_rows_equal_run_bit_for_bit(self):
        hop = FifoHop(10e6, overhead_bytes=38)
        train = ProbeTrain.at_rate(16, 6e6, 1500)
        starts_at = (0.0, 1e-3, 2e-3)
        probe_times = np.stack([train.arrival_times(start=s)
                                for s in starts_at])
        rng = np.random.default_rng(5)
        schedules = []
        for row in probe_times:
            # Mixed sizes, and every fourth probe instant taken by a
            # cross arrival too.
            times = np.sort(np.concatenate([rng.uniform(0, 0.05, 30),
                                            row[::4]]))
            schedules.append(ArrivalSchedule(
                times, rng.choice([40, 576, 1500], len(times))))
        schedules[1] = None
        starts, departures = hop.run_rows(probe_times, 1500, schedules)
        for r, start in enumerate(starts_at):
            cross = list(schedules[r]) if schedules[r] is not None else []
            probe = hop.run(train.packets(start=start) + cross
                            ).by_flow("probe")
            assert np.array_equal(starts[r], [p.hol for p in probe])
            assert np.array_equal(departures[r], [p.departure for p in probe])

    def test_rejects_unsorted_probes_and_a_schedule_per_row_missing(self):
        hop = FifoHop(10e6)
        with pytest.raises(ValueError, match="non-decreasing"):
            hop.run_rows(np.array([[0.2, 0.1]]), 1500, [None])
        with pytest.raises(ValueError, match="schedules"):
            hop.run_rows(np.zeros((2, 3)), 1500, [None])


class TestFifoRateResponse:
    """The hop must obey equation (1) against fluid-enough cross-traffic."""

    def test_below_available_bandwidth_untouched(self, rng):
        from repro.traffic.generators import PoissonGenerator
        hop = FifoHop(10e6)
        cross = PoissonGenerator(4e6, 200).generate(2.0, rng)
        train = ProbeTrain.at_rate(200, 3e6, 1500)
        arrivals = list(train.packets(start=0.5)) + list(cross)
        result = hop.run(arrivals)
        gap = result.output_gap()
        assert 1500 * 8 / gap == pytest.approx(3e6, rel=0.05)

    def test_above_available_bandwidth_shared(self, rng):
        from repro.analytic.rate_response import fifo_rate_response
        from repro.traffic.generators import PoissonGenerator
        hop = FifoHop(10e6)
        rate = 8e6
        cross = PoissonGenerator(4e6, 200).generate(4.0, rng)
        train = ProbeTrain.at_rate(1200, rate, 1500)
        arrivals = list(train.packets(start=0.5)) + list(cross)
        result = hop.run(arrivals)
        measured = 1500 * 8 / result.output_gap()
        expected = float(fifo_rate_response(np.array([rate]), 10e6, 6e6)[0])
        assert measured == pytest.approx(expected, rel=0.05)
