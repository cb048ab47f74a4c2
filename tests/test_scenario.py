"""Tests for scenario building and result accounting."""

import numpy as np
import pytest

from repro.mac.scenario import StationSpec, WlanScenario
from repro.traffic.generators import CBRGenerator, PoissonGenerator
from repro.traffic.probe import ProbeTrain


class TestScenarioRun:
    def test_duplicate_names_rejected(self, scenario):
        specs = [StationSpec("a"), StationSpec("a")]
        with pytest.raises(ValueError):
            scenario.run(specs, horizon=0.1)

    def test_bad_horizon_rejected(self, scenario):
        with pytest.raises(ValueError):
            scenario.run([StationSpec("a")], horizon=0.0)

    def test_silent_station_allowed(self, scenario):
        result = scenario.run([StationSpec("idle")], horizon=0.1)
        assert result.station("idle").records == []

    def test_reproducible_with_seed(self, scenario):
        specs = [StationSpec("a", generator=PoissonGenerator(2e6, 1500))]
        r1 = scenario.run(specs, horizon=0.5, seed=42)
        r2 = scenario.run(specs, horizon=0.5, seed=42)
        d1 = [r.departure for r in r1.station("a").completed()]
        d2 = [r.departure for r in r2.station("a").completed()]
        assert d1 == d2

    def test_different_seeds_differ(self, scenario):
        specs = [StationSpec("a", generator=PoissonGenerator(2e6, 1500))]
        r1 = scenario.run(specs, horizon=0.5, seed=1)
        r2 = scenario.run(specs, horizon=0.5, seed=2)
        d1 = [r.departure for r in r1.station("a").completed()]
        d2 = [r.departure for r in r2.station("a").completed()]
        assert d1 != d2

    def test_until_caps_simulation(self, scenario):
        specs = [StationSpec("a", generator=CBRGenerator(8e6, 1500))]
        result = scenario.run(specs, horizon=1.0, until=0.5)
        assert result.duration == pytest.approx(0.5)

    def test_runs_to_drain_by_default(self, scenario):
        specs = [StationSpec("a", generator=CBRGenerator(9e6, 1500))]
        result = scenario.run(specs, horizon=0.5)
        # Offered 9 Mb/s > C ~ 6.2: draining takes longer than the horizon.
        assert result.duration > 0.5
        records = result.station("a").records
        assert all(r.completed for r in records)

    def test_arrivals_and_generator_merge(self, scenario):
        train = ProbeTrain.at_rate(5, 2e6)
        specs = [StationSpec(
            "probe", generator=PoissonGenerator(1e6, 1500, flow="fifo"),
            arrivals=train.packets(start=0.1))]
        result = scenario.run(specs, horizon=0.5, seed=3)
        station = result.station("probe")
        assert len(station.completed("probe")) == 5
        assert len(station.completed("fifo")) > 0

    def test_collision_rate_zero_single_station(self, scenario):
        specs = [StationSpec("a", generator=CBRGenerator(3e6, 1500))]
        result = scenario.run(specs, horizon=0.5)
        assert result.collisions == 0

    def test_events_processed_positive(self, probe_vs_poisson_result):
        assert probe_vs_poisson_result.events_processed > 0


class TestStationResult:
    def test_throughput_window_validation(self, probe_vs_poisson_result):
        with pytest.raises(ValueError):
            probe_vs_poisson_result.station("probe").throughput_bps(1.0, 1.0)

    def test_probe_throughput_matches_offered(self, probe_vs_poisson_result):
        # 2 Mb/s probe against 3 Mb/s cross: both under the fair share.
        throughput = probe_vs_poisson_result.station("probe") \
            .throughput_bps(0.5, 1.5, flow="probe")
        assert throughput == pytest.approx(2e6, rel=0.15)

    def test_flow_filter(self, probe_vs_poisson_result):
        station = probe_vs_poisson_result.station("probe")
        assert station.throughput_bps(0.5, 1.5, flow="nonexistent") == 0.0

    def test_access_delays_positive(self, probe_vs_poisson_result):
        delays = probe_vs_poisson_result.station("cross").access_delays()
        assert np.all(delays > 0)

    def test_departures_sorted(self, probe_vs_poisson_result):
        departures = probe_vs_poisson_result.station("cross").departures()
        assert np.all(np.diff(departures) > 0)

    def test_queue_log_disabled_by_default(self, probe_vs_poisson_result):
        with pytest.raises(ValueError):
            probe_vs_poisson_result.station("cross").queue_size_at(
                np.array([0.5]))


class TestQueueLogging:
    def test_queue_log_sampling(self, scenario):
        specs = [StationSpec("a", generator=CBRGenerator(9e6, 1500),
                             log_queue=True)]
        result = scenario.run(specs, horizon=0.5, until=0.6)
        station = result.station("a")
        sizes = station.queue_size_at(np.array([-0.01, 0.25, 0.5]))
        assert sizes[0] == 0.0          # before any arrival
        assert sizes[1] > 0.0           # saturated: queue built up
        # Offered 9 > C ~ 6.2 Mb/s: backlog grows over time.
        assert sizes[2] >= sizes[1]

    def test_queue_log_times_monotone(self, scenario):
        specs = [StationSpec("a", generator=PoissonGenerator(4e6, 1500),
                             log_queue=True)]
        result = scenario.run(specs, horizon=0.3)
        times = [t for t, _ in result.station("a").queue_log]
        assert times == sorted(times)

    def test_queue_log_values_nonnegative(self, scenario):
        specs = [StationSpec("a", generator=PoissonGenerator(4e6, 1500),
                             log_queue=True)]
        result = scenario.run(specs, horizon=0.3)
        assert all(q >= 0 for _, q in result.station("a").queue_log)


class TestCalibrationAgainstBianchi:
    """The simulator must track the analytical model (DESIGN ablation)."""

    def test_single_station_capacity(self, scenario):
        from repro.analytic.bianchi import BianchiModel
        specs = [StationSpec("a", generator=CBRGenerator(9e6, 1500))]
        result = scenario.run(specs, horizon=3.0, until=3.0, seed=10)
        measured = result.station("a").throughput_bps(0.5, 3.0)
        predicted = BianchiModel().capacity()
        assert measured == pytest.approx(predicted, rel=0.05)

    def test_two_station_fair_share(self, scenario):
        from repro.analytic.bianchi import BianchiModel
        specs = [StationSpec("a", generator=CBRGenerator(9e6, 1500)),
                 StationSpec("b", generator=CBRGenerator(9e6, 1500))]
        result = scenario.run(specs, horizon=3.0, until=3.0, seed=11)
        measured = result.station("a").throughput_bps(0.5, 3.0)
        predicted = BianchiModel().fair_share(2)
        assert measured == pytest.approx(predicted, rel=0.1)

    def test_collision_fraction_matches(self, scenario):
        from repro.analytic.bianchi import BianchiModel
        specs = [StationSpec("a", generator=CBRGenerator(9e6, 1500)),
                 StationSpec("b", generator=CBRGenerator(9e6, 1500))]
        result = scenario.run(specs, horizon=3.0, until=3.0, seed=12)
        predicted = BianchiModel().collision_fraction(2)
        measured = result.collisions / (result.successes + result.collisions)
        assert measured == pytest.approx(predicted, rel=0.4)
