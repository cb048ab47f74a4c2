"""Tests for the multi-hop path substrate."""

import numpy as np
import pytest

from repro.analytic.bianchi import BianchiModel
from repro.core.dispersion import TrainMeasurement
from repro.core.estimators import packet_pair_capacity
from repro.path import NetworkPath, SimulatedPathChannel, WiredHop, WlanHop
from repro.testbed.prober import Prober, ProbeSessionConfig
from repro.traffic.generators import PoissonGenerator
from repro.traffic.probe import PacketPair, ProbeTrain


def make_prober(path, repetitions=8):
    channel = SimulatedPathChannel(path)
    return Prober(channel, ProbeSessionConfig(repetitions=repetitions,
                                              ideal_clocks=True))


class TestWiredHop:
    def test_empty_arrivals(self, rng):
        hop = WiredHop(10e6)
        assert len(hop.carry([], rng)) == 0

    def test_departure_timing(self, rng):
        hop = WiredHop(10e6, prop_delay=5e-3)
        train = ProbeTrain.at_rate(3, 1e6, 1250)
        departures = hop.carry(train.packets(start=1.0), rng)
        # Each packet: 1 ms service + 5 ms propagation.
        assert departures[0] == pytest.approx(1.0 + 1e-3 + 5e-3)

    def test_order_preserved(self, rng):
        hop = WiredHop(10e6)
        train = ProbeTrain.at_rate(50, 20e6)
        departures = hop.carry(train.packets(), rng)
        assert np.all(np.diff(departures) >= 0)

    def test_cross_traffic_inflates_delay(self):
        quiet = WiredHop(10e6)
        loaded = WiredHop(10e6, cross_generator=PoissonGenerator(7e6, 1500))
        train = ProbeTrain.at_rate(40, 5e6)
        d_quiet = quiet.carry(train.packets(start=1.0),
                              np.random.default_rng(1))
        d_loaded = loaded.carry(train.packets(start=1.0),
                                np.random.default_rng(1))
        assert d_loaded[-1] > d_quiet[-1]

    def test_validation(self):
        with pytest.raises(ValueError):
            WiredHop(10e6, prop_delay=-1.0)


class TestWlanHop:
    def test_order_preserved(self, rng):
        hop = WlanHop([("cross", PoissonGenerator(2e6, 1500))])
        train = ProbeTrain.at_rate(20, 6e6)
        departures = hop.carry(train.packets(start=1.0), rng)
        assert np.all(np.diff(departures) > 0)

    def test_prop_delay_added(self):
        hop_no_delay = WlanHop(prop_delay=0.0)
        hop_delay = WlanHop(prop_delay=10e-3)
        train = ProbeTrain.at_rate(3, 1e6)
        d0 = hop_no_delay.carry(train.packets(start=1.0),
                                np.random.default_rng(2))
        d1 = hop_delay.carry(train.packets(start=1.0),
                             np.random.default_rng(2))
        assert np.allclose(d1 - d0, 10e-3)

    def test_empty_arrivals(self, rng):
        assert len(WlanHop().carry([], rng)) == 0


class TestNetworkPath:
    def test_needs_hops(self):
        with pytest.raises(ValueError):
            NetworkPath([])

    def test_pair_dispersion_set_by_narrow_wired_link(self):
        """Classic result: pair dispersion = bottleneck service time."""
        path = NetworkPath([WiredHop(100e6), WiredHop(10e6),
                            WiredHop(50e6)])
        prober = make_prober(path, repetitions=5)
        estimate = prober.packet_pair_estimate(seed=1)
        assert estimate == pytest.approx(10e6, rel=0.01)

    def test_order_preserved_end_to_end(self, rng):
        path = NetworkPath([
            WiredHop(20e6, cross_generator=PoissonGenerator(8e6, 1500)),
            WlanHop([("cross", PoissonGenerator(2e6, 1500))]),
        ])
        train = ProbeTrain.at_rate(30, 5e6)
        departures = path.carry(train.packets(start=1.0), rng)
        assert np.all(np.diff(departures) > 0)

    def test_reproducible(self):
        path = NetworkPath([WlanHop([("x", PoissonGenerator(2e6, 1500))])])
        channel = SimulatedPathChannel(path)
        train = ProbeTrain.at_rate(5, 2e6)
        a = channel.send_train(train, seed=3)
        b = channel.send_train(train, seed=3)
        assert np.array_equal(a.recv_times, b.recv_times)


class TestAccessNetworkScenario:
    """Wired backbone + wireless last mile: the reference [3] setting."""

    @pytest.fixture(scope="class")
    def path(self):
        return NetworkPath([
            WiredHop(100e6, prop_delay=1e-3),
            WlanHop([("neighbour", PoissonGenerator(4e6, 1500))]),
        ])

    def test_pair_estimate_tracks_wireless_b_not_capacity(self, path):
        prober = make_prober(path, repetitions=60)
        estimate = prober.packet_pair_estimate(seed=4)
        bianchi = BianchiModel()
        # Far below both the wired 100 Mb/s and the wireless C.
        assert estimate < 0.97 * bianchi.capacity()
        assert estimate > bianchi.fair_share(2)

    def test_rate_scan_knee_at_wireless_fair_share(self, path):
        prober = make_prober(path, repetitions=6)
        curve = prober.rate_scan(
            np.array([1e6, 2e6, 3e6, 4.5e6, 6e6]), n=40, seed=5)
        knee = curve.knee_rate(tolerance=0.08)
        fair_share = BianchiModel().fair_share(2)
        assert knee == pytest.approx(fair_share, rel=0.45)


class TestPathVectorBackend:
    """The multihop chaining layer (carry_batch + dispatch)."""

    def _path(self):
        return NetworkPath([
            WiredHop(100e6, prop_delay=1e-3),
            WlanHop([("neighbour", PoissonGenerator(4e6, 1500))]),
        ])

    def test_wired_hop_batch_replays_event_path_exactly(self):
        hop = WiredHop(10e6, cross_generator=PoissonGenerator(5e6, 1500))
        train = ProbeTrain.at_rate(30, 6e6, 1500)
        times = train.arrival_times(start=1.0)
        seeds = [11, 12, 13]
        batch = hop.carry_batch(
            np.broadcast_to(times, (3, 30)).copy(), 1500, seeds)
        for r, seed in enumerate(seeds):
            event = hop.carry(train.packets(start=1.0),
                              np.random.default_rng(seed))
            assert np.array_equal(batch[r], event)

    def test_scenario_spec_compiled_from_hops(self):
        channel = SimulatedPathChannel(self._path())
        spec = channel.scenario_spec()
        assert spec.system == "path"
        assert spec.cross_traffic == "poisson"
        assert channel.resolve_backend("auto").kernel == \
            "multihop chain kernel"

    def test_unknown_hop_type_demotes_to_event(self):
        from repro.path.hops import PathHop

        class TeleportHop(PathHop):
            def carry(self, arrivals, rng):
                return np.array([t for t, _ in arrivals])

        channel = SimulatedPathChannel(NetworkPath([TeleportHop()]))
        resolution = channel.resolve_backend("auto")
        assert resolution.name == "event"
        assert "TeleportHop" in resolution.fallback
        with pytest.raises(ValueError, match="no vector kernel"):
            channel.send_trains_batch(ProbeTrain.at_rate(4, 2e6), 2)

    def test_retry_limited_wlan_hop_rides_the_chain_kernel(self):
        path = NetworkPath([
            WlanHop([("n", PoissonGenerator(2e6, 1500))], retry_limit=4),
        ])
        channel = SimulatedPathChannel(path)
        resolution = channel.resolve_backend("auto")
        assert resolution.name == "vector"
        assert resolution.kernel == "multihop chain kernel"
        batch = channel.send_trains_batch(ProbeTrain.at_rate(6, 3e6, 1500),
                                          3, seed=7)
        assert batch.recv_times.shape == (3, 6)
        assert np.all(np.diff(batch.recv_times, axis=1) > 0)

    def test_batch_rows_are_plausible_trains(self):
        channel = SimulatedPathChannel(self._path())
        train = ProbeTrain.at_rate(10, 3e6, 1500)
        batch = channel.send_trains_batch(train, 6, seed=5)
        assert batch.recv_times.shape == (6, 10)
        # FIFO order survives the whole chain, and every departure
        # trails its own send instant by at least the wired service
        # plus both propagation-free airtime floors.
        assert np.all(np.diff(batch.recv_times, axis=1) > 0)
        assert np.all(batch.recv_times > batch.send_times)
        assert np.isnan(batch.access_delays).all()

    def test_prober_rides_vector_backend(self):
        channel = SimulatedPathChannel(self._path())
        prober = Prober(channel, ProbeSessionConfig(
            repetitions=8, ideal_clocks=True, backend="vector"))
        rate = prober.dispersion_rate(10, 3e6, seed=3)
        assert 1e6 < rate < 12e6

    def test_packet_pairs_cross_the_chain(self):
        channel = SimulatedPathChannel(self._path())
        pairs = channel.send_trains_dense(PacketPair(1500), 10, seed=9,
                                          backend="vector")
        estimate = packet_pair_capacity(TrainMeasurement(
            pairs.send_times, pairs.recv_times, pairs.size_bytes))
        assert 1e6 < estimate < 20e6

    def test_registry_experiment_runs_on_vector(self):
        from repro.runtime import registry
        report = registry.get("ext-multihop").run(
            scale=0.2, seed=4, backend="vector",
            overrides={"n_packets": 12,
                       "probe_rates_bps": [1e6, 2e6, 3e6]})
        assert report.kwargs["backend"] == "vector"
        assert report.result.meta["backend"] == "vector"


class TestMixedFifoPath:
    def test_mixed_fifo_across_hops_stays_vectorizable(self):
        """Each hop resolves its own FIFO generator, so hops carrying
        different (individually supported) FIFO models must not demote
        the path."""
        from repro.traffic.generators import CBRGenerator
        path = NetworkPath([
            WlanHop([("a", PoissonGenerator(2e6, 1500))],
                    fifo_cross=PoissonGenerator(1e6, 1500)),
            WlanHop([("b", PoissonGenerator(2e6, 1500))],
                    fifo_cross=CBRGenerator(1e6, 1500)),
        ])
        channel = SimulatedPathChannel(path)
        spec = channel.scenario_spec()
        assert spec.fifo_cross == "mixed"
        assert channel.resolve_backend("auto").kernel == \
            "multihop chain kernel"
