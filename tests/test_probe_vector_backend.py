"""Tests for the vectorized probe-train backend (repro.sim.probe_vector).

The load-bearing guarantees:

* the kernel is deterministic, uses the executor's seed-derivation
  scheme, and repetition streams are independent of the batch size;
* its access-delay and output-gap distributions are statistically
  equivalent (KS, alpha=0.01) to the event engine's on the same
  channel — across multiple cross-traffic rates, with and without
  FIFO cross-traffic sharing the probe queue;
* the channel/prober/runner layers route batches to it when (and only
  when) the ``vector`` backend is selected, and reject channels the
  kernel cannot model;
* the wired-FIFO vector path (batched Lindley) replays the event
  path's sample paths bit for bit;
* chirps run on every backend of the WLAN channel: the kernel sends
  each row on its chirp's own schedule, KS-equivalent to the event
  engine.
"""

import numpy as np
import pytest

from helpers import seed_params
from repro.core.chirp import ChirpTrain
from repro.core.dispersion import TrainMeasurement, output_gaps_batch
from repro.core.estimators import train_dispersion_rate
from repro.mac.frames import AirtimeModel
from repro.mac.params import PhyParams
from repro.runtime import executor, registry
from repro.sim.probe_vector import (
    PoissonCrossSpec,
    simulate_probe_train_batch,
)
from repro.testbed.channel import SimulatedFifoChannel, SimulatedWlanChannel
from repro.testbed.prober import Prober, ProbeSessionConfig
from repro.traffic.generators import (CBRGenerator, PoissonGenerator,
                                     TraceGenerator)
from repro.traffic.probe import PacketPair, ProbeTrain

L = 1500


def _spec(rate_bps, size=L):
    return PoissonCrossSpec(rate_bps / (size * 8), size)


def _kernel_kwargs(channel, train):
    return dict(size_bytes=train.size_bytes,
                cross=[PoissonCrossSpec.from_generator(g)
                       for _, g in channel.cross_stations],
                horizon=channel.horizon_for(train),
                warmup=channel.warmup,
                start_jitter=channel.start_jitter)


class TestKernelBasics:
    def test_shapes_and_validity(self):
        train = ProbeTrain.at_rate(12, 4e6, L)
        batch = simulate_probe_train_batch(
            train.n, train.gap, 9, size_bytes=L, cross=[_spec(2e6)],
            horizon=0.6, seed=5)
        assert batch.send_times.shape == (9, 12)
        assert batch.recv_times.shape == (9, 12)
        assert batch.access_delays.shape == (9, 12)
        assert not np.isnan(batch.recv_times).any()
        assert np.all(np.diff(batch.recv_times, axis=1) > 0)
        assert np.all(batch.access_delays > 0)
        assert np.all(batch.recv_times > batch.send_times)

    def test_deterministic_run_to_run(self):
        kwargs = dict(size_bytes=L, cross=[_spec(3e6)], horizon=0.6, seed=9)
        one = simulate_probe_train_batch(10, 0.003, 12, **kwargs)
        two = simulate_probe_train_batch(10, 0.003, 12, **kwargs)
        assert np.array_equal(one.recv_times, two.recv_times)
        assert np.array_equal(one.access_delays, two.access_delays)

    def test_seed_changes_results(self):
        one = simulate_probe_train_batch(10, 0.003, 12, size_bytes=L,
                                         cross=[_spec(3e6)], horizon=0.6,
                                         seed=9)
        other = simulate_probe_train_batch(10, 0.003, 12, size_bytes=L,
                                           cross=[_spec(3e6)], horizon=0.6,
                                           seed=10)
        assert not np.array_equal(one.recv_times, other.recv_times)

    def test_repetition_streams_independent_of_batch_size(self):
        """Repetition r sees the same universe in any batch that
        contains it — the executor seed-mapping contract."""
        kwargs = dict(size_bytes=L, cross=[_spec(4e6)], horizon=0.7, seed=2)
        small = simulate_probe_train_batch(15, 0.0024, 4, **kwargs)
        large = simulate_probe_train_batch(15, 0.0024, 16, **kwargs)
        assert np.array_equal(small.send_times, large.send_times[:4])
        assert np.array_equal(small.recv_times, large.recv_times[:4])
        assert np.array_equal(small.access_delays, large.access_delays[:4])

    def test_uncontended_low_rate_train_is_all_immediate(self):
        """With no cross-traffic and a slow train, every packet meets
        an idle medium and pays exactly one DATA airtime."""
        airtime = AirtimeModel(PhyParams.dot11b())
        batch = simulate_probe_train_batch(8, 0.01, 5, size_bytes=L,
                                           horizon=0.5, seed=1)
        assert np.allclose(batch.access_delays, airtime.data_airtime(L))

    def test_backlogged_train_serializes(self):
        """A back-to-back train with no contention drains as one busy
        period: consecutive departures one success duration apart."""
        phy = PhyParams.dot11b()
        airtime = AirtimeModel(phy)
        batch = simulate_probe_train_batch(6, 0.0, 4, size_bytes=L,
                                           horizon=0.5, seed=3)
        gaps = np.diff(batch.recv_times, axis=1)
        # Each subsequent packet waits SIFS + ACK + DIFS + backoff
        # before its own DATA frame; the gap is at least the frame
        # exchange and at most exchange + CW0 slots.
        floor = (airtime.data_airtime(L) + phy.sifs
                 + airtime.ack_airtime() + phy.difs)
        ceiling = floor + (phy.cw_min + 1) * phy.slot_time
        assert np.all(gaps >= floor - 1e-12)
        assert np.all(gaps <= ceiling + 1e-12)

    def test_immediate_access_disabled_first_packet_backs_off(self):
        airtime = AirtimeModel(PhyParams.dot11b())
        batch = simulate_probe_train_batch(
            4, 0.01, 60, size_bytes=L, horizon=0.5, seed=4,
            immediate_access=False)
        first = batch.access_delays[:, 0]
        assert np.any(first > airtime.data_airtime(L) + 1e-9)
        assert np.all(first >= airtime.data_airtime(L) - 1e-12)

    def test_fifo_cross_size_mismatch_rejected(self):
        with pytest.raises(ValueError, match="probe size"):
            simulate_probe_train_batch(
                5, 0.01, 3, size_bytes=L, fifo_cross=_spec(1e6, 576),
                horizon=0.5)

    def test_validation(self):
        with pytest.raises(ValueError):
            simulate_probe_train_batch(1, 0.01, 5, horizon=0.5)
        with pytest.raises(ValueError):
            simulate_probe_train_batch(5, -0.01, 5, horizon=0.5)
        with pytest.raises(ValueError):
            simulate_probe_train_batch(5, 0.01, 0, horizon=0.5)
        with pytest.raises(ValueError):
            simulate_probe_train_batch(5, 0.01, 5, horizon=0.5, warmup=-1)


class TestEventEquivalence:
    """KS equivalence between the backends at three cross-traffic rates.

    Seeds are fixed, so these are deterministic regressions, not flaky
    statistical tests: the KS distances were measured well under the
    alpha=0.01 thresholds when the kernel was written, and a protocol
    change in either backend pushes them over.  The extra master seeds
    (``-m seed_sweep``) guard against a seed-lottery pass.
    """

    N, REPS = 20, 50
    RATES = (1e6, 2.5e6, 4e6)

    @pytest.fixture(scope="class", params=seed_params(11, 211, 311))
    def master_seed(self, request):
        return request.param

    @pytest.fixture(scope="class", params=RATES)
    def pair(self, request, master_seed):
        cross_rate = request.param
        train = ProbeTrain.at_rate(self.N, 5e6, L)
        channel = SimulatedWlanChannel(
            [("cross", PoissonGenerator(cross_rate, L))], warmup=0.1)
        raws = channel.send_trains(train, self.REPS, seed=master_seed)
        event_delays = np.vstack([r.access_delays for r in raws])
        event_gaps = np.array(
            [(r.recv_times[-1] - r.recv_times[0]) / (self.N - 1)
             for r in raws])
        batch = channel.send_trains_batch(train, self.REPS,
                                          seed=master_seed)
        return event_delays, event_gaps, batch

    def test_access_delay_distributions_match(self, pair, ks_assert):
        event_delays, _, batch = pair
        ks_assert(event_delays, batch.access_delays)

    def test_first_packet_delay_distributions_match(self, pair, ks_assert):
        """The transient-critical index: the very first packet."""
        event_delays, _, batch = pair
        ks_assert(event_delays[:, 0], batch.access_delays[:, 0])

    def test_output_gap_distributions_match(self, pair, ks_assert):
        _, event_gaps, batch = pair
        ks_assert(event_gaps, batch.output_gaps)

    def test_mean_metrics_close(self, pair):
        event_delays, event_gaps, batch = pair
        assert event_delays.mean() == pytest.approx(
            batch.access_delays.mean(), rel=0.15)
        assert event_gaps.mean() == pytest.approx(
            float(batch.output_gaps.mean()), rel=0.1)


class TestFifoCrossEquivalence:
    """The complete system of figure 15: FIFO + contending traffic.

    FIFO cross-traffic couples every probe of a repetition through the
    shared transmission queue, so the pooled delay matrix is *not* an
    iid sample and the pooled KS threshold is anti-conservative (the
    event engine fails it against itself at some seeds).  The pins
    therefore compare per-repetition statistics — the rep-mean delay
    and fixed probe indices — which are iid across repetitions.
    """

    N, REPS = 20, 50

    @pytest.fixture(scope="class", params=seed_params(21, 7, 99))
    def pair(self, request):
        seed = request.param
        train = ProbeTrain.at_rate(self.N, 5e6, L)
        channel = SimulatedWlanChannel(
            [("cross", PoissonGenerator(3e6, L))],
            fifo_cross=PoissonGenerator(1e6, L, flow="fifo"),
            warmup=0.1)
        raws = channel.send_trains(train, self.REPS, seed=seed)
        event_delays = np.vstack([r.access_delays for r in raws])
        batch = channel.send_trains_batch(train, self.REPS, seed=seed)
        return event_delays, batch

    def test_rep_mean_delay_distributions_match(self, pair, ks_assert):
        event_delays, batch = pair
        ks_assert(event_delays.mean(axis=1),
                  batch.access_delays.mean(axis=1))

    def test_fixed_index_delay_distributions_match(self, pair, ks_assert):
        event_delays, batch = pair
        for idx in (0, 10):
            ks_assert(event_delays[:, idx], batch.access_delays[:, idx])

    def test_mean_delay_close(self, pair):
        event_delays, batch = pair
        assert event_delays.mean() == pytest.approx(
            batch.access_delays.mean(), rel=0.15)

    def test_probe_packets_only_in_result(self, pair):
        _, batch = pair
        assert batch.recv_times.shape == (self.REPS, self.N)
        assert np.all(np.diff(batch.recv_times, axis=1) > 0)


class TestChirps:
    """Chirps ride the WLAN kernel: each row's send offsets are its
    train's ``arrival_times``, so a geometric schedule needs no gap."""

    CHIRP = ChirpTrain.covering_rates(1e6, 8e6, spread_factor=1.25)

    @staticmethod
    def _channel():
        return SimulatedWlanChannel([("cross", PoissonGenerator(2e6, L))],
                                    warmup=0.05)

    @pytest.mark.parametrize("backend", ["event", "vector", "auto"])
    def test_chirps_run_on_every_backend(self, backend):
        prober = Prober(self._channel(), ProbeSessionConfig(
            repetitions=4, ideal_clocks=True, backend=backend))
        measurements = prober.measure_chirps(self.CHIRP, seed=3)
        assert len(measurements) == 4
        for m in measurements:
            assert m.n == self.CHIRP.n
            assert np.all(m.recv_times > m.send_times)

    def test_kernel_sends_the_chirp_schedule(self):
        batch = self._channel().send_trains_dense(self.CHIRP, 6, seed=5,
                                                  backend="vector")
        for row in batch.send_times:
            assert np.array_equal(row, self.CHIRP.arrival_times(row[0]))

    @pytest.mark.parametrize("seed", seed_params(13, 113, 213))
    def test_output_gaps_match_event_engine(self, seed, ks_assert):
        """Per-row output gaps are iid across rows (each row redraws
        its cross-traffic), so they pin the kernel's chirps to the
        event engine's."""
        channel = self._channel()
        event = channel.send_trains_dense(self.CHIRP, 60, seed=seed,
                                          backend="event")
        vector = channel.send_trains_dense(self.CHIRP, 60, seed=seed,
                                           backend="vector")
        ks_assert(event.output_gaps, vector.output_gaps)


class TestChannelRouting:
    def test_vector_raws_match_batch(self):
        train = ProbeTrain.at_rate(8, 4e6, L)
        channel = SimulatedWlanChannel(
            [("cross", PoissonGenerator(2e6, L))], warmup=0.1)
        raws = channel.send_trains(train, 6, seed=5, backend="vector")
        batch = channel.send_trains_batch(train, 6, seed=5)
        assert len(raws) == 6
        for r, raw in enumerate(raws):
            assert np.array_equal(raw.send_times, batch.send_times[r])
            assert np.array_equal(raw.recv_times, batch.recv_times[r])
            assert np.array_equal(raw.access_delays,
                                  batch.access_delays[r])
            assert raw.size_bytes == L

    def test_unknown_backend_rejected(self):
        channel = SimulatedWlanChannel([])
        with pytest.raises(ValueError, match="unknown backend"):
            channel.send_trains(ProbeTrain.at_rate(4, 2e6), 2,
                                backend="quantum")

    def test_unsampleable_cross_rejected(self):
        from repro.traffic.generators import TraceGenerator
        channel = SimulatedWlanChannel(
            [("replay", TraceGenerator([(0.05, L), (0.1, L)]))])
        assert channel.resolve_backend("auto").fallback is not None
        with pytest.raises(ValueError, match="no vector kernel"):
            channel.send_trains(ProbeTrain.at_rate(4, 2e6), 2,
                                backend="vector")

    def test_onoff_cross_routes_to_kernel(self):
        from repro.traffic.generators import OnOffGenerator
        channel = SimulatedWlanChannel(
            [("burst", OnOffGenerator(4e6, 0.05, 0.05, L))], warmup=0.1)
        assert channel.resolve_backend("auto").fallback is None
        batch = channel.send_trains_batch(ProbeTrain.at_rate(6, 4e6, L),
                                          4, seed=2)
        assert batch.recv_times.shape == (4, 6)
        assert np.all(np.diff(batch.recv_times, axis=1) > 0)

    def test_cbr_cross_routes_to_kernel(self):
        channel = SimulatedWlanChannel([("cbr", CBRGenerator(2e6, L))],
                                       warmup=0.1)
        assert channel.resolve_backend("auto").fallback is None
        batch = channel.send_trains_batch(ProbeTrain.at_rate(6, 4e6, L),
                                          4, seed=2)
        assert batch.recv_times.shape == (4, 6)
        assert np.all(np.diff(batch.recv_times, axis=1) > 0)

    def test_queue_tracking_supported(self):
        channel = SimulatedWlanChannel(
            [("cross", PoissonGenerator(2e6, L))], warmup=0.1,
            log_cross_queues=True)
        assert channel.resolve_backend("auto").fallback is None
        train = ProbeTrain.at_rate(8, 6e6, L)
        batch = channel.send_trains_batch(train, 5, seed=4)
        assert batch.queue_traces is not None
        assert len(batch.queue_traces) == 1
        sizes = batch.queue_traces[0].size_at(batch.send_times)
        assert sizes.shape == (5, 8)
        assert np.all(sizes >= 0)

    def test_rts_and_retry_limit_supported(self):
        rts = SimulatedWlanChannel([], rts_threshold=1000)
        assert rts.resolve_backend("auto").fallback is None
        retry = SimulatedWlanChannel([], retry_limit=7)
        assert retry.resolve_backend("auto").fallback is None

    def test_rts_adds_preamble_on_quiet_channel(self):
        """On an uncontended channel every probe gets immediate access,
        so the RTS/CTS arm's delays exceed basic access by exactly the
        RTS + SIFS + CTS + SIFS preamble."""
        train = ProbeTrain.at_rate(6, 1e6, L)
        basic = SimulatedWlanChannel([], warmup=0.05) \
            .send_trains_batch(train, 3, seed=9)
        rts = SimulatedWlanChannel([], warmup=0.05, rts_threshold=0) \
            .send_trains_batch(train, 3, seed=9)
        preamble = AirtimeModel(PhyParams.dot11b()).rts_preamble_duration()
        assert np.allclose(rts.access_delays - basic.access_delays,
                           preamble, atol=1e-12)

    def test_supported_channel_reports_none(self):
        channel = SimulatedWlanChannel(
            [("cross", PoissonGenerator(2e6, L))],
            fifo_cross=PoissonGenerator(1e6, L))
        assert channel.resolve_backend("auto").fallback is None


class TestFifoWiredVector:
    """The batched-Lindley path replays the event path exactly."""

    def test_send_trains_rows_equal_the_event_rows_bitwise(self):
        """The list-returning ``send_trains`` path: each vector row
        equals the event row bit for bit."""
        channel = SimulatedFifoChannel(
            10e6, cross_generator=PoissonGenerator(4e6, L),
            drain_rate_floor=2e6)
        train = ProbeTrain.at_rate(40, 6e6, L)
        event = channel.send_trains(train, 8, seed=4)
        vector = channel.send_trains(train, 8, seed=4, backend="vector")
        assert len(event) == len(vector) == 8
        for a, b in zip(event, vector):
            assert np.array_equal(a.send_times, b.send_times)
            assert np.array_equal(a.recv_times, b.recv_times)
            assert np.array_equal(a.access_delays, b.access_delays)

    def test_no_cross_traffic(self):
        channel = SimulatedFifoChannel(10e6)
        train = ProbeTrain.at_rate(10, 12e6, L)
        batch = channel.send_trains_batch(train, 3, seed=1)
        # Overloaded probe: departures serialize at the service rate.
        service = L * 8 / 10e6
        assert np.allclose(np.diff(batch.recv_times, axis=1), service)

    @staticmethod
    def _rows_equal_bitwise(channel, train):
        """``send_trains_dense`` on ``event`` and on ``vector`` give the
        same rows, bit for bit; returns the vector batch."""
        event = channel.send_trains_dense(train, 6, seed=4, backend="event")
        vector = channel.send_trains_dense(train, 6, seed=4,
                                           backend="vector")
        for field in ("send_times", "recv_times", "access_delays"):
            assert np.array_equal(getattr(vector, field),
                                  getattr(event, field)), field
        return vector

    @pytest.mark.parametrize("cross, train", [
        (PoissonGenerator(4e6, L), ProbeTrain.at_rate(40, 6e6, L)),
        (PoissonGenerator(3e6, 576), PacketPair(L)),
        (CBRGenerator(3e6, L), ProbeTrain.at_rate(24, 5e6, L)),
        (None, ProbeTrain.at_rate(10, 12e6, L)),
    ], ids=["poisson", "poisson-pair", "cbr", "none"])
    def test_dense_rows_equal_the_event_rows_bitwise(self, cross, train):
        channel = SimulatedFifoChannel(10e6, cross_generator=cross,
                                       drain_rate_floor=2e6)
        self._rows_equal_bitwise(channel, train)

    def test_probes_go_ahead_of_cross_arrivals_at_their_instants(self):
        """A trace whose packets arrive on the probe instants: both
        paths serve each probe first, so it never waits."""
        train = ProbeTrain.at_rate(12, 4e6, L)
        trace = [(t, 1000) for t in train.arrival_times(start=0.25)]
        channel = SimulatedFifoChannel(
            10e6, cross_generator=TraceGenerator(trace), warmup=0.25,
            start_jitter=0.0)
        batch = self._rows_equal_bitwise(channel, train)
        assert np.allclose(batch.recv_times - batch.send_times, L * 8 / 10e6)


class TestBatchedEstimators:
    @staticmethod
    def _send(method):
        channel = SimulatedWlanChannel(
            [("cross", PoissonGenerator(2e6, L))], warmup=0.1)
        return getattr(channel, method)(ProbeTrain.at_rate(10, 4e6, L), 12,
                                        seed=6)

    @pytest.fixture(scope="class")
    def raws(self):
        return self._send("send_trains")

    @pytest.fixture(scope="class")
    def batch(self):
        return self._send("send_trains_dense")

    def test_train_dispersion_rate_batch_equals_list(self, raws, batch):
        """The dense batch's equation-(16) gaps give the estimator's
        rate over the per-train measurements."""
        measurements = [TrainMeasurement(send_times=r.send_times,
                                         recv_times=r.recv_times,
                                         size_bytes=r.size_bytes)
                        for r in raws]
        assert L * 8 / np.mean(batch.output_gaps) == pytest.approx(
            train_dispersion_rate(measurements), rel=1e-12)

    def test_output_gaps_batch_matches_scalar(self, raws):
        recv = np.vstack([r.recv_times for r in raws])
        gaps = output_gaps_batch(recv)
        for r, raw in enumerate(raws):
            expected = (raw.recv_times[-1] - raw.recv_times[0]) \
                / (len(raw.recv_times) - 1)
            assert gaps[r] == pytest.approx(expected, rel=1e-12)

    def test_batch_round_trip(self, raws, batch):
        """``send_trains`` results are the rows of the dense batch."""
        for name in ("send_times", "recv_times", "access_delays"):
            assert np.array_equal(
                np.vstack([getattr(raw, name) for raw in raws]),
                getattr(batch, name))

    def test_batch_validation(self):
        with pytest.raises(ValueError):
            output_gaps_batch(np.zeros(5))
        with pytest.raises(ValueError):
            output_gaps_batch(np.zeros((2, 1)))
        with pytest.raises(ValueError):
            output_gaps_batch(np.array([[0.0, 2.0, 1.0]]))


class TestProberAndRunners:
    def test_prober_vector_backend(self):
        channel = SimulatedWlanChannel(
            [("cross", PoissonGenerator(2e6, L))], warmup=0.1)
        prober = Prober(channel, ProbeSessionConfig(
            repetitions=10, ideal_clocks=True, backend="vector"))
        rate = prober.dispersion_rate(8, 4e6, seed=3)
        assert 1e6 < rate < 12e6

    def test_collect_delay_matrix_vector(self):
        from repro.analysis.transient import collect_delay_matrix
        collection = collect_delay_matrix(
            5e6, [("cross", PoissonGenerator(3e6, L))],
            n_packets=15, repetitions=12, seed=2, backend="vector")
        assert collection.matrix.delays.shape == (12, 15)
        assert collection.queue_sizes == {}

    def test_collect_delay_matrix_vector_tracks_queues(self):
        from repro.analysis.transient import collect_delay_matrix
        collection = collect_delay_matrix(
            5e6, [("cross", PoissonGenerator(3e6, L))],
            n_packets=10, repetitions=4, seed=2,
            track_queues=True, backend="vector")
        assert collection.matrix.delays.shape == (4, 10)
        assert collection.queue_sizes["cross"].shape == (4, 10)
        assert np.all(collection.queue_sizes["cross"] >= 0)

    @pytest.mark.parametrize("backend", ["event", "vector"])
    def test_idle_station_has_zero_backlog(self, backend):
        """A queue-traced station that draws no arrivals reads as an
        empty queue on every backend (its event queue log is empty)."""
        from repro.analysis.transient import collect_delay_matrix
        collection = collect_delay_matrix(
            4e6, [("busy", PoissonGenerator(3e6, L)),
                  ("idle", PoissonGenerator(1e-3, L))],
            n_packets=10, repetitions=4, seed=2, track_queues=True,
            backend=backend)
        assert collection.queue_sizes["idle"].shape == (4, 10)
        assert not collection.queue_sizes["idle"].any()
        assert collection.queue_sizes["busy"].any()

    def test_registry_experiment_runs_on_vector(self):
        report = registry.get("fig6").run(
            scale=0.05, seed=3, backend="vector",
            overrides={"n_packets": 60, "repetitions": 25})
        assert report.kwargs["backend"] == "vector"
        assert report.result.meta["backend"] == "vector"
        assert report.result.series["mean_access_delay_s"].shape == (60,)

    def test_eq1_vector_matches_event(self):
        """Wired FIFO: the two backends agree point by point."""
        from repro.analysis.baseline import eq1_fifo_rate_response
        kwargs = dict(probe_rates_bps=[4e6, 8e6], n_packets=120,
                      repetitions=4, seed=1)
        event = eq1_fifo_rate_response(backend="event", **kwargs)
        vector = eq1_fifo_rate_response(backend="vector", **kwargs)
        assert np.allclose(event.series["measured_bps"],
                           vector.series["measured_bps"], rtol=1e-9)

    def test_jobs_do_not_change_vector_result(self):
        channel = SimulatedWlanChannel(
            [("cross", PoissonGenerator(2e6, L))], warmup=0.1)
        train = ProbeTrain.at_rate(8, 4e6, L)
        serial = channel.send_trains_batch(train, 6, seed=3)
        with executor.parallel_jobs(4):
            parallel = channel.send_trains_batch(train, 6, seed=3)
        assert np.array_equal(serial.recv_times, parallel.recv_times)


class TestSteadyQueueTraces:
    def test_steady_batch_tracks_queues(self):
        """The steady-state entry honours track_queues too, so the
        kernel's queue-trace capability holds for both workloads it
        advertises."""
        from repro.sim.probe_vector import (
            PoissonCrossSpec,
            simulate_steady_state_batch,
        )
        batch = simulate_steady_state_batch(
            4e6, 3, size_bytes=L,
            cross=[PoissonCrossSpec(3e6 / (L * 8), L)],
            duration=0.5, warmup=0.1, seed=2, track_queues=True)
        assert batch.queue_traces is not None
        sizes = batch.queue_traces[0].size_at(
            np.full((3, 4), [0.1, 0.2, 0.3, 0.4]))
        assert sizes.shape == (3, 4)
        assert np.all(sizes >= 0)
