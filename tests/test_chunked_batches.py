"""Streaming (chunked) batch execution and the BatchRequest API.

A chunked run must reproduce the dense run *bit for bit* at every
chunk size — same per-repetition seeds (contiguous slices of the dense
derivation), row-wise folds, no re-reduction in floating point — for
all three kernel families (probe-train, saturated DCF, Lindley/FIFO).
The ``BatchRequest`` pins cover the request's validation and error
messages, the ambient ``chunked_reps`` scope (the one chunk source)
and its environment variable, and the dispatcher's refusal to run an
undeclared batch on a kernel.  Every channel batch — queue-traced and
multihop ones included — reaches its kernel through the same chunk
loop, and the event backend folds its one-row batches into the same
dense batch.
"""

import json
from dataclasses import fields, replace

import numpy as np
import pytest

from helpers import seed_params
from repro.analysis.saturation import simulate_saturated
from repro.analysis.steady_state import steady_state_scan
from repro.backends import (
    BackendUnavailableError,
    BatchRequest,
    EventBackend,
    ScenarioSpec,
    dispatch,
)
from repro.backends.base import _VectorBackend
from repro.core.batch import RepetitionBatch, chunk_bounds, resolve_rep_seeds
from repro.path import (
    NetworkPath,
    SimulatedPathChannel,
    WiredHop,
    WlanHop,
)
from repro.runtime import executor, registry
from repro.runtime.executor import (
    active_chunk_reps,
    chunked_reps,
    derive_seeds,
    run_batch,
)
from repro.sim.probe_vector import (
    PoissonCrossSpec,
    ProbeBatchResult,
    QueueTraceBatch,
    simulate_probe_train_batch,
    simulate_steady_state_batch,
)
from repro.sim.vector import simulate_saturated_batch
from repro.testbed.channel import SimulatedFifoChannel, SimulatedWlanChannel
from repro.traffic.generators import OnOffGenerator, PoissonGenerator
from repro.traffic.probe import ProbeTrain

L = 1500
REPS = 13
#: The ISSUE's chunk-size grid: singleton chunks, a ragged tail
#: (13 % 7 != 0), exactly dense, and past-dense (normalised to dense).
CHUNKS = (1, 7, REPS, REPS + 3)
#: The spec of the caller-built probe-train batches below.
WLAN_TRAIN = ScenarioSpec(system="wlan", workload="train")


def _same_batch(a, b):
    """Field-by-field bit equality of two dense batches (NaN == NaN)."""
    assert type(a) is type(b)
    for field in fields(a):
        x, y = getattr(a, field.name), getattr(b, field.name)
        if isinstance(x, list):  # per-station queue traces
            assert len(x) == len(y)
            for u, v in zip(x, y):
                _same_batch(u, v)
        elif isinstance(x, np.ndarray):
            assert np.array_equal(x, y, equal_nan=True)
        else:
            assert x == y


class TestChunkPrimitives:
    def test_chunk_bounds_cover_contiguously(self):
        assert chunk_bounds(13, 7) == [(0, 7), (7, 13)]
        assert chunk_bounds(6, 2) == [(0, 2), (2, 4), (4, 6)]
        assert chunk_bounds(5, 9) == [(0, 5)]

    def test_chunk_bounds_validate(self):
        with pytest.raises(ValueError):
            chunk_bounds(0, 3)
        with pytest.raises(ValueError):
            chunk_bounds(4, 0)

    def test_resolve_rep_seeds_matches_derive_seeds(self):
        assert list(resolve_rep_seeds(42, 9)) == derive_seeds(42, 9)

    def test_resolve_rep_seeds_validates(self):
        with pytest.raises(ValueError):
            resolve_rep_seeds(0, 0)

    def test_slices_are_batch_size_independent(self):
        """The property the whole design rests on: the dense seed
        array's slice [lo:hi] is what a chunk must replay."""
        dense = resolve_rep_seeds(7, 12)
        assert np.array_equal(dense[:5], resolve_rep_seeds(7, 12)[:5])


class TestRepetitionBatchProtocol:
    """All four dense batch classes conform, structurally."""

    @pytest.fixture(scope="class")
    def probe_batch(self):
        return simulate_probe_train_batch(
            5, 0.003, 6, size_bytes=L,
            cross=[PoissonCrossSpec(200.0, L)], seed=3,
            track_queues=True)

    @pytest.fixture(scope="class")
    def steady_batch(self):
        return simulate_steady_state_batch(
            2e6, 4, size_bytes=L, duration=0.2, warmup=0.05, seed=5)

    @pytest.fixture(scope="class")
    def saturated_batch(self):
        return simulate_saturated_batch(3, 8, 5, seed=2, retry_limit=2)

    def test_all_batches_conform(self, probe_batch, steady_batch,
                                 saturated_batch):
        for batch in (probe_batch, steady_batch, saturated_batch,
                      probe_batch.queue_traces[0]):
            assert isinstance(batch, RepetitionBatch)
            assert batch.repetitions >= 1

    def test_concat_rejects_mismatched_parts(self, probe_batch,
                                             saturated_batch):
        other = replace(probe_batch, size_bytes=L + 100)
        with pytest.raises(ValueError, match="packet sizes"):
            ProbeBatchResult.concat([probe_batch, other])
        no_drops = simulate_saturated_batch(3, 8, 2, seed=2)
        with pytest.raises(ValueError, match="drop counters"):
            type(saturated_batch).concat([saturated_batch, no_drops])

    def test_concat_needs_parts(self):
        with pytest.raises(ValueError):
            ProbeBatchResult.concat([])


class TestChunkedBitIdentity:
    """The tentpole guarantee, per kernel family and chunk size."""

    @pytest.fixture(scope="class")
    def wlan(self):
        return SimulatedWlanChannel(
            [("cross", PoissonGenerator(4e6, L))], warmup=0.05)

    @pytest.fixture(scope="class")
    def fifo(self):
        return SimulatedFifoChannel(
            8e6, cross_generator=PoissonGenerator(3e6, L),
            start_jitter=0.0)

    @pytest.fixture(scope="class")
    def path(self):
        return SimulatedPathChannel(NetworkPath([
            WiredHop(50e6, cross_generator=PoissonGenerator(10e6, L)),
            WlanHop([("neighbour", PoissonGenerator(3e6, L))]),
        ]))

    @pytest.mark.parametrize("chunk", CHUNKS)
    def test_probe_train_channel_chunks_bit_identical(self, wlan, chunk):
        train = ProbeTrain.at_rate(10, 5e6, L)
        dense = wlan.send_trains_dense(train, REPS, seed=11,
                                       backend="vector")
        with chunked_reps(chunk):
            chunked = wlan.send_trains_dense(train, REPS, seed=11,
                                             backend="vector")
        _same_batch(chunked, dense)

    @pytest.mark.parametrize("chunk", CHUNKS)
    def test_lindley_channel_chunks_bit_identical(self, fifo, chunk):
        train = ProbeTrain.at_rate(12, 6e6, L)
        dense = fifo.send_trains_dense(train, REPS, seed=19,
                                       backend="vector")
        with chunked_reps(chunk):
            chunked = fifo.send_trains_dense(train, REPS, seed=19,
                                             backend="vector")
        _same_batch(chunked, dense)

    @pytest.mark.parametrize("chunk", CHUNKS)
    def test_path_channel_chunks_bit_identical(self, path, chunk):
        train = ProbeTrain.at_rate(8, 3e6, L)
        dense = path.send_trains_dense(train, REPS, seed=43,
                                       backend="vector")
        with chunked_reps(chunk):
            chunked = path.send_trains_dense(train, REPS, seed=43,
                                             backend="vector")
        _same_batch(chunked, dense)

    @pytest.mark.parametrize("chunk", CHUNKS + (4,))
    def test_path_rows_keep_their_own_horizon(self, chunk):
        """Cross-traffic on the upstream hop staggers the arrivals at
        the WLAN hop row by row; each row's cross-traffic horizon
        there is its own (the event hop's), never its chunk's."""
        path = SimulatedPathChannel(NetworkPath([
            WiredHop(10e6, cross_generator=PoissonGenerator(6e6, L)),
            WlanHop([("neighbour", PoissonGenerator(3e6, L))]),
        ]))
        train = ProbeTrain.at_rate(20, 4e6, L)
        dense = path.send_trains_dense(train, 12, seed=3,
                                       backend="vector")
        with chunked_reps(chunk):
            chunked = path.send_trains_dense(train, 12, seed=3,
                                             backend="vector")
        _same_batch(chunked, dense)

    def test_queue_traced_batches_chunk(self, monkeypatch):
        from repro.analysis.transient import collect_delay_matrix
        from repro.testbed import channel
        stations = [("cross", PoissonGenerator(3e6, L))]

        def collect():
            return collect_delay_matrix(
                4e6, stations, n_packets=12, repetitions=8, warmup=0.05,
                seed=47, track_queues=True, backend="vector")

        dense = collect()
        rows = []
        kernel = channel.simulate_probe_train_batch

        def spy(*args, **kwargs):
            rows.append(args[2])
            return kernel(*args, **kwargs)

        monkeypatch.setattr(channel, "simulate_probe_train_batch", spy)
        with chunked_reps(3):
            chunked = collect()
        assert rows == [3, 3, 2]
        assert np.array_equal(chunked.matrix.delays, dense.matrix.delays)
        assert np.array_equal(chunked.queue_sizes["cross"],
                              dense.queue_sizes["cross"])

    @pytest.mark.parametrize("chunk", CHUNKS)
    def test_saturated_study_chunks_bit_identical(self, chunk):
        dense = simulate_saturated(4, 15, REPS, seed=23, retry_limit=3,
                                   backend="vector")
        with chunked_reps(chunk):
            chunked = simulate_saturated(4, 15, REPS, seed=23,
                                         retry_limit=3,
                                         backend="vector")
        assert np.array_equal(chunked.access_delays, dense.access_delays,
                              equal_nan=True)
        assert np.array_equal(chunked.durations, dense.durations)
        assert np.array_equal(chunked.successes, dense.successes)
        assert np.array_equal(chunked.collisions, dense.collisions)
        assert np.array_equal(chunked.drops, dense.drops)

    @pytest.mark.parametrize("chunk", CHUNKS)
    def test_steady_state_chunks_bit_identical(self, chunk):
        # Two points: chunks of 1 and 7 rows straddle them.
        dense = steady_state_scan([2e6, 5e6], 3e6, repetitions=REPS,
                                  duration=0.2, warmup=0.05,
                                  seed=29, backend="vector")
        with chunked_reps(chunk):
            chunked = steady_state_scan([2e6, 5e6], 3e6, repetitions=REPS,
                                        duration=0.2, warmup=0.05,
                                        seed=29, backend="vector")
        for flow in dense:
            assert np.array_equal(chunked[flow], dense[flow])

    def test_explicit_request_chunks_bit_identical(self):
        """A caller-built request under the --chunk-reps scope."""
        def batch_task(seeds, points):
            return simulate_probe_train_batch(
                6, 0.0025, len(seeds), size_bytes=L,
                cross=[PoissonCrossSpec(250.0, L)], seeds=seeds)

        request = BatchRequest.scan([31], REPS, batch_task=batch_task,
                                    spec=WLAN_TRAIN)
        dense = run_batch(request, backend="vector")
        for chunk in CHUNKS:
            with chunked_reps(chunk):
                chunked = run_batch(request, backend="vector")
            _same_batch(chunked, dense)


@pytest.mark.slow
class TestChunkedOnOffKS:
    """Chunked ext-onoff kernel vs. the event engine (KS-pinned).

    All probes of a repetition share one on-off sample path, so the
    pin compares per-repetition statistics (see
    ``test_retry_onoff_equivalence``), with the vector side streamed
    through an uneven chunk size.
    """

    N, REPS = 20, 150

    @pytest.fixture(scope="class", params=seed_params(17))
    def pair(self, request):
        seed = request.param
        channel = SimulatedWlanChannel(
            [("burst", OnOffGenerator(6e6, 0.05, 0.05, L))], warmup=0.1)
        train = ProbeTrain.at_rate(self.N, 4e6, L)
        event = channel.send_trains_dense(train, self.REPS, seed=seed,
                                          backend="event")
        with chunked_reps(32):
            chunked = channel.send_trains_dense(train, self.REPS,
                                                seed=seed,
                                                backend="vector")
        return event, chunked

    def test_rep_mean_delay_distributions_match(self, pair, ks_assert):
        event, chunked = pair
        ks_assert(event.access_delays.mean(axis=1),
                  chunked.access_delays.mean(axis=1))

    def test_fixed_index_delay_distributions_match(self, pair,
                                                   ks_assert):
        event, chunked = pair
        for idx in (0, 10):
            ks_assert(event.access_delays[:, idx],
                      chunked.access_delays[:, idx])

    def test_chunked_equals_dense_vector(self, pair):
        """And the streamed run is still bit-identical to dense."""
        _, chunked = pair
        channel = SimulatedWlanChannel(
            [("burst", OnOffGenerator(6e6, 0.05, 0.05, L))], warmup=0.1)
        dense = channel.send_trains_dense(
            ProbeTrain.at_rate(self.N, 4e6, L), self.REPS, seed=17,
            backend="vector")
        _same_batch(chunked, dense)


class TestChunkScope:
    """The ambient chunked_reps scope and its environment variable."""

    def test_default_is_dense(self):
        assert active_chunk_reps() is None

    def test_scope_nests_and_restores(self):
        with chunked_reps(3):
            assert active_chunk_reps() == 3
            with chunked_reps(2):
                assert active_chunk_reps() == 2
            assert active_chunk_reps() == 3
        assert active_chunk_reps() is None

    def test_scope_none_forces_dense_over_env(self, monkeypatch):
        monkeypatch.setenv(executor.CHUNK_ENV, "4")
        assert active_chunk_reps() == 4
        with chunked_reps(None):
            assert active_chunk_reps() is None
        assert active_chunk_reps() == 4

    def test_invalid_env_warns_and_runs_dense(self, monkeypatch):
        for raw in ("zero", "0", "-3"):
            monkeypatch.setenv(executor.CHUNK_ENV, raw)
            with pytest.warns(UserWarning, match="ignoring invalid"):
                assert active_chunk_reps() is None

    def test_scope_validates(self):
        with pytest.raises(ValueError):
            with chunked_reps(0):
                pass

    def test_chunk_at_or_past_batch_is_dense(self):
        calls = []

        def batch_task(seeds, points):
            calls.append(len(seeds))
            return simulate_probe_train_batch(
                4, 0.003, len(seeds), size_bytes=L, seeds=seeds)

        request = BatchRequest.scan([0], 10, batch_task=batch_task,
                                    spec=WLAN_TRAIN)
        for chunk in (10, 25):
            calls.clear()
            with chunked_reps(chunk):
                run_batch(request, backend="vector")
            assert calls == [10]


class TestBatchRequestAPI:
    def test_request_validates(self):
        with pytest.raises(ValueError, match="repetitions"):
            BatchRequest.scan([0], 0)
        with pytest.raises(ValueError, match="at least one row"):
            BatchRequest.scan([], 3)
        with pytest.raises(ValueError, match="2 points for 3 rows"):
            BatchRequest(seeds=[1, 2, 3], points=[0, 0])

    def test_unknown_backend_message_pinned(self):
        request = BatchRequest.scan([0], 2, event_task=lambda s, p: s)
        with pytest.raises(ValueError, match="unknown backend"):
            run_batch(request, backend="quantum")

    def test_forced_vector_without_kernel_pinned(self):
        request = BatchRequest.scan([0], 2, event_task=lambda s, p: s)
        with pytest.raises(ValueError, match="no vector kernel"):
            run_batch(request, backend="vector")

    def test_event_backend_needs_event_task(self):
        request = BatchRequest.scan(
            [0], 2, batch_task=lambda seeds, points: list(seeds))
        with pytest.raises(ValueError, match="event_task"):
            run_batch(request, backend="event")


class TestCallerKernelResolution:
    """A caller-built kernel batch runs only under a declared spec."""

    def test_direct_resolve_still_guards_by_default(self):
        with pytest.raises(BackendUnavailableError):
            dispatch.resolve(None, "vector")

    def test_caller_kernel_chunks_like_any_vector_backend(self):
        sizes = []

        def batch_task(seeds, points):
            sizes.append(len(seeds))
            send = np.cumsum(np.ones((len(seeds), 3)), axis=1)
            return ProbeBatchResult(send_times=send, recv_times=send + 0.1,
                                    access_delays=np.full(send.shape, 0.1),
                                    size_bytes=L)

        with chunked_reps(3):
            out = run_batch(BatchRequest.scan([0], 7,
                                              batch_task=batch_task,
                                              spec=WLAN_TRAIN),
                            backend="vector")
        assert sizes == [3, 3, 1]
        assert out.repetitions == 7


class TestRunnersReachTheBackend:
    """Every runner's batches — channel, queue-traced, multihop,
    ablation and fused-scan ones — run through ``Backend.run_batch``,
    so ``--jobs`` and ``--chunk-reps`` apply to all of them without
    changing a payload byte."""

    #: Runner overrides keeping each case small, with enough
    #: repetitions for a chunk size of 3 to split every batch.  The
    #: fused scans (steady-state, probe-train and cross-load) carry 2
    #: to 4 rows per point, so their chunks straddle points — and,
    #: in the cross-load scans, channels and station counts.
    OVERRIDES = {
        "fig1": {"repetitions": 2, "duration": 0.3, "warmup": 0.1,
                 "probe_rates_bps": [1e6, 3e6, 6e6]},
        "fig4": {"repetitions": 2, "duration": 0.3, "warmup": 0.1,
                 "probe_rates_bps": [1e6, 3e6, 6e6]},
        "fig8": {"repetitions": 12},
        "ablation-bianchi": {"duration": 0.5, "warmup": 0.1,
                             "repetitions": 4},
        "ext-multihop": {"repetitions": 5, "probe_rates_bps": [2e6, 5e6]},
        "eq1": {},
        "fig13": {"repetitions": 2, "probe_rates_bps": [1e6, 4e6, 8e6],
                  "train_lengths": [3, 10]},
        "ext-topp": {"repetitions": 2, "cross_rates_bps": [3e6, 4e6],
                     "n_packets": 30},
        "fig16": {"pair_repetitions": 4, "cross_rates_bps": [0.0, 3e6]},
        "ext-onoff": {"repetitions": 4, "burst_scales": [0.02, 0.05]},
        "ext-tool-convergence": {"repetitions": 2, "n_packets": 20,
                                 "cross_rates_bps": [2e6, 4e6]},
    }

    @pytest.fixture
    def families(self, monkeypatch):
        """The family of every ``run_batch`` call, in call order."""
        seen = []

        def spy(cls):
            original = cls.run_batch

            def run_batch(backend, request):
                seen.append(backend.name)
                return original(backend, request)

            monkeypatch.setattr(cls, "run_batch", run_batch)

        spy(EventBackend)
        spy(_VectorBackend)
        return seen

    @pytest.mark.parametrize("name", sorted(OVERRIDES))
    def test_jobs_and_chunks_keep_the_payload(self, name, families):
        experiment = registry.get(name)

        def payload(backend, **options):
            families.clear()
            report = experiment.run(scale=0.1, seed=1, backend=backend,
                                    overrides=self.OVERRIDES[name],
                                    **options)
            assert families and set(families) == {backend}
            return json.dumps(report.result.to_dict(), sort_keys=True)

        with chunked_reps(3):
            chunked = payload("vector")
        assert chunked == payload("vector")
        assert payload("event", jobs=2) == payload("event", jobs=1)


def _channel_case(channel, train):
    """Run the channel's own request on a backend."""
    return lambda backend: run_batch(
        channel.batch_request([train], 5, [3]), backend=backend)


class TestOneResultForm:
    """Every backend's ``run_batch`` returns the request's dense batch:
    the event backend folds its one-row batches into the class the
    kernel returns, and the fold is the same for any job count."""

    CASES = {
        "wlan": _channel_case(
            SimulatedWlanChannel([("cross", PoissonGenerator(3e6, L))],
                                 warmup=0.05, log_cross_queues=True),
            ProbeTrain.at_rate(8, 4e6, L)),
        "fifo": _channel_case(
            SimulatedFifoChannel(8e6,
                                 cross_generator=PoissonGenerator(3e6, L)),
            ProbeTrain.at_rate(8, 6e6, L)),
        "path": _channel_case(
            SimulatedPathChannel(NetworkPath([
                WiredHop(50e6, cross_generator=PoissonGenerator(10e6, L)),
                WlanHop([("neighbour", PoissonGenerator(3e6, L))]),
            ])),
            ProbeTrain.at_rate(6, 3e6, L)),
        "saturated": lambda backend: simulate_saturated(
            3, 8, 5, seed=3, retry_limit=2, backend=backend),
        "steady-state": lambda backend: steady_state_scan(
            [2e6], 3e6, 1e6, duration=0.2, warmup=0.05, repetitions=5,
            seed=3, backend=backend),
    }

    @pytest.fixture
    def answers(self, monkeypatch):
        """Every batch ``run_batch`` returned, in call order."""
        seen = []

        def spy(cls):
            original = cls.run_batch

            def run_batch(backend, request):
                seen.append(original(backend, request))
                return seen[-1]

            monkeypatch.setattr(cls, "run_batch", run_batch)

        spy(EventBackend)
        spy(_VectorBackend)
        return seen

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_event_answers_with_the_kernel_batch(self, name, answers):
        def answer(backend, jobs=1):
            answers.clear()
            with executor.parallel_jobs(jobs):
                self.CASES[name](backend)
            assert len(answers) == 1
            return answers[0]

        event, vector = answer("event"), answer("vector")
        assert type(event) is type(vector)
        assert event.repetitions == vector.repetitions == 5
        _same_batch(answer("event", jobs=2), event)

    def test_single_row_passes_through_unfolded(self):
        """One part is the batch itself: the fold adds no copy."""
        row = object()
        request = BatchRequest.scan([0], 1,
                                    event_task=lambda seed, point: row)
        assert run_batch(request, backend="event") is row
