"""Streaming (chunked) batch execution and the BatchRequest API.

The PR-7 pins: a chunked run must reproduce the dense run *bit for
bit* at every chunk size — same per-repetition seeds (contiguous
slices of the dense derivation), row-wise folds, no re-reduction in
floating point — for all three kernel families (probe-train,
saturated DCF, Lindley/FIFO).  The reducers stream per-repetition
reduced quantities at ``O(chunk)`` peak memory; everything except the
(deliberately random) reservoir sample stays bit-identical.  The
``BatchRequest`` pins cover the request's validation and error
messages, the ambient ``chunked_reps`` scope and its environment
variable, and the caller-kernel resolution that replaced the
executor's old dispatcher bypass.
"""

from dataclasses import replace

import numpy as np
import pytest

from helpers import seed_params
from repro.backends import (
    BackendUnavailableError,
    BatchRequest,
    CALLER_KERNEL,
    dispatch,
)
from repro.core.batch import (
    ChunkReducer,
    ConcatReducer,
    OutputGapReducer,
    RepetitionBatch,
    ReservoirSampleReducer,
    ThroughputReducer,
    chunk_bounds,
    iter_chunks,
    resolve_rep_seeds,
)
from repro.core.dispersion import TrainBatch, output_gaps_batch
from repro.runtime import executor
from repro.runtime.executor import (
    active_chunk_reps,
    chunked_reps,
    derive_seeds,
    run_batch,
)
from repro.sim.probe_vector import (
    PoissonCrossSpec,
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


def _probe_batches_equal(a, b):
    """Bit-exact equality of two ProbeBatchResult-shaped batches."""
    assert np.array_equal(a.send_times, b.send_times)
    assert np.array_equal(a.recv_times, b.recv_times)
    assert np.array_equal(a.access_delays, b.access_delays,
                          equal_nan=True)
    assert a.size_bytes == b.size_bytes


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

    def test_iter_chunks_groups_with_short_tail(self):
        assert list(iter_chunks(range(7), 3)) == [[0, 1, 2], [3, 4, 5],
                                                  [6]]

    def test_iter_chunks_validates(self):
        with pytest.raises(ValueError):
            list(iter_chunks([1], 0))


class TestRepetitionBatchProtocol:
    """All five dense batch classes conform, structurally."""

    @pytest.fixture(scope="class")
    def train_batch(self):
        send = np.cumsum(np.ones((4, 5)), axis=1)
        return TrainBatch(send_times=send, recv_times=send + 0.25,
                          size_bytes=L)

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

    def test_all_batches_conform(self, train_batch, probe_batch,
                                 steady_batch, saturated_batch):
        for batch in (train_batch, probe_batch, steady_batch,
                      saturated_batch, probe_batch.queue_traces[0]):
            assert isinstance(batch, RepetitionBatch)
            assert batch.repetitions >= 1

    def test_per_rep_concat_round_trips_trains(self, train_batch):
        back = TrainBatch.concat(train_batch.per_rep())
        assert np.array_equal(back.send_times, train_batch.send_times)
        assert np.array_equal(back.recv_times, train_batch.recv_times)

    def test_per_rep_concat_round_trips_probe(self, probe_batch):
        parts = probe_batch.per_rep()
        assert all(p.repetitions == 1 for p in parts)
        back = type(probe_batch).concat(parts)
        _probe_batches_equal(back, probe_batch)
        assert len(back.queue_traces) == len(probe_batch.queue_traces)
        for a, b in zip(back.queue_traces, probe_batch.queue_traces):
            assert np.array_equal(a.departures, b.departures)

    def test_per_rep_concat_round_trips_steady(self, steady_batch):
        back = type(steady_batch).concat(steady_batch.per_rep())
        assert np.array_equal(back.probe_bits, steady_batch.probe_bits)
        assert np.array_equal(back.cross_bits, steady_batch.cross_bits)

    def test_per_rep_concat_round_trips_saturated(self, saturated_batch):
        back = type(saturated_batch).concat(saturated_batch.per_rep())
        assert np.array_equal(back.access_delays,
                              saturated_batch.access_delays,
                              equal_nan=True)
        assert np.array_equal(back.drops, saturated_batch.drops)
        assert np.array_equal(back.durations, saturated_batch.durations)

    def test_concat_rejects_mismatched_parts(self, train_batch,
                                             saturated_batch):
        other = TrainBatch(send_times=train_batch.send_times,
                           recv_times=train_batch.recv_times,
                           size_bytes=L + 100)
        with pytest.raises(ValueError, match="packet sizes"):
            TrainBatch.concat([train_batch, other])
        no_drops = simulate_saturated_batch(3, 8, 2, seed=2)
        with pytest.raises(ValueError, match="drop counters"):
            type(saturated_batch).concat([saturated_batch, no_drops])

    def test_concat_needs_parts(self):
        with pytest.raises(ValueError):
            TrainBatch.concat([])


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

    @pytest.mark.parametrize("chunk", CHUNKS)
    def test_probe_train_channel_chunks_bit_identical(self, wlan, chunk):
        train = ProbeTrain.at_rate(10, 5e6, L)
        dense = wlan.send_trains_dense(train, REPS, seed=11,
                                       backend="vector")
        with chunked_reps(chunk):
            chunked = wlan.send_trains_dense(train, REPS, seed=11,
                                             backend="vector")
        _probe_batches_equal(chunked, dense)

    @pytest.mark.parametrize("chunk", CHUNKS)
    def test_lindley_channel_chunks_bit_identical(self, fifo, chunk):
        train = ProbeTrain.at_rate(12, 6e6, L)
        dense = fifo.send_trains_dense(train, REPS, seed=19,
                                       backend="vector")
        with chunked_reps(chunk):
            chunked = fifo.send_trains_dense(train, REPS, seed=19,
                                             backend="vector")
        _probe_batches_equal(chunked, dense)

    @pytest.mark.parametrize("chunk", CHUNKS)
    def test_saturated_study_chunks_bit_identical(self, chunk):
        from repro.analysis.saturation import simulate_saturated
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
        from repro.analysis.steady_state import steady_state_samples
        dense = steady_state_samples(2e6, 3e6, repetitions=REPS,
                                     duration=0.2, warmup=0.05,
                                     seed=29, backend="vector")
        with chunked_reps(chunk):
            chunked = steady_state_samples(2e6, 3e6, repetitions=REPS,
                                           duration=0.2, warmup=0.05,
                                           seed=29, backend="vector")
        for flow in dense:
            assert np.array_equal(chunked[flow], dense[flow])

    def test_explicit_request_chunks_bit_identical(self):
        """chunk_reps on the request itself (the --chunk-reps path)."""
        def batch_task(seeds):
            return simulate_probe_train_batch(
                6, 0.0025, len(seeds), size_bytes=L,
                cross=[PoissonCrossSpec(250.0, L)], seeds=seeds)

        dense = run_batch(BatchRequest(repetitions=REPS, seed=31,
                                       batch_task=batch_task),
                          backend="vector")
        for chunk in CHUNKS:
            chunked = run_batch(
                BatchRequest(repetitions=REPS, seed=31,
                             batch_task=batch_task, chunk_reps=chunk),
                backend="vector")
            _probe_batches_equal(chunked, dense)

    def test_request_chunk_overrides_ambient_scope(self):
        seen = []

        def batch_task(seeds):
            seen.append(len(seeds))
            return simulate_probe_train_batch(
                4, 0.003, len(seeds), size_bytes=L, seeds=seeds)

        with chunked_reps(2):
            run_batch(BatchRequest(repetitions=9, seed=1,
                                   batch_task=batch_task, chunk_reps=4),
                      backend="vector")
        assert seen == [4, 4, 1]


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
        _probe_batches_equal(chunked, dense)


class TestReducers:
    def _request(self, reducer, chunk, reps=REPS, seed=37):
        def batch_task(seeds):
            return simulate_probe_train_batch(
                6, 0.0025, len(seeds), size_bytes=L,
                cross=[PoissonCrossSpec(300.0, L)], seeds=seeds)

        return BatchRequest(repetitions=reps, seed=seed,
                            batch_task=batch_task, chunk_reps=chunk,
                            reducer=reducer)

    def test_base_reducer_is_abstract(self):
        reducer = ChunkReducer()
        with pytest.raises(NotImplementedError):
            reducer.update(None, 0, 1)
        with pytest.raises(NotImplementedError):
            reducer.finalize()

    def test_concat_reducer_passes_single_chunk_through(self):
        reducer = ConcatReducer()
        sentinel = object()
        reducer.update(sentinel, 0, 5)
        assert reducer.finalize() is sentinel

    def test_concat_reducer_rejects_empty(self):
        with pytest.raises(ValueError):
            ConcatReducer().finalize()
        with pytest.raises(ValueError):
            OutputGapReducer().finalize()
        with pytest.raises(ValueError):
            ThroughputReducer().finalize()

    @pytest.mark.parametrize("chunk", CHUNKS)
    def test_output_gap_reducer_bit_identical(self, chunk):
        dense = run_batch(self._request(None, None), backend="vector")
        gaps = run_batch(self._request(OutputGapReducer, chunk),
                         backend="vector")
        assert np.array_equal(gaps, output_gaps_batch(dense.recv_times))

    @pytest.mark.parametrize("chunk", (1, 5, REPS))
    def test_throughput_reducer_bit_identical(self, chunk):
        def batch_task(seeds):
            return simulate_steady_state_batch(
                2e6, len(seeds), size_bytes=L, duration=0.2,
                warmup=0.05, seeds=seeds, track_queues=True)

        dense = run_batch(BatchRequest(repetitions=REPS, seed=41,
                                       batch_task=batch_task),
                          backend="vector")
        slim = run_batch(BatchRequest(repetitions=REPS, seed=41,
                                      batch_task=batch_task,
                                      chunk_reps=chunk,
                                      reducer=ThroughputReducer),
                         backend="vector")
        assert slim.queue_traces is None  # the memory it saves
        assert dense.queue_traces is not None
        assert np.array_equal(slim.probe_throughput_bps(),
                              dense.probe_throughput_bps())
        assert np.array_equal(slim.cross_throughput_bps(),
                              dense.cross_throughput_bps())

    def test_reservoir_is_uniform_subset_of_stream(self):
        dense = run_batch(self._request(None, None), backend="vector")
        population = dense.access_delays.ravel()
        sample = run_batch(
            self._request(lambda: ReservoirSampleReducer(20, seed=5),
                          4),
            backend="vector")
        assert len(sample) == 20
        assert np.isin(sample, population).all()

    def test_reservoir_keeps_everything_when_k_covers_stream(self):
        dense = run_batch(self._request(None, None), backend="vector")
        sample = run_batch(
            self._request(lambda: ReservoirSampleReducer(10 ** 6), 4),
            backend="vector")
        assert np.array_equal(np.sort(sample),
                              np.sort(dense.access_delays.ravel()))

    def test_reservoir_deterministic_for_fixed_seed(self):
        first = run_batch(
            self._request(lambda: ReservoirSampleReducer(15, seed=9),
                          5),
            backend="vector")
        again = run_batch(
            self._request(lambda: ReservoirSampleReducer(15, seed=9),
                          5),
            backend="vector")
        assert np.array_equal(first, again)

    def test_reservoir_excludes_non_finite(self):
        reducer = ReservoirSampleReducer(
            8, values=lambda batch: batch)
        reducer.update(np.array([1.0, np.nan, 2.0, np.inf]), 0, 4)
        assert np.array_equal(np.sort(reducer.finalize()),
                              [1.0, 2.0])

    def test_reservoir_validates_k(self):
        with pytest.raises(ValueError):
            ReservoirSampleReducer(0)


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

    def test_request_resolution_prefers_explicit(self):
        request = BatchRequest(repetitions=10, seed=0, chunk_reps=4)
        with chunked_reps(2):
            assert request.resolved_chunk_reps() == 4
            assert replace(request, chunk_reps=None).resolved_chunk_reps() \
                == 2
        assert replace(request, chunk_reps=None).resolved_chunk_reps() \
            is None

    def test_chunk_at_or_past_batch_is_dense(self):
        request = BatchRequest(repetitions=10, seed=0, chunk_reps=10)
        assert request.resolved_chunk_reps() is None
        assert replace(request, chunk_reps=25).resolved_chunk_reps() is None


class TestBatchRequestAPI:
    def test_request_validates(self):
        with pytest.raises(ValueError, match="repetitions"):
            BatchRequest(repetitions=0, seed=0)
        with pytest.raises(ValueError, match="chunk_reps"):
            BatchRequest(repetitions=5, seed=0, chunk_reps=0)

    def test_unknown_backend_message_pinned(self):
        request = BatchRequest(repetitions=2, seed=0,
                               event_task=lambda s: s)
        with pytest.raises(ValueError, match="unknown backend"):
            run_batch(request, backend="quantum")

    def test_forced_vector_without_kernel_pinned(self):
        request = BatchRequest(repetitions=2, seed=0,
                               event_task=lambda s: s)
        with pytest.raises(ValueError, match="no vector kernel"):
            run_batch(request, backend="vector")

    def test_event_backend_needs_event_task(self):
        request = BatchRequest(repetitions=2, seed=0,
                               batch_task=lambda seeds: list(seeds))
        with pytest.raises(ValueError, match="event_task"):
            run_batch(request, backend="event")


class TestCallerKernelResolution:
    """Satellite 3: the executor bypass became a real resolution."""

    def test_direct_resolve_still_guards_by_default(self):
        with pytest.raises(BackendUnavailableError):
            dispatch.resolve(None, "vector")

    def test_trusted_resolve_returns_caller_kernel(self):
        resolution = dispatch.resolve(None, "vector",
                                      trust_caller_kernel=True)
        assert resolution.backend is CALLER_KERNEL
        assert resolution.name == "vector"
        assert resolution.backend.kernel == "caller-supplied kernel"

    def test_caller_kernel_never_competes_in_auto(self):
        assert CALLER_KERNEL not in dispatch.BACKENDS
        resolution = dispatch.resolve(None, "auto")
        assert resolution.backend is not CALLER_KERNEL

    def test_caller_kernel_chunks_like_any_vector_backend(self):
        sizes = []

        def batch_task(seeds):
            sizes.append(len(seeds))
            send = np.cumsum(np.ones((len(seeds), 3)), axis=1)
            return TrainBatch(send_times=send, recv_times=send + 0.1,
                              size_bytes=L)

        out = run_batch(BatchRequest(repetitions=7, seed=0,
                                     batch_task=batch_task,
                                     chunk_reps=3),
                        backend="vector")
        assert sizes == [3, 3, 1]
        assert out.repetitions == 7
