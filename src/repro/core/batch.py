"""The ``RepetitionBatch`` protocol and chunk-folding reducers.

Every dense batch object in the repository — ``ProbeBatchResult`` /
``SteadyBatchResult`` / ``QueueTraceBatch``
(:mod:`repro.sim.probe_vector`) and ``VectorBatchResult``
(:mod:`repro.sim.vector`) — carries one repetition per row and keeps
every scalar configuration (packet size, window, station count) equal
across rows.  :class:`RepetitionBatch` freezes that shared shape into
a structural protocol:

* ``repetitions`` — the row count;
* ``concat(parts)`` — fold row-compatible batches into one, in row
  order.

Every backend's ``run_batch`` answers with such a batch.  The kernels
resolve a batch (or a chunk of one) at a time; the event engine runs
one repetition at a time and returns it as a one-row batch of the
same class.  Both fold their parts through the same reducer, so a
caller reads one object whichever backend ran.

The protocol is *structural* (:func:`typing.runtime_checkable`) on
purpose: the simulation kernels sit below this layer and must not
import it — they conform by shape alone.  The fold in
:mod:`repro.backends.base` imports :func:`chunk_bounds` and
:class:`ConcatReducer` lazily, at call time, for the same reason.

``concat`` is what makes streaming execution bit-identical: a chunked
run produces exactly the rows a dense run would (same per-repetition
seeds, see :func:`resolve_rep_seeds`), so folding chunks row-wise
reconstructs the dense batch exactly.  The reducers below trade that
dense reconstruction for ``O(chunk)`` peak memory: each folds a chunk
into a per-repetition *reduced* quantity (an output gap, delivered
bits, a reservoir sample) and discards the chunk's matrices.  They
never re-reduce across chunks in floating point — per-repetition
values are computed once, inside the chunk that owns them, and only
concatenated — so dense and chunked estimator inputs stay
bit-identical (the reservoir sampler is the one deliberate exception:
its sample is random, pinned distributionally, not bit-wise).
"""

from __future__ import annotations

from typing import Iterable, List, Protocol, Sequence, runtime_checkable

import numpy as np


@runtime_checkable
class RepetitionBatch(Protocol):
    """Structural protocol of every dense repetition-batch object.

    Implementations keep one repetition per row and all scalar
    configuration equal across rows; ``concat`` requires that equality
    and raises ``ValueError`` on mismatch.
    """

    @property
    def repetitions(self) -> int:
        """Number of repetitions in the batch (rows)."""
        ...

    @classmethod
    def concat(cls, parts: Sequence["RepetitionBatch"]
               ) -> "RepetitionBatch":
        """Fold row-compatible batches into one, preserving row order."""
        ...


def resolve_rep_seeds(seed: int, repetitions: int) -> np.ndarray:
    """The canonical per-repetition seeds of a batch, as an array.

    The same ``SeedSequence(seed).generate_state(repetitions)`` scheme
    as :func:`repro.runtime.executor.derive_seeds` (and the derivation
    every vector kernel applies internally), exposed at this layer so
    chunked callers can slice it: ``resolve_rep_seeds(seed, n)[lo:hi]``
    is exactly the seed slice a dense run would hand repetitions
    ``lo..hi-1``, which is what makes chunk boundaries invisible to
    the random universe a repetition index maps to.
    """
    if repetitions < 1:
        raise ValueError(f"repetitions must be >= 1, got {repetitions}")
    return np.random.SeedSequence(seed).generate_state(repetitions)


def chunk_bounds(repetitions: int, chunk_reps: int) -> List[tuple]:
    """Contiguous ``[lo, hi)`` repetition ranges of size ``chunk_reps``.

    The final chunk absorbs the remainder (it may be smaller); chunk
    sizes at or above ``repetitions`` yield the single dense range.
    """
    if repetitions < 1:
        raise ValueError(f"repetitions must be >= 1, got {repetitions}")
    if chunk_reps < 1:
        raise ValueError(f"chunk_reps must be >= 1, got {chunk_reps}")
    return [(lo, min(lo + chunk_reps, repetitions))
            for lo in range(0, repetitions, chunk_reps)]


class ChunkReducer:
    """Base class of online chunk reducers.

    A backend's fold calls :meth:`update` once per part (a kernel
    chunk, or a one-row event batch), in repetition order, and
    :meth:`finalize` once at the end.  Subclasses accumulate
    per-repetition *reduced* quantities (never the chunk matrices
    themselves), so peak memory is the largest chunk plus
    ``O(repetitions)`` of reduced values.
    """

    def update(self, batch, lo: int, hi: int) -> None:
        """Fold one chunk covering repetitions ``[lo, hi)``."""
        raise NotImplementedError

    def finalize(self):
        """The reduced value over every repetition seen."""
        raise NotImplementedError


class ConcatReducer(ChunkReducer):
    """The dense default: keep every chunk, fold with ``concat``.

    Memory is ``O(repetitions)`` matrices — no saving over a dense run
    — but the folded result is bit-identical to it, which is what the
    chunked-vs-dense identity pins compare through.
    """

    def __init__(self) -> None:
        self._parts: List[object] = []

    def update(self, batch, lo: int, hi: int) -> None:
        """Keep the chunk for the final fold."""
        self._parts.append(batch)

    def finalize(self):
        """``concat`` over the collected chunks (one chunk passes
        through untouched, preserving the dense path's object)."""
        if not self._parts:
            raise ValueError("no chunks were reduced")
        if len(self._parts) == 1:
            return self._parts[0]
        return type(self._parts[0]).concat(self._parts)


class OutputGapReducer(ChunkReducer):
    """Per-repetition output gaps, streamed over the train-batch seam.

    Folds each chunk through equation (16)
    (:func:`repro.core.dispersion.output_gaps_batch` — any batch with
    a ``recv_times`` matrix qualifies, such as ``ProbeBatchResult``)
    and keeps only the resulting ``(chunk,)`` gap vectors.
    ``finalize`` concatenates them into the exact per-repetition gap
    vector a dense run would compute — the quantity every
    dispersion/rate-response estimator starts from — at
    ``O(repetitions)`` floats instead of ``O(repetitions * n)``
    timestamps.
    """

    def __init__(self) -> None:
        self._gaps: List[np.ndarray] = []

    def update(self, batch, lo: int, hi: int) -> None:
        """Reduce the chunk's receive matrix to its gap vector."""
        from repro.core.dispersion import output_gaps_batch
        self._gaps.append(output_gaps_batch(batch.recv_times))

    def finalize(self) -> np.ndarray:
        """The ``(repetitions,)`` per-train output gap vector."""
        if not self._gaps:
            raise ValueError("no chunks were reduced")
        return np.concatenate(self._gaps)


class ThroughputReducer(ConcatReducer):
    """Delivered-bits accumulation over the steady-state seam.

    Each ``SteadyBatchResult`` chunk already carries per-repetition
    delivered bits (scalars per flow per repetition); this reducer
    keeps exactly those and the window metadata, dropping queue traces
    and every intermediate matrix.  ``finalize`` (the ``concat`` fold)
    rebuilds a ``SteadyBatchResult`` whose throughput accessors are
    bit-identical to the dense run's.
    """

    def update(self, batch, lo: int, hi: int) -> None:
        """Keep only the chunk's per-repetition bit counters."""
        super().update(type(batch)(
            probe_bits=batch.probe_bits, fifo_bits=batch.fifo_bits,
            cross_bits=batch.cross_bits, warmup=batch.warmup,
            duration=batch.duration, size_bytes=batch.size_bytes), lo, hi)


class ReservoirSampleReducer(ChunkReducer):
    """Streaming uniform sample for KS/histogram consumers.

    Keeps a bottom-``k`` sketch: every incoming value draws a uniform
    key and the ``k`` smallest keys survive, which is an exact uniform
    ``k``-sample of the stream and merges chunk by chunk in
    ``O(k + chunk)``.  The sample is *random* — deterministic for a
    fixed ``seed`` and chunking, but not bit-identical to any dense
    quantity — so consumers pin it distributionally (KS), never
    element-wise.  Non-finite values (the NaN padding of retry-dropped
    packets) are excluded, matching ``pooled_access_delays``.
    """

    def __init__(self, k: int, seed: int = 0,
                 values=lambda batch: batch.delay_matrix()) -> None:
        if k < 1:
            raise ValueError(f"reservoir size must be >= 1, got {k}")
        self._k = k
        self._rng = np.random.default_rng(seed)
        self._values = values
        self._keys = np.empty(0)
        self._sample = np.empty(0)

    def update(self, batch, lo: int, hi: int) -> None:
        """Offer the chunk's (finite) values to the reservoir."""
        values = np.asarray(self._values(batch), dtype=float).ravel()
        values = values[np.isfinite(values)]
        keys = self._rng.random(len(values))
        self._keys = np.concatenate([self._keys, keys])
        self._sample = np.concatenate([self._sample, values])
        if len(self._keys) > self._k:
            keep = np.argpartition(self._keys, self._k)[:self._k]
            self._keys = self._keys[keep]
            self._sample = self._sample[keep]

    def finalize(self) -> np.ndarray:
        """The reservoir (at most ``k`` values, stream order lost)."""
        return self._sample.copy()


def iter_chunks(items: Iterable, chunk_reps: int) -> Iterable[list]:
    """Group an iterable into lists of ``chunk_reps`` items.

    Convenience for event-path consumers that want chunk-shaped
    folding over per-repetition results; the final list may be short.
    """
    if chunk_reps < 1:
        raise ValueError(f"chunk_reps must be >= 1, got {chunk_reps}")
    block: list = []
    for item in items:
        block.append(item)
        if len(block) == chunk_reps:
            yield block
            block = []
    if block:
        yield block
