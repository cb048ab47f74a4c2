"""The backend protocol and the concrete execution backends.

A :class:`Backend` is one way to resolve a repetition batch: it has a
CLI-facing ``name`` (the family users select with ``--backend``), a
human ``kernel`` label, a ``speed_rank`` (smaller = preferred by
``auto``), a declarative :meth:`Backend.capabilities` statement over
the :class:`repro.backends.spec.ScenarioSpec` vocabulary, and a
:meth:`Backend.run_batch` that executes a whole batch.

Five backends exist:

* :class:`EventBackend` — the discrete-event engine; supports every
  scenario and shards repetitions over worker processes;
* :class:`ProbeTrainVectorBackend` — :mod:`repro.sim.probe_vector`:
  probe trains (and steady CBR flows) through DCF contended by
  Poisson/CBR/on-off traffic, with RTS/CTS, retry limits and queue
  traces;
* :class:`SaturatedVectorBackend` — :mod:`repro.sim.vector`: the
  saturated Bianchi regime;
* :class:`LindleyVectorBackend` — the batched Lindley recursion for
  wired FIFO hops (:mod:`repro.queueing.lindley`);
* :class:`PathVectorBackend` — the multihop chain: the probe-train
  and Lindley kernels run per hop, each hop's departure matrix
  feeding the next hop's arrival process
  (:meth:`repro.path.network.NetworkPath.carry_batch`).

The four kernels share the CLI family name ``vector``; the dispatcher
picks among them per scenario, which is why the kernel label is
recorded separately in result metadata.

On top of the numpy tier sits the optional ``jit`` family
(:class:`ProbeTrainJitBackend`, :class:`SaturatedJitBackend`,
:class:`LindleyJitBackend`): the same kernels with their hot cores
routed to the numba-compiled twins in :mod:`repro.sim.jit`.  Jit
backends rank ahead of the numpy tier (``speed_rank 5`` vs ``10``) but
declare an :meth:`Backend.unavailable_reason` when numba is missing,
so ``auto`` degrades to the numpy tier without user action.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Any, Callable, Optional

from repro.backends.spec import Capabilities, ScenarioSpec

#: The CLI-facing backend families.
FAMILIES = ("event", "vector", "jit")

#: The batch-kernel families (everything but the event engine); the
#: dispatcher treats a forced kernel family the same way — capability
#: scan first, then dependency availability.
KERNEL_FAMILIES = ("vector", "jit")


@dataclass(frozen=True)
class BatchRequest:
    """One repetition batch, described once, executed by any backend.

    The one argument every ``run_batch`` takes: a request names the
    batch (``repetitions``, ``seed``), the two task forms a backend
    may consume, the declarative scenario the dispatcher matches
    capabilities against, and the streaming knobs.

    Attributes
    ----------
    repetitions / seed:
        Batch size and the master seed the canonical per-repetition
        seeds derive from (``SeedSequence(seed).generate_state``).
    event_task:
        Pure ``rep_seed -> result`` function; the event backend maps
        it over the derived seeds.
    batch_task:
        ``seeds -> RepetitionBatch`` kernel entry: receives the
        per-repetition seed slice of the chunk it must resolve (the
        dense call passes the full seed array).  Kernels derive
        nothing from the batch size, so any contiguous slice
        reproduces exactly the dense run's rows.
    spec:
        Declarative :class:`~repro.backends.spec.ScenarioSpec` for the
        dispatcher; ``None`` means "nothing declared".
    chunk_reps:
        Streaming chunk size for the vector path; ``None`` defers to
        the ambient :func:`repro.runtime.executor.chunked_reps` scope
        (and the ``REPRO_CHUNK_REPS`` environment variable), and a
        value at or above ``repetitions`` runs dense.  Chunking never
        changes results (same seeds, row-wise fold), so it stays out
        of cache keys — an execution detail, like ``--jobs``.
    reducer:
        Zero-argument factory of a
        :class:`repro.core.batch.ChunkReducer`; each chunk's batch is
        folded into it and ``finalize()`` becomes the run's result.
        ``None`` folds with the batch class's own ``concat``
        (bit-identical to dense, but dense-sized).
    """

    repetitions: int
    seed: int
    event_task: Optional[Callable[[int], Any]] = None
    batch_task: Optional[Callable[..., Any]] = None
    spec: Optional[ScenarioSpec] = None
    chunk_reps: Optional[int] = None
    reducer: Optional[Callable[[], Any]] = None

    def __post_init__(self) -> None:
        if self.repetitions < 1:
            raise ValueError(
                f"repetitions must be >= 1, got {self.repetitions}")
        if self.chunk_reps is not None and self.chunk_reps < 1:
            raise ValueError(
                f"chunk_reps must be >= 1, got {self.chunk_reps}")

    def resolved_chunk_reps(self) -> Optional[int]:
        """The effective chunk size (explicit, else the ambient scope).

        ``None`` means dense.  A chunk size covering the whole batch
        is normalised to dense — one chunk *is* the dense run.
        """
        chunk = self.chunk_reps
        if chunk is None:
            # Imported lazily: repro.runtime sits above this layer.
            from repro.runtime.executor import active_chunk_reps
            chunk = active_chunk_reps()
        if chunk is None or chunk >= self.repetitions:
            return None
        return chunk


class Backend(abc.ABC):
    """One way of executing a repetition batch."""

    #: CLI-facing family name (``event`` or ``vector``).
    name: str = "event"
    #: Human label of the concrete kernel (``--explain-backend``, meta).
    kernel: str = "event engine"
    #: Dispatch preference; ``auto`` picks the smallest eligible rank.
    speed_rank: int = 100

    @abc.abstractmethod
    def capabilities(self) -> Capabilities:
        """What scenarios this backend can execute."""

    def mismatches(self, spec: ScenarioSpec):
        """Structured reasons ``spec`` does not fit (empty = eligible)."""
        return self.capabilities().mismatches(spec)

    def unavailable_reason(self) -> Optional[str]:
        """Why this backend cannot run *here* (``None`` = it can).

        Capability mismatches are about the scenario; this is about the
        environment — a missing optional dependency.  ``auto`` skips
        unavailable backends (recording the reason as degradation
        metadata), a forced family raises
        :class:`repro.backends.dispatch.BackendUnavailableError`.
        """
        return None

    def run_batch(self, request: "BatchRequest"):
        """Execute one :class:`BatchRequest` on this backend.

        The event backend maps ``request.event_task`` over the derived
        per-repetition seeds; kernels hand ``request.batch_task`` the
        per-repetition seed slices of each chunk (the whole array when
        dense) and fold the chunk batches through the request's
        reducer.  Each backend consumes exactly one of the two tasks.
        """
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name}/{self.kernel}>"


class EventBackend(Backend):
    """The per-repetition event engine — supports everything."""

    name = "event"
    kernel = "event engine"
    speed_rank = 100

    def capabilities(self) -> Capabilities:
        """Every scenario axis, every value."""
        return Capabilities()

    def run_batch(self, request):
        """Map the event task over the derived per-repetition seeds.

        Fans out across the ambient worker pool
        (:func:`repro.runtime.executor.parallel_jobs`); results come
        back in repetition order, bit-identical for any job count.
        The event engine is already per-repetition, so ``chunk_reps``
        is a no-op here — peak memory never exceeds one repetition
        plus the collected results.
        """
        if request.event_task is None:
            raise ValueError("the event backend needs an event_task")
        # Imported lazily: repro.runtime sits above this layer.
        from repro.runtime.executor import derive_seeds, map_ordered
        return map_ordered(request.event_task,
                           derive_seeds(request.seed, request.repetitions))


class _VectorBackend(Backend):
    """Shared chunk-capable ``run_batch`` of the numpy batch kernels."""

    name = "vector"
    speed_rank = 10

    def run_batch(self, request):
        """Resolve the batch with the kernel, chunked when requested.

        Dense (the default): one ``batch_task(seeds)`` call with the
        full canonical per-repetition seed array.  Chunked
        (``chunk_reps`` on the request, or the ambient
        :func:`repro.runtime.executor.chunked_reps` scope): the seed
        array is sliced into contiguous chunks, each resolved by its
        own ``batch_task(seeds[lo:hi])`` call and folded into the
        request's reducer (default: the batch class's own ``concat``).
        The slices are taken from the *dense* derivation, so chunk
        boundaries never change which random universe a repetition
        index maps to — dense and chunked rows are bit-identical.
        """
        task = request.batch_task
        if task is None:
            raise ValueError("this batch has no vector kernel; "
                             "run it with backend='event'")
        # Imported lazily: repro.runtime sits above this layer.
        from repro.runtime.executor import derive_seeds
        seeds = derive_seeds(request.seed, request.repetitions)
        chunk = request.resolved_chunk_reps()
        if chunk is None and request.reducer is None:
            return task(seeds)
        # Imported lazily: repro.core sits above this layer.
        from repro.core.batch import ConcatReducer, chunk_bounds
        reducer = request.reducer() if request.reducer is not None \
            else ConcatReducer()
        for lo, hi in chunk_bounds(request.repetitions,
                                   chunk or request.repetitions):
            reducer.update(task(seeds[lo:hi]), lo, hi)
        return reducer.finalize()


class CallerKernelBackend(_VectorBackend):
    """Synthetic backend behind a forced ``vector`` with no spec.

    A caller forcing ``backend='vector'`` while declaring no
    :class:`~repro.backends.spec.ScenarioSpec` is trusted to know its
    ``batch_task`` is a real kernel.  Routing that trust through this
    backend (instead of bypassing the dispatcher, as the executor once
    did) keeps the invariant that *every* run flows through a
    :class:`repro.backends.dispatch.Resolution` — so result metadata
    always records a backend — and gives caller-supplied kernels the
    shared chunked execution path for free.  It never competes in
    ``auto`` scans: the dispatcher constructs its resolution
    explicitly and it is absent from the ``BACKENDS`` tuple.
    """

    kernel = "caller-supplied kernel"

    def capabilities(self) -> Capabilities:
        """Claims nothing — eligibility is asserted by the caller.

        Never consulted in practice (this backend is not scanned), but
        an empty claim keeps :meth:`mismatches` honest if it ever is.
        """
        return Capabilities(
            systems=frozenset(), workloads=frozenset(),
            cross_traffic=frozenset(), fifo_cross=frozenset(),
            rts_cts=False, retry_limit=False, queue_traces=False)


class ProbeTrainVectorBackend(_VectorBackend):
    """:mod:`repro.sim.probe_vector` — trains and steady CBR flows
    through contended DCF (FIFO cross-traffic may share the probe
    queue)."""

    kernel = "probe-train kernel"
    speed_rank = 10

    def capabilities(self) -> Capabilities:
        """WLAN trains/steady flows; Poisson, CBR and on-off traffic
        (mixed across stations), RTS/CTS, retry limits, queue traces."""
        return Capabilities(
            systems=frozenset({"wlan"}),
            workloads=frozenset({"train", "steady-cbr"}),
            cross_traffic=frozenset(
                {"none", "poisson", "cbr", "onoff", "mixed"}),
            fifo_cross=frozenset({"none", "poisson", "cbr", "onoff"}),
            rts_cts=True, retry_limit=True, queue_traces=True)


class SaturatedVectorBackend(_VectorBackend):
    """:mod:`repro.sim.vector` — every station permanently backlogged
    (the Bianchi regime)."""

    kernel = "saturated-DCF kernel"
    speed_rank = 10

    def capabilities(self) -> Capabilities:
        """Saturated WLAN batches (RTS/CTS and retry caps allowed)."""
        return Capabilities(
            systems=frozenset({"wlan"}),
            workloads=frozenset({"saturated"}),
            cross_traffic=frozenset({"none"}),
            fifo_cross=frozenset({"none"}),
            rts_cts=True, retry_limit=True, queue_traces=False)


class LindleyVectorBackend(_VectorBackend):
    """The batched Lindley recursion for wired FIFO hops.

    Replays the event path's exact sample paths, so any arrival model
    with a ``generate`` method is fine — the recursion only needs the
    merged (arrival, service) sequences.
    """

    kernel = "batched Lindley recursion"
    speed_rank = 10

    def capabilities(self) -> Capabilities:
        """FIFO-hop trains with any replayable cross-traffic model."""
        return Capabilities(
            systems=frozenset({"fifo"}),
            workloads=frozenset({"train"}),
            rts_cts=False, retry_limit=False, queue_traces=False)


class PathVectorBackend(_VectorBackend):
    """Chained per-hop kernels for multihop paths.

    :meth:`repro.path.network.NetworkPath.carry_batch` runs the
    probe-train kernel on every WLAN hop and the batched Lindley
    recursion on every wired hop, feeding each hop's departure matrix
    to the next hop as its arrival process — the kernel analogue of
    the per-packet :meth:`repro.path.hops.PathHop.carry` chain.  Every
    hop must carry batch-sampleable cross-traffic (Poisson, CBR or
    on-off); the combined spec compiles the worst hop's traffic model,
    so one unsupported hop demotes the whole path to the event engine.
    """

    kernel = "multihop chain kernel"
    speed_rank = 10

    def capabilities(self) -> Capabilities:
        """Path trains over batch-sampleable hops (RTS/CTS and retry
        caps allowed).

        Both traffic axes accept ``mixed``: each hop resolves its own
        generators, so different hops may carry different (individually
        supported) models — including each hop's own FIFO flow.
        """
        return Capabilities(
            systems=frozenset({"path"}),
            workloads=frozenset({"train"}),
            cross_traffic=frozenset(
                {"none", "poisson", "cbr", "onoff", "mixed"}),
            fifo_cross=frozenset(
                {"none", "poisson", "cbr", "onoff", "mixed"}),
            rts_cts=True, retry_limit=True, queue_traces=False)


class _JitBackend(_VectorBackend):
    """Shared ``run_batch`` of the numba-accelerated kernel tier.

    A jit backend *is* its numpy counterpart with the hot core routed
    to the compiled twins in :mod:`repro.sim.jit` — same entry points,
    same seed discipline, same chunked execution; results are
    bit-identical (the compiled cores replicate the numpy arithmetic
    operation for operation).  The tier ranks ahead of the numpy
    kernels but declares itself unavailable without numba; kernels are
    warmed (compiled on tiny inputs) before the batch so compilation
    cost never lands inside a measured window.
    """

    name = "jit"
    speed_rank = 5

    def unavailable_reason(self) -> Optional[str]:
        """``"numba not installed"`` when the compiled tier cannot run."""
        # Imported lazily: keeps this layer import-light and lets tests
        # flip availability via sys.modules monkeypatching.
        from repro.sim import jit
        return jit.unavailable_reason()

    def run_batch(self, request):
        """Run the numpy kernel's batch path on the jit tier."""
        from repro.sim import jit
        jit.warm_kernels()
        with jit.kernel_tier("jit"):
            return super().run_batch(request)


class ProbeTrainJitBackend(_JitBackend, ProbeTrainVectorBackend):
    """The probe-train kernel with its event loop compiled."""

    kernel = "probe-train kernel (jit)"


class SaturatedJitBackend(_JitBackend, SaturatedVectorBackend):
    """The saturated-DCF kernel with its round loop compiled."""

    kernel = "saturated-DCF kernel (jit)"


class LindleyJitBackend(_JitBackend, LindleyVectorBackend):
    """The batched Lindley recursion with its solve compiled."""

    kernel = "batched Lindley recursion (jit)"
