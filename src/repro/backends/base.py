"""The backend protocol and the concrete execution backends.

A :class:`Backend` is one way to resolve a repetition batch: it has a
CLI-facing ``name`` (the family users select with ``--backend``), a
human ``kernel`` label, a ``speed_rank`` (smaller = preferred by
``auto``), a declarative :attr:`Backend.capabilities` statement over
the :class:`repro.backends.spec.ScenarioSpec` vocabulary (a class
attribute, built once per backend class), and a
:meth:`Backend.run_batch` that executes a whole batch.  That method is
the only code that knows how a backend family runs a batch: channels,
runners and the executor describe the batch as a :class:`BatchRequest`
and hand it to the backend the dispatcher resolved.

Five backends exist:

* :class:`EventBackend` — the discrete-event engine; supports every
  scenario and shards rows over worker processes;
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
from typing import Any, Callable, Optional, Sequence, Tuple

from repro.backends.spec import Capabilities, ScenarioSpec

#: The CLI-facing backend families.
FAMILIES = ("event", "vector", "jit")

#: The batch-kernel families (everything but the event engine); the
#: dispatcher treats a forced kernel family the same way — capability
#: scan first, then dependency availability.
KERNEL_FAMILIES = ("vector", "jit")


@dataclass(frozen=True)
class BatchRequest:
    """One batch of rows, described once, executed by any backend.

    The one argument every ``run_batch`` takes: a request names its
    rows (each row's ``seed`` and ``point``), the two task forms a
    backend may consume, and the declarative scenario the dispatcher
    matches capabilities against.  A row is one repetition of one
    measurement point; a batch holds the repetitions of one point or
    of a whole scan of points that share a kernel configuration.
    Build requests with :meth:`scan`.  The vector backends take the
    streaming chunk size from the ambient
    :func:`repro.runtime.executor.chunked_reps` scope, an execution
    detail like the job count.

    Attributes
    ----------
    seeds / points:
        Each row's seed and the index of the point it measures, in
        row order.  Every row owns the generator its seed starts, so
        a row's draws never depend on the rows around it.
    event_task:
        Pure ``(seed, point) -> one-row batch`` function (of the class
        ``batch_task`` returns); the event backend maps it over the
        rows and folds them like kernel chunks, with the batch class's
        ``concat``.
    batch_task:
        ``(seeds, points) -> RepetitionBatch`` kernel entry: receives
        the rows of the chunk it must resolve (the dense call passes
        every row).  Kernels derive nothing from the batch size or
        from neighbouring rows, so any contiguous slice reproduces
        exactly the dense run's rows.
    spec:
        Declarative :class:`~repro.backends.spec.ScenarioSpec` for the
        dispatcher; ``None`` means "nothing declared".
    """

    seeds: Tuple[int, ...]
    points: Tuple[int, ...]
    event_task: Optional[Callable[[int, int], Any]] = None
    batch_task: Optional[Callable[..., Any]] = None
    spec: Optional[ScenarioSpec] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "seeds", tuple(self.seeds))
        object.__setattr__(self, "points", tuple(self.points))
        if not self.seeds:
            raise ValueError("a batch needs at least one row")
        if len(self.points) != len(self.seeds):
            raise ValueError(f"got {len(self.points)} points for "
                             f"{len(self.seeds)} rows")

    @classmethod
    def scan(cls, point_seeds: Sequence[int], repetitions: int,
             **tasks: Any) -> "BatchRequest":
        """``repetitions`` rows for each of ``len(point_seeds)`` points.

        Point ``k``'s rows carry
        :func:`~repro.runtime.executor.derive_seeds` ``(point_seeds[k],
        repetitions)`` — exactly the seeds a one-point request for
        that point carries — so a fused scan's rows are bit-identical
        to its per-point batches.  Rows are point-major.  ``tasks``
        are the remaining fields (``event_task``, ``batch_task``,
        ``spec``).
        """
        # Imported lazily: repro.runtime sits above this layer.
        from repro.runtime.executor import derive_seeds
        seeds = [row for seed in point_seeds
                 for row in derive_seeds(seed, repetitions)]
        points = [k for k in range(len(point_seeds))
                  for _ in range(repetitions)]
        return cls(seeds, points, **tasks)


class Backend(abc.ABC):
    """One way of executing a repetition batch."""

    #: CLI-facing family name (``event`` or ``vector``).
    name: str = "event"
    #: Human label of the concrete kernel (``--explain-backend``, meta).
    kernel: str = "event engine"
    #: Dispatch preference; ``auto`` picks the smallest eligible rank.
    speed_rank: int = 100
    #: What scenarios this backend can execute.
    capabilities: Capabilities = Capabilities()

    def mismatches(self, spec: ScenarioSpec):
        """Structured reasons ``spec`` does not fit (empty = eligible)."""
        return self.capabilities.mismatches(spec)

    def unavailable_reason(self) -> Optional[str]:
        """Why this backend cannot run *here* (``None`` = it can).

        Capability mismatches are about the scenario; this is about the
        environment — a missing optional dependency.  ``auto`` skips
        unavailable backends (recording the reason as degradation
        metadata), a forced family raises
        :class:`repro.backends.dispatch.BackendUnavailableError`.
        """
        return None

    @abc.abstractmethod
    def run_batch(self, request: "BatchRequest"):
        """Execute one :class:`BatchRequest` on this backend.

        The event backend maps ``request.event_task`` over the rows;
        kernels hand ``request.batch_task`` the rows of each chunk
        (every row when dense).  Both fold their parts with
        :func:`_fold`, so every backend returns the request's dense
        batch.  Each backend consumes exactly one of the two tasks.
        """

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name}/{self.kernel}>"


def _fold(parts):
    """Fold a batch's parts, in row order, with the batch class's
    ``concat``; a single part passes through untouched."""
    if len(parts) == 1:
        return parts[0]
    return type(parts[0]).concat(parts)


class EventBackend(Backend):
    """The per-repetition event engine — supports everything."""

    name = "event"
    kernel = "event engine"
    speed_rank = 100

    def run_batch(self, request):
        """Map the event task over the rows and fold them.

        Fans the rows out across the ambient worker pool
        (:func:`repro.runtime.executor.parallel_jobs`) — a fused scan
        splits as a whole, not point by point; the one-row batches
        come back in row order, so the folded batch is bit-identical
        for any job count.  The chunk size is ignored.
        """
        task = request.event_task
        if task is None:
            raise ValueError("the event backend needs an event_task")
        # Imported lazily: repro.runtime sits above this layer.
        from repro.runtime.executor import map_ordered
        return _fold(map_ordered(lambda row: task(*row),
                                 zip(request.seeds, request.points)))


class _VectorBackend(Backend):
    """Shared chunk-capable ``run_batch`` of the numpy batch kernels."""

    name = "vector"
    speed_rank = 10

    def run_batch(self, request):
        """Resolve the batch with the kernel, chunked when requested.

        Dense (the default, and any chunk size at or above the batch):
        one ``batch_task(seeds, points)`` call with every row.
        Chunked (the ambient
        :func:`repro.runtime.executor.chunked_reps` scope, i.e.
        ``--chunk-reps`` or ``REPRO_CHUNK_REPS``): the rows are sliced
        into contiguous chunks — a chunk may straddle points — each
        resolved by its own ``batch_task`` call and folded with
        :func:`_fold`.  A row's seed fixes its random universe
        wherever the chunk boundaries fall, so dense and chunked rows
        are bit-identical.
        """
        task = request.batch_task
        if task is None:
            raise ValueError("this batch has no vector kernel; "
                             "run it with backend='event'")
        # Imported lazily: repro.runtime sits above this layer.
        from repro.runtime.executor import active_chunk_reps
        seeds, points = request.seeds, request.points
        chunk = active_chunk_reps()
        if chunk is None or chunk >= len(seeds):
            return task(seeds, points)
        # Imported lazily: repro.core sits above this layer.
        from repro.core.batch import chunk_bounds
        return _fold([task(seeds[lo:hi], points[lo:hi]) for lo, hi
                      in chunk_bounds(len(seeds), chunk)])


class ProbeTrainVectorBackend(_VectorBackend):
    """:mod:`repro.sim.probe_vector` — trains and steady CBR flows
    through contended DCF (FIFO cross-traffic may share the probe
    queue)."""

    kernel = "probe-train kernel"
    speed_rank = 10
    #: WLAN trains/steady flows; Poisson, CBR and on-off traffic
    #: (mixed across stations), RTS/CTS, retry limits, queue traces.
    capabilities = Capabilities(
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
    #: Saturated WLAN batches (RTS/CTS and retry caps allowed).
    capabilities = Capabilities(
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
    #: FIFO-hop trains with any replayable cross-traffic model.
    capabilities = Capabilities(
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
    #: Path trains over batch-sampleable hops (RTS/CTS and retry caps
    #: allowed).  Both traffic axes accept ``mixed``: each hop resolves
    #: its own generators, so different hops may carry different
    #: (individually supported) models — including each hop's own FIFO
    #: flow.
    capabilities = Capabilities(
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
