"""Repetition sharding across worker processes.

Every heavy experiment in this repository bottoms out in the same hot
loop: run N independent repetitions of a batch — typically a probing
train through a fresh channel — on the event engine
(:meth:`repro.backends.EventBackend.run_batch`), then compute
statistics over the batch the repetitions fold into.  The executor
parallelises that loop — and *only* that loop — because it is the one
place where fan-out cannot change the answer:

* the per-repetition seeds are derived up front from the experiment
  seed (``SeedSequence(seed).generate_state(repetitions)``), so shard
  k replays exactly the seeds a serial run would have used for its
  repetition indices;
* each repetition is a pure function of ``(channel, train, seed)``;
* the parent reassembles shard results in repetition order before any
  statistic is computed.

Mean profiles, KS distances and histograms therefore see bit-identical
inputs whether the repetitions ran in one process or eight — the
property ``python -m repro run fig6 --jobs 4`` relies on.

Sharding is *ambient*: :func:`parallel_jobs` installs a job count for
the current scope and the event backend
(:meth:`repro.backends.EventBackend.run_batch`, which every channel
batch and runner batch reaches through its
:class:`~repro.backends.BatchRequest`) picks it up via
:func:`map_ordered`.  Runner code needs no plumbing, and nested
fan-out (a worker trying to fork its own pool) degrades safely to
serial execution.

Sharding is also *supervised*: each shard runs in its own worker
process watched over a result pipe, so a worker that is killed,
segfaults, or hangs past ``--shard-timeout`` is retried with
exponential backoff (``--retries``) and finally executed in-process —
a crash degrades throughput, never correctness, because shards are
pure functions of :func:`derive_seeds`.  Recovery actions surface as
``meta["failures"]`` through :func:`collect_failures`.

Chunking works the same way: :func:`chunked_reps` installs an ambient
streaming chunk size (CLI: ``--chunk-reps``; environment:
``REPRO_CHUNK_REPS``) that the vector backends read through
:func:`active_chunk_reps` — a kernel batch is then resolved in
contiguous chunks of that many rows (a fused scan's chunks may
straddle points) and the chunks are folded into the dense batch.  The
kernel's working memory scales with the chunk; the folded result stays
batch-sized (at 1000-repetition chunks a 20,000-repetition probe batch
peaks at 6.5 MB instead of 69.3 MB).
Like ``--jobs``, the chunk size never changes results (chunks replay
the exact seed slice of the dense derivation), so it stays out of
cache keys.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.connection
import os
import signal
import sys
import time
import warnings
from contextlib import contextmanager
from dataclasses import dataclass
from typing import (Any, Callable, Dict, Iterator, List, Optional,
                    Sequence, Tuple, TypeVar)

import numpy as np

from repro.backends import BatchRequest, dispatch

T = TypeVar("T")
R = TypeVar("R")

#: Environment variable consulted when no ambient job count is set.
JOBS_ENV = "REPRO_JOBS"

#: Environment variable consulted when no ambient chunk size is set.
CHUNK_ENV = "REPRO_CHUNK_REPS"

_AMBIENT_JOBS: Optional[int] = None

#: Sentinel distinguishing "no chunk scope installed" from an explicit
#: ``chunked_reps(None)`` (which forces dense, overriding the
#: environment variable).
_CHUNK_UNSET: Any = object()

_AMBIENT_CHUNK: Any = _CHUNK_UNSET

# Worker-side flag: set in shard processes so nested map_ordered
# calls degrade to serial execution instead of forking again.
_IN_WORKER = False


def resolve_jobs(jobs: Optional[int]) -> int:
    """Normalise a job-count request.

    ``None`` defers to the ambient scope (then the ``REPRO_JOBS``
    environment variable, then 1); ``0`` means "one per CPU"; negative
    values are rejected.
    """
    if jobs is None:
        return active_jobs()
    if jobs < 0:
        raise ValueError(f"jobs must be >= 0, got {jobs}")
    if jobs == 0:
        return os.cpu_count() or 1
    return jobs


def active_jobs() -> int:
    """The job count in effect for this scope (default 1).

    An unparsable or negative ``REPRO_JOBS`` falls back to serial
    execution with a warning rather than aborting mid-experiment.
    """
    if _IN_WORKER:
        return 1
    if _AMBIENT_JOBS is not None:
        return _AMBIENT_JOBS
    raw = os.environ.get(JOBS_ENV, "1")
    try:
        return resolve_jobs(int(raw))
    except ValueError:
        warnings.warn(f"ignoring invalid {JOBS_ENV}={raw!r}; "
                      "running serially", stacklevel=2)
        return 1


@contextmanager
def parallel_jobs(jobs: int) -> Iterator[int]:
    """Install an ambient job count for the duration of the block.

    >>> with parallel_jobs(4):
    ...     result = fig6_mean_access_delay()        # doctest: +SKIP

    Scopes nest; the innermost wins.  ``jobs=0`` resolves to the CPU
    count.
    """
    global _AMBIENT_JOBS
    resolved = resolve_jobs(jobs)
    previous = _AMBIENT_JOBS
    _AMBIENT_JOBS = resolved
    try:
        yield resolved
    finally:
        _AMBIENT_JOBS = previous


def active_chunk_reps() -> Optional[int]:
    """The streaming chunk size in effect for this scope.

    ``None`` means dense (the default).  Resolution order: the
    innermost :func:`chunked_reps` scope, then the
    ``REPRO_CHUNK_REPS`` environment variable, then dense.  An
    unparsable or non-positive environment value falls back to dense
    with a warning rather than aborting mid-experiment.
    """
    if _AMBIENT_CHUNK is not _CHUNK_UNSET:
        return _AMBIENT_CHUNK
    raw = os.environ.get(CHUNK_ENV)
    if raw is None:
        return None
    try:
        value = int(raw)
        if value < 1:
            raise ValueError(raw)
    except ValueError:
        warnings.warn(f"ignoring invalid {CHUNK_ENV}={raw!r}; "
                      "running dense", stacklevel=2)
        return None
    return value


@contextmanager
def chunked_reps(chunk_reps: Optional[int]) -> Iterator[Optional[int]]:
    """Install an ambient streaming chunk size for the block.

    >>> with chunked_reps(1000):
    ...     result = fig6_mean_access_delay()        # doctest: +SKIP

    Scopes nest; the innermost wins, and an explicit ``None`` forces
    dense execution even under an outer chunked scope (or a
    ``REPRO_CHUNK_REPS`` environment variable).  Chunking is an
    execution detail like the job count: results are bit-identical to
    a dense run at any chunk size.
    """
    global _AMBIENT_CHUNK
    if chunk_reps is not None and chunk_reps < 1:
        raise ValueError(f"chunk_reps must be >= 1, got {chunk_reps}")
    previous = _AMBIENT_CHUNK
    _AMBIENT_CHUNK = chunk_reps
    try:
        yield chunk_reps
    finally:
        _AMBIENT_CHUNK = previous


def derive_seeds(seed: int, repetitions: int) -> List[int]:
    """The canonical per-repetition seeds for a batch.

    ``SeedSequence(seed).generate_state(repetitions)`` — shard ``k`` of
    a parallel run replays exactly the seeds a serial run would have
    used for its repetition indices, and the vector backend
    (:mod:`repro.sim.vector`) derives its per-repetition streams from
    the very same values, so switching backends never changes which
    random universes a repetition index maps to.
    """
    if repetitions < 1:
        raise ValueError(f"repetitions must be >= 1, got {repetitions}")
    state = np.random.SeedSequence(seed).generate_state(repetitions)
    return [int(s) for s in state]


def run_batch(request: BatchRequest, *, backend: str = "event"):
    """Route one repetition batch through the backend dispatcher.

    ``request`` is a :class:`repro.backends.BatchRequest` describing
    the batch's rows once for every backend: the event backend maps
    ``request.event_task`` (a pure ``(seed, point) -> one-row batch``
    function) over the rows through :func:`map_ordered`; the vector
    backends hand ``request.batch_task`` the rows' seeds and points —
    sliced into contiguous chunks when the ambient
    :func:`chunked_reps` scope sets a chunk size.  Either way the
    parts fold with the batch class's ``concat``, so every backend
    returns the same dense batch.  Dense and chunked runs are
    bit-identical: each row's seed fixes its random universe.

    ``backend="auto"`` asks :func:`repro.backends.dispatch.resolve` to
    pick the fastest backend eligible for the request's spec (a
    declarative :class:`~repro.backends.ScenarioSpec`); with no spec
    declared only the event engine is eligible — an undescribed
    scenario must never silently ride a kernel — so ``auto`` takes it
    and a forced kernel family raises
    :class:`~repro.backends.BackendUnavailableError`.
    """
    if not isinstance(request, BatchRequest):
        raise TypeError(f"run_batch takes a repro.backends.BatchRequest, "
                        f"not {type(request).__name__}")
    return dispatch.resolve(request.spec, backend).backend.run_batch(request)


def shard_bounds(n_items: int, shards: int) -> List[Tuple[int, int]]:
    """Contiguous ``[lo, hi)`` index ranges splitting ``n_items``.

    The first ``n_items % shards`` shards get one extra item, so sizes
    differ by at most one.  Empty shards are never produced.
    """
    if n_items < 0:
        raise ValueError(f"n_items must be >= 0, got {n_items}")
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    shards = min(shards, n_items) or 1
    base, extra = divmod(n_items, shards)
    bounds: List[Tuple[int, int]] = []
    lo = 0
    for k in range(shards):
        hi = lo + base + (1 if k < extra else 0)
        if hi > lo:
            bounds.append((lo, hi))
        lo = hi
    return bounds


def _pool_context() -> multiprocessing.context.BaseContext:
    """Prefer ``fork`` (no pickling of the mapped callable)."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else None)


# ----------------------------------------------------------------------
# Retry policy + failure log: the fault-tolerance contract of
# map_ordered.  A crashed/killed/hung worker never aborts the run —
# its shard is retried with exponential backoff and, with retries
# exhausted, executed in-process.  Every recovery step is recorded so
# Experiment.run can surface it as ``meta["failures"]``.
# ----------------------------------------------------------------------

#: Environment variable: default shard retry count (``--retries``).
RETRIES_ENV = "REPRO_RETRIES"

#: Environment variable: default per-shard wall-clock budget in
#: seconds (``--shard-timeout``).
SHARD_TIMEOUT_ENV = "REPRO_SHARD_TIMEOUT"

#: Retries granted to a crashed/timed-out shard when nothing else is
#: configured (the *first* attempt is not a retry).
DEFAULT_RETRIES = 2

#: Base of the exponential retry backoff (seconds): attempt k waits
#: ``backoff_s * 2**(k-1)``.
DEFAULT_BACKOFF_S = 0.1


@dataclass(frozen=True)
class RetryPolicy:
    """Shard-supervision knobs in effect for one :func:`map_ordered`.

    ``retries`` counts *additional* attempts after the first;
    ``shard_timeout`` is a per-attempt wall-clock budget in seconds
    (``None`` = unbounded); ``backoff_s`` is the exponential backoff
    base between attempts.  The policy only governs *how* shards
    execute — because shards are pure functions of their items, no
    retry, timeout or fallback can change the results.
    """

    retries: int = DEFAULT_RETRIES
    shard_timeout: Optional[float] = None
    backoff_s: float = DEFAULT_BACKOFF_S

    def __post_init__(self) -> None:
        if self.retries < 0:
            raise ValueError(
                f"retries must be >= 0, got {self.retries}")
        if self.shard_timeout is not None and self.shard_timeout <= 0:
            raise ValueError(
                f"shard_timeout must be > 0, got {self.shard_timeout}")
        if self.backoff_s < 0:
            raise ValueError(
                f"backoff_s must be >= 0, got {self.backoff_s}")


_AMBIENT_POLICY: Optional[RetryPolicy] = None

_FAILURE_LOG: Optional[List[Dict[str, object]]] = None


def active_retry_policy() -> RetryPolicy:
    """The retry policy in effect for this scope.

    Resolution order: the innermost :func:`retry_policy` scope, then
    the ``REPRO_RETRIES`` / ``REPRO_SHARD_TIMEOUT`` environment
    variables, then the defaults.  Unparsable environment values fall
    back to the defaults with a warning rather than aborting
    mid-experiment.
    """
    if _AMBIENT_POLICY is not None:
        return _AMBIENT_POLICY
    retries = DEFAULT_RETRIES
    raw = os.environ.get(RETRIES_ENV)
    if raw is not None:
        try:
            retries = int(raw)
            if retries < 0:
                raise ValueError(raw)
        except ValueError:
            warnings.warn(f"ignoring invalid {RETRIES_ENV}={raw!r}",
                          stacklevel=2)
            retries = DEFAULT_RETRIES
    timeout: Optional[float] = None
    raw = os.environ.get(SHARD_TIMEOUT_ENV)
    if raw is not None:
        try:
            timeout = float(raw)
            if timeout <= 0:
                raise ValueError(raw)
        except ValueError:
            warnings.warn(
                f"ignoring invalid {SHARD_TIMEOUT_ENV}={raw!r}",
                stacklevel=2)
            timeout = None
    return RetryPolicy(retries=retries, shard_timeout=timeout)


@contextmanager
def retry_policy(retries: Optional[int] = None,
                 shard_timeout: Optional[float] = None,
                 backoff_s: Optional[float] = None
                 ) -> Iterator[RetryPolicy]:
    """Install an ambient :class:`RetryPolicy` for the block.

    ``None`` arguments keep the surrounding scope's (or environment's)
    value.  Scopes nest; the innermost wins — exactly the
    :func:`parallel_jobs` discipline.
    """
    global _AMBIENT_POLICY
    base = active_retry_policy()
    policy = RetryPolicy(
        retries=base.retries if retries is None else retries,
        shard_timeout=base.shard_timeout if shard_timeout is None
        else shard_timeout,
        backoff_s=base.backoff_s if backoff_s is None else backoff_s)
    previous = _AMBIENT_POLICY
    _AMBIENT_POLICY = policy
    try:
        yield policy
    finally:
        _AMBIENT_POLICY = previous


@contextmanager
def collect_failures() -> Iterator[List[Dict[str, object]]]:
    """Collect shard-failure records for the duration of the block.

    :func:`map_ordered` appends one record per recovery action (retry
    or in-process fallback) to the innermost collector;
    :meth:`repro.runtime.registry.Experiment.run` installs one around
    the runner and surfaces the records as ``meta["failures"]`` —
    *after* the result is cached, so recovery provenance never
    perturbs the cached payload (bit-identical results, annotated
    reports).
    """
    global _FAILURE_LOG
    log: List[Dict[str, object]] = []
    previous = _FAILURE_LOG
    _FAILURE_LOG = log
    try:
        yield log
    finally:
        _FAILURE_LOG = previous


def _note_failure(record: Dict[str, object]) -> None:
    """Record one recovery action (and echo it to stderr)."""
    if _FAILURE_LOG is not None:
        _FAILURE_LOG.append(record)
    print(f"[executor] shard {record['shard']} "
          f"attempt {record['attempt']}: {record['reason']} -> "
          f"{record['action']}", file=sys.stderr)


# ----------------------------------------------------------------------
# Supervised shard execution
# ----------------------------------------------------------------------

@contextmanager
def _sigint_held() -> Iterator[None]:
    """Hold SIGINT off in this thread for the block.

    A Ctrl-C that arrives meanwhile stays pending and is delivered, as
    the usual ``KeyboardInterrupt``, when the block ends.
    """
    if not hasattr(signal, "pthread_sigmask"):  # pragma: no cover
        yield
        return
    previous = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
    try:
        yield
    finally:
        signal.pthread_sigmask(signal.SIG_SETMASK, previous)


def _shard_main(conn, fn: Callable, items: Sequence, shard_index: int,
                attempt: int) -> None:
    """Entry point of one supervised shard process.

    Sends exactly one ``(kind, payload)`` message on ``conn``:
    ``("ok", results)`` or ``("error", exception)``.  A process that
    dies without sending (injected crash, SIGKILL, OOM) is detected by
    the supervisor as EOF on the pipe.
    """
    global _IN_WORKER
    _IN_WORKER = True
    if hasattr(signal, "pthread_sigmask"):
        # Forked while the supervisor held SIGINT off (_sigint_held).
        signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGINT})
    from repro.runtime import faults
    faults.maybe_crash_worker(shard_index, attempt)
    faults.maybe_slow_shard(shard_index)
    try:
        results = [fn(item) for item in items]
    except BaseException as exc:
        try:
            conn.send(("error", exc))
        except Exception:
            conn.send(("error", RuntimeError(
                f"shard {shard_index} raised unpicklable "
                f"{type(exc).__name__}: {exc}")))
    else:
        conn.send(("ok", results))
    conn.close()


class _ShardRun:
    """Supervisor-side state of one shard (attempt counter, process)."""

    def __init__(self, index: int, items: List) -> None:
        self.index = index
        self.items = items
        self.attempt = 0
        self.process: Optional[multiprocessing.process.BaseProcess] = None
        self.conn = None
        self.deadline: Optional[float] = None
        self.resume_at: Optional[float] = None

    def start(self, ctx, fn: Callable,
              policy: RetryPolicy) -> None:
        """(Re)spawn the worker process for the current attempt.

        SIGINT is held off until the forked process is recorded, so a
        Ctrl-C during the fork lands after it and the cleanup reaps
        the worker; a start that fails records no process, so the
        cleanup never joins one that was never started.
        """
        recv, send = ctx.Pipe(duplex=False)
        self.conn = recv
        process = ctx.Process(
            target=_shard_main,
            args=(send, fn, self.items, self.index, self.attempt),
            daemon=True)
        try:
            with _sigint_held():
                process.start()
                self.process = process
        finally:
            # Close the parent's copy of the send end: a worker dying
            # without sending then reads as EOF instead of a hang.
            send.close()
        self.resume_at = None
        self.deadline = (time.monotonic() + policy.shard_timeout
                         if policy.shard_timeout is not None else None)

    def retire(self) -> None:
        """Reap a worker that delivered (or EOFed) its message."""
        if self.conn is not None:
            self.conn.close()
            self.conn = None
        if self.process is not None:
            self.process.join()
            self.process = None
        self.deadline = None

    def kill(self) -> None:
        """Forcefully stop the worker (timeout, cleanup, interrupt)."""
        if self.process is not None and self.process.is_alive():
            self.process.kill()
        self.retire()


def _map_supervised(fn: Callable, shards: List[List],
                    policy: RetryPolicy) -> List:
    """Run shards under supervision; see :func:`map_ordered`.

    The loop multiplexes over the shard result pipes.  Three events
    exist per shard: a message (result or task exception), an EOF
    (worker died without delivering — crash), or a deadline expiry
    (hung/slow worker, killed here).  Crashes and expiries retry with
    exponential backoff up to ``policy.retries`` times, then fall back
    to in-process execution; task exceptions propagate unchanged
    (they are deterministic — a retry would fail identically).
    """
    ctx = _pool_context()
    runs = [_ShardRun(index, items) for index, items in enumerate(shards)]
    results: List[Optional[List]] = [None] * len(runs)
    pending = {run.index for run in runs}

    def fail(run: _ShardRun, reason: str) -> None:
        run.attempt += 1
        if run.attempt <= policy.retries:
            delay = policy.backoff_s * (2 ** (run.attempt - 1))
            _note_failure({"shard": run.index, "attempt": run.attempt,
                           "reason": reason, "action": "retry",
                           "backoff_s": delay})
            run.resume_at = time.monotonic() + delay
        else:
            _note_failure({"shard": run.index, "attempt": run.attempt,
                           "reason": reason,
                           "action": "in-process fallback"})
            results[run.index] = [fn(item) for item in run.items]
            pending.discard(run.index)

    try:
        for run in runs:
            run.start(ctx, fn, policy)
        while pending:
            now = time.monotonic()
            for run in runs:
                if run.index in pending and run.process is None \
                        and run.resume_at is not None \
                        and now >= run.resume_at:
                    run.start(ctx, fn, policy)
            live = [run for run in runs
                    if run.index in pending and run.conn is not None]
            wakeups = [run.deadline for run in live
                       if run.deadline is not None]
            wakeups += [run.resume_at for run in runs
                        if run.index in pending and run.resume_at
                        is not None]
            timeout = max(0.0, min(wakeups) - now) if wakeups else None
            if not live:
                # Every pending shard is backing off; nothing to poll.
                time.sleep(timeout if timeout is not None else 0)
                continue
            ready = multiprocessing.connection.wait(
                [run.conn for run in live], timeout)
            now = time.monotonic()
            for run in live:
                if run.conn in ready:
                    try:
                        kind, payload = run.conn.recv()
                    except (EOFError, OSError):
                        # Reap first: EOF can arrive before the dead
                        # worker's exit code is known.
                        process = run.process
                        run.retire()
                        exitcode = process.exitcode \
                            if process is not None else None
                        fail(run, "worker crashed "
                                  f"(exit code {exitcode})")
                        continue
                    run.retire()
                    if kind == "ok":
                        results[run.index] = payload
                        pending.discard(run.index)
                    else:
                        raise payload
                elif run.deadline is not None and now >= run.deadline:
                    run.kill()
                    fail(run, "shard timeout after "
                              f"{policy.shard_timeout}s")
    finally:
        # Raised exception or KeyboardInterrupt: never leave orphaned
        # worker processes behind.
        for run in runs:
            run.kill()
    return [result for shard in results for result in shard]


def map_ordered(fn: Callable[[T], R], items: Sequence[T],
                jobs: Optional[int] = None) -> List[R]:
    """``[fn(item) for item in items]``, fanned across processes.

    Items are split into contiguous shards (one per job) and executed
    by supervised worker processes; the returned list preserves item
    order exactly, so callers observe serial semantics.  With
    ``jobs=None`` the ambient :func:`parallel_jobs` scope decides; a
    job count of 1 (or a single item, or a call from inside a worker)
    short-circuits to a plain loop with zero multiprocessing overhead.

    Supervision (the ambient :func:`retry_policy` scope): a worker
    that dies without delivering its shard — killed, segfaulted,
    injected crash — or blows its per-shard wall-clock budget is
    retried with exponential backoff, then executed in-process once
    retries are exhausted, with every recovery step recorded through
    :func:`collect_failures`.  Exceptions *raised by ``fn``* are
    deterministic and propagate immediately, unchanged.  Because each
    shard is a pure function of its items, no recovery path can
    change the returned values.

    ``fn`` runs in forked children where available, so it may close
    over arbitrary unpicklable state; only ``items`` and the results
    cross the process boundary.
    """
    items = list(items)
    jobs = min(resolve_jobs(jobs), len(items))
    if jobs <= 1 or _IN_WORKER:
        return [fn(item) for item in items]
    shards = [items[lo:hi] for lo, hi in shard_bounds(len(items), jobs)]
    return _map_supervised(fn, shards, active_retry_policy())


#: Items per :func:`map_batched` window when the caller does not say:
#: large enough to amortise one supervised fan-out over hundreds of
#: items, small enough to keep window-level progress responsive.
DEFAULT_BATCH_WINDOW = 512


def map_batched(fn: Callable[[T], R], items,
                jobs: Optional[int] = None,
                window: Optional[int] = None
                ) -> Iterator[Tuple[List[T], List[R]]]:
    """Fused windowed fan-out: yield ``(window_items, results)`` pairs.

    The streaming complement of :func:`map_ordered` for cross-item
    batch fusion (the sweep engine's execution primitive): ``items``
    may be any iterable — including a multi-million-point generator —
    and is consumed ``window`` items at a time, each window executed
    through one :func:`map_ordered` fan-out.  The caller pays one
    supervised process fan-out per *window* instead of per item, and
    regains control between windows to flush stores, journal progress
    or print status.  Order within and across windows matches the
    input exactly, and because each window rides :func:`map_ordered`,
    the results are identical for any job count and the full
    crash-retry supervision applies per window.
    """
    if window is None:
        window = DEFAULT_BATCH_WINDOW
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    batch: List[T] = []
    for item in items:
        batch.append(item)
        if len(batch) >= window:
            yield batch, map_ordered(fn, batch, jobs=jobs)
            batch = []
    if batch:
        yield batch, map_ordered(fn, batch, jobs=jobs)
