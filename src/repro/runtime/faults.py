"""Fault injection for the runtime's failure-protocol tests.

Every robustness contract in this repository — worker-crash retry,
cache-corruption quarantine, torn-journal recovery, mid-sweep kill +
``--resume``, mid-``run all`` kill + plain re-run — is *tested*, not
assumed, by injecting the fault it defends against and asserting the
declared recovery.  This module is the single switchboard those
injections go through.

Activation is by environment variable so the faults reach forked
worker processes and ``python -m repro`` subprocesses without any
plumbing::

    REPRO_FAULTS="crash-shard=0" python -m repro run fig6 --jobs 2

``REPRO_FAULTS`` holds comma-separated ``name=value`` clauses:

``crash-shard=K``
    The worker process executing shard ``K`` dies abruptly
    (``os._exit``) on its *first* attempt — the retry must succeed.
``crash-shard=K:always``
    ... on *every* attempt — the executor must exhaust its retries
    and fall back to in-process execution.
``slow-shard=K:SECONDS``
    The worker for shard ``K`` sleeps before doing any work — drives
    the ``--shard-timeout`` path.
``cache-truncate=1`` / ``cache-bitflip=1``
    Every cache entry is truncated to half its length / has one byte
    flipped *after* the atomic publish — simulates on-disk corruption
    that checksum-on-read must quarantine.
``kill-after-points=N``
    The process SIGKILLs itself after recording ``N`` sweep points or
    ``run`` experiments — simulates a hard mid-flight crash for the
    ``sweep --resume`` and ``run`` re-run tests.

When ``REPRO_FAULTS`` is unset every hook returns after one
dictionary lookup on ``os.environ`` — zero overhead on the production
path, and nothing here is imported outside the hook call sites.
"""

from __future__ import annotations

import os
import signal
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Tuple

#: Environment variable holding the active fault clauses.
FAULTS_ENV = "REPRO_FAULTS"

#: Exit status a fault-crashed worker dies with (any non-zero works;
#: a distinctive value makes chaos-test failures self-explaining).
CRASH_EXIT_CODE = 23


def parse_clauses(raw: str) -> Dict[str, str]:
    """Parse a ``REPRO_FAULTS`` value into a clause dict.

    Malformed clauses (no ``=``) raise ``ValueError`` — a typo in a
    chaos test must fail loudly, never silently inject nothing.
    """
    clauses: Dict[str, str] = {}
    for part in raw.split(","):
        part = part.strip()
        if not part:
            continue
        name, sep, value = part.partition("=")
        if not sep or not name.strip():
            raise ValueError(
                f"malformed {FAULTS_ENV} clause {part!r}; "
                "expected name=value")
        clauses[name.strip()] = value.strip()
    return clauses


def active_clauses() -> Dict[str, str]:
    """The currently injected faults (empty dict when off)."""
    raw = os.environ.get(FAULTS_ENV)
    if not raw:
        return {}
    return parse_clauses(raw)


@contextmanager
def injected(spec: str) -> Iterator[None]:
    """Activate fault clauses for the duration of the block.

    Sets ``REPRO_FAULTS`` in ``os.environ`` (so forked workers and
    subprocesses inherit it) and restores the previous value on exit.

    >>> with injected("crash-shard=0"):
    ...     map_ordered(task, items, jobs=2)         # doctest: +SKIP
    """
    parse_clauses(spec)  # validate eagerly
    previous = os.environ.get(FAULTS_ENV)
    os.environ[FAULTS_ENV] = spec
    try:
        yield
    finally:
        if previous is None:
            os.environ.pop(FAULTS_ENV, None)
        else:
            os.environ[FAULTS_ENV] = previous


# ----------------------------------------------------------------------
# Hooks.  Each is called from exactly one production site and begins
# with the cheap is-anything-injected guard.
# ----------------------------------------------------------------------

def _crash_spec() -> Optional[Tuple[int, bool]]:
    """``(shard, always)`` of the crash-shard clause, if present."""
    value = active_clauses().get("crash-shard")
    if value is None:
        return None
    index, _, mode = value.partition(":")
    return int(index), mode == "always"


def maybe_crash_worker(shard_index: int, attempt: int) -> None:
    """Die abruptly if a crash is injected for this shard/attempt.

    ``os._exit`` (not an exception): the point is to simulate a
    worker killed out from under the pool — no unwinding, no result,
    just a dead process and an EOF on its result pipe.
    """
    if not os.environ.get(FAULTS_ENV):
        return
    spec = _crash_spec()
    if spec is None:
        return
    index, always = spec
    if shard_index == index and (always or attempt == 0):
        os._exit(CRASH_EXIT_CODE)


def maybe_slow_shard(shard_index: int) -> None:
    """Sleep before shard work if a slow-shard fault is injected."""
    if not os.environ.get(FAULTS_ENV):
        return
    value = active_clauses().get("slow-shard")
    if value is None:
        return
    index, _, seconds = value.partition(":")
    if shard_index == int(index):
        time.sleep(float(seconds or "1"))


def maybe_corrupt_cache_entry(path: os.PathLike) -> None:
    """Truncate or bit-flip a just-published cache entry.

    Runs *after* the atomic rename, so it models media/filesystem
    corruption rather than a torn write — exactly what
    checksum-on-read exists to catch.
    """
    if not os.environ.get(FAULTS_ENV):
        return
    clauses = active_clauses()
    data = None
    if clauses.get("cache-truncate"):
        data = _read(path)[: max(1, os.path.getsize(path) // 2)]
    elif clauses.get("cache-bitflip"):
        data = bytearray(_read(path))
        data[len(data) // 2] ^= 0x40
        data = bytes(data)
    if data is not None:
        with open(path, "wb") as handle:
            handle.write(data)


def maybe_kill_run(points_done: int) -> None:
    """SIGKILL the current process after N sweep points or experiments.

    The hardest crash there is — no cleanup handlers, no flushes —
    which is precisely what the atomic writes must survive: the
    sweep's store and manifest for ``sweep --resume``, and the result
    cache a plain re-run of ``run`` serves finished experiments from.
    """
    if not os.environ.get(FAULTS_ENV):
        return
    value = active_clauses().get("kill-after-points")
    if value is None:
        return
    if points_done >= int(value):
        os.kill(os.getpid(), signal.SIGKILL)


def _read(path: os.PathLike) -> bytes:
    """Read a file's bytes (tiny helper for the corruption hooks)."""
    with open(path, "rb") as handle:
        return handle.read()


def describe() -> List[str]:
    """Human-readable list of active clauses (chaos-test logging)."""
    return [f"{name}={value}" for name, value in active_clauses().items()]
