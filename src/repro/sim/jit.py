"""JIT-compiled twins of the hottest numpy kernel cores.

The numpy tier (:mod:`repro.sim.vector`, :mod:`repro.sim.probe_vector`,
:mod:`repro.queueing.lindley`) resolves whole repetition batches with
array arithmetic, but its inner loops still pay numpy's per-op dispatch
and temporary-array cost on every contention round / event.  Profiles
of the worst benches (``repro run --profile`` on ``fig6`` and
``ext-saturation``) put essentially all of the time in three cores:

* the probe-train event loop (``probe_vector._resolve_batch``),
* the saturated-DCF round loop (``vector.simulate_saturated_batch``),
* the batched Lindley recursion (``lindley._lindley_cummax``).

This module carries ``numba.njit``-compiled *per-repetition* twins of
exactly those three cores.  Numba is optional: when it is not
importable the same functions run as plain Python (bit-identical, just
slow), so every equivalence test exercises the jit code path with or
without the dependency, and the dispatcher simply never *selects* the
jit tier when :func:`available` is false.

Equivalence contract
--------------------
The compiled cores consume the exact per-repetition uniform streams of
the numpy kernels: each repetition owns a private
``np.random.Generator`` and draws one ``n_stations``-wide row per
round/event, and because ``Generator.random`` is prefix-consistent
(drawing ``n`` then ``m`` values equals drawing ``n + m``), a
pre-drawn ``(rows, n_stations)`` buffer replays the
:class:`repro.sim.vector._UniformBlocks` stream positions exactly.
Every floating-point operation is performed in the numpy kernel's
order, so results are bit-identical — not merely statistically
equivalent — which trivially satisfies the repo's KS pins.

Tier selection is ambient: the jit backends'
:meth:`~repro.backends.base.Backend.run_batch` (or a test) enters
:func:`kernel_tier` and the numpy kernels consult :func:`active_tier`
at their hot-core boundary, keeping all validation, seed derivation
and setup shared between the tiers.
"""

from __future__ import annotations

import sys
import threading
from contextlib import contextmanager
from typing import Iterator, Optional

import numpy as np

try:  # numba is an optional accelerator, never a requirement
    import numba as _numba
except ImportError:  # pragma: no cover - exercised on numba-free CI
    _numba = None

#: Test hook: force :func:`available` to a fixed answer (``None`` =
#: answer honestly).  Lets dependency-gating tests exercise both
#: branches of the dispatcher regardless of the environment.
_FORCE_AVAILABLE: Optional[bool] = None

#: The two kernel tiers a numpy kernel can run its hot core on.
TIERS = ("numpy", "jit")


def available() -> bool:
    """Whether the compiled jit tier can actually run.

    Consults ``sys.modules`` (not just the import result) so a test
    hiding numba via ``sys.modules`` monkeypatching flips the answer
    without reloading this module.
    """
    if _FORCE_AVAILABLE is not None:
        return bool(_FORCE_AVAILABLE)
    if _numba is None:
        return False
    return sys.modules.get("numba") is not None


def unavailable_reason() -> Optional[str]:
    """Why the jit tier cannot run (``None`` when it can)."""
    return None if available() else "numba not installed"


_TIER = threading.local()


def active_tier() -> str:
    """The ambient kernel tier (``numpy`` unless a scope says ``jit``)."""
    return getattr(_TIER, "value", "numpy")


@contextmanager
def kernel_tier(tier: str) -> Iterator[None]:
    """Route the numpy kernels' hot cores to ``tier`` within the scope.

    Entering ``jit`` does *not* require numba: without it the cores run
    as plain Python (the decorator below degrades to identity), which
    is how the equivalence tests cover the jit code path on numba-free
    environments.  Dependency gating happens in the dispatcher, which
    never *selects* the jit backend when :func:`available` is false.
    """
    if tier not in TIERS:
        raise ValueError(f"unknown kernel tier {tier!r}; "
                         f"expected one of {TIERS}")
    previous = active_tier()
    _TIER.value = tier
    try:
        yield
    finally:
        _TIER.value = previous


def maybe_njit(func):
    """``numba.njit(cache=True)`` when numba imports, else identity.

    ``cache=True`` persists the compiled artifacts on disk, so warm-up
    cost is paid once per machine, not once per process.
    """
    if _numba is None:
        return func
    return _numba.njit(cache=True)(func)


# ----------------------------------------------------------------------
# Lindley recursion core
# ----------------------------------------------------------------------

@maybe_njit
def _lindley_core(arrivals, services, starts, departures):  # pragma: no cover - covered via lindley tests
    """Row-wise scalar twin of ``lindley._lindley_cummax``.

    Sequential cumulative sum + running maximum per row, in the exact
    association order of ``np.cumsum`` / ``np.maximum.accumulate``, so
    the outputs are bit-identical to the numpy formulation.
    """
    reps, n = arrivals.shape
    for r in range(reps):
        cum = 0.0
        running = -np.inf
        previous = -np.inf
        for i in range(n):
            cum += services[r, i]
            offset = arrivals[r, i] - cum + services[r, i]
            if offset > running:
                running = offset
            depart = cum + running
            departures[r, i] = depart
            if arrivals[r, i] > previous:
                starts[r, i] = arrivals[r, i]
            else:
                starts[r, i] = previous
            previous = depart


# ----------------------------------------------------------------------
# Saturated-DCF core (one repetition)
# ----------------------------------------------------------------------

#: Core completion statuses: the driver reacts to these.
OK = 0
NEED_DRAWS = 1
RUNAWAY = 2


@maybe_njit
def _saturated_rep_core(uniforms, packets, slot, difs, rts_preamble,
                        data_airtime, success_busy, collision_busy,
                        cw_by_stage, max_stage, immediate_access,
                        retry_limit, max_rounds, delays, drops):  # pragma: no cover - covered via vector tests
    """One repetition of ``vector.simulate_saturated_batch``.

    ``uniforms`` replays the repetition's private stream one
    ``n_stations``-wide row per round (row 0 is the initial counter
    draw when ``immediate_access`` is off).  ``retry_limit < 0`` means
    "no limit".  Writes ``delays``/``drops`` in place and returns
    ``(duration, successes, collisions, status)``.
    """
    stations = delays.shape[0]
    rows = uniforms.shape[0]
    remaining = np.zeros(stations, dtype=np.int64)
    stage = np.zeros(stations, dtype=np.int64)
    attempts = np.zeros(stations, dtype=np.int64)
    sent = np.zeros(stations, dtype=np.int64)
    hol = np.zeros(stations)
    now = 0.0
    successes = 0
    collisions = 0
    row = 0
    if not immediate_access:
        if row >= rows:
            return now, successes, collisions, NEED_DRAWS
        for s in range(stations):
            remaining[s] = np.int64(uniforms[row, s] * (cw_by_stage[0] + 1))
        row += 1
    first_round = True
    for _ in range(max_rounds):
        m = np.int64(0)
        any_alive = False
        for s in range(stations):
            if sent[s] < packets:
                if not any_alive or remaining[s] < m:
                    m = remaining[s]
                any_alive = True
        if not any_alive:
            return now, successes, collisions, OK
        if row >= rows:
            return now, successes, collisions, NEED_DRAWS
        n_win = 0
        for s in range(stations):
            if sent[s] < packets and remaining[s] == m:
                n_win += 1

        wait = float(m) * slot + (0.0 if first_round else difs)
        tx_start = now + wait
        data_end = tx_start + rts_preamble + data_airtime
        success = n_win == 1
        collision = n_win >= 2
        if collision:
            busy_end = tx_start + collision_busy
        else:
            busy_end = tx_start + success_busy

        for s in range(stations):
            alive_s = sent[s] < packets
            winner = alive_s and remaining[s] == m
            if winner and success:
                delays[s, sent[s]] = data_end - hol[s]
                hol[s] = data_end
                sent[s] += 1
                stage[s] = 0
                attempts[s] = 0
            elif winner:
                attempts[s] += 1
                if retry_limit < 0:
                    stage[s] = min(stage[s] + 1, max_stage)
                elif attempts[s] > retry_limit:
                    # Abandoned at the end of the busy period; the next
                    # packet is promoted there at stage 0.
                    hol[s] = busy_end
                    sent[s] += 1
                    drops[s] += 1
                    stage[s] = 0
                    attempts[s] = 0
                else:
                    stage[s] = min(stage[s] + 1, max_stage)
            elif alive_s:
                # Frozen countdown: losers consumed exactly m idle slots.
                remaining[s] -= m
            if winner:
                remaining[s] = np.int64(
                    uniforms[row, s] * (cw_by_stage[stage[s]] + 1))
        row += 1
        if success:
            successes += 1
        if collision:
            collisions += 1
        now = busy_end
        first_round = False
    return now, successes, collisions, RUNAWAY


# ----------------------------------------------------------------------
# Probe-train event core (one repetition)
# ----------------------------------------------------------------------

@maybe_njit
def _probe_rep_core(arr, n_arr, probe_seq, uniforms, slot, sifs, difs,
                    ack_air, time_eps, data_air, preamble,
                    contention_air, exchange_air, size_bits, cw_by_stage,
                    max_stage, immediate_access, retry_limit, has_stop,
                    stop_time, has_window, w0, w1, track_queues, n_probe,
                    max_events, recv, delays, bits, departures):  # pragma: no cover - covered via probe_vector tests
    """One repetition of ``probe_vector._resolve_batch``.

    Station 0 replays the merged probe-queue arrivals (tagged by
    ``probe_seq``); the remaining rows of ``arr`` replay the cross
    stations.  ``uniforms`` replays the repetition's private stream one
    ``n_stations``-wide row per event.  ``retry_limit < 0`` means "no
    limit"; ``bits`` is ``[probe, fifo, cross...]`` delivered bits.
    Writes the output arrays in place and returns a status code.
    """
    n_stations = arr.shape[0]
    width = arr.shape[1]
    rows = uniforms.shape[0]

    nxt = np.zeros(n_stations, dtype=np.int64)
    hol = np.zeros(n_stations, dtype=np.bool_)
    hol_t = np.zeros(n_stations)
    rem = np.zeros(n_stations, dtype=np.int64)
    cstart = np.full(n_stations, np.inf)
    stage = np.zeros(n_stations, dtype=np.int64)
    attempts = np.zeros(n_stations, dtype=np.int64)
    expiry = np.zeros(n_stations)
    next_arr = np.zeros(n_stations)
    pending = np.zeros(n_stations, dtype=np.bool_)
    win = np.zeros(n_stations, dtype=np.bool_)
    idle_start = -np.inf
    probe_left = n_probe
    active = True

    for event in range(max_events):
        if not active:
            return OK
        if event >= rows:
            return NEED_DRAWS

        t_tx = np.inf
        t_arr = np.inf
        for s in range(n_stations):
            if hol[s]:
                expiry[s] = cstart[s] + rem[s] * slot
            else:
                expiry[s] = np.inf
            if expiry[s] < t_tx:
                t_tx = expiry[s]
            pending[s] = (not hol[s]) and nxt[s] < n_arr[s]
            idx = nxt[s]
            if idx > width - 1:
                idx = width - 1
            if pending[s]:
                next_arr[s] = arr[s, idx]
            else:
                next_arr[s] = np.inf
            if next_arr[s] < t_arr:
                t_arr = next_arr[s]

        # Steady mode: the first event past the stop instant never
        # fires — the kernel counterpart of ``run(until=stop_time)``.
        if has_stop and min(t_arr, t_tx) > stop_time:
            active = False
        # Ties go to the arrival, like the event engine's priorities.
        arr_event = active and np.isfinite(t_arr) and t_arr <= t_tx
        tx_event = active and not arr_event and np.isfinite(t_tx)

        if arr_event:
            for s in range(n_stations):
                if not (pending[s] and next_arr[s] <= t_arr):
                    continue
                hol[s] = True
                a_time = next_arr[s]
                hol_t[s] = a_time
                if immediate_access and a_time - idle_start >= difs - time_eps:
                    rem[s] = 0
                    cstart[s] = a_time
                else:
                    cw = cw_by_stage[stage[s]]
                    rem[s] = np.int64(uniforms[event, s] * (cw + 1))
                    if a_time > idle_start + difs:
                        cstart[s] = a_time
                    else:
                        cstart[s] = idle_start + difs

        if tx_event:
            safe_tx = t_tx if np.isfinite(t_tx) else 0.0
            n_win = 0
            for s in range(n_stations):
                win[s] = hol[s] and expiry[s] <= t_tx + time_eps
                if win[s]:
                    n_win += 1
            # A lone winner occupies the medium with its full exchange;
            # colliders only with their contention frames — then both
            # pay the SIFS + ACK/CTS timeout, like the event medium.
            busy_air = 0.0
            for s in range(n_stations):
                if win[s]:
                    frame = exchange_air[s] if n_win == 1 \
                        else contention_air[s]
                    if frame > busy_air:
                        busy_air = frame
            busy_end = safe_tx + busy_air + sifs + ack_air

            if n_win == 1:
                for s in range(n_stations):
                    if not win[s]:
                        continue
                    data_end = t_tx + preamble[s] + data_air[s]
                    served = nxt[s]
                    if track_queues:
                        departures[s, served] = data_end
                    seq = np.int64(-1)
                    if s == 0:
                        seq = probe_seq[served]
                        if seq >= 0:
                            recv[seq] = data_end
                            delays[seq] = data_end - hol_t[0]
                            probe_left -= 1
                    # A packet counts when its DATA frame ends inside
                    # the measurement window.
                    if has_window and data_end > w0 and data_end <= w1:
                        if s > 0:
                            bits[1 + s] += size_bits[s]
                        elif seq >= 0:
                            bits[0] += size_bits[0]
                        else:
                            bits[1] += size_bits[0]
                    # Advance the winner's queue: the next packet (if
                    # arrived) is promoted when the DATA frame ends and
                    # draws its backoff immediately (the medium is busy).
                    nxt[s] += 1
                    stage[s] = 0
                    attempts[s] = 0
                    idx = nxt[s]
                    if idx > width - 1:
                        idx = width - 1
                    promoted = nxt[s] < n_arr[s] \
                        and arr[s, idx] <= data_end + time_eps
                    hol[s] = promoted
                    if promoted:
                        hol_t[s] = data_end
                        rem[s] = np.int64(
                            uniforms[event, s] * (cw_by_stage[0] + 1))
            elif n_win >= 2:
                for s in range(n_stations):
                    if not win[s]:
                        continue
                    dropping = False
                    if retry_limit >= 0:
                        attempts[s] += 1
                        dropping = attempts[s] > retry_limit
                    if not dropping:
                        stage[s] = min(stage[s] + 1, max_stage)
                        rem[s] = np.int64(
                            uniforms[event, s] * (cw_by_stage[stage[s]] + 1))
                        continue
                    # Retry limit exhausted: abandoned at the end of
                    # the busy period, the next queued packet — if it
                    # has arrived — promoted there at stage 0.
                    served = nxt[s]
                    if track_queues:
                        departures[s, served] = busy_end
                    if s == 0 and probe_seq[served] >= 0:
                        probe_left -= 1
                    nxt[s] += 1
                    stage[s] = 0
                    attempts[s] = 0
                    idx = nxt[s]
                    if idx > width - 1:
                        idx = width - 1
                    promoted = nxt[s] < n_arr[s] \
                        and arr[s, idx] <= busy_end + time_eps
                    hol[s] = promoted
                    if promoted:
                        hol_t[s] = busy_end
                        rem[s] = np.int64(
                            uniforms[event, s] * (cw_by_stage[0] + 1))

            # Frozen countdown: losers consumed exactly the idle slots
            # that elapsed before the winners' transmission started.
            for s in range(n_stations):
                if not hol[s] or win[s]:
                    continue
                elapsed = np.int64(np.floor(
                    (safe_tx - cstart[s]) / slot + time_eps))
                if elapsed > rem[s] - 1:
                    elapsed = rem[s] - 1
                if elapsed < 0:
                    elapsed = 0
                rem[s] -= elapsed

            idle_start = busy_end
            for s in range(n_stations):
                if hol[s]:
                    cstart[s] = busy_end + difs
            if not has_stop and probe_left <= 0:
                active = False
    if active:
        return RUNAWAY
    return OK


# ----------------------------------------------------------------------
# Warm-up
# ----------------------------------------------------------------------

_WARM_LOCK = threading.Lock()
_WARMED = False


def warm_kernels() -> None:
    """Compile the jit cores once, on tiny inputs, outside any timing.

    A no-op without numba and after the first call; benchmarks call
    this before their measured windows, and the jit backends call it on
    every ``run_batch`` (idempotent) so compilation never lands inside
    a measured simulation.  ``cache=True`` on the cores makes even the
    first call cheap once the on-disk cache is hot.
    """
    global _WARMED
    if _WARMED or not available():
        return
    with _WARM_LOCK:
        if _WARMED:
            return
        one = np.ones((1, 2))
        _lindley_core(one, one, np.empty((1, 2)), np.empty((1, 2)))
        _saturated_rep_core(
            np.full((8, 2), 0.5), 1, 2e-5, 5e-5, 0.0, 1e-3, 2e-3, 2e-3,
            np.array([31, 63], dtype=np.int64), 1, True, -1, 16,
            np.full((2, 1), np.nan), np.zeros(2, dtype=np.int64))
        _probe_rep_core(
            np.zeros((2, 1)), np.ones(2, dtype=np.int64),
            np.zeros(1, dtype=np.int64), np.full((16, 2), 0.5),
            2e-5, 1e-5, 5e-5, 2e-4, 1e-12, np.full(2, 1e-3),
            np.zeros(2), np.full(2, 1e-3), np.full(2, 1e-3),
            np.full(2, 8000.0), np.array([31, 63], dtype=np.int64), 1,
            True, -1, False, 0.0, False, 0.0, 0.0, False, 1, 16,
            np.full(1, np.nan), np.full(1, np.nan), np.zeros(3),
            np.full((2, 1), np.inf))
        _WARMED = True
