"""Vectorized batched probe-train kernel.

:mod:`repro.sim.vector` batches the *saturated* corner of the DCF —
every station permanently backlogged.  The paper's headline results
(rate-response curves, transient access delays, short-train bias) live
in a richer regime: a probing station injects a periodic train into a
channel contended by Poisson cross-traffic, packets queue in the
probe's FIFO transmission buffer while DCF access delays outpace the
input gap, and the whole session is repeated over many independent
repetitions.  This module resolves those repetitions **in one
vectorized pass**.

The state of a batch is a handful of station-major arrays, one
``(stations, repetitions)`` array per quantity with a flat view
(station 0 is the probe sender, the rest are cross-traffic
contenders), plus the pre-drawn arrival sample paths.  An event
addresses its station by one flat index, ``station * repetitions +
repetition``, and the reductions over stations run along the long
axis.  One loop iteration advances every repetition by exactly one
*event*, which is either

1. an **arrival to an idle station** — the packet is promoted to
   head-of-line; if the medium has been idle for at least DIFS it
   transmits immediately (the 802.11 rule behind the paper's whole
   transient), otherwise a backoff counter is drawn and the countdown
   starts at ``max(arrival, idle_start + DIFS)``; or
2. a **transmission** — the minimum countdown-expiry over the
   contenders fixes the instant; stations expiring within the shared
   tolerance win together; a lone winner is a success (departure =
   end of its DATA frame, the next queued packet is promoted at that
   instant), several winners are a collision (CW doubling, redraw);
   losers consume exactly the elapsed idle slots — the
   frozen-countdown rule — and every countdown restarts one DIFS
   after the busy period ends.

A train repetition retires once station 0 has served (or dropped) its
last probe-tagged packet, and once at most half the repetitions still
run, the retired ones leave the state arrays.

Time arithmetic comes from the same :class:`repro.mac.frames`
airtime model and :mod:`repro.mac.timing` constants the event backend
uses, so the two backends agree on every duration and only differ in
how they schedule the arithmetic.  The equivalence contract is
distributional, not bit-level: ``tests/test_probe_vector_backend.py``
holds KS distances between the backends' access-delay and output-gap
distributions under the repo's ``alpha = 0.01`` thresholds.

Beyond the Poisson-contended train, the same event loop carries the
paper's remaining scenarios: CBR cross-traffic
(:class:`CbrCrossSpec`, batched deterministic sample paths with an
optional phase-jitter stream), bursty on-off cross-traffic
(:class:`OnOffCrossSpec`, exponential ON/OFF periods around CBR
bursts), RTS/CTS protection (``rts_threshold``; the event medium's
exact success/collision airtime split), retry-capped transmissions
(``retry_limit``; the event medium's retry counter — a packet
colliding past the limit is abandoned at the end of the busy period
and the next one promoted there at backoff stage 0), queue traces
(``track_queues``; per-station arrival/departure paths that
reproduce the event engine's backlog step function by counting), a
steady-state mode with per-flow throughput windows
(:func:`simulate_steady_state_batch`), and an explicit-arrivals entry
(:func:`simulate_probe_arrivals_batch`) that lets the multihop
chaining layer feed one hop's departure matrix to the next.

Randomness is reproducible and batch-size independent: per-repetition
seeds follow the exact scheme of
:func:`repro.runtime.executor.derive_seeds`, each repetition owns a
private generator, and because every iteration advances each active
repetition by exactly one event, repetition ``r`` consumes the same
draws whether the batch holds 4 repetitions or 400.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.mac.frames import AirtimeModel
from repro.mac.params import PhyParams
from repro.mac.timing import TIME_EPS, cw_table
from repro.sim import jit as _jit
from repro.sim.delay_model import cbr_arrival_paths, onoff_arrival_paths
from repro.sim.vector import _UniformBlocks


@dataclass(frozen=True)
class PoissonCrossSpec:
    """One Poisson cross-traffic contender of a probe-train batch.

    The kernel only needs the packet arrival rate and the (fixed)
    frame size; :meth:`from_generator` extracts both from a
    :class:`repro.traffic.generators.PoissonGenerator`.
    """

    packets_per_second: float
    size_bytes: int

    def __post_init__(self) -> None:
        if self.packets_per_second < 0:
            raise ValueError(
                f"rate must be non-negative, got {self.packets_per_second}")
        if self.size_bytes <= 0:
            raise ValueError(f"size must be positive, got {self.size_bytes}")

    @classmethod
    def from_generator(cls, generator: object) -> "PoissonCrossSpec":
        """Build a spec from a Poisson generator object.

        Anything exposing ``packets_per_second`` and ``size_bytes``
        qualifies; CBR traffic has its own :class:`CbrCrossSpec`,
        bursty on-off traffic its :class:`OnOffCrossSpec`, and
        unrecognised models must run on the event backend.
        """
        pps = getattr(generator, "packets_per_second", None)
        size = getattr(generator, "size_bytes", None)
        if pps is None or size is None:
            raise ValueError(
                f"{type(generator).__name__} is not Poisson-like "
                "(needs packets_per_second and size_bytes); "
                "run this scenario with backend='event'")
        return cls(packets_per_second=float(pps), size_bytes=int(size))

    def sample_paths(self, gens: Sequence[np.random.Generator],
                     horizon: float) -> Tuple[np.ndarray, np.ndarray]:
        """Per-repetition arrival paths over ``[0, horizon)``."""
        return _poisson_arrival_paths(gens, self.packets_per_second,
                                      horizon)


@dataclass(frozen=True)
class CbrCrossSpec:
    """One CBR cross-traffic contender of a probe-train batch.

    Deterministic inter-arrivals at the packet rate, optionally spread
    by a per-packet phase jitter of up to ``jitter`` seconds — the
    batched mirror of :class:`repro.traffic.generators.CBRGenerator`.
    """

    packets_per_second: float
    size_bytes: int
    jitter: float = 0.0

    def __post_init__(self) -> None:
        if self.packets_per_second < 0:
            raise ValueError(
                f"rate must be non-negative, got {self.packets_per_second}")
        if self.size_bytes <= 0:
            raise ValueError(f"size must be positive, got {self.size_bytes}")
        if self.jitter < 0:
            raise ValueError(
                f"jitter must be non-negative, got {self.jitter}")

    @classmethod
    def from_generator(cls, generator: object) -> "CbrCrossSpec":
        """Build a spec from a CBR generator object.

        Anything exposing ``rate_bps``, ``size_bytes``, ``interval``
        and ``jitter`` (and no Poisson ``packets_per_second``)
        qualifies.
        """
        rate = getattr(generator, "rate_bps", None)
        size = getattr(generator, "size_bytes", None)
        jitter = getattr(generator, "jitter", None)
        if (rate is None or size is None or jitter is None
                or not hasattr(generator, "interval")
                or hasattr(generator, "packets_per_second")):
            raise ValueError(
                f"{type(generator).__name__} is not CBR-like "
                "(needs rate_bps, size_bytes, interval and jitter); "
                "run this scenario with backend='event'")
        return cls(packets_per_second=float(rate) / (int(size) * 8),
                   size_bytes=int(size), jitter=float(jitter))

    def sample_paths(self, gens: Sequence[np.random.Generator],
                     horizon: float) -> Tuple[np.ndarray, np.ndarray]:
        """Per-repetition arrival paths over ``[0, horizon)``."""
        return cbr_arrival_paths(gens, self.packets_per_second, horizon,
                                 jitter=self.jitter)


@dataclass(frozen=True)
class OnOffCrossSpec:
    """One exponential on-off cross-traffic contender of a batch.

    CBR emission at the peak packet rate during exponential ON
    periods, silence during exponential OFF periods, initial state
    drawn from the stationary duty cycle — the batched mirror of
    :class:`repro.traffic.generators.OnOffGenerator`.
    """

    peak_packets_per_second: float
    size_bytes: int
    mean_on: float
    mean_off: float

    def __post_init__(self) -> None:
        if self.peak_packets_per_second <= 0:
            raise ValueError(
                f"peak rate must be positive, "
                f"got {self.peak_packets_per_second}")
        if self.size_bytes <= 0:
            raise ValueError(f"size must be positive, got {self.size_bytes}")
        if self.mean_on <= 0 or self.mean_off < 0:
            raise ValueError("mean_on must be > 0 and mean_off >= 0")

    @classmethod
    def from_generator(cls, generator: object) -> "OnOffCrossSpec":
        """Build a spec from an on-off generator object.

        Anything exposing ``peak_rate_bps``, ``mean_on``, ``mean_off``
        and ``size_bytes`` qualifies.
        """
        peak = getattr(generator, "peak_rate_bps", None)
        size = getattr(generator, "size_bytes", None)
        mean_on = getattr(generator, "mean_on", None)
        mean_off = getattr(generator, "mean_off", None)
        if peak is None or size is None or mean_on is None \
                or mean_off is None:
            raise ValueError(
                f"{type(generator).__name__} is not on-off-like "
                "(needs peak_rate_bps, mean_on, mean_off and "
                "size_bytes); run this scenario with backend='event'")
        return cls(peak_packets_per_second=float(peak) / (int(size) * 8),
                   size_bytes=int(size), mean_on=float(mean_on),
                   mean_off=float(mean_off))

    def sample_paths(self, gens: Sequence[np.random.Generator],
                     horizon: float) -> Tuple[np.ndarray, np.ndarray]:
        """Per-repetition arrival paths over ``[0, horizon)``."""
        return onoff_arrival_paths(gens, self.peak_packets_per_second,
                                   self.mean_on, self.mean_off, horizon)


def cross_spec_from_generator(generator: object):
    """Classify a traffic generator into its batched sampler spec.

    Returns a :class:`PoissonCrossSpec`, :class:`CbrCrossSpec` or
    :class:`OnOffCrossSpec`; raises ``ValueError`` for traffic models
    without a batched sampler (trace replay and anything
    unrecognised) — those scenarios must run on the event backend.
    """
    for spec_cls in (PoissonCrossSpec, CbrCrossSpec, OnOffCrossSpec):
        try:
            return spec_cls.from_generator(generator)
        except ValueError:
            continue
    raise ValueError(
        f"{type(generator).__name__} has no batched arrival sampler "
        "(Poisson, CBR and on-off are supported); run this scenario "
        "with backend='event'")


_SPEC_KINDS = ((CbrCrossSpec, "cbr"), (OnOffCrossSpec, "onoff"),
               (PoissonCrossSpec, "poisson"))


def classify_cross_generator(generator: object):
    """``(traffic kind, spec)`` of a batch-sampleable generator.

    The single owner of the kind vocabulary the channel and path
    layers compile into :class:`repro.backends.ScenarioSpec` traffic
    axes; raises like :func:`cross_spec_from_generator` when no
    batched sampler exists.
    """
    spec = cross_spec_from_generator(generator)
    for spec_cls, kind in _SPEC_KINDS:
        if isinstance(spec, spec_cls):
            return kind, spec
    raise AssertionError(  # pragma: no cover - kinds mirror the specs
        f"unclassified spec {type(spec).__name__}")


def classify_cross_stations(stations: Sequence[Tuple[str, object]]):
    """Fold ``(name, generator)`` pairs into one traffic-axis value.

    The shared fold rule of the channel and path layers: ``none`` for
    an empty set, the single kind when every station agrees, ``mixed``
    otherwise, and ``other`` (with the offending station's detail
    sentence) as soon as one generator has no batched sampler.
    Returns ``(kind, detail)``.
    """
    folded = "none"
    for name, generator in stations:
        try:
            kind, _ = classify_cross_generator(generator)
        except ValueError as exc:
            return "other", f"cross station {name!r}: {exc}"
        folded = kind if folded in ("none", kind) else "mixed"
    return folded, ""


def fifo_size_mismatch_detail(probe_size: int, fifo_size: int) -> str:
    """The one sentence every layer uses for the FIFO size limit.

    The batched kernel merges FIFO cross-traffic into the probe
    station's queue under a single per-station frame size, so the two
    sizes must agree; this detail appears both in raised errors and in
    compiled :class:`repro.backends.ScenarioSpec` mismatches.
    """
    return ("the batched kernel requires FIFO cross-traffic packets of "
            f"the probe size ({probe_size} B), got {fifo_size} B; "
            "run with backend='event'")


def _pad_concat_rows(blocks: Sequence[np.ndarray],
                     fill: float = np.inf) -> np.ndarray:
    """Stack ``fill``-padded row blocks, re-padding to the widest.

    Each block's rows are valid up to some count and ``fill`` past it
    (``inf`` for instants, ``-1`` for flow tags); the stacked array
    pads every row to the widest block, which is exactly the width a
    dense run over all rows would have produced — so chunked and dense
    traces are bit-identical.
    """
    width = max(block.shape[1] for block in blocks)
    rows = sum(block.shape[0] for block in blocks)
    out = np.full((rows, width), fill, dtype=blocks[0].dtype)
    lo = 0
    for block in blocks:
        out[lo:lo + block.shape[0], :block.shape[1]] = block
        lo += block.shape[0]
    return out


def _runs(*columns: np.ndarray) -> List[Tuple[int, int]]:
    """``[lo, hi)`` bounds of the runs of adjacent rows that agree in
    every column."""
    changed = np.zeros(len(columns[0]) - 1, dtype=bool)
    for values in columns:
        changed |= np.diff(values) != 0
    edges = [0, *(np.flatnonzero(changed) + 1), len(columns[0])]
    return list(zip(edges[:-1], edges[1:]))


def _cross_slots(cross: Sequence[object], reps: int
                 ) -> Tuple[List[List[object]], List[Optional[int]],
                            np.ndarray]:
    """Per-row cross specs, slot frame sizes and row station counts.

    Each entry of ``cross`` is one station slot: a spec every row
    carries, or one spec per row where ``None`` means the row has no
    such station.  A row's absent stations must follow its present
    ones, and a slot's present specs must share their frame size (the
    kernel's airtimes are per station).  A row's station count is 1
    plus its present cross stations; an absent slot's size is
    ``None``.
    """
    slots = []
    for c, entry in enumerate(cross):
        specs = ([entry] * reps if hasattr(entry, "sample_paths")
                 else list(entry))
        if len(specs) != reps:
            raise ValueError(f"cross station {c} has {len(specs)} specs "
                             f"for {reps} repetitions")
        slots.append(specs)
    present = np.array([[spec is not None for spec in specs]
                        for specs in slots], dtype=bool).reshape(-1, reps)
    if np.any(present[1:] & ~present[:-1]):
        raise ValueError("a row's absent cross stations must follow its "
                         "present ones")
    sizes: List[Optional[int]] = []
    for c, specs in enumerate(slots):
        found = {spec.size_bytes for spec in specs if spec is not None}
        if len(found) > 1:
            raise ValueError(f"cross station {c} mixes frame sizes "
                             f"{sorted(found)}")
        sizes.append(found.pop() if found else None)
    return slots, sizes, 1 + present.sum(axis=0)


def _row_paths(specs: Sequence[object], gens: Sequence[np.random.Generator],
               horizons: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """One station slot's sample paths with a spec and a horizon per row.

    Drawn once per run of equal ``(spec, horizon)`` — each run exactly
    the call a one-point batch with that spec and horizon makes, so the
    Poisson block size (set by the horizon) and hence every row's draws
    match it — and stacked with :func:`_pad_concat_rows`.  Rows without
    the station (``None``) draw nothing and hold no arrivals.
    """
    codes: dict = {}
    spec_codes = np.array([codes.setdefault(spec, len(codes))
                           for spec in specs])
    parts = []
    for lo, hi in _runs(spec_codes, horizons):
        if specs[lo] is None:
            parts.append((np.full((hi - lo, 1), np.inf),
                          np.zeros(hi - lo, dtype=np.int64)))
        else:
            parts.append(specs[lo].sample_paths(gens[lo:hi],
                                                float(horizons[lo])))
    if len(parts) == 1:
        return parts[0]
    times, counts = zip(*parts)
    return _pad_concat_rows(times), np.concatenate(counts)


def _row_horizons(horizon, default: np.ndarray) -> np.ndarray:
    """One horizon per row: ``default`` (already per row) when
    ``horizon`` is ``None``, else ``horizon`` broadcast to the rows."""
    if horizon is None:
        return default
    horizons = np.asarray(horizon, dtype=float)
    if horizons.ndim and horizons.shape != default.shape:
        raise ValueError(f"got {horizons.size} horizons for "
                         f"{default.size} repetitions")
    return np.broadcast_to(horizons, default.shape)


@dataclass
class QueueTraceBatch:
    """Arrival/departure sample paths of one station's queue, batched.

    The kernel computes both arrays anyway (arrivals are the pre-drawn
    sample paths, departures the success instants); keeping them turns
    the backlog into pure counting: at time ``t`` the station holds
    ``#{arrivals <= t} - #{departures <= t}`` packets (queued plus in
    service), exactly the right-continuous step function the event
    engine's :meth:`repro.mac.scenario.StationResult.queue_size_at`
    samples.  Rows are ``inf``-padded past each repetition's count.

    Conforms to :class:`repro.core.batch.RepetitionBatch` (one
    repetition per row) so chunked runs can fold traces row-wise.
    """

    arrivals: np.ndarray
    departures: np.ndarray

    @property
    def repetitions(self) -> int:
        """Number of repetitions (rows)."""
        return self.arrivals.shape[0]

    @classmethod
    def from_queue_log(cls, queue_log: Sequence[Tuple[float, int]]
                       ) -> "QueueTraceBatch":
        """One repetition's trace, read off an event station's
        ``(time, backlog)`` log: a +1 step is an arrival, a -1 step a
        departure or a drop, so :meth:`size_at` reproduces
        :meth:`repro.mac.scenario.StationResult.queue_size_at` exactly
        (an empty log reads as zero backlog)."""
        times = np.array([t for t, _ in queue_log], dtype=float)
        steps = np.diff([0] + [q for _, q in queue_log])
        return cls(arrivals=times[steps > 0][None, :],
                   departures=times[steps < 0][None, :])

    @classmethod
    def concat(cls, parts: Sequence["QueueTraceBatch"]
               ) -> "QueueTraceBatch":
        """Fold row-compatible trace batches into one (row order kept)."""
        if not parts:
            raise ValueError("concat needs at least one part")
        return cls(
            arrivals=_pad_concat_rows([p.arrivals for p in parts]),
            departures=_pad_concat_rows([p.departures for p in parts]))

    def size_at(self, times: np.ndarray) -> np.ndarray:
        """Backlog sampled at ``times`` (``(repetitions, k)``)."""
        times = np.asarray(times, dtype=float)
        out = np.zeros(times.shape)
        for r in range(times.shape[0]):
            arrived = np.searchsorted(self.arrivals[r], times[r],
                                      side="right")
            departed = np.searchsorted(self.departures[r], times[r],
                                       side="right")
            out[r] = arrived - departed
        return out


def _concat_queue_traces(parts: Sequence[object]
                         ) -> Optional[List[QueueTraceBatch]]:
    """Station-wise fold of per-part queue-trace lists.

    ``None`` when no part carries traces; mixing traced and untraced
    parts is a ``ValueError`` — such batches did not come from the
    same scenario.  A part with fewer cross stations (a scan's rows
    through a channel with fewer of them) has empty traces for the
    rest, as the kernel's absent stations do.
    """
    traces = [part.queue_traces for part in parts]
    if all(trace is None for trace in traces):
        return None
    if any(trace is None for trace in traces):
        raise ValueError(
            "cannot concat batches with and without queue traces")
    empty = np.full((1, 1), np.inf)
    return [QueueTraceBatch.concat(
                [trace[c] if c < len(trace) else QueueTraceBatch(
                    np.repeat(empty, part.repetitions, axis=0),
                    np.repeat(empty, part.repetitions, axis=0))
                 for trace, part in zip(traces, parts)])
            for c in range(max(len(trace) for trace in traces))]


@dataclass
class ProbeBatchResult:
    """Timestamps of a whole repetition batch of probe trains.

    The dense counterpart of ``repetitions`` individual
    :class:`repro.testbed.channel.RawTrainResult` objects: row ``r``
    holds repetition ``r``'s send instants ``a_i``, receive instants
    ``d_i`` (end of each probe DATA frame) and access delays ``mu_i``
    (head-of-line promotion to end of DATA).  ``queue_traces`` (only
    populated when queue tracking was requested) carries one
    :class:`QueueTraceBatch` per cross station, in declaration order —
    the batched counterpart of the event scenario's queue logs.

    Conforms to :class:`repro.core.batch.RepetitionBatch`: one
    repetition per row, ``concat`` folds row-wise (chunked and event
    execution concatenate these).
    """

    send_times: np.ndarray
    recv_times: np.ndarray
    access_delays: np.ndarray
    size_bytes: int
    queue_traces: Optional[List[QueueTraceBatch]] = None

    @property
    def repetitions(self) -> int:
        """Number of repetitions (rows)."""
        return self.send_times.shape[0]

    @classmethod
    def concat(cls, parts: Sequence["ProbeBatchResult"]
               ) -> "ProbeBatchResult":
        """Fold row-compatible batches into one, preserving row order."""
        if not parts:
            raise ValueError("concat needs at least one part")
        if len({part.n for part in parts}) != 1:
            raise ValueError("cannot concat batches with different "
                             "train lengths")
        if len({part.size_bytes for part in parts}) != 1:
            raise ValueError("cannot concat batches with different "
                             "packet sizes")
        return cls(
            send_times=np.concatenate([p.send_times for p in parts]),
            recv_times=np.concatenate([p.recv_times for p in parts]),
            access_delays=np.concatenate(
                [p.access_delays for p in parts]),
            size_bytes=parts[0].size_bytes,
            queue_traces=_concat_queue_traces(parts),
        )

    @property
    def n(self) -> int:
        """Train length (columns)."""
        return self.send_times.shape[1]

    @property
    def output_gaps(self) -> np.ndarray:
        """Per-repetition train-level output gap (equation (16))."""
        d = self.recv_times
        return (d[:, -1] - d[:, 0]) / (self.n - 1)

    def delay_matrix(self) -> np.ndarray:
        """The ``(repetitions, packets)`` access-delay sample."""
        return self.access_delays


def _poisson_arrival_paths(gens: Sequence[np.random.Generator],
                           packets_per_second: float,
                           horizon: float) -> Tuple[np.ndarray, np.ndarray]:
    """Per-repetition Poisson arrival instants over ``[0, horizon)``.

    Returns ``(times, counts)`` where ``times`` is ``(reps, width)``
    padded with ``inf`` past each repetition's count.  Each repetition
    draws from its own generator (a fixed-size block plus a rare
    top-up), so its path is independent of the batch composition.
    """
    reps = len(gens)
    if packets_per_second <= 0 or horizon <= 0:
        return np.full((reps, 1), np.inf), np.zeros(reps, dtype=np.int64)
    mean = packets_per_second * horizon
    block = int(mean + 6.0 * math.sqrt(mean) + 16)
    rows: List[np.ndarray] = []
    counts = np.zeros(reps, dtype=np.int64)
    for r, gen in enumerate(gens):
        times = np.cumsum(gen.exponential(1.0 / packets_per_second,
                                          size=block))
        while times[-1] < horizon:  # pragma: no cover - ~6-sigma tail
            extra = gen.exponential(1.0 / packets_per_second, size=block)
            times = np.concatenate([times, times[-1] + np.cumsum(extra)])
        k = int(np.searchsorted(times, horizon, side="left"))
        rows.append(times[:k])
        counts[r] = k
    width = max(1, int(counts.max()))
    out = np.full((reps, width), np.inf)
    for r, row in enumerate(rows):
        out[r, :len(row)] = row
    return out, counts


def _merge_probe_queue(probe_times: np.ndarray, n_probe: int,
                       fifo_times: Optional[np.ndarray],
                       fifo_counts: Optional[np.ndarray]
                       ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Merge FIFO cross-traffic into the probe station's queue.

    Returns ``(arrivals, flow tags, counts)`` for station 0; tags are
    the probe packet index or ``-1`` for FIFO packets.  The stable
    sort keeps probe packets ahead of simultaneous FIFO arrivals,
    matching the event scheduler's insertion order.
    """
    reps = probe_times.shape[0]
    if fifo_times is None:
        probe_seq = np.broadcast_to(np.arange(n_probe),
                                    (reps, n_probe)).copy()
        return probe_times, probe_seq, np.full(reps, n_probe,
                                               dtype=np.int64)
    cat_t = np.concatenate([probe_times, fifo_times], axis=1)
    cat_q = np.concatenate(
        [np.broadcast_to(np.arange(n_probe), (reps, n_probe)),
         np.full(fifo_times.shape, -1, dtype=np.int64)], axis=1)
    order = np.argsort(cat_t, axis=1, kind="stable")
    probe_arr = np.take_along_axis(cat_t, order, axis=1)
    probe_seq = np.take_along_axis(cat_q, order, axis=1)
    return probe_arr, probe_seq, n_probe + fifo_counts


def simulate_probe_train_batch(
        n_probe: int,
        schedule,
        repetitions: int,
        *,
        size_bytes: int = 1500,
        cross: Sequence[object] = (),
        fifo_cross: Optional[object] = None,
        horizon=None,
        phy: Optional[PhyParams] = None,
        warmup: float = 0.25,
        start_jitter: float = 0.01,
        seed: int = 0,
        seeds: Optional[np.ndarray] = None,
        immediate_access: bool = True,
        rts_threshold: Optional[int] = None,
        retry_limit: Optional[int] = None,
        track_queues: bool = False) -> ProbeBatchResult:
    """Simulate ``repetitions`` independent probe-train sessions at once.

    Each repetition mirrors one
    :meth:`repro.testbed.channel.SimulatedWlanChannel.send_train`
    call: cross-traffic warms the channel up for ``warmup`` seconds,
    the ``n_probe``-packet train starts after an extra
    ``Uniform(0, start_jitter)`` delay, optional ``fifo_cross``
    traffic shares the probe station's FIFO queue, and cross-traffic
    keeps flowing over ``[0, horizon)`` (default: the train window
    plus one second of drain headroom) while the probe queue drains
    through DCF contention.  ``cross`` and ``fifo_cross`` take
    :class:`PoissonCrossSpec` / :class:`CbrCrossSpec` /
    :class:`OnOffCrossSpec` values; ``rts_threshold`` enables the
    RTS/CTS handshake, ``retry_limit`` caps per-packet transmission
    attempts (a probe packet lost at the limit raises, exactly like
    the event channel's lost-probe guard), and ``track_queues`` keeps
    per-cross-station queue traces
    (:attr:`ProbeBatchResult.queue_traces`).

    ``schedule`` is the input gap of a periodic train (every row), or
    a ``(repetitions, n_probe)`` array of each row's send offsets from
    its train start (a probe train's ``arrival_times(0.0)``, a
    chirp's included); a gap ``g`` means the offsets
    ``arange(n_probe) * g``.  ``horizon`` is one value or one per
    row.  Each entry of ``cross`` is one station: a spec every row
    carries, or one spec per row, ``None`` where the row has no such
    station (a row's absent stations follow its present ones; its
    station count is 1 plus its present ones).  A whole rate or
    cross-load scan is then one call: each run of equal ``(spec,
    horizon)`` draws its sample paths exactly as a one-point call
    does, and each row's backoff uniforms are as wide as its own
    station count, so a scan's rows are bit-identical to the calls
    of its points.

    A repetition stops consuming events once its last probe packet has
    departed; the statistical contract with the event backend is
    enforced by the KS tests in ``tests/test_probe_vector_backend.py``.

    ``seeds`` overrides the internal per-repetition seed derivation
    with explicit values (one per repetition).  Chunked execution
    passes contiguous slices of the dense derivation here, which is
    what makes a chunk's rows bit-identical to the dense run's.
    """
    if n_probe < 2:
        raise ValueError(f"a train needs at least 2 packets, got {n_probe}")
    if repetitions < 1:
        raise ValueError(f"repetitions must be >= 1, got {repetitions}")
    if warmup < 0 or start_jitter < 0:
        raise ValueError("warmup and start_jitter must be non-negative")
    offsets = np.asarray(schedule, dtype=float)
    if offsets.ndim == 0:
        if offsets < 0:
            raise ValueError(f"gap must be non-negative, got {schedule}")
        offsets = np.broadcast_to(np.arange(n_probe) * offsets,
                                  (repetitions, n_probe))
    elif offsets.shape != (repetitions, n_probe):
        raise ValueError(
            f"schedule must be a gap or ({repetitions}, {n_probe}) send "
            f"offsets, got shape {offsets.shape}")
    elif np.any(np.diff(offsets) < 0):
        raise ValueError("send offsets must be non-decreasing")

    slots, cross_sizes, row_stations = _cross_slots(cross, repetitions)
    if fifo_cross is not None and fifo_cross.size_bytes != size_bytes:
        raise ValueError(
            fifo_size_mismatch_detail(size_bytes, fifo_cross.size_bytes))
    horizons = _row_horizons(
        horizon, warmup + start_jitter + offsets[:, -1] + 1.0)

    reps = repetitions
    if seeds is None:
        # Same derivation scheme as repro.runtime.executor.derive_seeds
        # (not imported: repro.runtime sits above the simulation layer).
        seeds = np.random.SeedSequence(seed).generate_state(repetitions)
    elif len(seeds) != repetitions:
        raise ValueError(
            f"got {len(seeds)} seeds for {repetitions} repetitions")
    gens = [np.random.default_rng(int(s)) for s in seeds]

    # Per-repetition draw order mirrors the event channel: start
    # jitter first, then the traffic sample paths, then the backoff
    # stream — all from the repetition's private generator.
    if start_jitter > 0:
        jitter = np.array([gen.uniform(0, start_jitter) for gen in gens])
    else:
        jitter = np.zeros(reps)
    start = warmup + jitter
    probe_times = start[:, None] + offsets

    cross_paths = [_row_paths(specs, gens, horizons) for specs in slots]
    if fifo_cross is not None:
        fifo_times, fifo_counts = _row_paths([fifo_cross] * reps, gens,
                                             horizons)
    else:
        fifo_times, fifo_counts = None, None
    probe_arr, probe_seq, probe_counts = _merge_probe_queue(
        probe_times, n_probe, fifo_times, fifo_counts)
    arr, n_arr = _arrival_cube(probe_arr, probe_counts, cross_paths)
    # The cube holds every path now: the event loop need not carry them.
    del cross_paths, fifo_times, probe_arr

    recv, delays, _, queues = _resolve_batch(
        arr, n_arr, probe_seq, n_probe, gens=gens, size_bytes=size_bytes,
        cross_sizes=cross_sizes, row_stations=row_stations, phy=phy,
        immediate_access=immediate_access, rts_threshold=rts_threshold,
        retry_limit=retry_limit, track_queues=track_queues)

    if np.isnan(recv).any():
        raise RuntimeError("probe packets were lost")
    return ProbeBatchResult(
        send_times=probe_times,
        recv_times=recv,
        access_delays=delays,
        size_bytes=size_bytes,
        queue_traces=queues,
    )


def simulate_probe_arrivals_batch(
        probe_times: np.ndarray,
        *,
        size_bytes: int,
        seeds: np.ndarray,
        cross: Sequence[object] = (),
        fifo_cross: Optional[object] = None,
        horizon=None,
        phy: Optional[PhyParams] = None,
        immediate_access: bool = True,
        rts_threshold: Optional[int] = None,
        retry_limit: Optional[int] = None) -> ProbeBatchResult:
    """Resolve a batch whose probe arrivals are explicit per-repetition.

    The multihop chaining entry point: ``probe_times`` is a
    ``(repetitions, n)`` matrix of arrival instants at *this* hop —
    typically the previous hop's departure matrix — non-decreasing
    along each row (the probe queue serves in arrival order), and
    ``seeds`` the per-repetition streams (one uint32 each, the caller
    derives them per hop).  ``horizon`` is one value or one per row
    (default: each row's last arrival plus one second), and the sample
    paths are drawn once per run of equal horizon, so a row never
    depends on the rows batched with it.  Everything else matches
    :func:`simulate_probe_train_batch`; there is no warmup or start
    jitter because the arrival process already encodes the probing
    schedule.
    """
    probe_times = np.asarray(probe_times, dtype=float)
    if probe_times.ndim != 2 or probe_times.shape[1] < 2:
        raise ValueError(
            f"probe_times must be (repetitions, n >= 2), got "
            f"{probe_times.shape}")
    if np.any(np.diff(probe_times) < 0):
        raise ValueError("probe arrival times must be non-decreasing")
    if len(seeds) != probe_times.shape[0]:
        raise ValueError(
            f"need one seed per repetition, got {len(seeds)} for "
            f"{probe_times.shape[0]}")
    reps, n_probe = probe_times.shape
    slots, cross_sizes, row_stations = _cross_slots(cross, reps)
    if fifo_cross is not None and fifo_cross.size_bytes != size_bytes:
        raise ValueError(
            fifo_size_mismatch_detail(size_bytes, fifo_cross.size_bytes))
    horizons = _row_horizons(horizon, probe_times.max(axis=1) + 1.0)

    seeds = np.asarray(seeds, dtype=np.uint64)
    gens = [np.random.default_rng(int(s)) for s in seeds]
    cross_paths = [_row_paths(specs, gens, horizons) for specs in slots]
    if fifo_cross is not None:
        fifo_times, fifo_counts = _row_paths([fifo_cross] * reps, gens,
                                             horizons)
    else:
        fifo_times, fifo_counts = None, None
    probe_arr, probe_seq, probe_counts = _merge_probe_queue(
        probe_times, n_probe, fifo_times, fifo_counts)
    arr, n_arr = _arrival_cube(probe_arr, probe_counts, cross_paths)
    del cross_paths, fifo_times, probe_arr

    recv, delays, _, _ = _resolve_batch(
        arr, n_arr, probe_seq, n_probe, gens=gens, size_bytes=size_bytes,
        cross_sizes=cross_sizes, row_stations=row_stations, phy=phy,
        immediate_access=immediate_access, rts_threshold=rts_threshold,
        retry_limit=retry_limit)

    if np.isnan(recv).any():
        raise RuntimeError("probe packets were lost")
    return ProbeBatchResult(
        send_times=probe_times,
        recv_times=recv,
        access_delays=delays,
        size_bytes=size_bytes,
    )


def _arrival_cube(probe_arr: np.ndarray, probe_counts: np.ndarray,
                  cross_paths: Sequence[Tuple[np.ndarray, np.ndarray]]
                  ) -> Tuple[np.ndarray, np.ndarray]:
    """Every station's arrivals as one ``inf``-padded
    ``(rows, stations, width)`` cube, plus their counts.

    Station 0 holds the (merged) probe-queue arrivals ``probe_arr``,
    station ``1 + c`` cross station ``c``'s sample paths.
    """
    reps, n_stations = probe_arr.shape[0], 1 + len(cross_paths)
    width = max(probe_arr.shape[1],
                max((p.shape[1] for p, _ in cross_paths), default=1))
    arr = np.full((reps, n_stations, width), np.inf)
    n_arr = np.zeros((reps, n_stations), dtype=np.int64)
    arr[:, 0, :probe_arr.shape[1]] = probe_arr
    n_arr[:, 0] = probe_counts
    for c, (times, counts) in enumerate(cross_paths):
        arr[:, 1 + c, :times.shape[1]] = times
        n_arr[:, 1 + c] = counts
    return arr, n_arr


def _resolve_batch(arr: np.ndarray, n_arr: np.ndarray,
                   probe_seq: np.ndarray, n_probe: int, *,
                   gens: Sequence[np.random.Generator],
                   size_bytes: int,
                   cross_sizes: Sequence[Optional[int]],
                   row_stations: np.ndarray,
                   phy: Optional[PhyParams],
                   immediate_access: bool,
                   rts_threshold: Optional[int] = None,
                   retry_limit: Optional[int] = None,
                   stop_time: Optional[float] = None,
                   window: Optional[Tuple[float, float]] = None,
                   track_queues: bool = False
                   ) -> Tuple[np.ndarray, np.ndarray,
                              Optional[Tuple[np.ndarray, np.ndarray,
                                             np.ndarray]],
                              Optional[List[QueueTraceBatch]]]:
    """Advance every repetition event by event until it completes.

    The shared core of the probe-train and steady-state entry points:
    ``arr`` and ``n_arr`` are :func:`_arrival_cube`'s arrivals and
    counts — station 0 replays the (merged) probe-queue arrivals
    tagged by ``probe_seq``, the cross stations their sample paths.
    Without ``stop_time`` a repetition retires events until its last
    probe packet departs (train mode).  With ``stop_time`` it stops at
    the first event past that instant instead — the kernel counterpart
    of the event engine's ``run(until=...)`` — and ``window=(t0, t1]``
    additionally accumulates the delivered network-layer bits per flow
    (probe / FIFO / per cross station) whose DATA frame ends inside
    the window.

    ``row_stations`` gives each row its station count.  A row's
    absent stations hold no arrivals, so they never contend; what the
    count changes is the width of the row's backoff uniforms, which
    must match a batch of that width.  An absent slot's size
    (``None``) is never used.

    ``rts_threshold`` protects every frame of at least that many bytes
    with an RTS/CTS handshake, applying the exact arithmetic of
    :class:`repro.mac.medium.Medium`: a protected success pays the
    RTS+SIFS+CTS+SIFS preamble before its DATA frame, a collision
    occupies the medium only for the colliding contention frames (RTS
    when protected, DATA otherwise) plus the timeout.  ``retry_limit``
    applies the event medium's retry counter: a station whose packet
    has collided more than ``retry_limit`` times abandons it at the
    end of the busy period — its delay slot stays ``NaN`` — and
    promotes the next queued packet there, re-entering contention at
    backoff stage 0 with a fresh CW0 draw.
    ``track_queues`` keeps each cross station's departure instants, so
    the returned :class:`QueueTraceBatch` objects reproduce the event
    engine's backlog traces by pure counting.

    Returns ``(recv, delays, bits, queues)`` where ``bits`` is ``None``
    without a window and ``(probe_bits, fifo_bits, cross_bits)``
    otherwise, and ``queues`` is ``None`` unless ``track_queues``.
    """
    phy = phy if phy is not None else PhyParams.dot11b()
    airtime = AirtimeModel(phy)
    slot, sifs, difs = phy.slot_time, phy.sifs, phy.difs
    ack_air = airtime.ack_airtime()
    cw_by_stage = cw_table(phy)
    max_stage = phy.max_backoff_stage

    reps, n_stations, _ = arr.shape
    n_cross = n_stations - 1
    sizes = [size_bytes] + [size_bytes if size is None else size
                            for size in cross_sizes]
    data_air = np.array([airtime.data_airtime(s) for s in sizes])
    # Per-station RTS protection, mirroring Medium._uses_rts: the
    # preamble precedes a protected DATA frame; during a collision a
    # protected station only occupies the medium with its RTS.
    if rts_threshold is not None:
        protected = np.array([s >= rts_threshold for s in sizes])
    else:
        protected = np.zeros(len(sizes), dtype=bool)
    preamble = np.where(protected, airtime.rts_preamble_duration(), 0.0)
    contention_air = np.where(protected, airtime.rts_airtime(), data_air)
    exchange_air = preamble + data_air

    if _jit.active_tier() == "jit":
        return _resolve_jit_batch(
            arr, n_arr, probe_seq, row_stations, gens=gens,
            n_probe=n_probe, slot=slot, sifs=sifs, difs=difs,
            ack_air=ack_air, data_air=data_air, preamble=preamble,
            contention_air=contention_air, exchange_air=exchange_air,
            sizes=sizes, cw_by_stage=cw_by_stage, max_stage=max_stage,
            immediate_access=immediate_access, retry_limit=retry_limit,
            stop_time=stop_time, window=window,
            track_queues=track_queues)

    # The backoff uniforms continue each repetition's private stream
    # where the jitter and sample-path draws left off — the event
    # engine's draw order (paths first, then contention randomness from
    # the same generator).  Restarting from the seeds instead would
    # replay the path draws as backoff uniforms and correlate bursty
    # cross-traffic periods with contention outcomes.
    uniforms = _UniformBlocks((), n_stations, gens=gens,
                              widths=row_stations)

    if window is not None:
        w0, w1 = window
        # Delivered bits per row and flow: probe, FIFO, cross stations.
        bits_rows = np.zeros((reps, n_stations + 1))
        flow_bits = bits_rows.reshape(-1)
        size_bits = np.array(sizes, dtype=float) * 8

    recv = np.full((reps, n_probe), np.nan)
    delays = np.full((reps, n_probe), np.nan)
    # FIFO service keeps each station's departures in arrival order, so
    # indexing this by the served arrival index yields sorted rows.
    departures = np.full(arr.shape, np.inf) if track_queues else None
    # Flat views: an event reads an arrival or a probe tag, and writes
    # an output, through one index.
    cube, tags = arr.reshape(-1), probe_seq.reshape(-1)
    recv_at, delay_at = recv.reshape(-1), delays.reshape(-1)
    departed = departures.reshape(-1) if track_queues else None
    width, tag_width = arr.shape[2], probe_seq.shape[1]
    exchange_col = exchange_air[:, None]
    contention_col = contention_air[:, None]
    # A backoff draw is ``int(u * (cw + 1))``.
    cw_span = cw_by_stage + 1
    preamble_col, data_col = preamble[:, None], data_air[:, None]

    # The loop's state is station-major: one flat array per quantity
    # holds station ``sta`` of loop row ``row`` at ``sta * len(rows) +
    # row``, so an event addresses its station by one index, station 0
    # is the first ``len(rows)`` entries, and ``reshape(n_stations,
    # -1)`` reduces over the stations along axis 0.  ``rows`` maps the
    # rows still in the loop to the batch rows the outputs and the
    # arrival cube are indexed by, ``base`` each station to its offset
    # in the flat cube.
    rows = np.arange(reps)
    base = ((rows * n_stations + np.arange(n_stations)[:, None])
            * width).ravel()
    count = n_arr.T.ravel()
    nxt = np.zeros_like(count)
    # A station's pending arrival: its next packet's arrival instant
    # while its head of line is empty, else ``inf``.
    pend = np.where(count > 0, arr[:, :, 0].T.ravel(), np.inf)
    hol = np.zeros(count.shape, dtype=bool)
    hol_t = np.zeros(count.shape)
    rem = np.zeros_like(count)
    # ``inf`` off head-of-line, so a countdown's expiry needs no mask.
    cstart = np.full(count.shape, np.inf)
    stage = np.zeros_like(count)
    attempts = np.zeros_like(count)
    idle_start = np.full(reps, -np.inf)
    active = np.ones(reps, dtype=bool)
    # Train mode retires a row once station 0 has served (or dropped)
    # past its last probe-tagged packet.
    last_probe = tag_width - 1 - np.argmax(probe_seq[:, ::-1] >= 0, axis=1)

    # Every event retires an arrival, a success, or (boundedly often)
    # a collision; the guard is far above any real trajectory.
    max_events = 64 + 8 * int(n_arr.sum(axis=1).max())
    for _ in range(max_events):
        running = np.count_nonzero(active)
        if not running:
            break
        # A retired row never runs again and its outputs are written,
        # so once at most half the rows still run the rest leave the
        # loop; a kept row goes on reading its own uniforms.
        if 2 * running <= len(rows):
            keep = np.flatnonzero(active)
            rows, idle_start, active, last_probe = (
                state[keep] for state in (rows, idle_start, active,
                                          last_probe))
            (base, count, nxt, pend, hol, hol_t, rem, cstart, stage,
             attempts) = (
                np.take(state.reshape(n_stations, -1), keep, axis=1).ravel()
                for state in (base, count, nxt, pend, hol, hol_t, rem,
                              cstart, stage, attempts))
            uniforms.keep(keep)
        n = len(rows)
        # This round's uniforms, station-major like the state.
        u = uniforms.take().T.ravel()

        expiry = (cstart + rem * slot).reshape(n_stations, n)
        t_tx = expiry.min(axis=0)
        pending = pend.reshape(n_stations, n)
        t_arr = pending.min(axis=0)

        # Steady mode: the first event past the stop instant never
        # fires — the kernel counterpart of ``run(until=stop_time)``.
        t_next = np.minimum(t_arr, t_tx)
        if stop_time is not None:
            active = active & (t_next <= stop_time)

        # Ties go to the arrival, like the event engine's priorities
        # (the admitted station then collides at the same instant).
        live = active & (t_next < np.inf)
        arr_event = live & (t_arr <= t_tx)
        tx_event = live ^ arr_event

        # -- arrival to an idle station --------------------------------
        if arr_event.any():
            a = np.flatnonzero((pending <= t_arr) & arr_event)
            a_time = pend[a]
            pend[a] = np.inf
            hol[a] = True
            hol_t[a] = a_time
            idle = idle_start[a % n]
            imm = (a_time - idle >= difs - TIME_EPS) & immediate_access
            rem[a] = np.where(imm, 0,
                              (u[a] * cw_span[stage[a]]).astype(np.int64))
            cstart[a] = np.where(imm, a_time, np.maximum(a_time, idle + difs))

        # -- transmission ----------------------------------------------
        if tx_event.any():
            safe_tx = np.where(tx_event, t_tx, 0.0)
            win = (expiry <= t_tx + TIME_EPS) & tx_event
            lone = win.sum(axis=0) == 1
            # A lone winner occupies the medium with its full exchange
            # (RTS preamble + DATA when protected); colliders only with
            # their contention frames (RTS when protected) — then both
            # pay the SIFS + ACK/CTS timeout, like the event medium.
            frame_air = np.where(lone, exchange_col, contention_col)
            busy_end = (safe_tx + np.where(win, frame_air, 0.0).max(axis=0)
                        + sifs + ack_air)
            # A lone winner's packet leaves when its DATA frame ends, a
            # dropped one when the busy period ends.
            finish = np.where(lone, t_tx + preamble_col + data_col,
                              busy_end).reshape(-1)

            # Colliders draw their next backoff at the next stage,
            # unless the packet has now collided past the retry limit:
            # then it is dropped (its delay slot stays NaN).
            w = np.flatnonzero(win)
            solo = lone[w % n]
            done = solo
            if retry_limit is not None:
                attempts[w] += 1
                done = solo | (attempts[w] > retry_limit)
            retry = w[~done]
            if retry.size:
                up = np.minimum(stage[retry] + 1, max_stage)
                stage[retry] = up
                rem[retry] = (u[retry] * cw_span[up]).astype(np.int64)

            s = w[done]
            success = solo[done]
            end = finish[s]
            served = nxt[s]
            if track_queues:
                departed[base[s] + served] = end
            # Station 0's packets come first (their flat index is their
            # row); a probe-tagged one delivered sets its outputs.
            k = int(np.searchsorted(s, n))
            p_rows = rows[s[:k]]
            seq = tags[p_rows * tag_width + served[:k]]
            sent = success[:k] & (seq >= 0)
            at = p_rows[sent] * n_probe + seq[sent]
            p_end = end[:k][sent]
            recv_at[at] = p_end
            delay_at[at] = p_end - hol_t[s[:k][sent]]

            # Per-flow throughput accounting: a packet counts when its
            # DATA frame ends inside the measurement window.  At most
            # one success per repetition per iteration, so plain fancy
            # indexing accumulates safely.
            if window is not None:
                counted = success & (end > w0) & (end <= w1)
                c_sta, c_row = np.divmod(s[counted], n)
                # Flows: probe 0, FIFO 1, cross station ``c`` is 1 + c;
                # station 0's packets come first.
                flow = c_sta + 1
                p_in = counted[:k]
                flow[:np.count_nonzero(p_in)] = seq[p_in] < 0
                flow_bits[rows[c_row] * (n_stations + 1) + flow] += \
                    size_bits[c_sta]

            # Advance the served queues: the next packet, if it has
            # arrived by ``end``, is promoted there and draws its backoff
            # at once (the medium is busy); else its arrival pends.
            # ``hol_t`` and ``rem`` are read only at the head of line.
            after = served + 1
            nxt[s] = after
            stage[s] = 0
            if retry_limit is not None:
                attempts[s] = 0
            head = np.where(after < count[s],
                            cube[base[s] + np.minimum(after, width - 1)],
                            np.inf)
            promoted = head <= end + TIME_EPS
            pend[s] = np.where(promoted, np.inf, head)
            hol[s] = promoted
            hol_t[s] = end
            rem[s] = (u[s] * cw_span[0]).astype(np.int64)
            cstart[s] = np.inf

            # Frozen countdown: losers consumed exactly the idle slots
            # that elapsed before the winners' transmission started.
            holding = hol.reshape(n_stations, n) & tx_event
            lose = holding & ~win
            starts = cstart.reshape(n_stations, n)
            left = rem.reshape(n_stations, n)
            elapsed = np.floor(
                (safe_tx - np.where(lose, starts, 0.0)) / slot
                + TIME_EPS).astype(np.int64)
            left -= np.where(
                lose, np.maximum(0, np.minimum(elapsed, left - 1)), 0)

            idle_start = np.where(tx_event, busy_end, idle_start)
            np.copyto(starts, busy_end + difs, where=holding)

            if stop_time is None:
                active = active & (nxt[:n] <= last_probe)
    else:  # pragma: no cover - defensive
        raise RuntimeError(
            f"probe batch did not complete within {max_events} events")

    bits = None
    if window is not None:
        bits = (bits_rows[:, 0].copy(), bits_rows[:, 1].copy(),
                bits_rows[:, 2:].copy())
    queues = None
    if track_queues:
        queues = [QueueTraceBatch(arrivals=arr[:, 1 + c, :],
                                  departures=departures[:, 1 + c, :])
                  for c in range(n_cross)]
    return recv, delays, bits, queues


def _resolve_jit_batch(arr: np.ndarray, n_arr: np.ndarray,
                       probe_seq: np.ndarray, row_stations: np.ndarray, *,
                       gens: Sequence[np.random.Generator], n_probe: int,
                       slot: float, sifs: float, difs: float,
                       ack_air: float, data_air: np.ndarray,
                       preamble: np.ndarray, contention_air: np.ndarray,
                       exchange_air: np.ndarray, sizes: Sequence[int],
                       cw_by_stage: np.ndarray, max_stage: int,
                       immediate_access: bool, retry_limit: Optional[int],
                       stop_time: Optional[float],
                       window: Optional[Tuple[float, float]],
                       track_queues: bool
                       ) -> Tuple[np.ndarray, np.ndarray,
                                  Optional[Tuple[np.ndarray, np.ndarray,
                                                 np.ndarray]],
                                  Optional[List[QueueTraceBatch]]]:
    """Resolve the batch one repetition at a time on the jit tier.

    Repetition ``r`` runs the compiled core on its own ``k``
    stations (``row_stations[r]``): the first ``k`` rows of its
    arrivals, airtimes and outputs.  Its backoff uniforms continue its
    private generator where the sample-path draws left off, pre-drawn
    as one ``(rows, k)`` buffer; ``Generator.random`` is
    prefix-consistent across call boundaries, so row ``i`` equals the
    block-buffered draw the numpy loop hands that repetition at event
    ``i`` — the compiled core's results are bit-identical.  When a
    trajectory outlives the buffer estimate, the generator state is
    rewound and the repetition replayed with a doubled buffer.
    """
    reps, n_stations, _ = arr.shape
    recv = np.full((reps, n_probe), np.nan)
    delays = np.full((reps, n_probe), np.nan)
    departures = np.full(arr.shape, np.inf) if track_queues else None
    # Per-repetition delivered bits, flows packed [probe, fifo, cross...]
    bits_rows = np.zeros((reps, n_stations + 1))
    size_bits = np.array(sizes, dtype=float) * 8
    has_window = window is not None
    w0, w1 = window if has_window else (0.0, 0.0)
    has_stop = stop_time is not None
    stop = float(stop_time) if has_stop else 0.0
    limit = -1 if retry_limit is None else int(retry_limit)
    cw = np.ascontiguousarray(cw_by_stage, dtype=np.int64)
    data_air = np.ascontiguousarray(data_air, dtype=float)
    preamble = np.ascontiguousarray(preamble, dtype=float)
    contention_air = np.ascontiguousarray(contention_air, dtype=float)
    exchange_air = np.ascontiguousarray(exchange_air, dtype=float)
    max_events = 64 + 8 * int(n_arr.sum(axis=1).max())
    dummy_dep = np.empty((1, 1))
    for r in range(reps):
        gen = gens[r]
        k = int(row_stations[r])
        state = gen.bit_generator.state
        est = min(max_events, 64 + 8 * int(n_arr[r].sum()))
        seq_r = np.ascontiguousarray(probe_seq[r], dtype=np.int64)
        dep_r = departures[r, :k] if track_queues else dummy_dep
        while True:
            buf = gen.random(est * k).reshape(est, k)
            status = _jit._probe_rep_core(
                arr[r, :k], n_arr[r, :k], seq_r, buf, slot, sifs, difs,
                ack_air, TIME_EPS, data_air[:k], preamble[:k],
                contention_air[:k], exchange_air[:k], size_bits[:k], cw,
                max_stage, immediate_access, limit, has_stop, stop,
                has_window, w0, w1, track_queues, n_probe, max_events,
                recv[r], delays[r], bits_rows[r, :k + 1], dep_r)
            if status != _jit.NEED_DRAWS or est >= max_events:
                break
            recv[r].fill(np.nan)
            delays[r].fill(np.nan)
            bits_rows[r].fill(0.0)
            if track_queues:
                dep_r.fill(np.inf)
            gen.bit_generator.state = state
            est = min(max_events, est * 2)
        if status != _jit.OK:  # pragma: no cover - defensive
            raise RuntimeError(
                f"probe batch did not complete within {max_events} events")
    bits = None
    if has_window:
        bits = (bits_rows[:, 0].copy(), bits_rows[:, 1].copy(),
                bits_rows[:, 2:].copy())
    queues = None
    if track_queues:
        queues = [QueueTraceBatch(arrivals=arr[:, 1 + c, :],
                                  departures=departures[:, 1 + c, :])
                  for c in range(n_stations - 1)]
    return recv, delays, bits, queues


@dataclass
class SteadyBatchResult:
    """Per-flow delivered bits of a steady-state repetition batch.

    The batch a steady-state scan
    (:func:`repro.analysis.steady_state.steady_state_scan`) reads its
    throughputs from: row ``r`` holds repetition ``r``'s
    network-layer bits delivered in the measurement window
    ``(warmup, duration]`` for the probe flow, the FIFO flow sharing
    the probe queue, and each contending cross station.

    Conforms to :class:`repro.core.batch.RepetitionBatch`: one
    repetition per row, ``concat`` folds row-wise.
    """

    probe_bits: np.ndarray
    fifo_bits: np.ndarray
    cross_bits: np.ndarray
    warmup: float
    duration: float
    size_bytes: int
    queue_traces: Optional[List[QueueTraceBatch]] = None

    @property
    def repetitions(self) -> int:
        """Number of repetitions (rows)."""
        return self.probe_bits.shape[0]

    @classmethod
    def concat(cls, parts: Sequence["SteadyBatchResult"]
               ) -> "SteadyBatchResult":
        """Fold row-compatible batches into one, preserving row order."""
        if not parts:
            raise ValueError("concat needs at least one part")
        if len({(part.warmup, part.duration, part.size_bytes)
                for part in parts}) != 1:
            raise ValueError("cannot concat batches with different "
                             "measurement windows or packet sizes")
        return cls(
            probe_bits=np.concatenate([p.probe_bits for p in parts]),
            fifo_bits=np.concatenate([p.fifo_bits for p in parts]),
            cross_bits=np.concatenate([p.cross_bits for p in parts]),
            warmup=parts[0].warmup, duration=parts[0].duration,
            size_bytes=parts[0].size_bytes,
            queue_traces=_concat_queue_traces(parts),
        )

    @property
    def window_s(self) -> float:
        """Length of the measurement window."""
        return self.duration - self.warmup

    def probe_throughput_bps(self) -> np.ndarray:
        """Per-repetition probe-flow throughput."""
        return self.probe_bits / self.window_s

    def fifo_throughput_bps(self) -> np.ndarray:
        """Per-repetition FIFO-flow throughput."""
        return self.fifo_bits / self.window_s

    def cross_throughput_bps(self) -> np.ndarray:
        """Per-repetition total contending-station throughput."""
        return self.cross_bits.sum(axis=1) / self.window_s


def check_steady_state(probe_rates_bps, duration: float,
                       warmup: float) -> None:
    """Refuse a steady-state measurement no backend can make.

    Every probe rate must be positive, and the measurement window
    ``(warmup, duration]`` must be non-empty and start at or after
    time zero.  :func:`simulate_steady_state_batch` checks its own
    arguments with it; the steady-state runners call it before
    dispatch, so the event engine refuses exactly what the kernel
    refuses.
    """
    rates = np.asarray(probe_rates_bps, dtype=float).ravel()
    bad = rates[~(rates > 0)]
    if bad.size:
        raise ValueError(f"probe rate must be positive, got {bad[0]}")
    if duration <= warmup or warmup < 0:
        raise ValueError("need duration > warmup >= 0")


def simulate_steady_state_batch(
        probe_rate_bps,
        repetitions: int,
        *,
        size_bytes: int = 1500,
        cross: Sequence[object] = (),
        fifo_cross: Optional[object] = None,
        duration: float = 4.0,
        warmup: float = 0.5,
        phy: Optional[PhyParams] = None,
        seed: int = 0,
        seeds: Optional[np.ndarray] = None,
        immediate_access: bool = True,
        rts_threshold: Optional[int] = None,
        retry_limit: Optional[int] = None,
        track_queues: bool = False) -> SteadyBatchResult:
    """Batched steady-state throughput measurement (figures 1 and 4).

    Each repetition mirrors one event-engine repetition of
    :func:`repro.analysis.steady_state.steady_state_scan`: the probe
    flow is CBR at ``probe_rate_bps`` from time zero
    (periodic arrivals, exactly the event path's
    :class:`repro.traffic.generators.CBRGenerator` schedule), optional
    ``fifo_cross`` traffic shares the probe station's queue, the
    ``cross`` stations contend with their own traffic
    (:class:`PoissonCrossSpec` or :class:`CbrCrossSpec` — the latter is
    what the Bianchi-calibration ablation saturates the channel with),
    and the simulation stops at ``duration`` — throughputs are read
    off the bits delivered in ``(warmup, duration]``.

    ``probe_rate_bps`` is one rate for every repetition or a
    ``(repetitions,)`` array of per-row rates — a whole rate scan in
    one call.  Each run of equal rates gets the CBR schedule and FIFO
    merge a one-rate call builds, the blocks stack padded to the
    widest, and the cross and FIFO sample paths are drawn over the
    shared ``duration``; every row owns its generator and retires on
    its own clock, so a scan's rows are bit-identical to the one-rate
    calls of its points.  ``cross`` takes a spec per row like
    :func:`simulate_probe_train_batch`'s, so the rows of one call may
    also differ in their cross stations and station count; an absent
    station's bits stay zero.

    The contract with the event backend is distributional, like the
    train kernel's: the per-repetition throughput samples of every
    flow match under the repo's KS thresholds.

    ``seeds`` overrides the internal per-repetition seed derivation
    with explicit values (one per repetition), as in
    :func:`simulate_probe_train_batch` — the chunked execution hook.
    """
    if repetitions < 1:
        raise ValueError(f"repetitions must be >= 1, got {repetitions}")
    rates = np.asarray(probe_rate_bps, dtype=float)
    if rates.ndim == 0:
        rates = np.full(repetitions, float(rates))
    elif rates.shape != (repetitions,):
        raise ValueError(f"got {rates.size} probe rates for "
                         f"{repetitions} repetitions")
    check_steady_state(rates, duration, warmup)

    slots, cross_sizes, row_stations = _cross_slots(cross, repetitions)
    if fifo_cross is not None and fifo_cross.size_bytes != size_bytes:
        raise ValueError(
            fifo_size_mismatch_detail(size_bytes, fifo_cross.size_bytes))

    reps = repetitions
    if seeds is None:
        # Same derivation scheme as repro.runtime.executor.derive_seeds.
        seeds = np.random.SeedSequence(seed).generate_state(repetitions)
    elif len(seeds) != repetitions:
        raise ValueError(
            f"got {len(seeds)} seeds for {repetitions} repetitions")
    gens = [np.random.default_rng(int(s)) for s in seeds]

    cross_paths = [_row_paths(specs, gens, np.full(reps, duration))
                   for specs in slots]
    if fifo_cross is not None:
        fifo_times, fifo_counts = fifo_cross.sample_paths(gens, duration)
    blocks = []
    n_probe = 0
    for lo, hi in _runs(rates):
        # The event path's CBR schedule: packets at k * interval,
        # k >= 0, clipped to [0, duration).
        interval = size_bytes * 8 / rates[lo]
        times = np.arange(int(duration / interval) + 1) * interval
        times = times[times < duration]
        n_probe = max(n_probe, len(times))
        fifo = ((None, None) if fifo_cross is None
                else (fifo_times[lo:hi], fifo_counts[lo:hi]))
        blocks.append(_merge_probe_queue(
            np.broadcast_to(times, (hi - lo, len(times))).copy(),
            len(times), *fifo))
    arrivals, tags, counts = zip(*blocks)
    probe_arr = _pad_concat_rows(arrivals)
    probe_seq = _pad_concat_rows(tags, fill=-1)
    probe_counts = np.concatenate(counts)
    arr, n_arr = _arrival_cube(probe_arr, probe_counts, cross_paths)
    del cross_paths, probe_arr, arrivals, blocks

    _, _, bits, queues = _resolve_batch(
        arr, n_arr, probe_seq, n_probe, gens=gens, size_bytes=size_bytes,
        cross_sizes=cross_sizes, row_stations=row_stations, phy=phy,
        immediate_access=immediate_access, rts_threshold=rts_threshold,
        retry_limit=retry_limit, stop_time=duration,
        window=(warmup, duration), track_queues=track_queues)
    probe_bits, fifo_bits, cross_bits = bits
    return SteadyBatchResult(
        probe_bits=probe_bits,
        fifo_bits=fifo_bits,
        cross_bits=cross_bits,
        warmup=warmup,
        duration=duration,
        size_bytes=size_bytes,
        queue_traces=queues,
    )
