"""Vectorized batched DCF kernel.

The event engine (:mod:`repro.sim.engine` + :mod:`repro.mac.medium`)
pays Python-level heap cost for every arrival, access resolution and
completion; a Monte Carlo sweep over hundreds of repetitions multiplies
that cost by the repetition count.  For *saturated* contention
scenarios — every station permanently backlogged, the Bianchi regime —
the whole protocol collapses to a sequence of identical contention
rounds, and those rounds can be resolved for **all repetitions at
once** with numpy array arithmetic.

The state of a batch is a handful of ``(repetitions, stations)``
arrays: remaining backoff slots, contention-window stage, packets sent
and head-of-line promotion instants, plus a per-repetition clock.  One
loop iteration resolves one contention round *per repetition*:

1. the minimum remaining counter per repetition fixes the slot at
   which the next transmission starts;
2. stations at that minimum win; exactly one winner is a success,
   several are a collision (CW doubling, redraw), matching the
   event engine's tie semantics on the shared slot grid;
3. losers consume the elapsed slots and keep their counters — the
   frozen-countdown rule;
4. the busy period (DATA + SIFS + ACK, identical for equal-size
   successes and collisions) advances the clock, and the next round
   counts down after DIFS.

Time arithmetic comes from :class:`repro.mac.timing.SlotTiming`, the
same constants the event backend uses, so the two backends agree on
every duration and only differ in how they schedule the arithmetic.
The access-delay bookkeeping mirrors the event engine exactly: a
packet's delay runs from its head-of-line promotion (the end of the
previous DATA frame) to the end of its own DATA frame.

Randomness is reproducible run-to-run: per-repetition seeds are derived
with the exact scheme of :func:`repro.runtime.executor.derive_seeds`
(``SeedSequence(seed).generate_state(repetitions)``), and repetition
``r`` consumes a private uniform stream whose layout depends only on
its own trajectory — never on how many other repetitions share the
batch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.mac.params import PhyParams
from repro.mac.timing import SlotTiming, cw_table
from repro.sim import jit as _jit

#: Sentinel counter for stations that drained their queue and left
#: contention; any real counter is smaller.
_DONE = np.iinfo(np.int64).max

#: Uniform draws buffered per repetition between refills (in rounds).
_BUFFER_ROUNDS = 256


@dataclass
class VectorBatchResult:
    """Outcome of a batched saturated-DCF simulation.

    Both backends return this shape — the vector kernel for a whole
    batch, the event engine wrapper in :mod:`repro.analysis.saturation`
    as one-row batches the event backend concatenates — so everything
    downstream is backend-agnostic.

    Attributes
    ----------
    access_delays:
        ``(repetitions, stations, packets)`` — per-packet access delay
        ``mu_i`` (head-of-line to end of DATA), in transmission order
        per station.  Packets dropped by a retry limit stay ``NaN``.
    durations:
        ``(repetitions,)`` — instant the channel finally went idle.
    successes / collisions:
        ``(repetitions,)`` — channel acquisitions of each kind.
    drops:
        ``(repetitions, stations)`` — packets abandoned at the retry
        limit (``None`` when no limit was configured).

    Conforms to :class:`repro.core.batch.RepetitionBatch`: one
    repetition per leading-axis row, ``concat`` folds row-wise
    (chunked and event execution concatenate these).
    """

    access_delays: np.ndarray
    durations: np.ndarray
    successes: np.ndarray
    collisions: np.ndarray
    n_stations: int
    packets_per_station: int
    size_bytes: int
    drops: Optional[np.ndarray] = None

    @property
    def repetitions(self) -> int:
        """Number of repetitions (leading-axis rows)."""
        return self.access_delays.shape[0]

    @classmethod
    def concat(cls, parts: Sequence["VectorBatchResult"]
               ) -> "VectorBatchResult":
        """Fold row-compatible batches into one, preserving row order."""
        if not parts:
            raise ValueError("concat needs at least one part")
        if len({(part.n_stations, part.packets_per_station,
                 part.size_bytes) for part in parts}) != 1:
            raise ValueError("cannot concat batches with different "
                             "station counts, queue depths or packet "
                             "sizes")
        with_drops = [part.drops is not None for part in parts]
        if any(with_drops) and not all(with_drops):
            raise ValueError("cannot concat batches with and without "
                             "retry-limit drop counters")
        return cls(
            access_delays=np.concatenate(
                [p.access_delays for p in parts]),
            durations=np.concatenate([p.durations for p in parts]),
            successes=np.concatenate([p.successes for p in parts]),
            collisions=np.concatenate([p.collisions for p in parts]),
            n_stations=parts[0].n_stations,
            packets_per_station=parts[0].packets_per_station,
            size_bytes=parts[0].size_bytes,
            drops=np.concatenate([p.drops for p in parts])
            if all(with_drops) else None,
        )

    def pooled_access_delays(self) -> np.ndarray:
        """Every completed access delay of the batch as one flat sample."""
        flat = self.access_delays.reshape(-1)
        return flat[~np.isnan(flat)]

    def drop_rate(self) -> np.ndarray:
        """Per-repetition fraction of offered packets dropped."""
        offered = self.n_stations * self.packets_per_station
        if self.drops is None:
            return np.zeros(len(self.durations))
        return self.drops.sum(axis=1) / offered

    def throughput_bps(self) -> np.ndarray:
        """Per-repetition network-layer throughput over the full run."""
        bits = self.successes * self.size_bytes * 8
        return bits / self.durations


class _UniformBlocks:
    """Per-repetition uniform streams, consumed in vectorized blocks.

    Each repetition owns a private :class:`numpy.random.Generator`; the
    kernel asks for ``(repetitions, width)`` draws per round.  Draws
    are pre-generated ``_BUFFER_ROUNDS`` rounds at a time into a
    ``(repetitions, rounds, width)`` buffer, so the per-round cost is
    one slice.  A row of ``k <= width`` stations (``widths``; default
    every row ``width``) fills ``[:, :k]`` from ``gen.random(k *
    rounds)``: round ``i`` holds its stream's draws ``i * k`` to
    ``i * k + k - 1``, exactly what a batch of width ``k`` hands it,
    so repetition ``r``'s stream layout is independent of every other
    repetition.
    """

    def __init__(self, seeds: np.ndarray, width: int,
                 gens: Optional[Sequence[np.random.Generator]] = None,
                 widths: Optional[np.ndarray] = None) -> None:
        # ``gens`` continues already-consumed per-repetition streams
        # (the probe kernel draws its sample paths first, like the
        # event engine); ``seeds`` starts fresh ones.
        self._gens: List[np.random.Generator] = (
            list(gens) if gens is not None
            else [np.random.default_rng(int(seed)) for seed in seeds])
        self._widths = (np.full(len(self._gens), width) if widths is None
                        else np.asarray(widths))
        self._buf = np.zeros((len(self._gens), _BUFFER_ROUNDS, width))
        self._ptr = _BUFFER_ROUNDS  # force a fill on first take()

    def take(self) -> np.ndarray:
        """The next ``(repetitions, width)`` uniforms in [0, 1)."""
        if self._ptr == _BUFFER_ROUNDS:
            for row, (gen, k) in enumerate(zip(self._gens, self._widths)):
                self._buf[row, :, :k] = gen.random(
                    k * _BUFFER_ROUNDS).reshape(_BUFFER_ROUNDS, k)
            self._ptr = 0
        out = self._buf[:, self._ptr]
        self._ptr += 1
        return out

    def keep(self, rows: np.ndarray) -> None:
        """Drop every repetition but ``rows`` (ascending); each kept one
        goes on reading its own stream where it stood."""
        self._gens = [self._gens[row] for row in rows]
        self._widths = self._widths[rows]
        # Moved down in place (row ``k`` never sits above ``rows[k]``),
        # so dropping rows allocates no second buffer.
        for k, row in enumerate(rows):
            self._buf[k] = self._buf[row]
        self._buf = self._buf[:len(rows)]


def simulate_saturated_batch(
        n_stations: int,
        packets_per_station: int,
        repetitions: int,
        *,
        size_bytes: int = 1500,
        phy: Optional[PhyParams] = None,
        seed: int = 0,
        seeds: Optional[np.ndarray] = None,
        immediate_access: bool = True,
        rts_threshold: Optional[int] = None,
        retry_limit: Optional[int] = None) -> VectorBatchResult:
    """Simulate ``repetitions`` independent saturated BSS runs at once.

    Every station starts with ``packets_per_station`` packets queued at
    time zero and contends until its queue drains; with
    ``immediate_access`` (the 802.11 rule the event engine applies) the
    first round is a simultaneous zero-backoff transmission, i.e. an
    ``n_stations``-way collision for any ``n_stations >= 2``.
    ``rts_threshold`` protects frames of at least that many bytes with
    the RTS/CTS handshake: successes pay the RTS+SIFS+CTS+SIFS
    preamble, collisions only occupy the medium for the RTS plus the
    timeout (:class:`repro.mac.timing.SlotTiming` carries the split).
    ``retry_limit`` caps per-packet transmission attempts exactly like
    the event medium's retry counter: a packet whose attempt count
    exceeds the limit is abandoned at the end of the collision's busy
    period (its delay slot stays ``NaN``), the next queued packet is
    promoted at that instant, and the station re-enters contention at
    backoff stage 0 with a fresh CW0 draw.

    Statistically equivalent to running
    :func:`repro.mac.scenario.saturated_station_specs` through the
    event engine — the equivalence tests in
    ``tests/test_vector_backend.py`` enforce it with KS distances.

    ``seeds`` overrides the internal per-repetition seed derivation
    with explicit values (one per repetition).  Chunked execution
    passes contiguous slices of the dense derivation here, which is
    what makes a chunk's rows bit-identical to the dense run's.
    """
    if n_stations < 1:
        raise ValueError(f"need at least one station, got {n_stations}")
    if packets_per_station < 1:
        raise ValueError(
            f"need at least one packet per station, got {packets_per_station}")
    if repetitions < 1:
        raise ValueError(f"repetitions must be >= 1, got {repetitions}")
    if retry_limit is not None and retry_limit < 0:
        raise ValueError(f"retry limit must be >= 0, got {retry_limit}")

    phy = phy if phy is not None else PhyParams.dot11b()
    protected = rts_threshold is not None and size_bytes >= rts_threshold
    timing = SlotTiming.for_size(phy, size_bytes, rts=protected)
    cw_by_stage = cw_table(phy)
    max_stage = phy.max_backoff_stage

    reps, stations, packets = repetitions, n_stations, packets_per_station
    if seeds is None:
        # Same derivation scheme as repro.runtime.executor.derive_seeds
        # (not imported: repro.runtime sits above the simulation layer).
        seeds = np.random.SeedSequence(seed).generate_state(repetitions)
    elif len(seeds) != repetitions:
        raise ValueError(
            f"got {len(seeds)} seeds for {repetitions} repetitions")
    if _jit.active_tier() == "jit":
        return _saturated_jit_batch(
            seeds, stations, packets, size_bytes, timing, cw_by_stage,
            max_stage, immediate_access, retry_limit)
    uniforms = _UniformBlocks(seeds, stations)

    remaining = np.zeros((reps, stations), dtype=np.int64)
    stage = np.zeros((reps, stations), dtype=np.int64)
    attempts = np.zeros((reps, stations), dtype=np.int64)
    sent = np.zeros((reps, stations), dtype=np.int64)
    hol = np.zeros((reps, stations))
    now = np.zeros(reps)
    successes = np.zeros(reps, dtype=np.int64)
    collisions = np.zeros(reps, dtype=np.int64)
    drops = np.zeros((reps, stations), dtype=np.int64)
    delays = np.full((reps, stations, packets), np.nan)

    if not immediate_access:
        # No immediate-access rule: every station starts with a drawn
        # counter, counting from t=0 (the medium has been idle since
        # forever, so no initial DIFS either way).
        remaining[:] = (uniforms.take() * (cw_by_stage[0] + 1)).astype(np.int64)

    # Generous runaway guard: every round retires a success or doubles
    # at least one CW; collisions settle within a few rounds per packet.
    max_rounds = 200 + 50 * stations * packets
    first_round = True
    for _ in range(max_rounds):
        alive = sent < packets
        active = alive.any(axis=1)
        if not active.any():
            break
        masked = np.where(alive, remaining, _DONE)
        m = masked.min(axis=1)                      # slots until next tx
        winners = alive & (masked == m[:, None])
        n_win = winners.sum(axis=1)
        u = uniforms.take()

        slots = np.where(active, m, 0).astype(float)
        wait = slots * timing.slot + (0.0 if first_round else timing.difs)
        tx_start = now + wait
        data_end = tx_start + timing.rts_preamble + timing.data_airtime

        success = active & (n_win == 1)
        collision = active & (n_win >= 2)
        # A success occupies the medium for the full exchange, a
        # collision only for the contention frames plus the timeout —
        # identical durations under basic access, split under RTS/CTS.
        busy_end = np.where(collision,
                            tx_start + timing.collision_busy,
                            tx_start + timing.success_busy)

        solo = winners & success[:, None]
        rep_idx, sta_idx = np.nonzero(solo)
        pkt_idx = sent[rep_idx, sta_idx]
        delays[rep_idx, sta_idx, pkt_idx] = (data_end[rep_idx]
                                             - hol[rep_idx, sta_idx])
        # The next packet is promoted when the DATA frame completes.
        hol[rep_idx, sta_idx] = data_end[rep_idx]
        sent[rep_idx, sta_idx] += 1
        stage[solo] = 0
        attempts[solo] = 0

        colliders = winners & collision[:, None]
        attempts[colliders] += 1
        if retry_limit is None:
            stage[colliders] = np.minimum(stage[colliders] + 1, max_stage)
        else:
            dropping = colliders & (attempts > retry_limit)
            surviving = colliders & ~dropping
            stage[surviving] = np.minimum(stage[surviving] + 1, max_stage)
            # A dropped packet is abandoned at the end of the busy
            # period: the next one is promoted there and the station
            # re-enters contention at stage 0 (its delay stays NaN).
            rep_d, sta_d = np.nonzero(dropping)
            hol[rep_d, sta_d] = busy_end[rep_d]
            sent[rep_d, sta_d] += 1
            drops[rep_d, sta_d] += 1
            stage[dropping] = 0
            attempts[dropping] = 0

        # Frozen countdown: losers consumed exactly m idle slots.
        losers = alive & ~winners
        remaining[losers] -= np.broadcast_to(m[:, None], losers.shape)[losers]

        redraw = (u * (cw_by_stage[stage] + 1)).astype(np.int64)
        remaining[winners] = redraw[winners]

        successes += success
        collisions += collision
        now = np.where(active, busy_end, now)
        first_round = False
    else:  # pragma: no cover - defensive
        raise RuntimeError(
            f"saturated batch did not drain within {max_rounds} rounds")

    return VectorBatchResult(
        access_delays=delays,
        durations=now,
        successes=successes,
        collisions=collisions,
        n_stations=stations,
        packets_per_station=packets,
        size_bytes=size_bytes,
        drops=drops if retry_limit is not None else None,
    )


def _saturated_jit_batch(seeds: np.ndarray, stations: int, packets: int,
                         size_bytes: int, timing: SlotTiming,
                         cw_by_stage: np.ndarray, max_stage: int,
                         immediate_access: bool,
                         retry_limit: Optional[int]) -> VectorBatchResult:
    """Resolve the batch one repetition at a time on the jit tier.

    Repetition ``r`` pre-draws its uniform stream as one
    ``(rows, stations)`` buffer; because ``Generator.random`` is
    prefix-consistent across call boundaries, row ``k`` equals the
    block-buffered draw the numpy kernel hands that repetition at round
    ``k`` — so the compiled core's results are bit-identical.  When a
    trajectory outlives the buffer estimate, the generator state is
    rewound and the repetition replayed with a doubled buffer, which
    keeps the replay deterministic.
    """
    reps = len(seeds)
    delays = np.full((reps, stations, packets), np.nan)
    drops = np.zeros((reps, stations), dtype=np.int64)
    durations = np.zeros(reps)
    successes = np.zeros(reps, dtype=np.int64)
    collisions = np.zeros(reps, dtype=np.int64)
    cw = np.ascontiguousarray(cw_by_stage, dtype=np.int64)
    limit = -1 if retry_limit is None else int(retry_limit)
    max_rounds = 200 + 50 * stations * packets
    cap = max_rounds + 1  # initial-counter row + one row per round
    for r in range(reps):
        gen = np.random.default_rng(int(seeds[r]))
        state = gen.bit_generator.state
        est = min(cap, 64 + 8 * stations * packets)
        while True:
            buf = gen.random(est * stations).reshape(est, stations)
            now, suc, col, status = _jit._saturated_rep_core(
                buf, packets, timing.slot, timing.difs,
                timing.rts_preamble, timing.data_airtime,
                timing.success_busy, timing.collision_busy, cw,
                max_stage, immediate_access, limit, max_rounds,
                delays[r], drops[r])
            if status != _jit.NEED_DRAWS or est >= cap:
                break
            delays[r].fill(np.nan)
            drops[r].fill(0)
            gen.bit_generator.state = state
            est = min(cap, est * 2)
        if status != _jit.OK:  # pragma: no cover - defensive
            raise RuntimeError(
                f"saturated batch did not drain within {max_rounds} rounds")
        durations[r] = now
        successes[r] = suc
        collisions[r] = col
    return VectorBatchResult(
        access_delays=delays,
        durations=durations,
        successes=successes,
        collisions=collisions,
        n_stations=stations,
        packets_per_station=packets,
        size_bytes=size_bytes,
        drops=drops if retry_limit is not None else None,
    )
