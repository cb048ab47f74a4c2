"""Batched access-delay sampling from the Bianchi/backoff model.

A full simulation (event engine or the vectorized kernels) resolves
every contention round of a sample path.  Sometimes only the *shape*
of the access-delay distribution is needed — priors for tests, quick
what-if sweeps, seeding a transient study before committing to a
simulation — and for that the Bianchi decoupling assumption gives a
directly sampleable model: a tagged station at backoff stage ``k``
draws its counter uniformly from ``[0, CW_k]``; while it counts down,
each slot is occupied by another station's transmission with the
fixed-point probability ``p``, freezing the countdown for one busy
period; the attempt itself collides with probability ``p``, doubling
the window, and succeeds otherwise.

:func:`sample_access_delays` draws whole ``(repetitions, packets)``
matrices of such delays in vectorized passes (one array operation per
backoff stage, not per packet), and
:func:`sample_transient_delay_matrix` adds the paper's transient
ingredient: the *first* packet of a probing train finds the medium
idle with the model's idle-slot probability and then transmits
immediately — the 802.11 immediate-access rule — which reproduces the
accelerated first-packet distribution of figures 6 and 7
qualitatively.

These samplers are deliberately coarse — renewal-model draws, not a
protocol simulation; anything quantitative should use the kernels in
:mod:`repro.sim.vector` / :mod:`repro.sim.probe_vector`, whose
distributions are pinned to the event engine by KS tests.  The one
calibration the samplers do promise (and the tests enforce) is that
the sampled mean tracks :class:`repro.analytic.bianchi.BianchiModel`'s
``mean_access_delay`` within a modest tolerance.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from repro.analytic.bianchi import BianchiModel, BianchiSolution
from repro.mac.frames import AirtimeModel
from repro.mac.params import PhyParams
from repro.mac.timing import cw_table

#: Attempt-loop guard: (2p)^k vanishes long before this many retries.
_MAX_ATTEMPTS = 64


def cbr_arrival_paths(gens: Sequence[np.random.Generator],
                      packets_per_second: float,
                      horizon: float,
                      jitter: float = 0.0) -> Tuple[np.ndarray, np.ndarray]:
    """Batched CBR arrival sample paths over ``[0, horizon)``.

    The batched counterpart of
    :meth:`repro.traffic.generators.CBRGenerator.generate`:
    deterministic inter-arrivals at ``1 / packets_per_second`` plus an
    optional per-packet phase-jitter stream of up to ``jitter`` seconds
    (drawn from each repetition's private generator — the same
    ``derive_seeds`` scheme every kernel stream uses — then re-sorted,
    exactly the event generator's rule).  Returns ``(times, counts)``
    where ``times`` is ``(repetitions, width)`` padded with ``inf``
    past each repetition's count, the shape
    :func:`repro.sim.probe_vector.simulate_probe_train_batch` replays
    as cross-traffic.
    """
    if jitter < 0:
        raise ValueError(f"jitter must be non-negative, got {jitter}")
    reps = len(gens)
    if packets_per_second <= 0 or horizon <= 0:
        return np.full((reps, 1), np.inf), np.zeros(reps, dtype=np.int64)
    interval = 1.0 / packets_per_second
    count = int(horizon / interval) + 1
    base = np.arange(count) * interval
    if jitter == 0:
        times = base[base < horizon]
        width = max(1, len(times))
        out = np.full((reps, width), np.inf)
        out[:, :len(times)] = times
        return out, np.full(reps, len(times), dtype=np.int64)
    rows = []
    counts = np.zeros(reps, dtype=np.int64)
    for r, gen in enumerate(gens):
        jittered = np.sort(base + gen.uniform(0, jitter, size=count))
        jittered = jittered[jittered < horizon]
        rows.append(jittered)
        counts[r] = len(jittered)
    width = max(1, int(counts.max()))
    out = np.full((reps, width), np.inf)
    for r, row in enumerate(rows):
        out[r, :len(row)] = row
    return out, counts


def onoff_arrival_paths(gens: Sequence[np.random.Generator],
                        peak_packets_per_second: float,
                        mean_on: float,
                        mean_off: float,
                        horizon: float) -> Tuple[np.ndarray, np.ndarray]:
    """Batched two-state on-off arrival sample paths over ``[0, horizon)``.

    The batched counterpart of
    :meth:`repro.traffic.generators.OnOffGenerator.generate`: CBR
    emission at the peak rate during exponential ON periods, silence
    during exponential OFF periods, the initial state drawn from the
    stationary duty cycle.  Each repetition's path comes from its own
    private generator (the ``derive_seeds`` scheme of every kernel
    stream).  Returns the same inf-padded ``(times, counts)`` pair as
    :func:`cbr_arrival_paths`, ready for
    :func:`repro.sim.probe_vector.simulate_probe_train_batch` to replay
    as cross-traffic.
    """
    if peak_packets_per_second <= 0:
        raise ValueError(
            f"peak rate must be positive, got {peak_packets_per_second}")
    if mean_on <= 0 or mean_off < 0:
        raise ValueError("mean_on must be > 0 and mean_off >= 0")
    reps = len(gens)
    if horizon <= 0:
        return np.full((reps, 1), np.inf), np.zeros(reps, dtype=np.int64)
    interval = 1.0 / peak_packets_per_second
    duty = mean_on / (mean_on + mean_off)
    rows = []
    counts = np.zeros(reps, dtype=np.int64)
    for r, gen in enumerate(gens):
        pieces = []
        t = 0.0
        on = bool(gen.random() < duty)
        while t < horizon:
            if on:
                period = float(gen.exponential(mean_on))
                burst = t + np.arange(int(period / interval)) * interval
                pieces.append(burst[burst < horizon])
                t += period
            else:
                t += float(gen.exponential(mean_off))
            on = not on
        row = np.concatenate(pieces) if pieces else np.empty(0)
        rows.append(row)
        counts[r] = len(row)
    width = max(1, int(counts.max()))
    out = np.full((reps, width), np.inf)
    for r, row in enumerate(rows):
        out[r, :len(row)] = row
    return out, counts


def retry_drop_probability(collision_probability: float,
                           retry_limit: int) -> float:
    """Drop probability of a retry-capped packet under decoupling.

    A packet is abandoned after ``retry_limit + 1`` consecutive
    collisions, each occurring with the fixed-point probability ``p``
    independently (the Bianchi decoupling assumption), so the drop
    probability is ``p ** (retry_limit + 1)``.
    """
    if not 0 <= collision_probability <= 1:
        raise ValueError(
            f"p must be in [0, 1], got {collision_probability}")
    if retry_limit < 0:
        raise ValueError(f"retry limit must be >= 0, got {retry_limit}")
    return float(collision_probability ** (retry_limit + 1))


def _slot_durations(phy: PhyParams, size_bytes: int,
                    solution: BianchiSolution) -> Tuple[float, float, float]:
    """(busy-slot duration, success duration, collision duration).

    The tagged station's countdown freezes for the channel-occupancy
    mix the fixed point predicts: among the other stations'
    transmissions, a fraction succeeds and the rest collide; both last
    frame + SIFS + ACK (timeout) + DIFS on equal-size frames.
    """
    airtime = AirtimeModel(phy)
    t_success = airtime.success_duration(size_bytes) + phy.difs
    t_collision = (airtime.collision_duration([size_bytes, size_bytes])
                   + phy.difs)
    n = solution.n_stations
    tau = solution.tau
    if n <= 1:
        return 0.0, t_success, t_collision
    p_any = 1 - (1 - tau) ** (n - 1)
    p_one = (n - 1) * tau * (1 - tau) ** (n - 2) / p_any if p_any > 0 else 1.0
    busy = p_one * t_success + (1 - p_one) * t_collision
    return busy, t_success, t_collision


def sample_access_delays(n_stations: int,
                         shape: Tuple[int, ...],
                         *,
                         phy: Optional[PhyParams] = None,
                         size_bytes: int = 1500,
                         seed: int = 0) -> np.ndarray:
    """Draw saturated access delays ``mu`` of the given ``shape``.

    Every element is one independent packet delay of a tagged station
    among ``n_stations`` saturated contenders: backoff slots (each
    idle or frozen by another transmission), collision retries with CW
    doubling, and the final DATA airtime.  The draw loops over backoff
    *stages* — a handful of vectorized passes — never over packets.
    """
    if n_stations < 1:
        raise ValueError(f"need at least one station, got {n_stations}")
    phy = phy if phy is not None else PhyParams.dot11b()
    model = BianchiModel(phy, size_bytes)
    solution = model.solve(n_stations)
    p = solution.collision_probability
    busy, _, t_collision = _slot_durations(phy, size_bytes, solution)
    data_air = AirtimeModel(phy).data_airtime(size_bytes)
    cw_by_stage = cw_table(phy)
    max_stage = phy.max_backoff_stage

    rng = np.random.default_rng(seed)
    flat = int(np.prod(shape, dtype=np.int64)) if shape else 1
    delays = np.zeros(flat)
    active = np.ones(flat, dtype=bool)
    for attempt in range(_MAX_ATTEMPTS):
        count = int(active.sum())
        if count == 0:
            break
        cw = int(cw_by_stage[min(attempt, max_stage)])
        counters = rng.integers(0, cw + 1, size=count)
        # Each pending slot freezes with probability p; conditioning on
        # the counter, frozen slots are Binomial(counter, p).  Every
        # attempt starts with the DIFS the countdown waits out.
        frozen = rng.binomial(counters, p)
        delays[active] += (phy.difs + counters * phy.slot_time
                           + frozen * busy)
        collided = rng.random(count) < p
        survivors = np.flatnonzero(active)
        done = survivors[~collided]
        delays[done] += data_air
        delays[survivors[collided]] += t_collision
        active[done] = False
    else:  # pragma: no cover - p < 1 always terminates far earlier
        delays[active] += data_air
    return delays.reshape(shape)


def sample_transient_delay_matrix(n_stations: int,
                                  repetitions: int,
                                  n_packets: int,
                                  *,
                                  utilization: float = 0.5,
                                  phy: Optional[PhyParams] = None,
                                  size_bytes: int = 1500,
                                  seed: int = 0) -> np.ndarray:
    """A model-driven ``(repetitions, packets)`` transient delay matrix.

    Packets 2..n draw from the contended distribution of
    :func:`sample_access_delays` (``n_stations`` counts every
    contender, the probing sender included).  Packet 1 models the
    probing flow's arrival into a system it has not yet loaded: the
    pre-train cross-traffic keeps the medium busy a ``utilization``
    fraction of the time, so with probability ``1 - utilization`` the
    packet meets a >= DIFS-idle medium and transmits immediately
    (delay = one DATA airtime, the 802.11 immediate-access rule);
    otherwise it waits out a residual busy period and then contends
    like any other packet.  The result has the figure-6/7 signature —
    an accelerated, atom-carrying first-packet distribution against a
    heavier steady tail — without running a simulation.
    """
    if repetitions < 1:
        raise ValueError(f"repetitions must be >= 1, got {repetitions}")
    if n_packets < 2:
        raise ValueError(f"a train needs at least 2 packets, got {n_packets}")
    if not 0 <= utilization < 1:
        raise ValueError(
            f"utilization must be in [0, 1), got {utilization}")
    phy = phy if phy is not None else PhyParams.dot11b()
    model = BianchiModel(phy, size_bytes)
    solution = model.solve(max(1, n_stations))
    busy, _, _ = _slot_durations(phy, size_bytes, solution)
    data_air = AirtimeModel(phy).data_airtime(size_bytes)

    matrix = sample_access_delays(
        n_stations, (repetitions, n_packets),
        phy=phy, size_bytes=size_bytes, seed=seed)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 1]))
    immediate = rng.random(repetitions) >= utilization
    residual = rng.uniform(0, busy, size=repetitions) if busy > 0 \
        else np.zeros(repetitions)
    first = np.where(immediate, data_air, residual + matrix[:, 0])
    matrix[:, 0] = first
    return matrix
