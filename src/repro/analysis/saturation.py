"""Saturated-BSS study — the dual-backend experiment.

``ext-saturation`` sweeps the number of saturated stations and
compares the measured total throughput, mean access delay and
collision fraction against Bianchi's model.  It is the first
experiment registered with *two* repetition backends:

* ``event`` — every repetition runs the saturated station specs
  through the event engine (:class:`repro.mac.scenario.WlanScenario`),
  sharded across worker processes like every other experiment;
* ``vector`` — the whole repetition batch is resolved in one
  numpy pass by :func:`repro.sim.vector.simulate_saturated_batch`.

Both paths return the same :class:`repro.sim.vector.VectorBatchResult`
(the event path as one-row batches the event backend concatenates),
so the analysis below is backend-agnostic; the KS-equivalence
tests in ``tests/test_vector_backend.py`` pin the two backends to the
same distributions.
"""

from __future__ import annotations

import functools
from typing import Optional, Sequence

import numpy as np

from repro.analysis.results import ExperimentResult, monotone_nondecreasing
from repro.analytic.bianchi import BianchiModel
from repro.mac.params import PhyParams
from repro.mac.scenario import WlanScenario, saturated_station_specs
from repro.sim.delay_model import retry_drop_probability
from repro.sim.vector import VectorBatchResult, simulate_saturated_batch


def _event_repetition(n_stations: int, packets_per_station: int,
                      size_bytes: int, phy: Optional[PhyParams],
                      rts_threshold: Optional[int],
                      retry_limit: Optional[int],
                      seed: int, point: int) -> VectorBatchResult:
    """One saturated repetition through the event engine, as a
    one-row batch (every row measures the one point).

    Delays come back NaN-padded per station so retry-limited runs —
    where a dropped packet has no access delay — keep the batch shape.
    """
    scenario = WlanScenario(phy, rts_threshold=rts_threshold,
                            retry_limit=retry_limit)
    specs = saturated_station_specs(n_stations, packets_per_station,
                                    size_bytes)
    result = scenario.run(specs, horizon=1.0, seed=seed)
    delays = np.full((n_stations, packets_per_station), np.nan)
    drops = np.zeros(n_stations, dtype=np.int64)
    for k, spec in enumerate(specs):
        records = result.station(spec.name).records
        for j, record in enumerate(records):
            if record.dropped:
                drops[k] += 1
            elif record.access_delay is not None:
                delays[k, j] = record.access_delay
    return VectorBatchResult(
        access_delays=delays[None],
        durations=np.array([result.duration], dtype=float),
        successes=np.array([result.successes], dtype=np.int64),
        collisions=np.array([result.collisions], dtype=np.int64),
        n_stations=n_stations,
        packets_per_station=packets_per_station,
        size_bytes=size_bytes,
        drops=drops[None] if retry_limit is not None else None,
    )


def simulate_saturated(n_stations: int, packets_per_station: int,
                       repetitions: int, *,
                       size_bytes: int = 1500,
                       phy: Optional[PhyParams] = None,
                       seed: int = 0,
                       rts_threshold: Optional[int] = None,
                       retry_limit: Optional[int] = None,
                       backend: str = "event") -> VectorBatchResult:
    """Run a saturated batch on the selected backend.

    The event path maps per-repetition seeds over worker processes
    (honouring the ambient ``--jobs`` scope); the vector path hands
    the whole batch to the numpy kernel.  Either way the returned
    :class:`~repro.sim.vector.VectorBatchResult` has identical shape
    and statistically equivalent content.  ``rts_threshold`` protects
    frames with the RTS/CTS handshake and ``retry_limit`` caps
    per-packet transmission attempts on both backends (both are
    declared in the dispatch spec, so the capability match reflects
    them).
    """
    # Imported lazily: repro.runtime sits above the analysis layer.
    from repro.backends import BatchRequest, ScenarioSpec
    from repro.runtime.executor import run_batch
    spec = ScenarioSpec(system="wlan", workload="saturated",
                        rts_cts=rts_threshold is not None,
                        retry_limit=retry_limit is not None)
    event_task = functools.partial(_event_repetition, n_stations,
                                   packets_per_station, size_bytes, phy,
                                   rts_threshold, retry_limit)

    def batch_task(seeds, points) -> VectorBatchResult:
        """The kernel over one (possibly chunked) row slice."""
        return simulate_saturated_batch(
            n_stations, packets_per_station, len(seeds),
            size_bytes=size_bytes, phy=phy, seeds=seeds,
            rts_threshold=rts_threshold, retry_limit=retry_limit)

    return run_batch(BatchRequest.scan([seed], repetitions,
                                       event_task=event_task,
                                       batch_task=batch_task, spec=spec),
                     backend=backend)


def retry_limit_study(
        retry_limits: Sequence[int] = (0, 1, 2, 4, 6),
        n_stations: int = 5,
        packets_per_station: int = 40,
        repetitions: int = 100,
        size_bytes: int = 1500,
        phy: Optional[PhyParams] = None,
        seed: int = 0,
        backend: str = "event") -> ExperimentResult:
    """Retry-capped saturated DCF: drop rates vs. the geometric model.

    A packet is abandoned once its attempt count exceeds the retry
    limit ``m``; with per-attempt collision probability ``p`` the drop
    probability is ``p^(m+1)``
    (:func:`repro.sim.delay_model.retry_drop_probability`).  The
    measured drop rate must track that geometric prediction with
    Bianchi's fixed-point ``p`` — the tolerance widens at small ``m``,
    where the cap resets stations to CW0 and makes them more
    aggressive than Bianchi's uncapped chain assumes.  Dropping
    hopeless packets early truncates the longest access delays, so the
    mean access delay of *delivered* packets grows back toward the
    uncapped value as the limit rises.
    """
    limits = [int(m) for m in retry_limits]
    if any(m < 0 for m in limits):
        raise ValueError(f"retry limits must be >= 0, got {limits}")
    bianchi = BianchiModel(phy, size_bytes)
    p_collision = bianchi.solve(n_stations).collision_probability
    drop_rate = np.zeros(len(limits))
    predicted = np.zeros(len(limits))
    throughput = np.zeros(len(limits))
    delay = np.zeros(len(limits))
    for k, m in enumerate(limits):
        batch = simulate_saturated(
            n_stations, packets_per_station, repetitions,
            size_bytes=size_bytes, phy=phy, seed=seed + 131 * k,
            retry_limit=m, backend=backend)
        drop_rate[k] = batch.drop_rate().mean()
        predicted[k] = retry_drop_probability(p_collision, m)
        throughput[k] = batch.throughput_bps().mean()
        delay[k] = batch.pooled_access_delays().mean()
    uncapped = simulate_saturated(
        n_stations, packets_per_station, repetitions,
        size_bytes=size_bytes, phy=phy, seed=seed + 977,
        backend=backend)
    uncapped_tput = uncapped.throughput_bps().mean()
    result = ExperimentResult(
        experiment="ext-retry-limit",
        title="Retry-capped saturated DCF vs. the geometric drop model",
        x_label="retry_limit",
        x=np.array(limits, dtype=float),
        series={
            "drop_rate": drop_rate,
            "predicted_drop_rate": predicted,
            "throughput_bps": throughput,
            "mean_access_delay_s": delay,
        },
        meta={
            "backend": backend,
            "n_stations": n_stations,
            "repetitions": repetitions,
            "packets_per_station": packets_per_station,
            "size_bytes": size_bytes,
            "collision_probability": float(p_collision),
            "uncapped_throughput_bps": float(uncapped_tput),
        },
    )
    result.add_check(
        "drops-shrink-with-limit",
        monotone_nondecreasing(drop_rate[::-1], slack=0.005))
    result.add_check(
        "drops-track-geometric-model",
        bool(np.all((drop_rate <= 1.7 * predicted + 0.01)
                    & (drop_rate >= 0.4 * predicted - 0.01))))
    result.add_check(
        "delay-recovers-with-limit",
        monotone_nondecreasing(delay, slack=0.05 * delay.max()))
    result.add_check(
        "throughput-near-uncapped",
        bool(np.all(np.abs(throughput - uncapped_tput)
                    <= 0.06 * uncapped_tput)))
    return result


def dcf_saturation_study(
        station_counts: Sequence[int] = (1, 2, 3, 5, 10),
        packets_per_station: int = 40,
        repetitions: int = 100,
        size_bytes: int = 1500,
        phy: Optional[PhyParams] = None,
        seed: int = 0,
        backend: str = "event") -> ExperimentResult:
    """Saturation throughput/delay/collisions vs. Bianchi, any backend.

    For each station count the whole batch of repetitions runs on the
    selected backend; the measured curves must track the Bianchi fixed
    point (the drain tail — stations leaving contention as their
    queues empty — biases the mean access delay slightly low, which
    the tolerance absorbs).
    """
    counts = [int(n) for n in station_counts]
    if any(n < 1 for n in counts):
        raise ValueError(f"station counts must be >= 1, got {counts}")
    bianchi = BianchiModel(phy, size_bytes)
    throughput = np.zeros(len(counts))
    delay = np.zeros(len(counts))
    collision_fraction = np.zeros(len(counts))
    bianchi_tput = np.zeros(len(counts))
    bianchi_delay = np.zeros(len(counts))
    for k, n in enumerate(counts):
        batch = simulate_saturated(
            n, packets_per_station, repetitions, size_bytes=size_bytes,
            phy=phy, seed=seed + 101 * k, backend=backend)
        throughput[k] = batch.throughput_bps().mean()
        delay[k] = batch.pooled_access_delays().mean()
        acquisitions = batch.successes.sum() + batch.collisions.sum()
        collision_fraction[k] = batch.collisions.sum() / acquisitions
        solution = bianchi.solve(n)
        bianchi_tput[k] = solution.total_throughput_bps
        bianchi_delay[k] = solution.mean_access_delay
    result = ExperimentResult(
        experiment="ext-saturation",
        title="Saturated DCF vs. Bianchi (backend-routed batch)",
        x_label="n_stations",
        x=np.array(counts, dtype=float),
        series={
            "throughput_bps": throughput,
            "bianchi_bps": bianchi_tput,
            "mean_access_delay_s": delay,
            "collision_fraction": collision_fraction,
        },
        meta={
            "backend": backend,
            "repetitions": repetitions,
            "packets_per_station": packets_per_station,
            "size_bytes": size_bytes,
        },
    )
    result.add_check(
        "throughput-tracks-bianchi",
        bool(np.all(np.abs(throughput - bianchi_tput) <= 0.08 * bianchi_tput)))
    result.add_check(
        "delay-tracks-bianchi",
        bool(np.all(np.abs(delay - bianchi_delay) <= 0.25 * bianchi_delay)))
    result.add_check(
        "delay-grows-with-contention",
        monotone_nondecreasing(delay))
    result.add_check(
        "collisions-grow-with-contention",
        monotone_nondecreasing(collision_fraction, slack=0.01))
    return result
