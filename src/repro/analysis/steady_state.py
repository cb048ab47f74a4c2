"""Steady-state rate-response experiments (figures 1 and 4).

Both figures probe the link with effectively infinite trains (the paper
uses >10000 packets and evaluates in steady state), so the runners here
drive the probing flow as a long CBR flow and measure throughputs over
a window that skips the warm-up, which is equivalent and cheaper.

A whole rate scan is one batch of rows routed through
:func:`repro.runtime.executor.run_batch` (:func:`steady_state_scan`):
every rate contributes its repetitions as rows, the ``event`` backend
maps one event-engine repetition over the rows (sharded across the
ambient worker pool), the ``vector`` backend hands the rows to one
:func:`repro.sim.probe_vector.simulate_steady_state_batch` call with a
probe rate per row.  Both answer with a
:class:`repro.sim.probe_vector.SteadyBatchResult` of delivered bits,
and the throughputs are read off it point by point.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

import numpy as np

from repro.analysis.results import ExperimentResult
from repro.analytic.bianchi import BianchiModel
from repro.analytic.rate_response import (
    achievable_throughput_complete,
    complete_rate_response,
)
from repro.mac.params import PhyParams
from repro.mac.scenario import StationSpec, WlanScenario
from repro.sim.probe_vector import (
    PoissonCrossSpec,
    SteadyBatchResult,
    check_steady_state,
    simulate_steady_state_batch,
)
from repro.traffic.generators import CBRGenerator, PoissonGenerator


def _probe_cbr(rate_bps: float, size_bytes: int) -> CBRGenerator:
    generator = CBRGenerator(rate_bps, size_bytes, flow="probe")
    return generator


def _flow_throughputs(batch: SteadyBatchResult) -> Dict[str, np.ndarray]:
    """Per-repetition probe, FIFO and contending throughputs."""
    return {"probe": batch.probe_throughput_bps(),
            "fifo": batch.fifo_throughput_bps(),
            "cross": batch.cross_throughput_bps()}


def _event_repetition(probe_rate_bps: float, cross_rate_bps: float,
                      fifo_rate_bps: float, phy: Optional[PhyParams],
                      size_bytes: int, duration: float, warmup: float,
                      seed: int) -> SteadyBatchResult:
    """One steady-state repetition on the event engine, as a one-row
    batch of the bits each flow delivered in ``(warmup, duration]``."""
    # FIFO cross-traffic shares the probe station's transmission queue:
    # the probe flow goes in as explicit arrivals, the FIFO flow as the
    # same station's generator.
    probe_arrivals = list(_probe_cbr(probe_rate_bps, size_bytes)
                          .generate(duration, np.random.default_rng(seed)))
    fifo_generator = (PoissonGenerator(fifo_rate_bps, size_bytes, flow="fifo")
                      if fifo_rate_bps > 0 else None)
    specs = [StationSpec("probe", generator=fifo_generator,
                         arrivals=probe_arrivals)]
    if cross_rate_bps > 0:
        specs.append(StationSpec(
            "cross", generator=PoissonGenerator(cross_rate_bps, size_bytes,
                                                flow="cross")))
    scenario = WlanScenario(phy)
    result = scenario.run(specs, horizon=duration, seed=seed,
                          until=duration)

    def bits(station: str, flow: Optional[str] = None) -> np.ndarray:
        return np.array([result.station(station).delivered_bits(
            warmup, duration, flow)], dtype=float)

    return SteadyBatchResult(
        probe_bits=bits("probe", "probe"), fifo_bits=bits("probe", "fifo"),
        cross_bits=(bits("cross")[None] if cross_rate_bps > 0
                    else np.zeros((1, 0))),
        warmup=warmup, duration=duration, size_bytes=size_bytes)


def steady_state_scan(probe_rates_bps: Sequence[float],
                      cross_rate_bps: float,
                      fifo_rate_bps: float = 0.0,
                      phy: Optional[PhyParams] = None,
                      size_bytes: int = 1500,
                      duration: float = 4.0,
                      warmup: float = 0.5,
                      repetitions: int = 3,
                      seed: int = 0,
                      backend: str = "event") -> Dict[str, np.ndarray]:
    """Per-repetition steady-state throughput samples of a rate scan.

    Returns ``flow -> (points, repetitions)`` arrays for the probe,
    FIFO and contending flows, one row per probe rate.  The whole scan
    is one request: point ``k`` (rate ``probe_rates_bps[k]``) carries
    ``repetitions`` rows seeded from ``seed + k``, exactly the rows a
    one-point scan from that seed carries, so fusing never changes a
    sample.  The event path maps one event-engine repetition over the
    rows (the ambient ``--jobs`` scope splits the whole scan); the
    vector path resolves every row in one call of the probe-train
    kernel's steady-state mode, with a probe rate per row (in
    ``--chunk-reps`` chunks, which may straddle points);
    ``backend="auto"`` lets the dispatcher decide from the scan's own
    scenario spec.  The points share station count, frame size, PHY
    and kernel mode — the conditions for rows to stack.  The backends
    are statistically equivalent —
    ``tests/test_auto_backend_equivalence.py`` pins the per-flow
    throughput distributions with KS tests.

    Rates and the window are checked before dispatch
    (:func:`~repro.sim.probe_vector.check_steady_state`), so every
    backend refuses the same scans.
    """
    # Imported lazily: repro.runtime sits above the analysis layer.
    from repro.backends import BatchRequest, ScenarioSpec
    from repro.runtime.executor import run_batch

    rates = np.asarray(probe_rates_bps, dtype=float)
    check_steady_state(rates, duration, warmup)
    spec = ScenarioSpec(
        system="wlan", workload="steady-cbr",
        cross_traffic="poisson" if cross_rate_bps > 0 else "none",
        fifo_cross="poisson" if fifo_rate_bps > 0 else "none")

    def event_task(rep_seed: int, point: int) -> SteadyBatchResult:
        """One event-engine repetition of point ``point``."""
        return _event_repetition(rates[point], cross_rate_bps,
                                 fifo_rate_bps, phy, size_bytes, duration,
                                 warmup, rep_seed)

    def batch_task(seeds, points) -> SteadyBatchResult:
        """The steady-state kernel over one (possibly chunked) slice."""
        return simulate_steady_state_batch(
            rates[np.asarray(points)], len(seeds), size_bytes=size_bytes,
            cross=[PoissonCrossSpec(cross_rate_bps / (size_bytes * 8),
                                    size_bytes)]
            if cross_rate_bps > 0 else [],
            fifo_cross=PoissonCrossSpec(fifo_rate_bps / (size_bytes * 8),
                                        size_bytes)
            if fifo_rate_bps > 0 else None,
            duration=duration, warmup=warmup, phy=phy, seeds=seeds)

    batch = run_batch(
        BatchRequest.scan([seed + k for k in range(len(rates))],
                          repetitions, event_task=event_task,
                          batch_task=batch_task, spec=spec),
        backend=backend)
    return {flow: rows.reshape(len(rates), repetitions)
            for flow, rows in _flow_throughputs(batch).items()}


def fig1_rate_response(probe_rates_bps: Optional[Sequence[float]] = None,
                       cross_rate_bps: float = 4.5e6,
                       size_bytes: int = 1500,
                       duration: float = 4.0,
                       warmup: float = 0.5,
                       repetitions: int = 3,
                       phy: Optional[PhyParams] = None,
                       seed: int = 0,
                       backend: str = "event") -> ExperimentResult:
    """Figure 1: steady-state rate response with contending cross-traffic.

    The paper's setting has C ~ 6.5 Mb/s, one contending flow leaving
    A ~ 2 Mb/s available, and a fair share B ~ 3.4 Mb/s.  The probe
    curve must track the diagonal until ~B and then flatten at B — with
    *no* deviation at A — while the cross flow's throughput starts
    dropping once the probe rate passes A.
    """
    if probe_rates_bps is None:
        probe_rates_bps = np.arange(0.5e6, 10.01e6, 0.5e6)
    rates = np.asarray(sorted(probe_rates_bps), dtype=float)
    bianchi = BianchiModel(phy, size_bytes)
    capacity = bianchi.capacity()
    fair_share = bianchi.fair_share(2)
    samples = steady_state_scan(
        rates, cross_rate_bps, 0.0, phy, size_bytes, duration, warmup,
        repetitions=repetitions, seed=seed, backend=backend)
    probe_out = samples["probe"].mean(axis=1)
    cross_out = samples["cross"].mean(axis=1)

    available = max(0.0, capacity - cross_rate_bps)
    result = ExperimentResult(
        experiment="fig1",
        title="Steady-state rate response vs. contending cross-traffic",
        x_label="ri_bps",
        x=rates,
        series={"probe_bps": probe_out, "cross_bps": cross_out},
        meta={
            "cross_rate_bps": cross_rate_bps,
            "capacity_bps": round(capacity),
            "available_bps": round(available),
            "fair_share_bps": round(fair_share),
            "repetitions": repetitions,
            "duration_s": duration,
            "backend": backend,
        },
    )
    # Shape checks: the paper's claims about figure 1.
    low = rates <= 0.85 * fair_share
    result.add_check(
        "diagonal-below-B",
        bool(np.all(np.abs(probe_out[low] - rates[low])
                    <= 0.1 * rates[low] + 5e4)))
    high = rates >= 1.3 * fair_share
    if np.any(high):
        plateau = probe_out[high]
        result.add_check(
            "flattens-at-B",
            bool(np.all(np.abs(plateau - fair_share) <= 0.2 * fair_share)))
        result.add_check(
            "plateau-below-capacity",
            bool(np.all(plateau < 0.9 * capacity)))
    near_a = (rates >= 0.8 * available) & (rates <= 1.2 * available)
    if np.any(near_a):
        result.add_check(
            "no-deviation-at-A",
            bool(np.all(np.abs(probe_out[near_a] - rates[near_a])
                        <= 0.1 * rates[near_a] + 5e4)))
    result.add_check("cross-decreases",
                     cross_out[-1] < cross_out[0] - 0.1 * cross_out[0])
    return result


def fig4_complete_picture(probe_rates_bps: Optional[Sequence[float]] = None,
                          cross_rate_bps: float = 3.0e6,
                          fifo_rate_bps: float = 1.5e6,
                          size_bytes: int = 1500,
                          duration: float = 4.0,
                          warmup: float = 0.5,
                          repetitions: int = 3,
                          phy: Optional[PhyParams] = None,
                          seed: int = 0,
                          backend: str = "event") -> ExperimentResult:
    """Figure 4: the complete picture with FIFO + contending cross-traffic.

    The probe curve deviates when probe + FIFO aggregate reaches the
    station's fair share, then keeps growing toward Bf as the probe
    crowds the FIFO cross-traffic out of the shared queue (whose
    throughput decays correspondingly).
    """
    if probe_rates_bps is None:
        probe_rates_bps = np.arange(0.5e6, 10.01e6, 0.5e6)
    rates = np.asarray(sorted(probe_rates_bps), dtype=float)
    bianchi = BianchiModel(phy, size_bytes)
    fair_share = bianchi.fair_share(2)
    samples = steady_state_scan(
        rates, cross_rate_bps, fifo_rate_bps, phy, size_bytes, duration,
        warmup, repetitions=repetitions, seed=seed, backend=backend)
    probe_out = samples["probe"].mean(axis=1)
    cross_out = samples["cross"].mean(axis=1)
    fifo_out = samples["fifo"].mean(axis=1)

    u_fifo = min(0.95, fifo_rate_bps / fair_share)
    model = complete_rate_response(rates, fair_share, u_fifo)
    result = ExperimentResult(
        experiment="fig4",
        title="Complete rate response (FIFO + contending cross-traffic)",
        x_label="ri_bps",
        x=rates,
        series={"probe_bps": probe_out, "cross_bps": cross_out,
                "fifo_bps": fifo_out, "model_eq4_bps": model},
        meta={
            "cross_rate_bps": cross_rate_bps,
            "fifo_rate_bps": fifo_rate_bps,
            "fair_share_bps": round(fair_share),
            "u_fifo": round(u_fifo, 3),
            "repetitions": repetitions,
            "backend": backend,
        },
    )
    b_complete = achievable_throughput_complete(fair_share, u_fifo)
    low = rates <= 0.8 * b_complete
    if np.any(low):
        result.add_check(
            "diagonal-below-B",
            bool(np.all(np.abs(probe_out[low] - rates[low])
                        <= 0.1 * rates[low] + 5e4)))
    result.add_check(
        "fifo-decays", fifo_out[-1] < 0.75 * max(fifo_out[0], 1.0))
    result.add_check(
        "probe-keeps-growing-past-B",
        probe_out[-1] > b_complete * 1.05)
    result.add_check(
        "probe-below-fair-share", probe_out[-1] <= fair_share * 1.15)
    result.add_check(
        "matches-eq4-at-high-rate",
        abs(probe_out[-1] - model[-1]) <= 0.2 * model[-1])
    return result
