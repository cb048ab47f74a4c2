"""Short-train experiments (figures 13, 15, 16 and 17).

These reproduce the measurement-bias results: rate-response curves
inferred from trains of 3/10/50 packets deviate from the steady-state
curve (below it near the achievable throughput, above it at high
probing rates); packet pairs overestimate the achievable throughput;
MSER-2 truncation pulls short-train curves back toward steady state.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

import numpy as np

from repro.analysis.results import ExperimentResult
from repro.analytic.bianchi import BianchiModel
from repro.analytic.metrics import fluid_achievable_throughput
from repro.analytic.rate_response import (
    achievable_throughput_complete,
    complete_rate_response,
)
from repro.core.correction import mser_corrected_rate
from repro.core.estimators import packet_pair_capacity, train_dispersion_rate
from repro.mac.params import PhyParams
from repro.testbed.channel import SimulatedWlanChannel
from repro.testbed.prober import Prober, ProbeSessionConfig, measure_points
from repro.traffic.generators import PoissonGenerator
from repro.traffic.probe import PacketPair


def _wlan_prober(cross_rate_bps: float, size_bytes: int,
                 phy: Optional[PhyParams],
                 fifo_rate_bps: float = 0.0,
                 repetitions: int = 60,
                 drain_rate_floor: float = 1.5e6,
                 backend: str = "event") -> Prober:
    cross = [("cross", PoissonGenerator(cross_rate_bps, size_bytes))] \
        if cross_rate_bps > 0 else []
    fifo = (PoissonGenerator(fifo_rate_bps, size_bytes, flow="fifo")
            if fifo_rate_bps > 0 else None)
    channel = SimulatedWlanChannel(cross, fifo_cross=fifo, phy=phy,
                                   drain_rate_floor=drain_rate_floor)
    return Prober(channel, ProbeSessionConfig(size_bytes=size_bytes,
                                              repetitions=repetitions,
                                              ideal_clocks=True,
                                              backend=backend))


def _steady_series(rates: np.ndarray, fair_share: float,
                   u_fifo: float) -> np.ndarray:
    return complete_rate_response(rates, fair_share, u_fifo)


def _short_train_curves(rates: np.ndarray,
                        train_lengths: Sequence[int],
                        cross_rate_bps: float,
                        fifo_rate_bps: float,
                        size_bytes: int,
                        repetitions: int,
                        phy: Optional[PhyParams],
                        seed: int,
                        backend: str = "event") -> Dict[int, np.ndarray]:
    """``L/E[g_O]`` per rate for each train length: one scan (one
    channel request) per length, point ``k`` of length ``n`` seeded
    from ``seed + 101 * n + k``."""
    prober = _wlan_prober(cross_rate_bps, size_bytes, phy,
                          fifo_rate_bps=fifo_rate_bps,
                          repetitions=repetitions,
                          backend=backend)
    curves: Dict[int, np.ndarray] = {}
    for n in train_lengths:
        scan = prober.measure_scan(
            n, rates, [seed + 101 * n + k for k in range(len(rates))])
        curves[n] = np.array([train_dispersion_rate(measurements)
                              for measurements in scan])
    return curves


def fig13_short_trains(probe_rates_bps: Optional[Sequence[float]] = None,
                       train_lengths: Sequence[int] = (3, 10, 50),
                       cross_rate_bps: float = 3e6,
                       size_bytes: int = 1500,
                       repetitions: int = 60,
                       phy: Optional[PhyParams] = None,
                       seed: int = 0,
                       backend: str = "event") -> ExperimentResult:
    """Figure 13: transient rate-response curves, no FIFO cross-traffic.

    Short trains follow the steady-state curve at low rates, then: (a)
    they dip *below* it before the achievable throughput (the knee
    moves right), and (b) at high probing rates L/E[g_O] *exceeds* the
    steady-state plateau, the more so the shorter the train.
    """
    if probe_rates_bps is None:
        probe_rates_bps = np.arange(1e6, 10.01e6, 1e6)
    rates = np.asarray(sorted(probe_rates_bps), dtype=float)
    bianchi = BianchiModel(phy, size_bytes)
    fair_share = bianchi.fair_share(2)
    curves = _short_train_curves(rates, train_lengths, cross_rate_bps,
                                 0.0, size_bytes, repetitions, phy, seed,
                                 backend=backend)
    steady = _steady_series(rates, fair_share, 0.0)
    series = {"steady_state_bps": steady}
    for n in train_lengths:
        series[f"train_{n}_bps"] = curves[n]
    result = ExperimentResult(
        experiment="fig13",
        title="Rate response from short trains (no FIFO cross-traffic)",
        x_label="ri_bps",
        x=rates,
        series=series,
        meta={
            "cross_rate_bps": cross_rate_bps,
            "fair_share_bps": round(fair_share),
            "repetitions": repetitions,
            "backend": backend,
        },
    )
    high = rates >= 1.5 * fair_share
    shortest, longest = min(train_lengths), max(train_lengths)
    if np.any(high):
        result.add_check(
            "short-trains-overestimate-at-high-rate",
            bool(np.all(curves[shortest][high] > steady[high] * 1.02)))
        result.add_check(
            "longer-trains-closer-to-steady",
            float(np.mean(np.abs(curves[longest][high] - steady[high])))
            < float(np.mean(np.abs(curves[shortest][high] - steady[high]))))
    low = rates <= 0.5 * fair_share
    if np.any(low):
        result.add_check(
            "follows-diagonal-at-low-rate",
            bool(np.all(np.abs(curves[longest][low] - rates[low])
                        <= 0.1 * rates[low] + 1e5)))
    return result


def fig15_short_trains_fifo(probe_rates_bps: Optional[Sequence[float]] = None,
                            train_lengths: Sequence[int] = (3, 10, 50),
                            cross_rate_bps: float = 3e6,
                            fifo_rate_bps: float = 1e6,
                            size_bytes: int = 1500,
                            repetitions: int = 60,
                            phy: Optional[PhyParams] = None,
                            seed: int = 0,
                            backend: str = "event") -> ExperimentResult:
    """Figure 15: the same study with FIFO cross-traffic re-introduced.

    Bursty FIFO cross-traffic loosens the bounds (larger deviations
    below the achievable throughput) but the high-rate overestimation
    survives regardless of the FIFO traffic (equation (30), region 3).
    """
    if probe_rates_bps is None:
        probe_rates_bps = np.arange(1e6, 10.01e6, 1e6)
    rates = np.asarray(sorted(probe_rates_bps), dtype=float)
    bianchi = BianchiModel(phy, size_bytes)
    fair_share = bianchi.fair_share(2)
    u_fifo = min(0.95, fifo_rate_bps / fair_share)
    curves = _short_train_curves(rates, train_lengths, cross_rate_bps,
                                 fifo_rate_bps, size_bytes, repetitions,
                                 phy, seed, backend=backend)
    steady = _steady_series(rates, fair_share, u_fifo)
    series = {"steady_state_bps": steady}
    for n in train_lengths:
        series[f"train_{n}_bps"] = curves[n]
    result = ExperimentResult(
        experiment="fig15",
        title="Rate response from short trains (complete system)",
        x_label="ri_bps",
        x=rates,
        series=series,
        meta={
            "cross_rate_bps": cross_rate_bps,
            "fifo_rate_bps": fifo_rate_bps,
            "fair_share_bps": round(fair_share),
            "u_fifo": round(u_fifo, 3),
            "repetitions": repetitions,
            "backend": backend,
        },
    )
    high = rates >= 1.5 * fair_share
    shortest = min(train_lengths)
    if np.any(high):
        result.add_check(
            "overestimates-despite-fifo",
            bool(np.all(curves[shortest][high] > steady[high] * 1.02)))
    b_complete = achievable_throughput_complete(fair_share, u_fifo)
    low = rates <= 0.5 * b_complete
    if np.any(low):
        longest = max(train_lengths)
        result.add_check(
            "follows-diagonal-at-low-rate",
            bool(np.all(np.abs(curves[longest][low] - rates[low])
                        <= 0.15 * rates[low] + 1e5)))
    return result


def fig16_packet_pair(cross_rates_bps: Optional[Sequence[float]] = None,
                      size_bytes: int = 1500,
                      pair_repetitions: int = 300,
                      fluid_repetitions: int = 40,
                      rate_grid_bps: Optional[Sequence[float]] = None,
                      phy: Optional[PhyParams] = None,
                      seed: int = 0,
                      backend: str = "event") -> ExperimentResult:
    """Figure 16: packet-pair inference vs. the actual fluid response.

    For each contending cross-traffic rate the runner measures (a) the
    packet-pair bandwidth estimate and (b) the actual achievable
    throughput (fluid response).  With no contention the two coincide
    at the capacity; with contention the pair overestimates B and never
    reports C.
    """
    if cross_rates_bps is None:
        cross_rates_bps = np.arange(0.0, 6.01e6, 1e6)
    cross_rates = np.asarray(sorted(cross_rates_bps), dtype=float)
    bianchi = BianchiModel(phy, size_bytes)
    capacity = bianchi.capacity()
    fair_share = bianchi.fair_share(2)
    # One scan of pairs over every cross rate: the zero-rate point's
    # channel has no contender, so its rows have one station.
    probers = [_wlan_prober(cross_rate, size_bytes, phy,
                            repetitions=pair_repetitions, backend=backend)
               for cross_rate in cross_rates]
    scan = measure_points(probers, [PacketPair(size_bytes)] * len(probers),
                          [seed + 31 * k for k in range(len(probers))])
    pair_estimates = np.array([packet_pair_capacity(pairs)
                               for pairs in scan])
    fluid_actual = np.array([fluid_achievable_throughput(
                                 capacity, cross_rate, fair_share)
                             for cross_rate in cross_rates])
    result = ExperimentResult(
        experiment="fig16",
        title="Packet-pair inference vs. actual achievable throughput",
        x_label="cross_bps",
        x=cross_rates,
        series={"fluid_actual_bps": fluid_actual,
                "packet_pair_bps": pair_estimates},
        meta={
            "capacity_bps": round(capacity),
            "fair_share_bps": round(fair_share),
            "pair_repetitions": pair_repetitions,
            "backend": backend,
        },
    )
    result.add_check(
        "matches-capacity-without-contention",
        abs(pair_estimates[0] - capacity) <= 0.1 * capacity)
    contended = cross_rates >= 0.3 * capacity
    if np.any(contended):
        # Noise at finite repetitions can push isolated points under
        # the fluid line; the claim is about the systematic bias, so
        # check the mean uplift and the large majority of points.
        above = pair_estimates[contended] > fluid_actual[contended]
        mean_uplift = float(np.mean(pair_estimates[contended]
                                    - fluid_actual[contended]))
        result.add_check(
            "overestimates-B-under-contention",
            bool(np.mean(above) >= 0.75 and mean_uplift > 0))
        result.add_check(
            "never-reports-capacity-under-contention",
            bool(np.all(pair_estimates[contended] < 0.97 * capacity)))
    return result


def fig17_mser(probe_rates_bps: Optional[Sequence[float]] = None,
               n_packets: int = 20,
               mser_batch: int = 2,
               cross_rate_bps: float = 3e6,
               size_bytes: int = 1500,
               repetitions: int = 80,
               phy: Optional[PhyParams] = None,
               seed: int = 0,
               backend: str = "event") -> ExperimentResult:
    """Figure 17: MSER-2 truncation of 20-packet trains.

    Removing the packets MSER-2 flags as transient pulls the inferred
    curve toward the steady-state response without sending any extra
    packets.
    """
    if probe_rates_bps is None:
        probe_rates_bps = np.arange(1e6, 10.01e6, 1e6)
    rates = np.asarray(sorted(probe_rates_bps), dtype=float)
    bianchi = BianchiModel(phy, size_bytes)
    fair_share = bianchi.fair_share(2)
    prober = _wlan_prober(cross_rate_bps, size_bytes, phy,
                          repetitions=repetitions, backend=backend)
    scan = prober.measure_scan(n_packets, rates,
                               [seed + 53 * k for k in range(len(rates))])
    raw = np.array([train_dispersion_rate(measurements)
                    for measurements in scan])
    corrected = np.array([mser_corrected_rate(measurements, m=mser_batch)
                          for measurements in scan])
    steady = _steady_series(rates, fair_share, 0.0)
    result = ExperimentResult(
        experiment="fig17",
        title=f"MSER-{mser_batch} corrected {n_packets}-packet trains",
        x_label="ri_bps",
        x=rates,
        series={"steady_state_bps": steady,
                f"train_{n_packets}_bps": raw,
                f"mser{mser_batch}_bps": corrected},
        meta={
            "cross_rate_bps": cross_rate_bps,
            "fair_share_bps": round(fair_share),
            "repetitions": repetitions,
            "backend": backend,
        },
    )
    high = rates >= 1.5 * fair_share
    if np.any(high):
        raw_err = float(np.mean(np.abs(raw[high] - steady[high])))
        mser_err = float(np.mean(np.abs(corrected[high] - steady[high])))
        result.add_check("mser-closer-to-steady", mser_err < raw_err)
        result.add_check("raw-overestimates",
                         bool(np.all(raw[high] > steady[high])))
    return result
