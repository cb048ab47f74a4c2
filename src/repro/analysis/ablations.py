"""Ablation experiments for the simulator's and the method's design choices.

* :func:`ablation_bianchi_calibration` — the event simulator's
  saturation throughput vs. Bianchi's prediction across station counts
  (validates the slot-jump DCF scheduling);
* :func:`ablation_immediate_access` — the access-delay transient with
  the 802.11 immediate-access rule on vs. off (the rule is the
  mechanism that accelerates the first packets);
* :func:`ablation_ks_methods` — plain vs. interpolated KS profiles on
  the same delay matrix (quantifies the atomic-distribution floor of
  the paper's footnote-2 procedure);
* :func:`ablation_rts_cts` — the access-delay transient with basic
  access vs. RTS/CTS protection (the transient mechanism is orthogonal
  to the handshake);
* :func:`ablation_truncation_heuristics` — MSER-2 vs. MSER-1 vs. fixed
  truncation for the bias-correction method of section 7.4.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.analysis.results import ExperimentResult
from repro.analytic.bianchi import BianchiModel
from repro.analytic.rate_response import complete_rate_response
from repro.backends import BatchRequest, ScenarioSpec, dispatch
from repro.core.correction import mser_corrected_rate
from repro.core.estimators import train_dispersion_rate
from repro.core.transient import DelayMatrix, ks_profile
from repro.mac.params import PhyParams
from repro.mac.scenario import StationSpec, WlanScenario
from repro.sim.probe_vector import (
    CbrCrossSpec,
    SteadyBatchResult,
    simulate_steady_state_batch,
)
from repro.stats.warmup import fixed_truncation
from repro.testbed.channel import SimulatedWlanChannel
from repro.traffic.generators import CBRGenerator, PoissonGenerator
from repro.traffic.probe import ProbeTrain


def ablation_bianchi_calibration(station_counts: Sequence[int] = (1, 2, 3, 4, 5),
                                 size_bytes: int = 1500,
                                 duration: float = 4.0,
                                 warmup: float = 0.5,
                                 repetitions: int = 3,
                                 phy: Optional[PhyParams] = None,
                                 seed: int = 0,
                                 backend: str = "event") -> ExperimentResult:
    """Saturation throughput: simulator vs. Bianchi model, any backend.

    Every station offers well above its share (9 Mb/s CBR each) so the
    network is saturated; the simulator's aggregate throughput —
    averaged over ``repetitions`` independent runs per station count —
    must track the analytical prediction within a few percent for
    every n.  All station counts are one scan of rows on the resolved
    backend, point ``k`` (station count ``station_counts[k]``) seeded
    from ``seed + k``: the event engine runs the symmetric CBR
    scenario per row (fanned out over ``--jobs``), the kernel arm
    resolves the rows (in ``--chunk-reps`` chunks) through the
    probe-train kernel's steady-state mode with batched CBR
    cross-traffic — station 0 carries the CBR flow as the "probe", the
    remaining n-1 stations contend with identical CBR sample paths,
    exactly the event scenario's symmetric configuration, and each row
    has its own point's station count.  Both arms answer in that
    layout (a :class:`SteadyBatchResult` whose probe flow is station
    0, cross bits zero past the row's stations), and the aggregate is
    probe plus cross.
    """
    if repetitions < 1:
        raise ValueError(f"repetitions must be >= 1, got {repetitions}")
    spec = ScenarioSpec(system="wlan", workload="steady-cbr",
                        cross_traffic="cbr")
    resolution = dispatch.resolve(spec, backend)

    counts = list(station_counts)
    bianchi = BianchiModel(phy, size_bytes)
    offered_bps = 9e6
    pps = offered_bps / (size_bytes * 8)
    scenario = WlanScenario(phy)
    # Rows carry the widest station count's cross slots, zero-padded
    # past their own count: the kernel's layout.
    slots = max(counts) - 1

    def event_task(rep_seed: int, point: int) -> SteadyBatchResult:
        """One saturated repetition's delivered bits, one row."""
        n = counts[point]
        specs = [StationSpec(f"s{i}",
                             generator=CBRGenerator(offered_bps, size_bytes))
                 for i in range(n)]
        result = scenario.run(specs, horizon=duration, seed=rep_seed,
                              until=duration)
        bits = [result.station(f"s{i}").delivered_bits(warmup, duration)
                for i in range(n)]
        cross_bits = np.zeros((1, slots))
        cross_bits[0, :n - 1] = bits[1:]
        return SteadyBatchResult(
            probe_bits=np.array(bits[:1], dtype=float),
            fifo_bits=np.zeros(1), cross_bits=cross_bits,
            warmup=warmup, duration=duration, size_bytes=size_bytes)

    def batch_task(seeds, points) -> SteadyBatchResult:
        """The steady-state kernel over one (possibly chunked) slice:
        each row contends with its own station count's CBR stations."""
        cbr = CbrCrossSpec(pps, size_bytes)
        return simulate_steady_state_batch(
            offered_bps, len(seeds), size_bytes=size_bytes,
            cross=[[cbr if c < counts[p] - 1 else None for p in points]
                   for c in range(slots)],
            duration=duration, warmup=warmup, phy=phy, seeds=seeds)

    out = resolution.backend.run_batch(BatchRequest.scan(
        [seed + k for k in range(len(counts))], repetitions,
        event_task=event_task, batch_task=batch_task, spec=spec))
    aggregate = (out.probe_throughput_bps()
                 + out.cross_throughput_bps()).reshape(len(counts),
                                                       repetitions)
    simulated = np.array([float(np.mean(row)) for row in aggregate])
    predicted = np.array([bianchi.solve(n).total_throughput_bps
                          for n in counts])
    result = ExperimentResult(
        experiment="ablation-bianchi",
        title="DCF simulator vs. Bianchi saturation throughput",
        x_label="n_stations",
        x=np.array(counts, dtype=float),
        series={"simulated_bps": simulated, "bianchi_bps": predicted},
        meta={"duration_s": duration, "size_bytes": size_bytes,
              "repetitions": repetitions, "backend": resolution.name},
    )
    rel_err = np.abs(simulated - predicted) / predicted
    result.add_check("within-5pct", bool(np.all(rel_err <= 0.05)))
    return result


def ablation_immediate_access(probe_rate_bps: float = 5e6,
                              cross_rate_bps: float = 4e6,
                              n_packets: int = 120,
                              repetitions: int = 200,
                              size_bytes: int = 1500,
                              phy: Optional[PhyParams] = None,
                              seed: int = 0,
                              backend: str = "event") -> ExperimentResult:
    """The transient with the immediate-access rule on vs. off.

    With the rule enabled (802.11 behaviour) the first packet's mean
    access delay sits far below the steady state; with every access
    forced through a backoff, the first-packet acceleration largely
    disappears — demonstrating the mechanism behind section 4.  Both
    arms run on the selected backend (the probe-train kernel models
    the immediate-access switch too).
    """
    profiles = {}
    steady = {}
    for label, immediate in (("dcf", True), ("no_immediate", False)):
        channel = SimulatedWlanChannel(
            [("cross", PoissonGenerator(cross_rate_bps, size_bytes))],
            phy=phy, immediate_access=immediate)
        train = ProbeTrain.at_rate(n_packets, probe_rate_bps, size_bytes)
        batch = channel.send_trains_dense(train, repetitions, seed=seed,
                                          backend=backend)
        matrix = DelayMatrix(batch.delay_matrix())
        profiles[label] = matrix.mean_profile()
        steady[label] = matrix.steady_state_mean()
    limit = min(60, n_packets)
    result = ExperimentResult(
        experiment="ablation-immediate-access",
        title="Access-delay transient with/without immediate access",
        x_label="packet_idx",
        x=np.arange(1, limit + 1),
        series={
            "dcf_mean_delay_s": profiles["dcf"][:limit],
            "no_immediate_mean_delay_s": profiles["no_immediate"][:limit],
        },
        meta={
            "probe_rate_bps": probe_rate_bps,
            "cross_rate_bps": cross_rate_bps,
            "repetitions": repetitions,
            "steady_dcf_s": float(steady["dcf"]),
            "steady_no_immediate_s": float(steady["no_immediate"]),
            "backend": backend,
        },
    )
    dip_dcf = profiles["dcf"][0] / steady["dcf"]
    dip_off = profiles["no_immediate"][0] / steady["no_immediate"]
    result.add_check("rule-creates-acceleration", dip_dcf < dip_off)
    result.add_check("dcf-first-packet-fast", dip_dcf < 0.85)
    return result


def ablation_ks_methods(probe_rate_bps: float = 2e6,
                        cross_rate_bps: float = 2e6,
                        n_packets: int = 80,
                        repetitions: int = 300,
                        size_bytes: int = 1500,
                        phy: Optional[PhyParams] = None,
                        seed: int = 0,
                        backend: str = "event") -> ExperimentResult:
    """Plain vs. interpolated KS on an atom-bearing delay matrix.

    At moderate probing rates a sizable fraction of probe packets gets
    immediate access, putting a deterministic atom (the bare frame
    airtime) in the delay distribution.  The interpolated statistic
    then has a floor of about half the atom mass even deep in the
    steady state; the plain statistic settles properly.
    """
    channel = SimulatedWlanChannel(
        [("cross", PoissonGenerator(cross_rate_bps, size_bytes))], phy=phy)
    train = ProbeTrain.at_rate(n_packets, probe_rate_bps, size_bytes)
    batch = channel.send_trains_dense(train, repetitions, seed=seed,
                                      backend=backend)
    matrix = DelayMatrix(batch.delay_matrix())
    plain = ks_profile(matrix, method="plain")
    interp = ks_profile(matrix, method="interpolated")
    limit = len(plain.ks_values)
    result = ExperimentResult(
        experiment="ablation-ks-method",
        title="Plain vs. interpolated KS profile (atomic delays)",
        x_label="packet_idx",
        x=np.arange(1, limit + 1),
        series={
            "ks_plain": plain.ks_values,
            "ks_interpolated": interp.ks_values,
            "threshold": np.full(limit, plain.threshold),
        },
        meta={
            "probe_rate_bps": probe_rate_bps,
            "cross_rate_bps": cross_rate_bps,
            "repetitions": repetitions,
            "backend": backend,
        },
    )
    tail = slice(limit // 2, limit)
    result.add_check(
        "interpolated-has-floor",
        float(np.median(interp.ks_values[tail]))
        > 1.5 * float(np.median(plain.ks_values[tail])))
    result.add_check(
        "plain-settles",
        float(np.median(plain.ks_values[tail])) <= 1.5 * plain.threshold)
    return result


def ablation_rts_cts(probe_rate_bps: float = 5e6,
                     cross_rate_bps: float = 4e6,
                     n_packets: int = 120,
                     repetitions: int = 200,
                     size_bytes: int = 1500,
                     phy: Optional[PhyParams] = None,
                     seed: int = 0,
                     backend: str = "event") -> ExperimentResult:
    """Does RTS/CTS change the access-delay transient?

    RTS/CTS cuts the collision cost but adds a fixed per-frame
    handshake.  The transient mechanism (immediate access + contending
    queue adaptation) is orthogonal to it, so the *relative*
    first-packet acceleration must survive with RTS enabled — evidence
    that the paper's findings carry over to RTS-protected networks.
    Both arms run on the selected backend (the probe-train kernel
    applies the same RTS airtime arithmetic as the event medium).
    """
    profiles = {}
    steady = {}
    for label, threshold in (("basic", None), ("rts", 0)):
        channel = SimulatedWlanChannel(
            [("cross", PoissonGenerator(cross_rate_bps, size_bytes))],
            phy=phy, rts_threshold=threshold)
        train = ProbeTrain.at_rate(n_packets, probe_rate_bps, size_bytes)
        batch = channel.send_trains_dense(train, repetitions, seed=seed,
                                          backend=backend)
        matrix = DelayMatrix(batch.delay_matrix())
        profiles[label] = matrix.mean_profile()
        steady[label] = matrix.steady_state_mean()
    limit = min(60, n_packets)
    result = ExperimentResult(
        experiment="ablation-rts",
        title="Access-delay transient: basic access vs. RTS/CTS",
        x_label="packet_idx",
        x=np.arange(1, limit + 1),
        series={
            "basic_mean_delay_s": profiles["basic"][:limit],
            "rts_mean_delay_s": profiles["rts"][:limit],
        },
        meta={
            "probe_rate_bps": probe_rate_bps,
            "cross_rate_bps": cross_rate_bps,
            "repetitions": repetitions,
            "steady_basic_s": float(steady["basic"]),
            "steady_rts_s": float(steady["rts"]),
            "backend": backend,
        },
    )
    result.add_check(
        "rts-adds-overhead", steady["rts"] > steady["basic"])
    result.add_check(
        "transient-survives-rts",
        profiles["rts"][0] < 0.9 * steady["rts"])
    result.add_check(
        "transient-present-basic",
        profiles["basic"][0] < 0.9 * steady["basic"])
    return result


def ablation_truncation_heuristics(probe_rate_bps: float = 8e6,
                                   cross_rate_bps: float = 3e6,
                                   n_packets: int = 20,
                                   repetitions: int = 120,
                                   size_bytes: int = 1500,
                                   phy: Optional[PhyParams] = None,
                                   fixed_cut: int = 6,
                                   seed: int = 0,
                                   backend: str = "event") -> ExperimentResult:
    """MSER-2 vs. MSER-1 vs. fixed truncation at a high probing rate.

    All heuristics must move the short-train estimate toward the steady
    state; MSER-2 (the paper's choice) should be at least as good as
    the raw measurement and comparable to an oracle-ish fixed cut.
    """
    bianchi = BianchiModel(phy, size_bytes)
    fair_share = bianchi.fair_share(2)
    channel = SimulatedWlanChannel(
        [("cross", PoissonGenerator(cross_rate_bps, size_bytes))], phy=phy)
    train = ProbeTrain.at_rate(n_packets, probe_rate_bps, size_bytes)
    batch = channel.send_trains_dense(train, repetitions, seed=seed,
                                      backend=backend)
    from repro.core.dispersion import TrainMeasurement
    measurements = [TrainMeasurement(batch.send_times[r],
                                     batch.recv_times[r],
                                     batch.size_bytes)
                    for r in range(batch.repetitions)]
    raw_rate = train_dispersion_rate(measurements)
    mser2 = mser_corrected_rate(measurements, m=2)
    mser1 = mser_corrected_rate(measurements, m=1)
    gaps = np.vstack([m.output_gaps for m in measurements])
    fixed_gap = float(np.mean(
        fixed_truncation(gaps.mean(axis=0), fixed_cut).truncated))
    fixed_rate = size_bytes * 8 / fixed_gap
    steady = float(complete_rate_response(
        np.array([probe_rate_bps]), fair_share, 0.0)[0])
    labels = ["raw", "mser2", "mser1", "fixed"]
    rates = np.array([raw_rate, mser2, mser1, fixed_rate])
    result = ExperimentResult(
        experiment="ablation-truncation",
        title="Truncation heuristics for short-train correction",
        x_label="method_idx",
        x=np.arange(len(labels), dtype=float),
        series={"rate_bps": rates,
                "steady_bps": np.full(len(labels), steady)},
        meta={
            "methods": ",".join(labels),
            "probe_rate_bps": probe_rate_bps,
            "repetitions": repetitions,
            "fair_share_bps": round(fair_share),
            "backend": backend,
        },
    )
    errors = np.abs(rates - steady)
    result.add_check("mser2-not-worse-than-raw", errors[1] <= errors[0])
    result.add_check("raw-overestimates", raw_rate > steady)
    return result
