"""Transient-state experiments (figures 6-10).

All runners share :func:`collect_delay_matrix`: repeat a probing train
over independent repetitions of the channel and collect the per-packet
access delays into a :class:`repro.core.transient.DelayMatrix` (plus,
optionally, the contending stations' queue sizes sampled at the probe
arrival instants).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.results import ExperimentResult
from repro.analytic.bianchi import BianchiModel
from repro.core.transient import (
    DelayMatrix,
    ks_profile,
    transient_duration,
)
from repro.mac.params import PhyParams
from repro.stats.descriptive import histogram
from repro.testbed.channel import SimulatedWlanChannel
from repro.traffic.generators import PoissonGenerator
from repro.traffic.probe import ProbeTrain


@dataclass
class DelayCollection:
    """Delay matrix plus companion traces from repeated probing."""

    matrix: DelayMatrix
    queue_sizes: Dict[str, np.ndarray]  # station -> (reps, n) backlogs

    def mean_queue_profile(self, station: str) -> np.ndarray:
        """Mean contending-queue size per probe packet index."""
        return self.queue_sizes[station].mean(axis=0)


def collect_delay_matrix(
        probe_rate_bps: float,
        cross_stations: Sequence[Tuple[str, object]],
        n_packets: int = 200,
        repetitions: int = 200,
        size_bytes: int = 1500,
        phy: Optional[PhyParams] = None,
        warmup: float = 0.25,
        drain_rate_floor: float = 1.5e6,
        seed: int = 0,
        track_queues: bool = False,
        backend: str = "event") -> DelayCollection:
    """Probe repeatedly and collect per-index access delays.

    Each repetition redraws the cross-traffic, warms the system up for
    ``warmup`` seconds and then injects one ``n_packets`` train at
    ``probe_rate_bps``; the access delay of the i-th packet across
    repetitions estimates the paper's per-index distribution.

    The repetition batch is routed through
    :meth:`repro.testbed.channel.Channel.send_trains_dense`, so the
    delay matrix comes back in the same dense shape on every backend
    (``vector`` resolves it in one :mod:`repro.sim.probe_vector` pass,
    ``auto`` lets the dispatcher choose).  With ``track_queues`` the
    batch carries one :class:`repro.sim.probe_vector.QueueTraceBatch`
    per cross station on every backend (the kernel's arrival/departure
    sample paths, or the event stations' queue logs), sampled here at
    the probe send instants.
    """
    channel = SimulatedWlanChannel(
        cross_stations, phy=phy, warmup=warmup,
        drain_rate_floor=drain_rate_floor,
        log_cross_queues=track_queues)
    train = ProbeTrain.at_rate(n_packets, probe_rate_bps, size_bytes)
    batch = channel.send_trains_dense(train, repetitions, seed=seed,
                                      backend=backend)
    queue_sizes: Dict[str, np.ndarray] = {}
    if track_queues:
        queue_sizes = {
            name: batch.queue_traces[k].size_at(batch.send_times)
            for k, (name, _) in enumerate(cross_stations)}
    return DelayCollection(matrix=DelayMatrix(batch.delay_matrix()),
                           queue_sizes=queue_sizes)


# ----------------------------------------------------------------------
# Figure 6 — mean access delay vs. probe packet index
# ----------------------------------------------------------------------

def fig6_mean_access_delay(probe_rate_bps: float = 5e6,
                           cross_rate_bps: float = 4e6,
                           n_packets: int = 250,
                           repetitions: int = 300,
                           plot_limit: int = 150,
                           size_bytes: int = 1500,
                           phy: Optional[PhyParams] = None,
                           seed: int = 0,
                           backend: str = "event") -> ExperimentResult:
    """Figure 6: the first packets see a lower mean access delay.

    Paper setting: 5 Mb/s probe train, 4 Mb/s Poisson contending
    cross-traffic; the mean access delay climbs from the first packet's
    value to a steady plateau within a few tens of packets.
    """
    collection = collect_delay_matrix(
        probe_rate_bps,
        [("cross", PoissonGenerator(cross_rate_bps, size_bytes))],
        n_packets=n_packets, repetitions=repetitions,
        size_bytes=size_bytes, phy=phy, seed=seed, backend=backend)
    matrix = collection.matrix
    profile = matrix.mean_profile()
    limit = min(plot_limit, n_packets)
    steady = matrix.steady_state_mean()
    result = ExperimentResult(
        experiment="fig6",
        title="Mean access delay vs. probe packet number",
        x_label="packet_idx",
        x=np.arange(1, limit + 1),
        series={"mean_access_delay_s": profile[:limit]},
        meta={
            "probe_rate_bps": probe_rate_bps,
            "cross_rate_bps": cross_rate_bps,
            "repetitions": repetitions,
            "n_packets": n_packets,
            "steady_state_mean_s": float(steady),
            "backend": backend,
        },
    )
    result.add_check("first-packet-accelerated", profile[0] < 0.9 * steady)
    result.add_check(
        "early-mean-below-steady", profile[:5].mean() < 0.95 * steady)
    tail = profile[limit // 2: limit]
    result.add_check(
        "settles-near-steady",
        abs(tail.mean() - steady) <= 0.1 * steady)
    return result


# ----------------------------------------------------------------------
# Figure 7 — access-delay histograms, first vs. steady-state packet
# ----------------------------------------------------------------------

def fig7_delay_histograms(probe_rate_bps: float = 5e6,
                          cross_rate_bps: float = 4e6,
                          n_packets: int = 250,
                          repetitions: int = 400,
                          steady_index: Optional[int] = None,
                          bins: int = 40,
                          size_bytes: int = 1500,
                          phy: Optional[PhyParams] = None,
                          seed: int = 0,
                          backend: str = "event") -> ExperimentResult:
    """Figure 7: delay distribution of the 1st vs. a steady-state packet.

    The paper contrasts the 1st and the 500th packet of 1000-packet
    trains; here the steady packet defaults to the last train index.
    The first packet's distribution is concentrated at small delays,
    the steady one is shifted right with a heavier tail.
    """
    collection = collect_delay_matrix(
        probe_rate_bps,
        [("cross", PoissonGenerator(cross_rate_bps, size_bytes))],
        n_packets=n_packets, repetitions=repetitions,
        size_bytes=size_bytes, phy=phy, seed=seed, backend=backend)
    matrix = collection.matrix
    if steady_index is None:
        steady_index = n_packets - 1
    first = matrix.index_sample(0)
    steady = matrix.index_sample(steady_index)
    lo = float(min(first.min(), steady.min()))
    hi = float(max(first.max(), steady.max()))
    first_counts, edges = histogram(first, bins=bins, range_=(lo, hi))
    steady_counts, _ = histogram(steady, bins=bins, range_=(lo, hi))
    centers = (edges[:-1] + edges[1:]) / 2
    result = ExperimentResult(
        experiment="fig7",
        title="Access-delay histograms: 1st vs. steady-state packet",
        x_label="delay_s",
        x=centers,
        series={"count_first": first_counts.astype(float),
                "count_steady": steady_counts.astype(float)},
        meta={
            "probe_rate_bps": probe_rate_bps,
            "cross_rate_bps": cross_rate_bps,
            "repetitions": repetitions,
            "steady_index": steady_index + 1,
            "mean_first_s": float(first.mean()),
            "mean_steady_s": float(steady.mean()),
            "backend": backend,
        },
    )
    result.add_check("first-mean-smaller", first.mean() < steady.mean())
    result.add_check(
        "distributions-differ",
        abs(first.mean() - steady.mean()) > 0.05 * steady.mean())
    return result


# ----------------------------------------------------------------------
# Figure 8 — KS profile and contending-queue build-up
# ----------------------------------------------------------------------

def fig8_ks_and_queue(probe_rate_bps: float = 8e6,
                      cross_rate_bps: float = 2e6,
                      n_packets: int = 250,
                      repetitions: int = 300,
                      plot_limit: int = 100,
                      size_bytes: int = 1500,
                      phy: Optional[PhyParams] = None,
                      alpha: float = 0.05,
                      seed: int = 0,
                      backend: str = "event") -> ExperimentResult:
    """Figure 8: KS-vs-steady-state and the contending queue's growth.

    Paper setting: 8 Mb/s probe, 2 Mb/s contending cross-traffic.  The
    KS distance starts far above the 95% threshold and settles within
    tens of packets, tracking the time the contending station's queue
    needs to reach its (new) stationary size.  Both the delay matrix
    and the queue trace come back from either backend (the kernel
    emits queue traces since it learned ``track_queues``).
    """
    collection = collect_delay_matrix(
        probe_rate_bps,
        [("cross", PoissonGenerator(cross_rate_bps, size_bytes))],
        n_packets=n_packets, repetitions=repetitions,
        size_bytes=size_bytes, phy=phy, seed=seed, track_queues=True,
        backend=backend)
    matrix = collection.matrix
    profile = ks_profile(matrix, alpha=alpha, max_index=plot_limit)
    queue_profile = collection.mean_queue_profile("cross")[:plot_limit]
    limit = len(profile.ks_values)
    result = ExperimentResult(
        experiment="fig8",
        title="KS test vs. packet index + contending queue size",
        x_label="packet_idx",
        x=np.arange(1, limit + 1),
        series={
            "ks_value": profile.ks_values,
            "ks_threshold": np.full(limit, profile.threshold),
            "mean_queue_pkts": queue_profile[:limit],
        },
        meta={
            "probe_rate_bps": probe_rate_bps,
            "cross_rate_bps": cross_rate_bps,
            "repetitions": repetitions,
            "alpha": alpha,
            "settled_index": profile.settled_index + 1,
            "backend": backend,
        },
    )
    result.add_check(
        "initial-ks-above-threshold",
        profile.ks_values[0] > profile.threshold)
    result.add_check("ks-settles", profile.settled_index < limit)
    result.add_check(
        "queue-grows",
        queue_profile[-10:].mean() > queue_profile[0] * 1.1 + 0.05)
    return result


# ----------------------------------------------------------------------
# Figure 9 — KS profile in a complex multi-station scenario
# ----------------------------------------------------------------------

def fig9_ks_complex(probe_rate_bps: float = 0.5e6,
                    n_packets: int = 60,
                    repetitions: int = 400,
                    plot_limit: int = 50,
                    size_bytes: int = 1500,
                    phy: Optional[PhyParams] = None,
                    alpha: float = 0.05,
                    seed: int = 0,
                    backend: str = "event") -> ExperimentResult:
    """Figure 9: four heterogeneous contending stations.

    Paper setting: probe at 0.5 Mb/s against stations sending 40, 576,
    1000 and 1500-byte packets at 0.1, 0.5, 0.75 and 2 Mb/s.  The KS
    profile again shows a transitory of tens of packets.
    """
    cross = [
        ("cross-40B", PoissonGenerator(0.1e6, 40)),
        ("cross-576B", PoissonGenerator(0.5e6, 576)),
        ("cross-1000B", PoissonGenerator(0.75e6, 1000)),
        ("cross-1500B", PoissonGenerator(2.0e6, 1500)),
    ]
    collection = collect_delay_matrix(
        probe_rate_bps, cross, n_packets=n_packets,
        repetitions=repetitions, size_bytes=size_bytes, phy=phy,
        seed=seed, drain_rate_floor=0.4e6, backend=backend)
    matrix = collection.matrix
    profile = ks_profile(matrix, alpha=alpha, max_index=plot_limit)
    delay_profile = matrix.mean_profile()
    steady = matrix.steady_state_mean()
    limit = len(profile.ks_values)
    result = ExperimentResult(
        experiment="fig9",
        title="KS test vs. packet index, 4 heterogeneous contenders",
        x_label="packet_idx",
        x=np.arange(1, limit + 1),
        series={
            "ks_value": profile.ks_values,
            "ks_threshold": np.full(limit, profile.threshold),
        },
        meta={
            "probe_rate_bps": probe_rate_bps,
            "repetitions": repetitions,
            "alpha": alpha,
            "settled_index": profile.settled_index + 1,
            "first_packet_mean_s": float(delay_profile[0]),
            "steady_state_mean_s": float(steady),
            "backend": backend,
        },
    )
    # The transitory is milder than figure 8's (the probe offers only
    # 0.5 Mb/s), so the checks compare against the profile's own tail
    # rather than the absolute threshold, which depends on sample size.
    result.add_check(
        "first-packet-accelerated", delay_profile[0] < 0.95 * steady)
    tail_ks = float(np.median(profile.ks_values[limit // 2:]))
    result.add_check(
        "ks-elevated-early",
        float(np.max(profile.ks_values[:5])) > 1.15 * tail_ks)
    result.add_check(
        "ks-settles",
        float(np.mean(profile.ks_values[-10:])) <= 1.5 * profile.threshold)
    return result


# ----------------------------------------------------------------------
# Figure 10 — transient duration vs. offered cross-traffic load
# ----------------------------------------------------------------------

def fig10_transient_duration(cross_loads_erlang: Optional[Sequence[float]] = None,
                             probe_load_erlang: float = 1.0,
                             tolerances: Tuple[float, float] = (0.1, 0.01),
                             n_packets: int = 300,
                             repetitions: int = 300,
                             size_bytes: int = 1500,
                             phy: Optional[PhyParams] = None,
                             seed: int = 0,
                             backend: str = "event") -> ExperimentResult:
    """Figure 10: transient length across offered cross-traffic loads.

    Loads are expressed in Erlangs of the single-station capacity C
    (offered rate / C).  The probe offers ``probe_load_erlang`` (the
    paper fixes 1 Erlang); for each cross load the transient length is
    the first packet whose mean access delay falls within each
    tolerance of the steady-state mean (the paper's first-hit rule).
    The transitory peaks when the cross-traffic load crosses its fair
    share, and the 0.01-tolerance curve dominates the 0.1 one.
    """
    bianchi = BianchiModel(phy, size_bytes)
    capacity = bianchi.capacity()
    if cross_loads_erlang is None:
        cross_loads_erlang = np.arange(0.1, 1.01, 0.1)
    loads = np.asarray(sorted(cross_loads_erlang), dtype=float)
    if np.any(loads <= 0) or np.any(loads > 1.5):
        raise ValueError("cross loads should be in (0, 1.5] Erlang")
    probe_rate = probe_load_erlang * capacity
    durations = {tol: np.zeros(len(loads)) for tol in tolerances}
    for k, load in enumerate(loads):
        collection = collect_delay_matrix(
            probe_rate,
            [("cross", PoissonGenerator(load * capacity, size_bytes))],
            n_packets=n_packets, repetitions=repetitions,
            size_bytes=size_bytes, phy=phy, seed=seed + 17 * k,
            backend=backend)
        profile = collection.matrix.mean_profile()
        steady = collection.matrix.steady_state_mean()
        for tol in tolerances:
            durations[tol][k] = transient_duration(
                profile, tolerance=tol, steady_mean=steady,
                sustained=False).n_packets
    series = {f"transient_tol_{tol}": durations[tol] for tol in tolerances}
    result = ExperimentResult(
        experiment="fig10",
        title="Transient duration vs. offered cross-traffic load",
        x_label="cross_erlang",
        x=loads,
        series=series,
        meta={
            "probe_load_erlang": probe_load_erlang,
            "capacity_bps": round(capacity),
            "n_packets": n_packets,
            "repetitions": repetitions,
            "backend": backend,
        },
    )
    tight, loose = min(tolerances), max(tolerances)
    result.add_check(
        "tighter-tolerance-longer",
        bool(np.all(durations[tight] >= durations[loose])))
    result.add_check(
        "bounded-by-150-at-0.1",
        bool(np.all(durations[max(tolerances)] <= 150)))
    return result
