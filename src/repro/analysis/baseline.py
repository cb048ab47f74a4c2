"""Baseline and framework-validation experiments.

* :func:`eq1_fifo_rate_response` — reproduces the wired FIFO
  rate-response model (equation (1)) on the Lindley-based hop, the
  reference against which the paper contrasts the CSMA/CA behaviour;
* :func:`bounds_consistency` — exercises the analytical framework of
  sections 5-6 on simulated sample paths: equation (18) must
  reconstruct the measured output gap exactly, and the measured
  ``E[g_O]`` must fall inside the bounds of equations (29)-(30).
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.analysis.results import ExperimentResult
from repro.analytic.bounds import output_gap_bounds_strict
from repro.analytic.rate_response import fifo_rate_response
from repro.core.dispersion import output_gaps_batch
from repro.mac.params import PhyParams
from repro.testbed.channel import SimulatedFifoChannel, SimulatedWlanChannel
from repro.traffic.generators import PoissonGenerator
from repro.traffic.probe import ProbeTrain


def eq1_fifo_rate_response(probe_rates_bps: Optional[Sequence[float]] = None,
                           capacity_bps: float = 10e6,
                           cross_rate_bps: float = 4e6,
                           n_packets: int = 400,
                           size_bytes: int = 1500,
                           repetitions: int = 30,
                           seed: int = 0,
                           backend: str = "event") -> ExperimentResult:
    """Equation (1) on a wired FIFO hop with Poisson cross-traffic.

    Long trains through the Lindley hop must match
    ``ro = min(ri, C ri / (ri + C - A))`` with ``A = C - cross``.  The
    ``vector`` backend replays the same sample paths through the
    batched Lindley kernel instead of the per-packet hop loop.
    """
    if probe_rates_bps is None:
        probe_rates_bps = np.arange(1e6, 12.01e6, 1e6)
    rates = np.asarray(sorted(probe_rates_bps), dtype=float)
    available = capacity_bps - cross_rate_bps
    channel = SimulatedFifoChannel(
        capacity_bps,
        cross_generator=PoissonGenerator(cross_rate_bps, size_bytes),
        drain_rate_floor=min(2e6, capacity_bps / 4))
    measured = np.zeros(len(rates))
    for k, rate in enumerate(rates):
        train = ProbeTrain.at_rate(n_packets, rate, size_bytes)
        batch = channel.send_trains_dense(train, repetitions,
                                          seed=seed + 13 * k,
                                          backend=backend)
        measured[k] = size_bytes * 8 / float(np.mean(batch.output_gaps))
    model = fifo_rate_response(rates, capacity_bps, available)
    result = ExperimentResult(
        experiment="eq1",
        title="FIFO rate response (wired baseline, equation (1))",
        x_label="ri_bps",
        x=rates,
        series={"model_eq1_bps": model, "measured_bps": measured},
        meta={
            "capacity_bps": capacity_bps,
            "available_bps": available,
            "n_packets": n_packets,
            "repetitions": repetitions,
            "backend": backend,
        },
    )
    rel_err = np.abs(measured - model) / model
    result.add_check("matches-eq1-within-10pct",
                     bool(np.all(rel_err <= 0.10)))
    result.add_check(
        "knee-at-available-bandwidth",
        bool(np.all(np.abs(measured[rates <= 0.9 * available]
                           - rates[rates <= 0.9 * available])
                    <= 0.05 * rates[rates <= 0.9 * available] + 1e4)))
    return result


def bounds_consistency(probe_rates_bps: Optional[Sequence[float]] = None,
                       cross_rate_bps: float = 3e6,
                       n_packets: int = 10,
                       size_bytes: int = 1500,
                       repetitions: int = 200,
                       phy: Optional[PhyParams] = None,
                       slack_fraction: float = 0.05,
                       seed: int = 0,
                       backend: str = "event") -> ExperimentResult:
    """Check E[g_O] against the transient bounds (eqs. 29-30).

    For each probing rate: measure the per-index mean access delays
    E[mu_i] and the mean output gap on the DCF simulator, evaluate the
    bounds from the measured E[mu_i] profile, and verify the measured
    gap lies between them (with a small statistical slack).  The rate
    scan is one channel request — one kernel call on the ``vector``
    backend — and both statistics are read off each point's rows of
    the dense batch.
    """
    if probe_rates_bps is None:
        probe_rates_bps = np.array([1e6, 2e6, 3e6, 4e6, 6e6, 8e6])
    rates = np.asarray(sorted(probe_rates_bps), dtype=float)
    channel = SimulatedWlanChannel(
        [("cross", PoissonGenerator(cross_rate_bps, size_bytes))], phy=phy)
    trains = [ProbeTrain.at_rate(n_packets, rate, size_bytes)
              for rate in rates]
    batch = channel.send_scan(trains, repetitions,
                              [seed + 37 * k for k in range(len(rates))],
                              backend=backend)
    lower = np.zeros(len(rates))
    upper = np.zeros(len(rates))
    measured = np.zeros(len(rates))
    for k, train in enumerate(trains):
        rows = slice(k * repetitions, (k + 1) * repetitions)
        mu_means = batch.access_delays[rows].mean(axis=0)
        measured[k] = float(output_gaps_batch(batch.recv_times[rows]).mean())
        bounds = output_gap_bounds_strict(train.gap, mu_means)
        lower[k] = bounds.lower
        upper[k] = bounds.upper
    result = ExperimentResult(
        experiment="bounds",
        title="Measured E[gO] vs. strict transient bounds (eqs. 21+23)",
        x_label="ri_bps",
        x=rates,
        series={"lower_s": lower, "measured_s": measured, "upper_s": upper},
        meta={
            "cross_rate_bps": cross_rate_bps,
            "n_packets": n_packets,
            "repetitions": repetitions,
            "backend": backend,
        },
    )
    slack = slack_fraction * measured
    result.add_check(
        "within-bounds",
        bool(np.all((measured >= lower - slack)
                    & (measured <= upper + slack))))
    result.add_check("bounds-ordered", bool(np.all(lower <= upper + 1e-12)))
    return result
