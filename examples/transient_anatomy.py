#!/usr/bin/env python
"""Anatomy of the access-delay transient (paper sections 4 and 7.4).

Repeats a probing train many times against contending cross-traffic,
then prints:

* the per-index mean access delay (figure 6's curve) as ASCII art;
* the KS-vs-steady-state profile with its 95% threshold (figure 8);
* the tolerance-based transient duration (figure 10's estimator);
* where MSER-2 would truncate — compared with the measured transient;
* what the Bianchi/backoff *sampler* predicts for the same shape,
  without running any simulation at all.

The repetition batch runs on the vectorized probe-train backend
(``repro.sim.probe_vector``) — pass ``--event`` to use the
per-repetition event engine instead and compare wall-clocks.

Run:  python examples/transient_anatomy.py
"""

import sys
import time

import numpy as np

from repro.analysis.transient import collect_delay_matrix
from repro.core.correction import mser_truncation_index
from repro.core.dispersion import TrainMeasurement
from repro.core.transient import ks_profile, transient_duration
from repro.sim.delay_model import sample_transient_delay_matrix
from repro.testbed import SimulatedWlanChannel
from repro.traffic import PoissonGenerator, ProbeTrain


def ascii_series(values, width=50, label_fn=None):
    lo, hi = float(np.min(values)), float(np.max(values))
    span = hi - lo or 1.0
    lines = []
    for i, v in enumerate(values):
        bar = "#" * (1 + int((v - lo) / span * (width - 1)))
        label = label_fn(i, v) if label_fn else f"{v:.4g}"
        lines.append(f"  {i + 1:4d} {bar:<{width}} {label}")
    return "\n".join(lines)


def main() -> None:
    probe_rate = 5e6
    cross_rate = 4e6
    n_packets, repetitions = 120, 250
    backend = "event" if "--event" in sys.argv[1:] else "vector"
    print(f"Probing at {probe_rate / 1e6:.0f} Mb/s against "
          f"{cross_rate / 1e6:.0f} Mb/s Poisson cross-traffic, "
          f"{repetitions} repetitions of {n_packets}-packet trains "
          f"({backend} backend)...")

    start = time.perf_counter()
    collection = collect_delay_matrix(
        probe_rate, [("cross", PoissonGenerator(cross_rate, 1500))],
        n_packets=n_packets, repetitions=repetitions, seed=7,
        backend=backend)
    print(f"  ...{repetitions * n_packets} probe packets simulated in "
          f"{time.perf_counter() - start:.2f}s")
    matrix = collection.matrix
    profile = matrix.mean_profile()
    steady = matrix.steady_state_mean()

    print("\nMean access delay per packet index (first 30; figure 6):")
    print(ascii_series(profile[:30] * 1e3, width=40,
                       label_fn=lambda i, v: f"{v:.2f} ms"))
    print(f"  steady-state mean: {steady * 1e3:.2f} ms "
          f"(first packet: {profile[0] * 1e3:.2f} ms — accelerated)")

    ks = ks_profile(matrix, max_index=30)
    print("\nKS distance to the steady-state distribution (figure 8):")
    print(ascii_series(ks.ks_values, width=40,
                       label_fn=lambda i, v: f"{v:.3f}"))
    print(f"  95% threshold: {ks.threshold:.3f}; "
          f"settles at packet {ks.settled_index + 1}")

    for tol in (0.1, 0.01):
        duration = transient_duration(profile, tolerance=tol,
                                      steady_mean=steady, sustained=False)
        print(f"\nTransient duration at tolerance {tol}: "
              f"{duration.n_packets} packets (figure 10's estimator)")

    # Where would MSER-2 cut?  Re-use the same trains as dispersion data.
    channel = SimulatedWlanChannel(
        [("cross", PoissonGenerator(cross_rate, 1500))])
    train = ProbeTrain.at_rate(20, 8e6)
    batch = channel.send_trains_dense(train, 80, seed=11)
    cut = mser_truncation_index(TrainMeasurement(
        batch.send_times, batch.recv_times, batch.size_bytes), m=2)
    print(f"\nMSER-2 on 20-packet trains at 8 Mb/s truncates the first "
          f"{cut} dispersion samples\n(the transient it removes is "
          "exactly the acceleration shown above).")

    # The same qualitative shape, sampled straight from the
    # Bianchi/backoff model — no simulation, just the fixed point.
    model = sample_transient_delay_matrix(2, repetitions, n_packets,
                                          utilization=0.6, seed=7)
    model_profile = model.mean(axis=0)
    model_steady = float(model[:, n_packets // 2:].mean())
    print("\nBianchi/backoff sampler prediction (no simulation): "
          f"first packet {model_profile[0] * 1e3:.2f} ms vs steady "
          f"{model_steady * 1e3:.2f} ms — same accelerated-first-packet "
          "signature.")


if __name__ == "__main__":
    main()
