#!/usr/bin/env python
"""Decomposing the output dispersion (paper section 5).

The paper's analytical framework expresses the output gap of a probing
train as (equation (18))::

    gO = gI + R_n/(n-1) + (W(a_n) - W(a_1))/(n-1) + (mu_n - mu_1)/(n-1)

This example measures a train on the DCF simulator, rebuilds every term
from the sample path (intrusion residual via the recursion of equation
(14), access delays from the MAC records) and shows the identity
holding to numerical precision — then uses the trace-driven queueing
simulator (the paper's "Matlab" tool) to replay the same arrivals
against a *steady-state* service process, isolating how much of the
dispersion error is due to the transient alone.

Run:  python examples/dispersion_decomposition.py
"""

import numpy as np

from repro.core.dispersion import decompose_output_gap
from repro.queueing.trace import TraceDrivenQueue
from repro.queueing.workload import intrusion_residual_recursive
from repro.testbed import SimulatedWlanChannel
from repro.traffic import PoissonGenerator, ProbeTrain


def main() -> None:
    cross_rate = 3e6
    train = ProbeTrain.at_rate(12, 6e6)
    channel = SimulatedWlanChannel(
        [("cross", PoissonGenerator(cross_rate, 1500))],
        start_jitter=0.0)

    raw = channel.send_train(train, seed=5)
    n = train.n
    mu = raw.access_delays
    measured_go = (raw.recv_times[-1] - raw.recv_times[0]) / (n - 1)

    residual = intrusion_residual_recursive(mu, train.gap)
    # No FIFO cross-traffic shares the probe queue: both workload
    # terms of equation (18) are zero.
    reconstructed = decompose_output_gap(train.gap, mu, residual[-1],
                                         0.0, 0.0)

    print(f"One {n}-packet train at {train.rate_bps / 1e6:.0f} Mb/s "
          f"against {cross_rate / 1e6:.0f} Mb/s contending cross-traffic\n")
    print(f"{'i':>3} {'mu_i (ms)':>10} {'R_i (ms)':>10}")
    for i in range(n):
        print(f"{i + 1:3d} {mu[i] * 1e3:10.3f} {residual[i] * 1e3:10.3f}")
    print(f"\nmeasured gO      = {measured_go * 1e3:.4f} ms")
    print(f"eq (18) rebuild  = {reconstructed * 1e3:.4f} ms "
          f"(difference {abs(measured_go - reconstructed):.2e} s)")

    # Replay through the trace-driven queue with steady-state services:
    # what gO would look like with no transient.
    reps = 300
    raws = channel.send_trains(train, reps, seed=77)
    mu_matrix = np.vstack([r.access_delays for r in raws])
    steady_pool = mu_matrix[:, n // 2:].ravel()

    rng = np.random.default_rng(3)
    queue = TraceDrivenQueue(lambda i, r: float(r.choice(steady_pool)))
    steady_gos = []
    for _ in range(reps):
        steady_gos.append(queue.run(train.arrival_times(), rng=rng).output_gap)
    transient_gos = [(r.recv_times[-1] - r.recv_times[0]) / (n - 1)
                     for r in raws]

    mean_transient = float(np.mean(transient_gos))
    mean_steady = float(np.mean(steady_gos))
    print(f"\nacross {reps} repetitions:")
    print(f"  mean gO with the real (transient) access delays: "
          f"{mean_transient * 1e3:.3f} ms -> L/E[gO] = "
          f"{1500 * 8 / mean_transient / 1e6:.2f} Mb/s")
    print(f"  mean gO replayed with steady-state services:     "
          f"{mean_steady * 1e3:.3f} ms -> L/E[gO] = "
          f"{1500 * 8 / mean_steady / 1e6:.2f} Mb/s")
    print("  the gap between the two lines IS the transient bias the "
          "paper bounds in section 6.")


if __name__ == "__main__":
    main()
