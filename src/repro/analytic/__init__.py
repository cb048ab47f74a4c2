"""Analytical models.

* :mod:`repro.analytic.metrics` — bandwidth metric definitions
  (capacity, available bandwidth, achievable throughput, equation (2));
* :mod:`repro.analytic.bianchi` — Bianchi's saturation model of the
  802.11 DCF, used to predict fair shares / achievable throughput and
  to calibrate the simulator;
* :mod:`repro.analytic.rate_response` — steady-state rate-response
  curves: FIFO (eq. 1), CSMA/CA (eq. 3), and the paper's complete model
  with both cross-traffic types (eqs. 4–5);
* :mod:`repro.analytic.bounds` — the transient-state sample-path bounds
  on the expected output dispersion (eqs. 21–34).
"""

from repro.analytic.metrics import (
    achievable_throughput_from_curve,
    available_bandwidth,
    fluid_achievable_throughput,
)
from repro.analytic.bianchi import BianchiModel, BianchiSolution
from repro.analytic.rate_response import (
    complete_rate_response,
    csma_rate_response,
    fifo_rate_response,
)
from repro.analytic.bounds import (
    DispersionBounds,
    kappa,
    output_gap_bounds,
    output_gap_bounds_strict,
    transient_achievable_throughput,
)

__all__ = [
    "BianchiModel",
    "BianchiSolution",
    "DispersionBounds",
    "achievable_throughput_from_curve",
    "available_bandwidth",
    "complete_rate_response",
    "csma_rate_response",
    "fifo_rate_response",
    "fluid_achievable_throughput",
    "kappa",
    "output_gap_bounds",
    "output_gap_bounds_strict",
    "transient_achievable_throughput",
]
