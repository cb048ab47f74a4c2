"""The paper's contribution as a usable measurement library.

* :mod:`repro.core.dispersion` — timestamp-level dispersion data model:
  a :class:`TrainMeasurement` holds the send/receive timestamps of the
  ``m`` trains of one probing point as ``(m, n)`` matrices; every
  estimator is computed from it (strictly network-layer, like the
  paper's tools);
* :mod:`repro.core.estimators` — packet-pair capacity estimation, train
  dispersion rates, rate-response scans and the achievable-throughput
  estimator of equation (2), each taking one point's measurement;
* :mod:`repro.core.transient` — transient-state analysis of access
  delays: per-index mean profiles, KS-vs-steady-state profiles
  (figures 6–9) and tolerance-based transient durations (figure 10);
* :mod:`repro.core.correction` — the paper's bias-correction method:
  MSER-m truncation of a point's dispersion samples, cut once on their
  per-index mean profile (figure 17).
"""

from repro.core.dispersion import (
    TrainMeasurement,
    decompose_output_gap,
    output_gaps_batch,
)
from repro.core.estimators import (
    RateResponseCurve,
    achievable_throughput,
    packet_pair_capacity,
    rate_response_from_measurements,
    train_dispersion_rate,
)
from repro.core.transient import (
    DelayMatrix,
    KSProfile,
    TransientDuration,
    ks_profile,
    transient_duration,
)
from repro.core.tools import IterativeProbeResult, IterativeProbeTool
from repro.core.correction import mser_corrected_rate

__all__ = [
    "IterativeProbeResult",
    "IterativeProbeTool",
    "DelayMatrix",
    "KSProfile",
    "RateResponseCurve",
    "TrainMeasurement",
    "TransientDuration",
    "achievable_throughput",
    "decompose_output_gap",
    "ks_profile",
    "mser_corrected_rate",
    "output_gaps_batch",
    "packet_pair_capacity",
    "rate_response_from_measurements",
    "train_dispersion_rate",
    "transient_duration",
]
