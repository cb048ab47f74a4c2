"""Dispersion-based bandwidth estimators.

These are the measurement tools whose behaviour on CSMA/CA links the
paper analyzes:

* :func:`packet_pair_capacity` — the classic packet-pair capacity
  estimator [Dovrolis et al.]: ``C_hat = L / E[dispersion]`` over many
  pairs.  Section 7.3 shows it targets (and overestimates) the
  *achievable throughput*, not the capacity, on WLAN links;
* :func:`train_dispersion_rate` — ``L / E[g_O]`` over many trains at a
  fixed input rate (one point of a rate-response curve);
* :func:`rate_response_from_measurements` — a full measured
  rate-response curve;
* :func:`achievable_throughput` — equation (2) applied to a measured
  curve.

Every estimator consumes one :class:`repro.core.dispersion.TrainMeasurement`
— pure timestamp data, the ``m`` trains of one probing point — so the
same code path runs on the DCF simulator, on the emulated testbed, or on
timestamps captured by a real prober.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

from repro.core.dispersion import TrainMeasurement
from repro.analytic.metrics import achievable_throughput_from_curve


def packet_pair_capacity(measurement: TrainMeasurement) -> float:
    """Packet-pair estimate ``L / E[dispersion]`` over many pairs.

    Accepts trains of any length but only uses the first two packets of
    each (a pure pair probe).  On a FIFO link with no cross-traffic the
    estimate equals the capacity C; on a CSMA/CA link it tracks — and
    overestimates — the achievable throughput B (figure 16).
    """
    recv = measurement.recv_times
    mean_dispersion = float(np.mean(recv[:, 1] - recv[:, 0]))
    if mean_dispersion <= 0:
        raise ValueError("mean pair dispersion must be positive")
    return measurement.size_bytes * 8 / mean_dispersion


def train_dispersion_rate(measurement: TrainMeasurement) -> float:
    """``L / E[g_O]``: the dispersion rate at one probing rate.

    The expectation is the sample mean of the train-level output gaps
    over the ``m`` repetitions (the paper's limiting average
    ``E[g_O]``).
    """
    mean_gap = float(np.mean(measurement.output_gaps))
    if mean_gap <= 0:
        raise ValueError("mean output gap must be positive")
    return measurement.size_bytes * 8 / mean_gap


@dataclass
class RateResponseCurve:
    """A measured rate-response curve.

    ``input_rates`` and ``output_rates`` are aligned arrays in bit/s;
    ``output_rates`` are dispersion rates ``L/E[g_O]`` unless stated
    otherwise by the producer.
    """

    input_rates: np.ndarray
    output_rates: np.ndarray
    size_bytes: int
    trains_per_rate: int

    def __post_init__(self) -> None:
        self.input_rates = np.asarray(self.input_rates, dtype=float)
        self.output_rates = np.asarray(self.output_rates, dtype=float)
        if self.input_rates.shape != self.output_rates.shape:
            raise ValueError("curve arrays must be aligned")

    def achievable_throughput(self, tolerance: float = 0.05) -> float:
        """Equation (2) evaluated on this curve."""
        return achievable_throughput_from_curve(
            self.input_rates, self.output_rates, tolerance)

    def knee_rate(self, tolerance: float = 0.05) -> float:
        """First probed rate where the curve departs from the diagonal."""
        conforming = self.output_rates / self.input_rates >= 1.0 - tolerance
        departing = np.where(~conforming)[0]
        if len(departing) == 0:
            return float(self.input_rates[-1])
        return float(self.input_rates[departing[0]])


def rate_response_from_measurements(
        by_rate: Dict[float, TrainMeasurement]) -> RateResponseCurve:
    """Assemble a :class:`RateResponseCurve` from grouped measurements.

    ``by_rate`` maps the nominal probing input rate (bit/s) to the
    trains measured at that rate.
    """
    if not by_rate:
        raise ValueError("no measurements")
    rates = sorted(by_rate)
    sizes = {by_rate[rate].size_bytes for rate in rates}
    if len(sizes) != 1:
        raise ValueError(f"mixed probe sizes {sorted(sizes)}")
    return RateResponseCurve(
        input_rates=np.array(rates, dtype=float),
        output_rates=np.array([train_dispersion_rate(by_rate[rate])
                               for rate in rates], dtype=float),
        size_bytes=sizes.pop(),
        trains_per_rate=min(by_rate[rate].repetitions for rate in rates),
    )


def achievable_throughput(by_rate: Dict[float, TrainMeasurement],
                          tolerance: float = 0.05) -> float:
    """Equation (2) straight from grouped measurements."""
    return rate_response_from_measurements(by_rate).achievable_throughput(
        tolerance)
