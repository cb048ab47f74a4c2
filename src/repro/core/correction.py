"""Bias correction of short-train measurements (section 7.4).

The paper treats the access-delay transient as a *simulation warm-up*
problem and removes, from each train's dispersion samples, the packets
that the MSER-m heuristic flags as transient, without sending any extra
packets.  Figure 17 applies MSER-2 to the inter-arrival times of
20-packet trains and recovers a curve close to the steady-state rate
response.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.dispersion import TrainMeasurement
from repro.stats.warmup import mser_m


@dataclass
class CorrectedMeasurement:
    """One train's dispersion estimate before and after truncation."""

    raw_gap: float
    corrected_gap: float
    truncated_packets: int
    n: int


def mser_corrected_gap(measurement: TrainMeasurement,
                       m: int = 2) -> CorrectedMeasurement:
    """Apply MSER-m to one train's inter-arrival (dispersion) samples.

    The per-packet output gaps ``d_{i+1} - d_i`` form the observation
    sequence; MSER-m picks a truncation point ``k``; the corrected
    output gap is the mean of the retained gaps (equivalent to
    measuring the dispersion of the truncated train).
    """
    gaps = measurement.output_gaps
    result = mser_m(gaps, m=m)
    retained = result.truncated
    if len(retained) == 0:  # pragma: no cover - mser keeps >= 1 batch
        retained = gaps
    return CorrectedMeasurement(
        raw_gap=measurement.output_gap,
        corrected_gap=float(np.mean(retained)),
        truncated_packets=int(result.truncate_before),
        n=measurement.n,
    )


def mser_truncation_index(measurements: Sequence[TrainMeasurement],
                          m: int = 2) -> int:
    """MSER-m truncation point of the *mean* per-index gap profile.

    The paper applies MSER-2 to "the inter-arrival time of the packets
    of a 20 packet train sequence": with ``m`` repetitions available,
    the robust reading is to truncate the per-index mean dispersion
    profile (averaged over the repetitions) rather than each noisy
    train individually.  Returns the number of leading gaps to drop.
    """
    if len(measurements) == 0:
        raise ValueError("need at least one measurement")
    gaps = np.vstack([meas.output_gaps for meas in measurements])
    profile = gaps.mean(axis=0)
    return int(mser_m(profile, m=m).truncate_before)


def mser_corrected_rate(measurements: Sequence[TrainMeasurement],
                        m: int = 2, per_train: bool = False) -> float:
    """``L / E[g_O]`` with MSER-m truncation (figure 17).

    By default the truncation point is chosen once, on the per-index
    mean gap profile across all repetitions (see
    :func:`mser_truncation_index`), and applied to every train.  With
    ``per_train=True`` each train is truncated independently — noisier,
    but usable when only one train is available.
    """
    if len(measurements) == 0:
        raise ValueError("need at least one measurement")
    sizes = {meas.size_bytes for meas in measurements}
    if len(sizes) != 1:
        raise ValueError(f"mixed probe sizes {sorted(sizes)}")
    if per_train:
        corrected = [mser_corrected_gap(meas, m=m).corrected_gap
                     for meas in measurements]
        mean_gap = float(np.mean(corrected))
    else:
        cut = mser_truncation_index(measurements, m=m)
        gaps = np.vstack([meas.output_gaps for meas in measurements])
        retained = gaps[:, cut:] if cut < gaps.shape[1] else gaps
        mean_gap = float(np.mean(retained))
    if mean_gap <= 0:
        raise ValueError("mean corrected gap must be positive")
    return measurements[0].size_bytes * 8 / mean_gap

