"""Bias correction of short-train measurements (section 7.4).

The paper treats the access-delay transient as a *simulation warm-up*
problem and removes, from the trains' dispersion samples, the packets
that the MSER-m heuristic flags as transient, without sending any extra
packets.  Figure 17 applies MSER-2 to the inter-arrival times of
20-packet trains and recovers a curve close to the steady-state rate
response.  The truncation point is chosen once per probing point, on
the per-index mean dispersion profile of its trains, and applied to
every train.
"""

from __future__ import annotations

import numpy as np

from repro.core.dispersion import TrainMeasurement
from repro.stats.warmup import mser_m


def mser_truncation_index(measurement: TrainMeasurement,
                          m: int = 2) -> int:
    """MSER-m truncation point of the *mean* per-index gap profile.

    The paper applies MSER-2 to "the inter-arrival time of the packets
    of a 20 packet train sequence": with ``m`` repetitions available,
    the robust reading is to truncate the per-index mean dispersion
    profile (averaged over the repetitions) rather than each noisy
    train individually.  Returns the number of leading gaps to drop.
    """
    profile = measurement.dispersions.mean(axis=0)
    return int(mser_m(profile, m=m).truncate_before)


def mser_corrected_rate(measurement: TrainMeasurement, m: int = 2) -> float:
    """``L / E[g_O]`` with MSER-m truncation (figure 17).

    The truncation point is chosen once, on the per-index mean gap
    profile across all repetitions (see :func:`mser_truncation_index`),
    and applied to every train.
    """
    cut = mser_truncation_index(measurement, m=m)
    gaps = measurement.dispersions
    retained = gaps[:, cut:] if cut < gaps.shape[1] else gaps
    mean_gap = float(np.mean(retained))
    if mean_gap <= 0:
        raise ValueError("mean corrected gap must be positive")
    return measurement.size_bytes * 8 / mean_gap
