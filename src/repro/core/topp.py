"""TOPP — regression-based available-bandwidth estimation.

Melander, Bjorkman & Gunningberg (reference [13] of the paper) probe a
path at increasing rates and regress the *rate ratio* ``r_i / r_o``
against ``r_i``.  On a FIFO hop, equation (1) makes the loaded segment
linear::

    r_i / r_o = (r_i + C - A) / C = r_i / C + (C - A) / C

so the slope is ``1/C`` and the intercept ``(C - A)/C`` — one
regression returns both the capacity and the available bandwidth.

Applied to a CSMA/CA link, the complete rate response (equation (4))
gives, above B::

    r_i / r_o = (r_i + u_fifo Bf) / Bf = r_i / Bf + u_fifo

TOPP's "capacity" estimate is therefore the *fair share* ``Bf`` and its
"available bandwidth" estimate is ``Bf (1 - u_fifo) = B`` — the
achievable throughput.  This is the sharpest form of the paper's
section-7.2 claim, and :func:`topp_estimate` makes it measurable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.estimators import RateResponseCurve

#: Loaded points (``r_i / r_o`` above the deviation threshold) the
#: regression needs.
MIN_LOADED_POINTS = 3


@dataclass
class ToppEstimate:
    """Outcome of a TOPP regression.

    On FIFO paths ``capacity_bps``/``available_bps`` estimate C and A;
    on CSMA/CA paths they estimate Bf and B (see module docstring).
    """

    capacity_bps: float
    available_bps: float
    slope: float
    intercept: float
    segment_start: int
    n_points: int


def topp_estimate(curve: RateResponseCurve,
                  deviation_threshold: float = 1.05) -> ToppEstimate:
    """Run the TOPP regression on a measured rate-response curve.

    Parameters
    ----------
    curve:
        A rate scan (input rates strictly increasing).
    deviation_threshold:
        Points with ``r_i / r_o`` above this enter the loaded segment.

    Raises
    ------
    ValueError
        If fewer than :data:`MIN_LOADED_POINTS` probed rates show
        congestion — probe at higher rates.
    """
    ri = np.asarray(curve.input_rates, dtype=float)
    ro = np.asarray(curve.output_rates, dtype=float)
    if np.any(np.diff(ri) <= 0):
        raise ValueError("input rates must be strictly increasing")
    if np.any(ro <= 0):
        raise ValueError("output rates must be positive")
    ratio = ri / ro
    loaded = np.where(ratio >= deviation_threshold)[0]
    if len(loaded) < MIN_LOADED_POINTS:
        raise ValueError(
            f"only {len(loaded)} loaded points (need {MIN_LOADED_POINTS}); "
            "probe at higher rates")
    # Use the contiguous tail starting at the first loaded point: TOPP
    # fits the asymptotic segment, and isolated early outliers would
    # bias the slope.
    start = int(loaded[0])
    xs = ri[start:]
    ys = ratio[start:]
    slope, intercept = np.polyfit(xs, ys, 1)
    if slope <= 0:
        raise ValueError(
            f"non-positive regression slope {slope:.3g}; the curve does "
            "not bend like a shared queue")
    capacity = 1.0 / slope
    available = capacity * (1.0 - intercept)
    return ToppEstimate(
        capacity_bps=float(capacity),
        available_bps=float(np.clip(available, 0.0, capacity)),
        slope=float(slope),
        intercept=float(intercept),
        segment_start=start,
        n_points=len(xs),
    )


def topp_from_prober(prober, rates_bps, n: int = 50,
                     repetitions: Optional[int] = None,
                     deviation_threshold: float = 1.05,
                     seed: int = 0) -> ToppEstimate:
    """Convenience: rate-scan with a prober, then regress."""
    curve = prober.rate_scan(rates_bps, n=n, repetitions=repetitions,
                             seed=seed)
    return topp_estimate(curve, deviation_threshold=deviation_threshold)
