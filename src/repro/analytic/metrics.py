"""Bandwidth metric definitions (section 2 of the paper).

Three metrics describe a CSMA/CA link:

* **capacity** ``C`` — the rate a lone station achieves
  (:meth:`repro.analytic.bianchi.BianchiModel.capacity`);
* **available bandwidth** ``A`` — the part of C not used by
  cross-traffic;
* **achievable throughput** ``B`` (equation (2)) —
  ``B = sup { r_i : r_o / r_i = 1 }``, the fair share the probing flow
  can extract.  On a FIFO link B coincides with A; on CSMA/CA links it
  generally does not.
"""

from __future__ import annotations

import numpy as np


def available_bandwidth(capacity_bps: float, cross_rate_bps: float) -> float:
    """Available bandwidth ``A = C - cross rate`` (clipped at zero).

    ``cross_rate_bps`` is the aggregate network-layer throughput of the
    cross-traffic in the absence of probing.
    """
    if capacity_bps <= 0:
        raise ValueError(f"capacity must be positive, got {capacity_bps}")
    if cross_rate_bps < 0:
        raise ValueError(
            f"cross rate must be non-negative, got {cross_rate_bps}")
    return max(0.0, capacity_bps - cross_rate_bps)


def achievable_throughput_from_curve(input_rates: np.ndarray,
                                     output_rates: np.ndarray,
                                     tolerance: float = 0.05) -> float:
    """Empirical achievable throughput from a measured rate-response curve.

    Implements equation (2): the largest probed input rate whose output
    rate matches it within ``tolerance`` (relative).  Rates need not be
    sorted; the curve should include at least one conforming point.
    """
    ri = np.asarray(input_rates, dtype=float)
    ro = np.asarray(output_rates, dtype=float)
    if ri.shape != ro.shape or ri.ndim != 1:
        raise ValueError("input and output rates must be equal-length 1-D")
    if len(ri) == 0:
        raise ValueError("empty curve")
    if np.any(ri <= 0):
        raise ValueError("input rates must be positive")
    conforming = ro / ri >= 1.0 - tolerance
    if not np.any(conforming):
        raise ValueError(
            "no point on the curve satisfies ro/ri ~= 1; "
            "probe at lower rates")
    return float(np.max(ri[conforming]))


def fluid_achievable_throughput(capacity_bps: float, cross_rate_bps: float,
                                fair_share_bps: float) -> float:
    """Fluid prediction of B for one contending cross-traffic flow.

    When the cross flow's offered rate is below the fair share it never
    saturates, and a backlogged prober can take the remaining capacity,
    ``C - cross``; once the cross flow saturates, both flows are
    backlogged and the prober gets its fair share.  Hence::

        B(cross) = max(fair_share, C - cross)

    This is the "fluid response (actual)" line of figure 16.
    """
    if fair_share_bps <= 0 or fair_share_bps > capacity_bps:
        raise ValueError("need 0 < fair_share <= capacity")
    return max(fair_share_bps,
               available_bandwidth(capacity_bps, cross_rate_bps))
