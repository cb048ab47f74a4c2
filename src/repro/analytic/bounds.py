"""Transient-state bounds on the expected output dispersion.

Section 6 of the paper derives upper and lower bounds on ``E[g_O]`` for
a probing train of ``n`` packets whose access delays are still in their
transient regime, as a function of:

* the per-index mean access delays ``E[mu_i]`` (``mu_means``),
* the input gap ``g_I``,
* the mean FIFO cross-traffic utilization ``u_fifo``,
* the correction term ``kappa(n)`` of equation (21).

Key quantities, with ``n = len(mu_means)``::

    mean_head = (1/(n-1)) sum_{i=1}^{n-1} E[mu_i]
    mean_tail = (1/(n-1)) sum_{i=2}^{n}   E[mu_i]

For an access delay that increases with the packet index (the transient
of section 4), ``mean_head <= mean_tail <= E[mu_n]`` (equation (35)),
which places the transient curve's knee *above* the steady-state
achievable throughput.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def _validate(mu_means: np.ndarray, input_gap: float, u_fifo: float) -> np.ndarray:
    mu = np.asarray(mu_means, dtype=float)
    if mu.ndim != 1 or len(mu) < 2:
        raise ValueError("need the per-index mean access delays of >= 2 packets")
    if np.any(mu <= 0):
        raise ValueError("mean access delays must be positive")
    if input_gap < 0:
        raise ValueError(f"input gap must be non-negative, got {input_gap}")
    if not 0 <= u_fifo < 1:
        raise ValueError(f"u_fifo must be in [0, 1), got {u_fifo}")
    return mu


def kappa(mu_means: np.ndarray, workload_drift: float = 0.0) -> float:
    """The correction term of equation (21).

    ``kappa(n) = (E[W(a_n)] - E[W(a_1)])/(n-1) + (E[mu_n] - E[mu_1])/(n-1)``.

    With workload stability the first term vanishes in the limit; pass
    a non-zero ``workload_drift`` (= ``E[W(a_n)] - E[W(a_1)]``) to keep
    it for finite-horizon studies.
    """
    mu = np.asarray(mu_means, dtype=float)
    if len(mu) < 2:
        raise ValueError("need at least two packets")
    n = len(mu)
    return (workload_drift + (mu[-1] - mu[0])) / (n - 1)


def mean_head(mu_means: np.ndarray) -> float:
    """``(1/(n-1)) sum_{i=1}^{n-1} E[mu_i]``."""
    mu = np.asarray(mu_means, dtype=float)
    return float(np.mean(mu[:-1]))

def mean_tail(mu_means: np.ndarray) -> float:
    """``(1/(n-1)) sum_{i=2}^{n} E[mu_i]``."""
    mu = np.asarray(mu_means, dtype=float)
    return float(np.mean(mu[1:]))


@dataclass
class DispersionBounds:
    """Bounds on E[g_O] at one input gap, with their active regions."""

    input_gap: float
    lower: float
    upper: float
    lower_region: str
    upper_region: str

    def contains(self, value: float, slack: float = 0.0) -> bool:
        """Whether ``value`` lies within [lower - slack, upper + slack]."""
        return self.lower - slack <= value <= self.upper + slack


def output_gap_bounds(input_gap: float, mu_means: np.ndarray,
                      u_fifo: float = 0.0,
                      workload_drift: float = 0.0) -> DispersionBounds:
    """Evaluate the transient bounds (equations (27), (29) and (30)).

    Parameters
    ----------
    input_gap:
        The probing input gap ``g_I``.
    mu_means:
        Per-index mean access delays ``E[mu_i]``, ``i = 1..n``.
    u_fifo:
        Mean utilization of the FIFO queue by cross-traffic
        (``u_bar_fifo``); zero reproduces the no-FIFO case of section
        6.2 (equations (33)–(34)).
    workload_drift:
        Optional ``E[W(a_n)] - E[W(a_1)]`` term of ``kappa``.

    Returns
    -------
    DispersionBounds
        With the active region labels, e.g. ``"high-rate"`` /
        ``"low-rate"`` for the lower bound and ``"region-1/2/3"`` for
        the upper bound.
    """
    mu = _validate(mu_means, input_gap, u_fifo)
    n = len(mu)
    k = kappa(mu, workload_drift)
    head = mean_head(mu)
    tail = mean_tail(mu)

    # --- closed form (27): the FIFO queue never empties during the train.
    if input_gap <= tail and input_gap <= (tail - k) / (1 - u_fifo):
        closed = tail + u_fifo * input_gap
        return DispersionBounds(input_gap=input_gap, lower=closed,
                                upper=closed, lower_region="closed-form",
                                upper_region="closed-form")

    # --- lower bound, equation (29).
    lower_knee = (tail - k) / (1 - u_fifo)
    if input_gap >= lower_knee:
        lower = input_gap + k
        lower_region = "low-rate"
    else:
        lower = tail + u_fifo * input_gap
        lower_region = "high-rate"

    # --- upper bound, equation (30).
    if u_fifo > 0:
        # A subnormal u_fifo overflows the knee to inf, which is the
        # right answer (region 1 is unreachable); it is not worth a
        # RuntimeWarning.
        with np.errstate(over="ignore"):
            upper_knee = (head + k) / u_fifo
    else:
        upper_knee = np.inf
    if input_gap >= upper_knee:
        upper = input_gap + head + k
        upper_region = "region-1"
    elif input_gap >= tail:
        # The paper's region-2 value (1 + u_fifo) g_I neglects the
        # O(kappa) edge term of equation (21); with E[R_n] >= 0 any
        # sound upper bound must be at least g_I + kappa (otherwise it
        # would cross the paper's own lower bound, eq. (33)).  Raise it
        # accordingly.
        upper = max((u_fifo + 1) * input_gap, input_gap + k)
        upper_region = "region-2"
    else:
        upper = tail + u_fifo * input_gap
        upper_region = "region-3"

    return DispersionBounds(input_gap=input_gap, lower=min(lower, upper),
                            upper=upper,
                            lower_region=lower_region,
                            upper_region=upper_region)


def output_gap_bounds_strict(input_gap: float, mu_means: np.ndarray,
                             workload_drift: float = 0.0) -> DispersionBounds:
    """Sample-path-sound bounds from equations (21) and (23).

    The paper's piecewise bounds (29)-(30) contain the term
    ``(1 + u_fifo) g_I`` (from equation (28)), derived under a
    steady-window approximation of ``u~fifo(d_1, d_n)``; during a strong
    transient the measured ``E[g_O]`` exceeds it by up to
    ``kappa + E[R_n]/(n-1)`` — indeed the paper's own lower bound
    ``g_I + kappa`` (eq. (33)) crosses it.  For no-FIFO-cross-traffic
    sample paths, equation (21) is an exact identity::

        E[g_O] = g_I + E[R_n]/(n-1) + kappa(n)

    and equation (23) brackets ``R_n`` path-wise, giving the always-valid
    (in expectation, by Jensen on the max) bounds::

        g_I + max(0, sum_{i<n}(E[mu_i] - g_I))/(n-1) + kappa  <=  E[g_O]
        E[g_O]  <=  g_I + mean_head + kappa
    """
    mu = _validate(mu_means, input_gap, 0.0)
    n = len(mu)
    k = kappa(mu, workload_drift)
    head_sum = float(np.sum(mu[:-1]))
    lower = input_gap + max(0.0, (head_sum - (n - 1) * input_gap)) / (n - 1) + k
    upper = input_gap + head_sum / (n - 1) + k
    return DispersionBounds(input_gap=input_gap, lower=lower, upper=upper,
                            lower_region="eq21+23-lower",
                            upper_region="eq21+23-upper")


def transient_achievable_throughput(size_bytes: int, mu_means: np.ndarray,
                                    u_fifo: float = 0.0) -> float:
    """Equations (31)/(36): achievable throughput of an n-packet train.

    ``L / B = (1/n) sum_i E[mu_i] / (1 - u_fifo)``.  Because the early
    ``mu_i`` are smaller than their steady-state value, B here is
    *larger* than the steady-state achievable throughput — short trains
    can move data faster than long flows.
    """
    if size_bytes <= 0:
        raise ValueError(f"size must be positive, got {size_bytes}")
    mu = np.asarray(mu_means, dtype=float)
    if len(mu) == 0 or np.any(mu <= 0):
        raise ValueError("need positive mean access delays")
    if not 0 <= u_fifo < 1:
        raise ValueError(f"u_fifo must be in [0, 1), got {u_fifo}")
    mean_service = float(np.mean(mu)) / (1 - u_fifo)
    return size_bytes * 8 / mean_service


def steady_state_achievable_throughput(size_bytes: int,
                                       steady_access_delay: float,
                                       u_fifo: float = 0.0) -> float:
    """Equations (32)/(37): the n -> infinity limit of B.

    ``L / B -> E[mu_infinity] / (1 - u_fifo)``.
    """
    if size_bytes <= 0:
        raise ValueError(f"size must be positive, got {size_bytes}")
    if steady_access_delay <= 0:
        raise ValueError("steady-state access delay must be positive")
    if not 0 <= u_fifo < 1:
        raise ValueError(f"u_fifo must be in [0, 1), got {u_fifo}")
    return size_bytes * 8 * (1 - u_fifo) / steady_access_delay
