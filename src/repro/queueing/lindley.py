"""The Lindley recursion of a FIFO server.

For a work-conserving FIFO single server fed with arrivals ``a_i`` and
per-packet service times ``s_i``::

    start_i     = max(a_i, d_{i-1})
    d_i         = start_i + s_i

The FIFO hop and the trace-driven queue of this package are derived
from these sample paths.

Both entry points are closed-form vectorized: unrolling the recursion
gives ``d_i = max_{j <= i} (a_j + sum_{k=j..i} s_k)``, which factors
into a cumulative service sum plus a running maximum of
``a_j - cumsum(s)_{j-1}`` — one :func:`numpy.maximum.accumulate` pass
instead of a per-packet Python loop.  :func:`lindley_batch` applies
the same formulation to whole ``(repetitions, n)`` workload batches
at once (the vector probe-train backend's FIFO drain stage).
"""

from __future__ import annotations

from typing import Tuple

import numpy as np


def _lindley_cummax(arrivals: np.ndarray,
                    services: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Cumulative-max Lindley solve along the last axis (no checks).

    Starts are recovered as ``max(a_i, d_{i-1})`` rather than
    ``d_i - s_i`` so an unqueued packet's service start equals its
    arrival *exactly* (the subtraction would lose an ulp to the
    cumulative sum).
    """
    if arrivals.shape[-1] == 0:
        return arrivals.astype(float), arrivals.astype(float)
    from repro.sim import jit as _jit
    if _jit.active_tier() == "jit":
        shape = arrivals.shape
        arr = np.ascontiguousarray(
            arrivals.reshape(-1, shape[-1]), dtype=float)
        srv = np.ascontiguousarray(
            services.reshape(-1, shape[-1]), dtype=float)
        starts = np.empty_like(arr)
        departures = np.empty_like(arr)
        _jit._lindley_core(arr, srv, starts, departures)
        return starts.reshape(shape), departures.reshape(shape)
    cum = np.cumsum(services, axis=-1)
    offset = arrivals - cum + services
    departures = cum + np.maximum.accumulate(offset, axis=-1)
    previous = np.empty_like(departures)
    previous[..., 0] = -np.inf
    previous[..., 1:] = departures[..., :-1]
    return np.maximum(arrivals, previous), departures


def lindley_recursion(arrivals: np.ndarray,
                      services: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Compute FIFO service starts and departures.

    Parameters
    ----------
    arrivals:
        Non-decreasing arrival instants.
    services:
        Positive service times, one per arrival.

    Returns
    -------
    (starts, departures):
        Arrays of the same length.
    """
    arrivals = np.asarray(arrivals, dtype=float)
    services = np.asarray(services, dtype=float)
    if arrivals.shape != services.shape:
        raise ValueError(
            f"shape mismatch: {arrivals.shape} vs {services.shape}")
    if arrivals.ndim != 1:
        raise ValueError("expected 1-D arrays")
    if np.any(np.diff(arrivals) < 0):
        raise ValueError("arrivals must be non-decreasing")
    if np.any(services < 0):
        raise ValueError("service times must be non-negative")
    return _lindley_cummax(arrivals, services)


def lindley_batch(arrivals: np.ndarray,
                  services: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Batched Lindley recursion over ``(repetitions, n)`` workloads.

    Row ``r`` is one independent FIFO sample path; the returned
    ``(starts, departures)`` have the same shape.  Rows may be padded
    at the tail with ``inf`` arrivals (zero service) — padded slots
    depart at ``inf`` without disturbing the finite prefix, which is
    how ragged repetition batches are packed into one rectangle.
    """
    arrivals = np.asarray(arrivals, dtype=float)
    services = np.asarray(services, dtype=float)
    if arrivals.shape != services.shape:
        raise ValueError(
            f"shape mismatch: {arrivals.shape} vs {services.shape}")
    if arrivals.ndim != 2:
        raise ValueError("expected 2-D (repetitions, n) arrays")
    # An inf-padded tail passes (inf < inf is false); a finite arrival
    # after an inf one does not.
    if np.any(arrivals[:, 1:] < arrivals[:, :-1]):
        raise ValueError("arrivals must be non-decreasing within a row")
    if np.any(services < 0):
        raise ValueError("service times must be non-negative")
    return _lindley_cummax(arrivals, services)
