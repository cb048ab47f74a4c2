"""Steady-state rate-response curves.

The rate response curve relates the input rate ``r_i`` of a probing
flow to its output rate ``r_o`` through a hop:

* :func:`fifo_rate_response` — the classical single-bit-carrier FIFO
  model (equation (1));
* :func:`csma_rate_response` — contention-only CSMA/CA link,
  ``r_o = min(r_i, B)`` (equation (3), from Bredel & Fidler);
* :func:`complete_rate_response` — the paper's complete model with both
  FIFO and contending cross-traffic (equations (4)–(5)).

All functions are vectorized over ``r_i``.
"""

from __future__ import annotations

import numpy as np


def fifo_rate_response(input_rate: np.ndarray, capacity: float,
                       available_bandwidth: float) -> np.ndarray:
    """Equation (1): r_o = min(r_i, C r_i / (r_i + C - A)).

    ``capacity`` is C, ``available_bandwidth`` is A <= C.  Below A the
    flow is undisturbed; above it the FIFO queue shares C between the
    probe and the (fluid) cross-traffic proportionally to their rates.
    """
    if capacity <= 0:
        raise ValueError(f"capacity must be positive, got {capacity}")
    if not 0 <= available_bandwidth <= capacity:
        raise ValueError("need 0 <= A <= C")
    ri = np.asarray(input_rate, dtype=float)
    if np.any(ri < 0):
        raise ValueError("input rates must be non-negative")
    shared = capacity * ri / (ri + capacity - available_bandwidth)
    return np.minimum(ri, shared)


def csma_rate_response(input_rate: np.ndarray,
                       achievable_throughput: float) -> np.ndarray:
    """Equation (3): r_o = min(r_i, B) for a contention-only link."""
    if achievable_throughput <= 0:
        raise ValueError(
            f"B must be positive, got {achievable_throughput}")
    ri = np.asarray(input_rate, dtype=float)
    if np.any(ri < 0):
        raise ValueError("input rates must be non-negative")
    return np.minimum(ri, achievable_throughput)


def complete_rate_response(input_rate: np.ndarray, fair_share: float,
                           u_fifo: float) -> np.ndarray:
    """Equations (4)-(5): both FIFO and contending cross-traffic.

    ``fair_share`` is Bf — the achievable throughput the probe would
    get with no FIFO cross-traffic; ``u_fifo`` is the mean fraction of
    time the FIFO cross-traffic uses the system.  The achievable
    throughput of the full system is ``B = Bf (1 - u_fifo)``; above it
    the probe shares Bf with the FIFO cross-traffic::

        r_o = r_i                              r_i <= B
        r_o = Bf r_i / (r_i + u_fifo Bf)       r_i >= B
    """
    if fair_share <= 0:
        raise ValueError(f"Bf must be positive, got {fair_share}")
    if not 0 <= u_fifo < 1:
        raise ValueError(f"u_fifo must be in [0, 1), got {u_fifo}")
    ri = np.asarray(input_rate, dtype=float)
    if np.any(ri < 0):
        raise ValueError("input rates must be non-negative")
    b = fair_share * (1 - u_fifo)
    shared = np.divide(fair_share * ri, ri + u_fifo * fair_share,
                       out=np.zeros_like(ri, dtype=float),
                       where=(ri + u_fifo * fair_share) > 0)
    return np.where(ri <= b, ri, shared)


def achievable_throughput_complete(fair_share: float, u_fifo: float) -> float:
    """Equation (5): B = Bf (1 - u_fifo)."""
    if fair_share <= 0:
        raise ValueError(f"Bf must be positive, got {fair_share}")
    if not 0 <= u_fifo < 1:
        raise ValueError(f"u_fifo must be in [0, 1), got {u_fifo}")
    return fair_share * (1 - u_fifo)

