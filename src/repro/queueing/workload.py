"""The intrusion residual of section 5.1 of the paper.

:func:`intrusion_residual_recursive` implements the residual ``R_i`` of
equations (13)–(14): how long probing packet ``i`` waits in its
station's queue before it reaches the head of the line.
"""

from __future__ import annotations

from typing import Optional

import numpy as np


def intrusion_residual_recursive(
        access_delays: np.ndarray, input_gap: float,
        utilizations: Optional[np.ndarray] = None) -> np.ndarray:
    """The intrusion residual ``R_i`` via the recursion of equation (14).

    ``R_1 = 0`` and for ``i > 1``::

        R_i = max(0, mu_{i-1} + R_{i-1} - (1 - u_fifo(a_{i-1}, a_i)) g_I)

    Parameters
    ----------
    access_delays:
        The ``mu_i`` experienced by each probing packet.
    input_gap:
        The probing input gap ``g_I``.
    utilizations:
        ``u_fifo(a_{i-1}, a_i)`` for each gap (length ``n - 1``); zeros
        (no FIFO cross-traffic) when omitted.
    """
    mu = np.asarray(access_delays, dtype=float)
    n = len(mu)
    if n == 0:
        return np.array([])
    if input_gap < 0:
        raise ValueError(f"input gap must be non-negative, got {input_gap}")
    if utilizations is None:
        utilizations = np.zeros(n - 1)
    utilizations = np.asarray(utilizations, dtype=float)
    if len(utilizations) != n - 1:
        raise ValueError(
            f"need {n - 1} gap utilizations, got {len(utilizations)}")
    residual = np.zeros(n)
    for i in range(1, n):
        free_gap = (1.0 - utilizations[i - 1]) * input_gap
        residual[i] = max(0.0, mu[i - 1] + residual[i - 1] - free_gap)
    return residual

