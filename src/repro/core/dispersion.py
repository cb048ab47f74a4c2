"""Dispersion data model.

A dispersion-based tool only ever sees two timestamp sequences per
train: the send instants ``a_i`` (sender side) and the receive
instants ``d_i`` (receiver side).  :class:`TrainMeasurement` holds
those of the ``m`` trains sent at one probing point, as ``(m, n)``
matrices, and exposes the per-train output gaps
``g_O = (d_n - d_1)/(n-1)`` of section 5 (equation (16)), the
per-packet dispersions and the one-way delays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def output_gaps_batch(departures: np.ndarray) -> np.ndarray:
    """Equation (16), ``g_O = (d_n - d_1)/(n - 1)``, over a
    ``(repetitions, n)`` departure batch.

    Row ``r`` is one train's receive instants; the result is the
    per-train output gap vector.
    """
    d = np.asarray(departures, dtype=float)
    if d.ndim != 2:
        raise ValueError("expected a 2-D (repetitions, n) array")
    if d.shape[1] < 2:
        raise ValueError("need at least two departures per train")
    if np.any(np.diff(d, axis=1) < -1e-12):
        raise ValueError("departures must be non-decreasing")
    return (d[:, -1] - d[:, 0]) / (d.shape[1] - 1)


@dataclass(frozen=True)
class TrainMeasurement:
    """Timestamps of the ``m`` trains sent at one probing point.

    Attributes
    ----------
    send_times:
        ``(m, n)`` sender-side timestamps ``a_i`` (seconds), one train
        per row.
    recv_times:
        ``(m, n)`` receiver-side timestamps ``d_i``.  A constant clock
        offset between the two hosts cancels out of every
        dispersion-based quantity (only differences of same-host
        timestamps are used).
    size_bytes:
        Probe packet size L.

    Both matrices are stored C-ordered whatever layout they arrive
    in: a per-index mean over the rows sums in memory order, so the
    layout must not depend on the caller.
    """

    send_times: np.ndarray
    recv_times: np.ndarray
    size_bytes: int

    def __post_init__(self) -> None:
        send = np.ascontiguousarray(self.send_times, dtype=float)
        recv = np.ascontiguousarray(self.recv_times, dtype=float)
        object.__setattr__(self, "send_times", send)
        object.__setattr__(self, "recv_times", recv)
        if send.shape != recv.shape or send.ndim != 2:
            raise ValueError("timestamps must be equal-shape (m, n) arrays")
        if send.shape[0] < 1:
            raise ValueError("a measurement needs at least one train")
        if send.shape[1] < 2:
            raise ValueError("a train needs at least two packets")
        if self.size_bytes <= 0:
            raise ValueError(f"size must be positive, got {self.size_bytes}")
        if np.any(np.diff(send, axis=1) < -1e-12):
            raise ValueError("send times must be non-decreasing")
        if np.any(np.diff(recv, axis=1) < -1e-12):
            raise ValueError("receive times must be non-decreasing")

    @property
    def repetitions(self) -> int:
        """Number of trains m (rows)."""
        return self.send_times.shape[0]

    @property
    def n(self) -> int:
        """Number of packets per train (columns)."""
        return self.send_times.shape[1]

    @property
    def output_gaps(self) -> np.ndarray:
        """Per-train output gaps g_O, equation (16)."""
        return output_gaps_batch(self.recv_times)

    @property
    def dispersions(self) -> np.ndarray:
        """Per-packet dispersions d_{i+1} - d_i, one row per train
        (MSER operates on these)."""
        return np.diff(self.recv_times, axis=1)

    @property
    def one_way_delays(self) -> np.ndarray:
        """d_i - a_i (meaningful only up to the host clock offset)."""
        return self.recv_times - self.send_times


def decompose_output_gap(input_gap: float, access_delays: np.ndarray,
                         residual_last: float, workload_first: float,
                         workload_last: float) -> float:
    """Equation (18): reconstruct g_O from the sample-path processes.

    ``g_O = g_I + R_n/(n-1) + (W(a_n) - W(a_1))/(n-1) + (mu_n - mu_1)/(n-1)``

    The value must equal the directly measured ``(d_n - d_1)/(n-1)``
    on every sample path.
    """
    mu = np.asarray(access_delays, dtype=float)
    if len(mu) < 2:
        raise ValueError("need at least two packets")
    if input_gap < 0:
        raise ValueError(f"input gap must be non-negative, got {input_gap}")
    n = len(mu)
    return (input_gap
            + residual_last / (n - 1)
            + (workload_last - workload_first) / (n - 1)
            + (mu[-1] - mu[0]) / (n - 1))
