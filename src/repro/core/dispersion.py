"""Dispersion data model.

A dispersion-based tool only ever sees two timestamp sequences: the
send instants ``a_i`` (sender side) and the receive instants ``d_i``
(receiver side).  :class:`TrainMeasurement` wraps one probing train's
worth of those and exposes the output gap ``g_O = (d_n - d_1)/(n-1)``
of section 5 (equation (16)), the per-packet dispersions and the
one-way delays.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np


def output_gap(departures: Sequence[float]) -> float:
    """Equation (16): g_O = (d_n - d_1) / (n - 1)."""
    d = np.asarray(departures, dtype=float)
    if len(d) < 2:
        raise ValueError("need at least two departures")
    if np.any(np.diff(d) < 0):
        raise ValueError("departures must be non-decreasing")
    return float((d[-1] - d[0]) / (len(d) - 1))


def output_gaps_batch(departures: np.ndarray) -> np.ndarray:
    """Equation (16) over a ``(repetitions, n)`` departure batch.

    Row ``r`` is one train's receive instants; the result is the
    per-train output gap vector, computed in one array operation
    instead of one :func:`output_gap` call per repetition.
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
    """Timestamps of one probing train.

    Attributes
    ----------
    send_times:
        Sender-side timestamps ``a_i`` (seconds).
    recv_times:
        Receiver-side timestamps ``d_i``.  A constant clock offset
        between the two hosts cancels out of every dispersion-based
        quantity (only differences of same-host timestamps are used).
    size_bytes:
        Probe packet size L.
    """

    send_times: np.ndarray
    recv_times: np.ndarray
    size_bytes: int

    def __post_init__(self) -> None:
        send = np.asarray(self.send_times, dtype=float)
        recv = np.asarray(self.recv_times, dtype=float)
        object.__setattr__(self, "send_times", send)
        object.__setattr__(self, "recv_times", recv)
        if send.shape != recv.shape or send.ndim != 1:
            raise ValueError("timestamp arrays must be equal-length 1-D")
        if len(send) < 2:
            raise ValueError("a train needs at least two packets")
        if self.size_bytes <= 0:
            raise ValueError(f"size must be positive, got {self.size_bytes}")
        if np.any(np.diff(send) < -1e-12):
            raise ValueError("send times must be non-decreasing")
        if np.any(np.diff(recv) < -1e-12):
            raise ValueError("receive times must be non-decreasing")

    @property
    def n(self) -> int:
        """Number of packets in the train."""
        return len(self.send_times)

    @property
    def output_gap(self) -> float:
        """Equation (16): (d_n - d_1)/(n - 1)."""
        return output_gap(self.recv_times)

    @property
    def output_gaps(self) -> np.ndarray:
        """Per-packet dispersions d_{i+1} - d_i (MSER operates on these)."""
        return np.diff(self.recv_times)

    @property
    def one_way_delays(self) -> np.ndarray:
        """d_i - a_i (meaningful only up to the host clock offset)."""
        return self.recv_times - self.send_times


def decompose_output_gap(input_gap: float, access_delays: np.ndarray,
                         residual_last: float, workload_first: float,
                         workload_last: float) -> float:
    """Equation (18): reconstruct g_O from the sample-path processes.

    ``g_O = g_I + R_n/(n-1) + (W(a_n) - W(a_1))/(n-1) + (mu_n - mu_1)/(n-1)``

    Used by the framework-consistency tests: the value must equal the
    directly measured ``(d_n - d_1)/(n-1)`` on every sample path.
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
