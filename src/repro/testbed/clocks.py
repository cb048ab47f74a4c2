"""Clock and timestamping error models.

A measurement host never sees true event times: its timestamps include
a clock offset relative to true time, a slow drift, and per-timestamp
jitter from the capture path.  The paper's testbed bounds the combined
error to roughly ten microseconds by NTP-syncing over a wired side
channel and timestamping in the driver; :func:`ntp_synced_pair` builds
a sender/receiver clock pair with exactly that error budget.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np


@dataclass
class ClockModel:
    """An affine-plus-noise clock.

    An event at true time ``t`` is stamped
    ``t + offset + drift_ppm * 1e-6 * t + jitter``, where
    jitter is zero-mean Gaussian with standard deviation
    ``jitter_std``.

    Attributes
    ----------
    offset:
        Constant offset from true time (seconds).
    drift_ppm:
        Frequency error in parts per million.
    jitter_std:
        Standard deviation of per-timestamp noise (seconds).
    """

    offset: float = 0.0
    drift_ppm: float = 0.0
    jitter_std: float = 0.0

    def __post_init__(self) -> None:
        if self.jitter_std < 0:
            raise ValueError(
                f"jitter_std must be non-negative, got {self.jitter_std}")

    def timestamps(self, true_times: np.ndarray,
                   rng: np.random.Generator) -> np.ndarray:
        """Timestamp an array of true event times.

        Jitter can reorder timestamps of events closer together than a
        few ``jitter_std``; like a real capture pipeline, the result is
        re-sorted (packets are delivered in order, their timestamps are
        monotonized by the capture path).
        """
        true_times = np.asarray(true_times, dtype=float)
        stamped = (true_times + self.offset
                   + self.drift_ppm * 1e-6 * true_times)
        if self.jitter_std > 0:
            stamped = stamped + rng.normal(0.0, self.jitter_std,
                                           size=true_times.shape)
            stamped = np.maximum.accumulate(stamped)
        return stamped


def ntp_synced_pair(rng: np.random.Generator,
                    sync_error_std: float = 10e-6,
                    jitter_std: float = 5e-6,
                    drift_ppm: float = 0.5) -> Tuple[ClockModel, ClockModel]:
    """Build a (sender, receiver) clock pair like the paper's testbed.

    The sender clock is the time reference; the receiver clock gets a
    random offset of standard deviation ``sync_error_std`` (the NTP
    residual, ~10 us in the paper), a small drift, and both clocks get
    driver-level timestamping jitter ``jitter_std``.
    """
    if sync_error_std < 0:
        raise ValueError("sync_error_std must be non-negative")
    sender = ClockModel(offset=0.0, drift_ppm=0.0, jitter_std=jitter_std)
    receiver = ClockModel(
        offset=float(rng.normal(0.0, sync_error_std)),
        drift_ppm=float(rng.normal(0.0, drift_ppm)),
        jitter_std=jitter_std,
    )
    return sender, receiver
