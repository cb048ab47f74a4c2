"""The batch estimators return the per-train arithmetic bit for bit.

A :class:`TrainMeasurement` holds one probing point's ``(m, n)``
timestamp matrices.  Before it did, each train was its own measurement
and every estimator walked the list of them.  The ``reference_*``
functions below keep that list walk, one 1-D row per train, and each
batch estimator must return the very same float (``==``, not approx)
on random monotone batches: C-ordered, Fortran-ordered, and row slices
of a larger batch alike.  A per-index mean sums in memory order, so
this also pins the measurement's C-ordered storage.

hypothesis is optional: without it the seeded cases still run and the
property test skips.
"""

import numpy as np
import pytest

try:
    from hypothesis import given, settings, strategies as st
    HAS_HYPOTHESIS = True
except ImportError:  # pragma: no cover - exercised in the smoke lane
    HAS_HYPOTHESIS = False

from repro.core.chirp import ChirpTrain, analyze_chirp, chirp_estimate
from repro.core.correction import mser_corrected_rate
from repro.core.dispersion import TrainMeasurement
from repro.core.estimators import packet_pair_capacity, train_dispersion_rate
from repro.stats.warmup import mser_m

SIZE = 1500
CHIRP = ChirpTrain.covering_rates(1e6, 8e6, spread_factor=1.3)
LAYOUTS = ("C", "F", "slice")


# ----------------------------------------------------------------------
# The per-train reference: one row per train, walked as a list
# ----------------------------------------------------------------------

def _trains(send, recv):
    return list(zip(send, recv))


def reference_train_dispersion_rate(send, recv, size):
    gaps = [float((d[-1] - d[0]) / (len(d) - 1))
            for _, d in _trains(send, recv)]
    return size * 8 / float(np.mean(gaps))


def reference_packet_pair_capacity(send, recv, size):
    dispersions = [float(d[1] - d[0]) for _, d in _trains(send, recv)]
    return size * 8 / float(np.mean(dispersions))


def reference_mser_corrected_rate(send, recv, size, m):
    gaps = np.vstack([np.diff(d) for _, d in _trains(send, recv)])
    cut = int(mser_m(gaps.mean(axis=0), m=m).truncate_before)
    retained = gaps[:, cut:] if cut < gaps.shape[1] else gaps
    return size * 8 / float(np.mean(retained))


def reference_chirp_estimate(send, recv, chirp):
    rates = [analyze_chirp(d - a, chirp).turning_rate_bps
             for a, d in _trains(send, recv)]
    return float(np.mean(rates))


# ----------------------------------------------------------------------
# Random monotone batches
# ----------------------------------------------------------------------

def _monotone_batch(rng, m, n, send=None):
    """``(m, n)`` send and receive instants, each row increasing;
    ``send`` fixes the send schedule of every row."""
    if send is None:
        send = np.cumsum(rng.exponential(2e-3, (m, n)), axis=1)
    else:
        send = np.tile(send, (m, 1))
    delays = rng.exponential(3e-3, (m, n))
    recv = (np.maximum.accumulate(send + delays, axis=1)
            + np.cumsum(rng.exponential(1e-4, (m, n)), axis=1))
    return send, recv


def _laid_out(rng, layout, m, n, send=None):
    """A random batch in ``layout``: C order, Fortran order, or rows
    ``3 .. 3 + m`` of a larger C-ordered batch."""
    if layout == "slice":
        send, recv = _monotone_batch(rng, m + 7, n, send)
        return send[3:3 + m], recv[3:3 + m]
    send, recv = _monotone_batch(rng, m, n, send)
    if layout == "F":
        send, recv = np.asfortranarray(send), np.asfortranarray(recv)
        assert m == 1 or not send.flags.c_contiguous
    return send, recv


def _check_against_reference(seed, layout, m, n):
    rng = np.random.default_rng(seed)
    send, recv = _laid_out(rng, layout, m, n)
    measurement = TrainMeasurement(send, recv, SIZE)
    assert train_dispersion_rate(measurement) == \
        reference_train_dispersion_rate(send, recv, SIZE)
    assert packet_pair_capacity(measurement) == \
        reference_packet_pair_capacity(send, recv, SIZE)
    for batch in (1, 2):
        if n - 1 >= 2 * batch:  # MSER-m needs two batch means
            assert mser_corrected_rate(measurement, m=batch) == \
                reference_mser_corrected_rate(send, recv, SIZE, batch)
    send, recv = _laid_out(rng, layout, m, CHIRP.n,
                           send=CHIRP.arrival_times(0.1))
    chirps = TrainMeasurement(send, recv, CHIRP.size_bytes)
    assert chirp_estimate(chirps, CHIRP) == \
        reference_chirp_estimate(send, recv, CHIRP)


@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("seed, m, n", [
    (0, 1, 2), (1, 3, 20), (2, 40, 20), (3, 80, 50), (4, 17, 7),
    (5, 300, 2)])
def test_batch_equals_the_per_train_reference(seed, m, n, layout):
    _check_against_reference(seed, layout, m, n)


if HAS_HYPOTHESIS:

    @settings(max_examples=60, deadline=None, derandomize=True,
              database=None)
    @given(seed=st.integers(min_value=0, max_value=2 ** 32 - 1),
           layout=st.sampled_from(LAYOUTS),
           m=st.integers(min_value=1, max_value=120),
           n=st.integers(min_value=2, max_value=60))
    def test_random_batches_equal_the_per_train_reference(seed, layout,
                                                          m, n):
        _check_against_reference(seed, layout, m, n)

else:  # pragma: no cover - exercised in the smoke lane

    def test_random_batches_equal_the_per_train_reference():
        pytest.skip("hypothesis is not installed; the seeded cases "
                    "above still pin the batch")
