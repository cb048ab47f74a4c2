"""Importable test helpers (KS assertion, seed parametrization, stores).

These live outside ``conftest.py`` because test modules import them by
name: a full-repo run collects ``benchmarks/`` first, so the bare
module name ``conftest`` resolves to *benchmarks*' conftest and
``from conftest import ...`` breaks.  ``helpers`` exists only under
``tests/`` and is unambiguous.  ``tests/conftest.py`` wraps
:func:`ks_assert_impl` in the session ``ks_assert`` fixture.
"""

import numpy as np
import pytest

from repro.runtime.store import SweepStore
from repro.stats.ks import ks_distance, ks_threshold


def seed_params(*seeds):
    """Parametrize a fixture/test over master seeds.

    ``seeds[0]`` is the tier-1 seed; the rest only run under
    ``-m seed_sweep``.
    """
    return [seeds[0]] + [pytest.param(s, marks=pytest.mark.seed_sweep)
                         for s in seeds[1:]]


def ks_assert_impl(a, b, alpha=0.01):
    """Two-sample KS assertion at the repo-wide pin level.

    Flattens both samples; fails with the measured distance and the
    threshold in the message.  Pins that compare *correlated* samples
    (all probes of a repetition share one cross-traffic path) must
    pass per-repetition statistics — rep means, a fixed probe index —
    not the pooled matrix, or the threshold is anti-conservative.
    """
    a = np.asarray(a, dtype=float).ravel()
    b = np.asarray(b, dtype=float).ravel()
    distance = ks_distance(a, b)
    threshold = ks_threshold(len(a), len(b), alpha=alpha)
    assert distance <= threshold, (
        f"KS distance {distance:.4f} exceeds the alpha={alpha} "
        f"threshold {threshold:.4f} ({len(a)} vs {len(b)} samples)")


def store_payloads(root):
    """Map point id -> stored payload text for every row of a store."""
    frame = SweepStore.open(root).frame(columns=["point_id", "payload"])
    return {str(pid): str(blob)
            for pid, blob in zip(frame["point_id"], frame["payload"])}
