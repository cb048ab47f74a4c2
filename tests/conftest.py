"""Shared fixtures for the test suite.

Besides the plain object fixtures, this file owns the KS-pin
machinery shared across the suite (implementations in
``tests/helpers.py`` so test modules can import them by name):

* :func:`ks_assert` — the one two-sample KS assertion every
  equivalence pin uses (``alpha = 0.01``, the repo-wide pin level);
* ``helpers.seed_params`` — master-seed parametrization for the
  seed-robustness sweep: the first seed runs everywhere (tier-1), the
  extra seeds carry the ``seed_sweep`` marker and are skipped unless
  the run selects them (the CI ``pytest -m seed_sweep`` job), so the
  sweep catches seed-lottery passes without slowing tier-1 down.

It also freezes the import-time heap once collection ends
(:func:`pytest_collection_finish`).
"""

import gc

import numpy as np
import pytest

from helpers import ks_assert_impl
from repro.mac.params import PhyParams
from repro.mac.scenario import StationSpec, WlanScenario
from repro.traffic.generators import CBRGenerator, PoissonGenerator


#: Markers whose tests only run when the invocation selects them
#: (dedicated CI jobs), keeping tier-1 fast.
_GATED_MARKERS = {
    "seed_sweep": "extra master seed; runs in the seed_sweep CI job "
                  "(pytest -m seed_sweep)",
    "chaos": "fault-injection end-to-end; runs in the chaos CI job "
             "(pytest -m chaos)",
}


def pytest_collection_modifyitems(config, items):
    """Skip gated markers unless the run asks for them by name."""
    expression = config.getoption("-m") or ""
    for marker, reason in _GATED_MARKERS.items():
        if marker in expression:
            continue
        skip = pytest.mark.skip(reason=reason)
        for item in items:
            if marker in item.keywords:
                item.add_marker(skip)


def pytest_collection_finish():
    """Leave the heap that imports and collection built out of every
    later garbage collection.

    Those objects (modules, functions, classes, collected items) live
    for the whole test run, yet each full collection scanned them again:
    about 125,000 objects and 40-70 ms per full collection on a 2-CPU
    container, a pause that lands in whatever test allocates at that
    moment, timed sections included.  Frozen after one last collection
    (so no cyclic garbage of the collection is kept), they are skipped,
    and a full collection scans only what the tests allocated.
    """
    gc.collect()
    gc.freeze()


@pytest.fixture(scope="session")
def ks_assert():
    """The shared two-sample KS assertion
    (see :func:`helpers.ks_assert_impl`)."""
    return ks_assert_impl


@pytest.fixture
def rng():
    """A deterministic random generator."""
    return np.random.default_rng(12345)


@pytest.fixture
def phy():
    """Default 802.11b PHY parameters."""
    return PhyParams.dot11b()


@pytest.fixture
def scenario(phy):
    """A default WLAN scenario builder."""
    return WlanScenario(phy)


@pytest.fixture
def saturated_pair_result(scenario):
    """Two saturated stations contending for 1.5 simulated seconds."""
    specs = [
        StationSpec("a", generator=CBRGenerator(9e6, 1500)),
        StationSpec("b", generator=CBRGenerator(9e6, 1500)),
    ]
    return scenario.run(specs, horizon=1.5, seed=7, until=1.5)


@pytest.fixture
def probe_vs_poisson_result(scenario):
    """A 2 Mb/s probe against 3 Mb/s Poisson cross-traffic."""
    specs = [
        StationSpec("probe", generator=CBRGenerator(2e6, 1500, flow="probe")),
        StationSpec("cross", generator=PoissonGenerator(3e6, 1500)),
    ]
    return scenario.run(specs, horizon=1.5, seed=11, until=1.5)
