"""The numba jit kernel tier (PR 9).

Pins the tier's whole contract:

* plumbing — the ambient ``kernel_tier`` scope the numpy kernels
  consult, the ``maybe_njit`` fallback that keeps the cores importable
  (and runnable, as plain Python) without numba, and the idempotent
  one-time ``warm_kernels`` compile;
* dispatch — ``auto`` picks the jit tier when numba is importable,
  degrades to the numpy tier with a structured
  ``meta["backend_degraded"]`` reason when it is not, and a *forced*
  ``--backend jit`` without numba fails with a
  :class:`BackendUnavailableError` carrying a dependency mismatch
  ("numba not installed"), never a bare ImportError;
* equivalence — the jit cores are *bit-identical* to the numpy tier on
  the Lindley replay path (and, by construction, on the saturated and
  probe-train kernels, pinned here too) and KS-equivalent to the event
  engine, including under ``--chunk-reps`` streaming.

The equivalence pins run in every environment: without numba the
``maybe_njit`` identity decorator executes the very same core
functions as plain Python, so a numba-free CI run still proves the
cores' arithmetic; the dedicated numba CI job proves the compiled
variants on top.
"""

import sys

import numpy as np
import pytest

from helpers import seed_params
from repro.analysis.saturation import simulate_saturated
from repro.analysis.steady_state import steady_state_scan
from repro.backends import BackendUnavailableError, ScenarioSpec, dispatch
from repro.queueing.lindley import lindley_batch
from repro.runtime import registry
from repro.runtime.executor import chunked_reps
from repro.sim import jit
from repro.testbed.channel import (SimulatedFifoChannel, SimulatedWlanChannel,
                                   send_scan)
from repro.traffic.generators import PoissonGenerator
from repro.traffic.probe import ProbeTrain

L = 1500

WLAN_TRAIN = ScenarioSpec(system="wlan", workload="train",
                          cross_traffic="poisson")


@pytest.fixture
def jit_forced(monkeypatch):
    """Force the jit tier *selectable* regardless of numba.

    Without numba the cores run as plain Python (``maybe_njit`` is the
    identity), which is exactly what the bit-identity pins want: same
    arithmetic, same order, no compiler in the way.
    """
    monkeypatch.setattr(jit, "_FORCE_AVAILABLE", True)


@pytest.fixture
def numba_hidden(monkeypatch):
    """Make numba unimportable for this test, even where installed."""
    monkeypatch.setattr(jit, "_FORCE_AVAILABLE", None)
    monkeypatch.setitem(sys.modules, "numba", None)


def _batches_equal(a, b):
    """Bit-exact equality of two probe-batch-shaped results."""
    assert np.array_equal(a.send_times, b.send_times)
    assert np.array_equal(a.recv_times, b.recv_times)
    assert np.array_equal(a.access_delays, b.access_delays,
                          equal_nan=True)


class TestTierPlumbing:
    def test_default_tier_is_numpy(self):
        assert jit.active_tier() == "numpy"

    def test_kernel_tier_sets_and_restores(self):
        with jit.kernel_tier("jit"):
            assert jit.active_tier() == "jit"
            with jit.kernel_tier("numpy"):
                assert jit.active_tier() == "numpy"
            assert jit.active_tier() == "jit"
        assert jit.active_tier() == "numpy"

    def test_kernel_tier_restores_on_error(self):
        with pytest.raises(RuntimeError):
            with jit.kernel_tier("jit"):
                raise RuntimeError("boom")
        assert jit.active_tier() == "numpy"

    def test_unknown_tier_rejected(self):
        with pytest.raises(ValueError, match="unknown kernel tier"):
            with jit.kernel_tier("cuda"):
                pass  # pragma: no cover

    def test_availability_probe_matches_import(self, monkeypatch):
        monkeypatch.setattr(jit, "_FORCE_AVAILABLE", None)
        monkeypatch.setitem(sys.modules, "numba", None)
        assert not jit.available()
        assert jit.unavailable_reason() == "numba not installed"
        monkeypatch.setattr(jit, "_FORCE_AVAILABLE", True)
        assert jit.available()
        assert jit.unavailable_reason() is None

    def test_warm_kernels_idempotent(self, jit_forced):
        jit.warm_kernels()
        assert jit._WARMED
        jit.warm_kernels()  # second call is a no-op, not a recompile
        assert jit._WARMED


class TestForcedJitWithoutNumba:
    """Satellite 2: the failure mode must be structured, not ImportError."""

    def test_resolve_raises_backend_unavailable(self, numba_hidden):
        with pytest.raises(BackendUnavailableError,
                           match="numba not installed") as err:
            dispatch.resolve(WLAN_TRAIN, "jit")
        mismatches = [m for found in err.value.mismatches.values()
                      for m in found]
        assert mismatches
        assert {m.capability for m in mismatches} == {"dependency"}
        assert all(m.required == "numba" for m in mismatches)

    def test_registry_surfaces_dependency_error(self, numba_hidden):
        with pytest.raises(BackendUnavailableError,
                           match="numba not installed"):
            registry.get("fig6").kwargs_for(backend="jit")

    def test_channel_surfaces_dependency_error(self, numba_hidden):
        channel = SimulatedWlanChannel(
            [("cross", PoissonGenerator(4e6, L))], warmup=0.05)
        with pytest.raises(BackendUnavailableError,
                           match="numba not installed"):
            channel.send_trains(ProbeTrain.at_rate(6, 4e6, L), 2,
                                seed=1, backend="jit")

    def test_forced_jit_on_ineligible_scenario_names_capability(
            self, jit_forced):
        """Capability mismatches outrank availability: the path study
        has no jit twin, so forcing jit names the missing kernel."""
        spec = ScenarioSpec(system="path", workload="train",
                            cross_traffic="poisson")
        with pytest.raises(BackendUnavailableError,
                           match="no jit kernel supports"):
            dispatch.resolve(spec, "jit")


class TestAutoDegradation:
    def test_auto_degrades_to_numpy_tier(self, numba_hidden):
        resolution = dispatch.resolve(WLAN_TRAIN, "auto")
        assert resolution.name == "vector"
        assert resolution.fallback is None
        assert "numba" in resolution.degraded
        assert "degraded" in resolution.describe()

    def test_auto_picks_jit_when_available(self, jit_forced):
        resolution = dispatch.resolve(WLAN_TRAIN, "auto")
        assert resolution.name == "jit"
        assert resolution.kernel == "probe-train kernel (jit)"
        assert resolution.degraded is None

    def test_degradation_recorded_in_result_meta(self, numba_hidden):
        report = registry.get("eq1").run(scale=0.02, seed=3,
                                         backend="auto", cache=None)
        meta = report.result.meta
        assert meta["backend"] == "vector"
        # Degradation is not a fallback: a kernel still ran.
        assert "numba" in meta["backend_degraded"]
        assert "backend_fallback" not in meta

    def test_no_degradation_note_when_jit_runs(self, jit_forced):
        report = registry.get("eq1").run(scale=0.02, seed=3,
                                         backend="auto", cache=None)
        meta = report.result.meta
        assert meta["backend"] == "jit"
        assert "backend_degraded" not in meta
        assert "backend_fallback" not in meta


class TestBitIdentityWithNumpyTier:
    """Satellite 3: the jit tier must not move a single bit."""

    @pytest.mark.parametrize("seed", seed_params(0, 7, 23))
    def test_lindley_replay_bit_identical(self, jit_forced, seed):
        channel = SimulatedFifoChannel(
            8e6, cross_generator=PoissonGenerator(3e6, L),
            start_jitter=0.0)
        train = ProbeTrain.at_rate(12, 6e6, L)
        vector = channel.send_trains_dense(train, 13, seed=seed,
                                           backend="vector")
        jitted = channel.send_trains_dense(train, 13, seed=seed,
                                           backend="jit")
        _batches_equal(jitted, vector)

    @pytest.mark.parametrize("seed", seed_params(0, 7, 23))
    def test_saturated_batch_bit_identical(self, jit_forced, seed):
        vector = simulate_saturated(4, 15, 13, seed=seed, retry_limit=3,
                                    backend="vector")
        jitted = simulate_saturated(4, 15, 13, seed=seed, retry_limit=3,
                                    backend="jit")
        assert np.array_equal(vector.access_delays, jitted.access_delays,
                              equal_nan=True)
        assert np.array_equal(vector.durations, jitted.durations)
        assert np.array_equal(vector.successes, jitted.successes)
        assert np.array_equal(vector.collisions, jitted.collisions)
        assert np.array_equal(vector.drops, jitted.drops)

    @pytest.mark.parametrize("seed", seed_params(0, 7, 23))
    def test_probe_train_bit_identical(self, jit_forced, seed):
        channel = SimulatedWlanChannel(
            [("cross", PoissonGenerator(4e6, L))], warmup=0.05)
        train = ProbeTrain.at_rate(10, 5e6, L)
        vector = channel.send_trains_dense(train, 13, seed=seed,
                                           backend="vector")
        jitted = channel.send_trains_dense(train, 13, seed=seed,
                                           backend="jit")
        _batches_equal(jitted, vector)

    def test_fused_steady_scan_bit_identical(self, jit_forced):
        """A fused rate scan — a probe rate per row, FIFO tags padded
        with -1 — runs per row on the jit tier and moves no bit."""
        scan = dict(probe_rates_bps=[1e6, 6e6], cross_rate_bps=3e6,
                    fifo_rate_bps=1.5e6, duration=0.3, warmup=0.1,
                    repetitions=3, seed=2)
        vector = steady_state_scan(backend="vector", **scan)
        jitted = steady_state_scan(backend="jit", **scan)
        for flow in vector:
            assert np.array_equal(jitted[flow], vector[flow])

    def test_fused_probe_scan_bit_identical(self, jit_forced):
        """A fused probe-train scan — a schedule and a horizon per
        row, FIFO cross-traffic in the probe queue — runs per row on
        the jit tier and moves no bit."""
        channel = SimulatedWlanChannel(
            [("cross", PoissonGenerator(3e6, L))],
            fifo_cross=PoissonGenerator(1e6, L, flow="fifo"), warmup=0.05)
        trains = [ProbeTrain.at_rate(10, rate, L)
                  for rate in (2e6, 5e6, 8e6)]
        vector = channel.send_scan(trains, 4, [3, 4, 5], backend="vector")
        jitted = channel.send_scan(trains, 4, [3, 4, 5], backend="jit")
        _batches_equal(jitted, vector)

    def test_fused_station_counts_bit_identical(self, jit_forced):
        """A scan over WLAN channels with zero, one and two contenders
        — a station count per row — runs each row on its own stations
        on the jit tier and moves no bit."""
        channels = [
            SimulatedWlanChannel([], warmup=0.05),
            SimulatedWlanChannel([("cross", PoissonGenerator(3e6, L))],
                                 warmup=0.05),
            SimulatedWlanChannel([("a", PoissonGenerator(2e6, L)),
                                  ("b", PoissonGenerator(1e6, L))],
                                 warmup=0.05),
        ]
        trains = [ProbeTrain.at_rate(10, 5e6, L)] * len(channels)
        vector = send_scan(channels, trains, 4, [3, 4, 5], backend="vector")
        jitted = send_scan(channels, trains, 4, [3, 4, 5], backend="jit")
        _batches_equal(jitted, vector)

    def test_lindley_batch_function_level(self, jit_forced):
        rng = np.random.default_rng(5)
        arrivals = np.sort(rng.random((6, 40)), axis=1)
        services = rng.exponential(0.02, (6, 40))
        starts, departures = lindley_batch(arrivals, services)
        with jit.kernel_tier("jit"):
            tiered_starts, tiered_departures = lindley_batch(arrivals,
                                                             services)
        assert np.array_equal(starts, tiered_starts)
        assert np.array_equal(departures, tiered_departures)

    def test_chunked_jit_bit_identical_to_dense(self, jit_forced):
        """PR-8 streaming composes with the tier: chunked == dense."""
        channel = SimulatedWlanChannel(
            [("cross", PoissonGenerator(4e6, L))], warmup=0.05)
        train = ProbeTrain.at_rate(10, 5e6, L)
        dense = channel.send_trains_dense(train, 13, seed=11,
                                          backend="jit")
        with chunked_reps(5):
            chunked = channel.send_trains_dense(train, 13, seed=11,
                                                backend="jit")
        _batches_equal(chunked, dense)

    def test_chunked_jit_saturated_bit_identical(self, jit_forced):
        dense = simulate_saturated(4, 15, 13, seed=23, retry_limit=3,
                                   backend="jit")
        with chunked_reps(4):
            chunked = simulate_saturated(4, 15, 13, seed=23,
                                         retry_limit=3, backend="jit")
        assert np.array_equal(dense.access_delays, chunked.access_delays,
                              equal_nan=True)
        assert np.array_equal(dense.drops, chunked.drops)


class TestKsEquivalenceWithEventEngine:
    """Satellite 3: jit vs. the event engine, KS-pinned at alpha=0.01.

    Fixed seeds make these deterministic regressions (see
    ``tests/test_vector_backend.py`` for the rationale); the extra
    master seeds run under ``-m seed_sweep``.
    """

    S, P, R = 3, 25, 40

    @pytest.fixture(scope="class", params=seed_params(0, 7, 23))
    def saturated(self, request):
        seed = request.param
        event = simulate_saturated(self.S, self.P, self.R, seed=seed,
                                   backend="event")
        jit._FORCE_AVAILABLE = True
        try:
            jitted = simulate_saturated(self.S, self.P, self.R,
                                        seed=seed, backend="jit")
        finally:
            jit._FORCE_AVAILABLE = None
        return event, jitted

    def test_saturated_delays_match(self, saturated, ks_assert):
        event, jitted = saturated
        ks_assert(event.pooled_access_delays(),
                  jitted.pooled_access_delays())

    def test_saturated_throughput_matches(self, saturated, ks_assert):
        event, jitted = saturated
        ks_assert(event.throughput_bps(), jitted.throughput_bps())

    @pytest.mark.parametrize("seed", seed_params(0, 7, 23))
    def test_probe_train_first_delay_matches(self, jit_forced, seed,
                                             ks_assert):
        """The transient-critical statistic: the first packet's access
        delay, iid across repetitions on both engines."""
        channel = SimulatedWlanChannel(
            [("cross", PoissonGenerator(4e6, L))], warmup=0.05)
        train = ProbeTrain.at_rate(20, 5e6, L)
        event = channel.send_trains_dense(train, 50, seed=seed,
                                          backend="event")
        jitted = channel.send_trains_dense(train, 50, seed=seed,
                                           backend="jit")
        ks_assert(event.access_delays[:, 0], jitted.access_delays[:, 0])
        ks_assert(event.access_delays.mean(axis=1),
                  jitted.access_delays.mean(axis=1))


class TestCacheKeyIsolation:
    def test_jit_and_vector_cache_keys_differ(self, jit_forced,
                                              tmp_path):
        """The backend sits in the cache key, so a jit result can
        never be served to a vector request (or vice versa)."""
        from repro.runtime.cache import ResultCache
        cache = ResultCache(root=tmp_path)
        experiment = registry.get("eq1")
        vector_key = cache.key_for(
            "eq1", experiment.kwargs_for(scale=0.02, backend="vector"))
        jit_key = cache.key_for(
            "eq1", experiment.kwargs_for(scale=0.02, backend="jit"))
        assert vector_key != jit_key
