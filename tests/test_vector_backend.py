"""Tests for the vectorized DCF backend (repro.sim.vector).

The load-bearing guarantees:

* the kernel is deterministic run-to-run and uses the executor's
  seed-derivation scheme;
* its access-delay and throughput distributions are statistically
  equivalent (KS) to the event engine's on the same saturated
  scenario;
* the runtime layer routes batches to it when (and only when) the
  ``vector`` backend is selected.
"""

import numpy as np
import pytest

from helpers import seed_params
from repro.analysis.saturation import dcf_saturation_study, simulate_saturated
from repro.backends import BatchRequest
from repro.mac.frames import AirtimeModel
from repro.mac.params import PhyParams
from repro.runtime import executor
from repro.sim.vector import simulate_saturated_batch


class TestKernelBasics:
    def test_shapes_and_counts(self):
        batch = simulate_saturated_batch(4, 7, 11, seed=5)
        assert batch.access_delays.shape == (11, 4, 7)
        assert not np.isnan(batch.access_delays).any()
        assert np.all(batch.successes == 4 * 7)
        assert np.all(batch.durations > 0)

    def test_deterministic_run_to_run(self):
        one = simulate_saturated_batch(5, 10, 20, seed=9)
        two = simulate_saturated_batch(5, 10, 20, seed=9)
        assert np.array_equal(one.access_delays, two.access_delays)
        assert np.array_equal(one.durations, two.durations)
        assert np.array_equal(one.collisions, two.collisions)

    def test_seed_changes_results(self):
        one = simulate_saturated_batch(5, 10, 20, seed=9)
        other = simulate_saturated_batch(5, 10, 20, seed=10)
        assert not np.array_equal(one.access_delays, other.access_delays)

    def test_repetition_streams_independent_of_batch_size(self):
        """Repetition r sees the same universe in any batch that
        contains it — the property executor sharding relies on."""
        small = simulate_saturated_batch(3, 8, 4, seed=2)
        large = simulate_saturated_batch(3, 8, 16, seed=2)
        assert np.array_equal(small.access_delays,
                              large.access_delays[:4])
        assert np.array_equal(small.durations, large.durations[:4])

    def test_seed_scheme_matches_executor(self):
        """The kernel's inline derivation must equal derive_seeds."""
        expected = executor.derive_seeds(123, 8)
        state = np.random.SeedSequence(123).generate_state(8)
        assert [int(s) for s in state] == expected

    def test_single_station_first_packet_is_immediate(self):
        phy = PhyParams.dot11b()
        airtime = AirtimeModel(phy)
        batch = simulate_saturated_batch(1, 5, 6, seed=0)
        # Immediate access: the first packet pays exactly one DATA airtime.
        assert np.allclose(batch.access_delays[:, 0, 0],
                           airtime.data_airtime(1500))
        assert np.all(batch.collisions == 0)

    def test_immediate_access_first_round_collides(self):
        """With >= 2 saturated stations the 802.11 immediate-access rule
        makes the very first round an all-station collision."""
        batch = simulate_saturated_batch(4, 3, 10, seed=1)
        assert np.all(batch.collisions >= 1)

    def test_immediate_access_disabled_draws_first_backoff(self):
        phy = PhyParams.dot11b()
        airtime = AirtimeModel(phy)
        batch = simulate_saturated_batch(1, 4, 50, seed=3,
                                         immediate_access=False)
        first = batch.access_delays[:, 0, 0]
        # Some repetitions draw a non-zero first counter...
        assert np.any(first > airtime.data_airtime(1500) + 1e-9)
        # ...and none beats the bare DATA airtime.
        assert np.all(first >= airtime.data_airtime(1500) - 1e-12)

    def test_throughput_near_capacity_for_single_station(self):
        from repro.analytic.bianchi import BianchiModel
        batch = simulate_saturated_batch(1, 40, 30, seed=0)
        capacity = BianchiModel().capacity()
        assert np.allclose(batch.throughput_bps().mean(), capacity,
                           rtol=0.05)

    def test_validation(self):
        with pytest.raises(ValueError):
            simulate_saturated_batch(0, 5, 5)
        with pytest.raises(ValueError):
            simulate_saturated_batch(2, 0, 5)
        with pytest.raises(ValueError):
            simulate_saturated_batch(2, 5, 0)


class TestEventEquivalence:
    """KS equivalence between the two backends on one scenario.

    Seeds are fixed, so these are deterministic regressions, not flaky
    statistical tests: the KS distances were measured well under the
    alpha=0.01 thresholds when the kernel was written, and a protocol
    change in either backend pushes them over.  The extra master seeds
    (``-m seed_sweep``) guard against a seed-lottery pass.
    """

    S, P, R = 3, 25, 40

    @pytest.fixture(scope="class", params=seed_params(0, 7, 23))
    def batches(self, request):
        seed = request.param
        event = simulate_saturated(self.S, self.P, self.R, seed=seed,
                                   backend="event")
        vector = simulate_saturated(self.S, self.P, self.R, seed=seed,
                                    backend="vector")
        return event, vector

    def test_access_delay_distributions_match(self, batches, ks_assert):
        event, vector = batches
        ks_assert(event.pooled_access_delays(),
                  vector.pooled_access_delays())

    def test_first_packet_delay_distributions_match(self, batches,
                                                    ks_assert):
        """The transient-critical index: the very first packet."""
        event, vector = batches
        ks_assert(event.access_delays[:, :, 0],
                  vector.access_delays[:, :, 0])

    def test_throughput_distributions_match(self, batches, ks_assert):
        event, vector = batches
        ks_assert(event.throughput_bps(), vector.throughput_bps())

    def test_mean_metrics_close(self, batches):
        event, vector = batches
        assert event.pooled_access_delays().mean() == pytest.approx(
            vector.pooled_access_delays().mean(), rel=0.05)
        assert event.throughput_bps().mean() == pytest.approx(
            vector.throughput_bps().mean(), rel=0.02)
        assert event.collision_rate().mean() == pytest.approx(
            vector.collision_rate().mean(), abs=0.04)


class TestBatchRouting:
    def test_unknown_backend_rejected(self):
        request = BatchRequest(repetitions=4, seed=0,
                               event_task=lambda s: s)
        with pytest.raises(ValueError, match="unknown backend"):
            executor.run_batch(request, backend="quantum")

    def test_vector_requires_kernel(self):
        request = BatchRequest(repetitions=4, seed=0,
                               event_task=lambda s: s)
        with pytest.raises(ValueError, match="no vector kernel"):
            executor.run_batch(request, backend="vector")

    def test_event_maps_derived_seeds(self):
        out = executor.run_batch(
            BatchRequest(repetitions=5, seed=7, event_task=lambda s: s),
            backend="event")
        assert out == executor.derive_seeds(7, 5)

    def test_vector_gets_derived_seed_array(self):
        seen = []
        executor.run_batch(
            BatchRequest(repetitions=5, seed=7,
                         event_task=lambda s: seen.append(s),
                         batch_task=lambda seeds: seen.append(seeds)),
            backend="vector")
        assert seen == [executor.derive_seeds(7, 5)]

    def test_legacy_positional_call_rejected(self):
        with pytest.raises(TypeError):
            executor.run_batch(lambda s: s, 4, 0)
        with pytest.raises(TypeError, match="BatchRequest"):
            executor.run_batch(lambda s: s, backend="event")

    def test_derive_seeds_validation(self):
        with pytest.raises(ValueError):
            executor.derive_seeds(0, 0)


class TestSaturationStudy:
    def test_runner_passes_checks_on_both_backends(self):
        for backend in ("event", "vector"):
            result = dcf_saturation_study(
                station_counts=(1, 2, 5), packets_per_station=30,
                repetitions=20, seed=0, backend=backend)
            assert result.all_checks_pass, (backend, result.failed_checks)
            assert result.meta["backend"] == backend

    def test_jobs_do_not_change_event_backend_result(self):
        serial = simulate_saturated(2, 10, 8, seed=3, backend="event")
        with executor.parallel_jobs(4):
            parallel = simulate_saturated(2, 10, 8, seed=3, backend="event")
        assert np.array_equal(serial.access_delays, parallel.access_delays)
        assert np.array_equal(serial.durations, parallel.durations)

    def test_rejects_bad_station_counts(self):
        with pytest.raises(ValueError):
            dcf_saturation_study(station_counts=(0, 2), repetitions=2)


class TestRtsSaturatedEquivalence:
    """The saturated kernel's RTS/CTS mode vs. the event engine.

    Same discipline as TestEventEquivalence (fixed seeds, alpha=0.01),
    with every frame RTS-protected on both backends.
    """

    S, P, R = 3, 15, 40

    @pytest.fixture(scope="class", params=seed_params(0, 11, 29))
    def batches(self, request):
        from repro.mac.scenario import (
            WlanScenario,
            saturated_station_specs,
        )
        from repro.runtime.executor import derive_seeds

        seed = request.param
        delays = []
        scenario = WlanScenario(rts_threshold=0)
        for rep_seed in derive_seeds(seed, self.R):
            specs = saturated_station_specs(self.S, self.P)
            result = scenario.run(specs, horizon=1.0, seed=rep_seed)
            delays.append(np.stack([
                result.station(f"sat{i}").access_delays()
                for i in range(self.S)]))
        event = np.stack(delays)
        vector = simulate_saturated_batch(
            self.S, self.P, self.R, seed=seed, rts_threshold=0)
        return event, vector

    def test_access_delay_distributions_match(self, batches, ks_assert):
        event, vector = batches
        ks_assert(event, vector.pooled_access_delays())

    def test_rts_inflates_success_cost_on_both(self, batches):
        """Every RTS-protected delay includes the handshake preamble,
        so the minimum delay exceeds the bare DATA airtime on either
        backend."""
        from repro.mac.frames import AirtimeModel
        from repro.mac.params import PhyParams
        airtime = AirtimeModel(PhyParams.dot11b())
        floor = (airtime.rts_preamble_duration()
                 + airtime.data_airtime(1500))
        event, vector = batches
        assert float(event.min()) >= floor - 1e-9
        assert float(vector.pooled_access_delays().min()) >= floor - 1e-9

    def test_simulate_saturated_threads_rts_through_dispatch(self):
        """The dispatch-level entry accepts rts_threshold on both
        backends, so the kernel's rts_cts capability claim is
        reachable end to end."""
        from repro.analysis.saturation import simulate_saturated
        from repro.mac.frames import AirtimeModel
        from repro.mac.params import PhyParams
        floor = (AirtimeModel(PhyParams.dot11b()).rts_preamble_duration()
                 + AirtimeModel(PhyParams.dot11b()).data_airtime(1500))
        for backend in ("event", "vector"):
            batch = simulate_saturated(2, 4, 3, seed=1, rts_threshold=0,
                                       backend=backend)
            assert float(batch.pooled_access_delays().min()) \
                >= floor - 1e-9
