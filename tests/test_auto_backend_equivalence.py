"""KS-equivalence pins for the experiments that became dual-backend.

PR 4 grew vector coverage from 11 to 19 registry entries by
dispatching already-vectorizable batches through the new
``repro.backends`` layer; PR 5 closed the remaining gap (fig8,
ablation-rts, ablation-bianchi, ext-multihop -> 23/23).  Every *newly*
dual-backend experiment is pinned to the event engine here, at its own
configuration (probing rate, cross-traffic, train shape), with the
repo's KS machinery at ``alpha = 0.01`` — fixed seeds make these
deterministic regressions, not flaky statistical tests.  (The
previously covered probe-train family is pinned by
``tests/test_probe_vector_backend.py``.)

* figures 1/4 — the steady-state mode of the probe-train kernel
  (per-flow throughput samples vs. repeated event measurements);
* ablation-immediate-access — the ``immediate_access=False`` arm;
* ablation-ks / ablation-truncation / ext-b-vs-n /
  ext-tool-convergence / ext-topp — trains at each study's setting;
* fig8 — kernel queue traces vs. the event scenario's backlog logs;
* ablation-rts — the RTS/CTS airtime mode;
* ablation-bianchi — batched CBR cross-traffic in steady state;
* ext-multihop — the chained per-hop kernels end to end.
"""

import numpy as np
import pytest

from repro.analysis.steady_state import steady_state_scan
from repro.testbed.channel import SimulatedWlanChannel
from repro.traffic.generators import PoissonGenerator
from repro.traffic.probe import ProbeTrain

L = 1500
REPS = 50


def train_pair(probe_rate, cross_rate, n, reps=REPS, seed=17,
               immediate_access=True):
    """Dense batches of the same channel/train on both backends."""
    channel = SimulatedWlanChannel(
        [("cross", PoissonGenerator(cross_rate, L))], warmup=0.1,
        immediate_access=immediate_access)
    train = ProbeTrain.at_rate(n, probe_rate, L)
    event = channel.send_trains_dense(train, reps, seed=seed,
                                      backend="event")
    vector = channel.send_trains_dense(train, reps, seed=seed,
                                       backend="vector")
    return event, vector


class TestSteadyStateFigures:
    """Figures 1 and 4: the steady-state kernel mode."""

    N_REPS = 40
    WINDOW = dict(duration=1.0, warmup=0.3)

    @pytest.fixture(scope="class")
    def fig1_pair(self):
        kwargs = dict(repetitions=self.N_REPS, seed=5, **self.WINDOW)
        event = steady_state_scan([5e6], 4.5e6, 0.0, backend="event",
                                  **kwargs)
        vector = steady_state_scan([5e6], 4.5e6, 0.0, backend="vector",
                                   **kwargs)
        return event, vector

    @pytest.fixture(scope="class")
    def fig4_pair(self):
        kwargs = dict(repetitions=self.N_REPS, seed=6, **self.WINDOW)
        event = steady_state_scan([6e6], 3e6, 1.5e6, backend="event",
                                  **kwargs)
        vector = steady_state_scan([6e6], 3e6, 1.5e6, backend="vector",
                                   **kwargs)
        return event, vector

    def test_fig1_probe_throughput_distribution(self, fig1_pair, ks_assert):
        event, vector = fig1_pair
        ks_assert(event["probe"], vector["probe"])

    def test_fig1_cross_throughput_distribution(self, fig1_pair, ks_assert):
        event, vector = fig1_pair
        ks_assert(event["cross"], vector["cross"])

    def test_fig1_means_close(self, fig1_pair):
        event, vector = fig1_pair
        assert event["probe"].mean() == pytest.approx(
            vector["probe"].mean(), rel=0.1)
        assert event["cross"].mean() == pytest.approx(
            vector["cross"].mean(), rel=0.1)

    def test_fig4_all_flow_distributions(self, fig4_pair, ks_assert):
        event, vector = fig4_pair
        for flow in ("probe", "cross", "fifo"):
            ks_assert(event[flow], vector[flow])

    def test_fig4_fifo_crowded_out_on_both(self, fig4_pair):
        """The figure's qualitative claim holds on either backend: the
        probe gets well more than the FIFO flow's share."""
        for samples in fig4_pair:
            assert samples["probe"].mean() > samples["fifo"].mean()


class TestImmediateAccessAblation:
    """The new arm: immediate access disabled on both backends."""

    @pytest.fixture(scope="class")
    def pair(self):
        return train_pair(5e6, 4e6, n=20, seed=19,
                          immediate_access=False)

    def test_delay_distributions_match(self, pair, ks_assert):
        event, vector = pair
        ks_assert(event.access_delays, vector.access_delays)

    def test_first_packet_distribution_matches(self, pair, ks_assert):
        event, vector = pair
        ks_assert(event.access_delays[:, 0],
                        vector.access_delays[:, 0])

    def test_backends_agree_on_residual_dip(self, pair):
        """Both backends report the same (much weakened) first-packet
        dip once the rule is off — the ablation's comparison input."""
        event, vector = pair
        dips = []
        for batch in (event, vector):
            profile = batch.access_delays.mean(axis=0)
            dips.append(float(profile[0] / profile[10:].mean()))
        assert dips[0] == pytest.approx(dips[1], rel=0.15)


class TestTrainStudies:
    """The remaining new dual-backend studies, at their settings."""

    def test_ablation_ks_setting(self, ks_assert):
        event, vector = train_pair(2e6, 2e6, n=20, seed=23)
        ks_assert(event.access_delays, vector.access_delays)

    def test_ablation_truncation_setting(self, ks_assert):
        event, vector = train_pair(8e6, 3e6, n=20, seed=29)
        ks_assert(event.output_gaps, vector.output_gaps)
        ks_assert(event.access_delays, vector.access_delays)

    def test_ext_b_vs_n_setting(self, ks_assert):
        event, vector = train_pair(8e6, 4e6, n=20, seed=31)
        ks_assert(event.access_delays, vector.access_delays)
        # Equation (31) inputs: the per-index mean profiles agree.
        # Index 0 is excluded: the immediate-access rule makes the
        # first-packet mean the highest-variance point of the profile
        # (a handful of collision-inflated outliers dominate it at 50
        # repetitions), and its distribution is pinned by KS elsewhere.
        assert np.allclose(event.access_delays.mean(axis=0)[1:],
                           vector.access_delays.mean(axis=0)[1:],
                           rtol=0.25)

    def test_ext_tool_convergence_setting(self, ks_assert):
        event, vector = train_pair(3e6, 2e6, n=20, seed=37)
        ks_assert(event.output_gaps, vector.output_gaps)

    def test_ext_topp_setting(self, ks_assert):
        event, vector = train_pair(4e6, 3e6, n=25, seed=41)
        ks_assert(event.output_gaps, vector.output_gaps)
        # TOPP regresses ri/ro on ri: the mean dispersion ratio must
        # agree across backends.
        gap_in = ProbeTrain.at_rate(25, 4e6, L).gap
        event_ratio = float(np.mean(event.output_gaps)) / gap_in
        vector_ratio = float(np.mean(vector.output_gaps)) / gap_in
        assert event_ratio == pytest.approx(vector_ratio, rel=0.1)


class TestFig8QueueTraces:
    """fig8's setting (8 Mb/s probe, 2 Mb/s cross) with queue tracking:
    the kernel's counted backlog vs. the event scenario's logs."""

    @pytest.fixture(scope="class")
    def pair(self):
        from repro.analysis.transient import collect_delay_matrix
        cross = [("cross", PoissonGenerator(2e6, L))]
        kwargs = dict(n_packets=40, repetitions=60, seed=13,
                      track_queues=True)
        event = collect_delay_matrix(8e6, cross, backend="event",
                                     **kwargs)
        vector = collect_delay_matrix(8e6, cross, backend="vector",
                                      **kwargs)
        return event, vector

    def test_delay_distributions_match(self, pair, ks_assert):
        event, vector = pair
        ks_assert(event.matrix.delays, vector.matrix.delays)

    def test_queue_size_distributions_match(self, pair, ks_assert):
        event, vector = pair
        ks_assert(event.queue_sizes["cross"],
                        vector.queue_sizes["cross"])

    def test_queue_grows_on_both_backends(self, pair):
        """Figure 8's qualitative claim — the contending queue builds
        up while the probe loads the channel — holds on either
        backend."""
        for collection in pair:
            profile = collection.mean_queue_profile("cross")
            assert profile[-10:].mean() > profile[0]


class TestRtsCtsAblation:
    """ablation-rts's setting (5 Mb/s probe, 4 Mb/s cross, RTS on)."""

    @pytest.fixture(scope="class")
    def pair(self):
        channel = SimulatedWlanChannel(
            [("cross", PoissonGenerator(4e6, L))], warmup=0.1,
            rts_threshold=0)
        train = ProbeTrain.at_rate(20, 5e6, L)
        event = channel.send_trains_dense(train, REPS, seed=43,
                                          backend="event")
        vector = channel.send_trains_dense(train, REPS, seed=43,
                                           backend="vector")
        return event, vector

    def test_delay_distributions_match(self, pair, ks_assert):
        event, vector = pair
        ks_assert(event.access_delays, vector.access_delays)

    def test_first_packet_distribution_matches(self, pair, ks_assert):
        event, vector = pair
        ks_assert(event.access_delays[:, 0],
                        vector.access_delays[:, 0])

    def test_rts_overhead_agrees(self, pair):
        """Both backends report the same handshake-inflated steady
        mean — the ablation's comparison input."""
        event, vector = pair
        assert event.access_delays.mean() == pytest.approx(
            vector.access_delays.mean(), rel=0.1)


class TestBianchiCbrAblation:
    """ablation-bianchi's setting: n saturated CBR stations."""

    N_STATIONS = 3
    WINDOW = dict(duration=1.0, warmup=0.3)

    @pytest.fixture(scope="class")
    def pair(self):
        from repro.mac.scenario import StationSpec, WlanScenario
        from repro.sim.probe_vector import (
            CbrCrossSpec,
            simulate_steady_state_batch,
        )
        from repro.traffic.generators import CBRGenerator
        reps, offered = 40, 9e6
        rep_seeds = np.random.SeedSequence(3).generate_state(reps)
        scenario = WlanScenario()
        event = np.zeros(reps)
        for j, rep_seed in enumerate(rep_seeds):
            specs = [StationSpec(f"s{i}",
                                 generator=CBRGenerator(offered, L))
                     for i in range(self.N_STATIONS)]
            result = scenario.run(specs,
                                  horizon=self.WINDOW["duration"],
                                  seed=int(rep_seed),
                                  until=self.WINDOW["duration"])
            event[j] = sum(
                result.station(f"s{i}").throughput_bps(
                    self.WINDOW["warmup"], self.WINDOW["duration"])
                for i in range(self.N_STATIONS))
        batch = simulate_steady_state_batch(
            offered, reps, size_bytes=L,
            cross=[CbrCrossSpec(offered / (L * 8), L)]
            * (self.N_STATIONS - 1),
            seed=3, **self.WINDOW)
        vector = batch.probe_throughput_bps() + batch.cross_throughput_bps()
        return event, vector

    def test_total_throughput_distribution_matches(self, pair, ks_assert):
        event, vector = pair
        ks_assert(event, vector)

    def test_means_close(self, pair):
        event, vector = pair
        assert event.mean() == pytest.approx(vector.mean(), rel=0.05)


class TestMultihopChain:
    """ext-multihop's setting: 100 Mb/s wired backbone + contended
    WLAN last mile, probed end to end."""

    @pytest.fixture(scope="class")
    def pair(self):
        from repro.path import (NetworkPath, SimulatedPathChannel,
                                WiredHop, WlanHop)
        path = NetworkPath([
            WiredHop(100e6, prop_delay=1e-3),
            WlanHop([("neighbour", PoissonGenerator(4e6, L))]),
        ])
        channel = SimulatedPathChannel(path)
        train = ProbeTrain.at_rate(20, 3e6, L)
        event = channel.send_trains_dense(train, 2 * REPS, seed=47,
                                          backend="event")
        vector = channel.send_trains_dense(train, 2 * REPS, seed=47,
                                           backend="vector")
        return event, vector

    def test_output_gap_distribution_matches(self, pair, ks_assert):
        event, vector = pair
        ks_assert(event.output_gaps, vector.output_gaps)

    def test_per_index_delay_distributions_match(self, pair, ks_assert):
        """End-to-end per-packet delays at the head, middle and tail
        of the train (per-index: pooling across a train would mix the
        transient into the steady state)."""
        event, vector = pair
        event_delay = event.recv_times - event.send_times
        vector_delay = vector.recv_times - vector.send_times
        for idx in (0, 10, 19):
            ks_assert(event_delay[:, idx], vector_delay[:, idx])

    def test_mean_output_rate_agrees(self, pair):
        event, vector = pair
        event_rate = L * 8 / float(np.mean(event.output_gaps))
        vector_rate = L * 8 / float(np.mean(vector.output_gaps))
        assert event_rate == pytest.approx(vector_rate, rel=0.1)
