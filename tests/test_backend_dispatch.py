"""Tests for the capability-based backend dispatcher (repro.backends).

The load-bearing guarantees:

* resolution is a pure function of ``(spec, requested)`` — the same
  backend is picked under any ambient job count;
* ``auto`` prefers kernels, falls back to the event engine with a
  *recorded* structured reason, and forcing ``vector`` on an
  ineligible scenario raises with the capability mismatches attached;
* the registry derives coverage from declared scenarios, resolves
  ``auto`` before kwargs materialisation (cache keys name the
  resolved backend), and lands fallback reasons in result meta;
* the CLI default is ``auto`` and ``run --explain-backend`` prints
  decisions without running anything.
"""

import json

import numpy as np
import pytest

from helpers import SeedRows
from repro.backends import (
    BackendUnavailableError,
    BatchRequest,
    Capabilities,
    EVENT,
    ScenarioSpec,
    dispatch,
    eligible,
    explain,
    family_names,
    resolve,
)
from repro.cli import main
from repro.runtime import executor, registry
from repro.runtime.cache import ResultCache
from repro.testbed.channel import SimulatedFifoChannel, SimulatedWlanChannel
from repro.traffic.generators import CBRGenerator, PoissonGenerator

WLAN_TRAIN = ScenarioSpec(system="wlan", workload="train",
                          cross_traffic="poisson")


TRACE_DETAIL = ("cross station 'replay': TraceGenerator has no batched "
                "arrival sampler; run this scenario with backend='event'")


def _trace_replay_runner(seed=0, repetitions=2):
    """A tiny runner whose scenario no kernel can model (trace replay)."""
    from repro.analysis.results import ExperimentResult
    return ExperimentResult(
        experiment="t-trace", title="trace-replay stub",
        x_label="idx", x=np.arange(repetitions, dtype=float),
        series={"value": np.full(repetitions, float(seed))},
        meta={})


def _event_only_experiment():
    """An experiment that is still event-only after this PR: trace
    replay has no batched arrival sampler, so ``auto`` must fall back
    (and forcing ``vector`` must raise) — the one mismatch the
    registry's builtin experiments no longer exercise now that retry
    limits and on-off traffic are vectorized."""
    return registry.Experiment(
        name="t-trace", runner=_trace_replay_runner,
        scalable={"repetitions": 2},
        scenario=ScenarioSpec(system="wlan", workload="train",
                              cross_traffic="other",
                              cross_detail=TRACE_DETAIL))


class TestScenarioSpec:
    def test_defaults(self):
        spec = ScenarioSpec()
        assert spec.system == "wlan" and spec.workload == "train"

    def test_rejects_unknown_values(self):
        with pytest.raises(ValueError, match="unknown system"):
            ScenarioSpec(system="quantum")
        with pytest.raises(ValueError, match="unknown workload"):
            ScenarioSpec(workload="quantum")
        with pytest.raises(ValueError, match="unknown cross_traffic"):
            ScenarioSpec(cross_traffic="quantum")

    def test_mismatch_order_is_stable(self):
        """The first mismatch names the leading reason — the channel
        layer's legacy strings depend on the order."""
        caps = Capabilities(rts_cts=False, retry_limit=False,
                            queue_traces=False)
        spec = ScenarioSpec(queue_traces=True, rts_cts=True,
                            retry_limit=True)
        found = caps.mismatches(spec)
        assert [m.capability for m in found] == [
            "queue_traces", "rts_cts", "retry_limit"]
        assert str(found[0]) == "queue traces require the event engine"


class TestResolve:
    def test_auto_prefers_kernel(self):
        resolution = resolve(WLAN_TRAIN, "auto")
        assert resolution.name == "vector"
        assert resolution.kernel == "probe-train kernel"
        assert resolution.fallback is None

    def test_auto_falls_back_with_reason(self):
        spec = ScenarioSpec(system="wlan", workload="train",
                            cross_traffic="other",
                            cross_detail=TRACE_DETAIL)
        resolution = resolve(spec, "auto")
        assert resolution.backend is EVENT
        assert resolution.fallback == TRACE_DETAIL

    def test_event_never_records_fallback(self):
        resolution = resolve(WLAN_TRAIN, "event")
        assert resolution.backend is EVENT
        assert resolution.fallback is None

    def test_forced_vector_raises_structured(self):
        spec = ScenarioSpec(system="wlan", workload="train",
                            cross_traffic="other",
                            cross_detail=TRACE_DETAIL)
        with pytest.raises(BackendUnavailableError,
                           match="no batched arrival sampler") as err:
            resolve(spec, "vector")
        mismatches = err.value.mismatches["probe-train kernel"]
        assert any(m.capability == "cross_traffic" for m in mismatches)

    def test_rts_queue_traces_and_cbr_now_dispatch_to_kernels(self):
        """PR 5's tentpole: the former fallback reasons are gone."""
        for spec in (
            ScenarioSpec(system="wlan", workload="train",
                         cross_traffic="poisson", rts_cts=True),
            ScenarioSpec(system="wlan", workload="train",
                         cross_traffic="poisson", queue_traces=True),
            ScenarioSpec(system="wlan", workload="steady-cbr",
                         cross_traffic="cbr"),
            ScenarioSpec(system="wlan", workload="train",
                         cross_traffic="mixed"),
        ):
            resolution = resolve(spec, "auto")
            assert resolution.kernel == "probe-train kernel", spec
        path = resolve(ScenarioSpec(system="path", workload="train",
                                    cross_traffic="poisson"), "auto")
        assert path.kernel == "multihop chain kernel"
        saturated_rts = resolve(
            ScenarioSpec(system="wlan", workload="saturated",
                         rts_cts=True), "auto")
        assert saturated_rts.kernel == "saturated-DCF kernel"

    def test_retry_limit_and_onoff_now_dispatch_to_kernels(self):
        """This PR's tentpole: the last two guarded capabilities —
        retry-limited transmissions and on-off cross-traffic — have
        batched kernels, so no fallback reason is recorded."""
        for spec, kernel in (
            (ScenarioSpec(system="wlan", workload="train",
                          cross_traffic="poisson", retry_limit=True),
             "probe-train kernel"),
            (ScenarioSpec(system="wlan", workload="train",
                          cross_traffic="onoff"), "probe-train kernel"),
            (ScenarioSpec(system="wlan", workload="train",
                          cross_traffic="onoff", fifo_cross="onoff",
                          retry_limit=True), "probe-train kernel"),
            (ScenarioSpec(system="wlan", workload="saturated",
                          retry_limit=True), "saturated-DCF kernel"),
            (ScenarioSpec(system="path", workload="train",
                          cross_traffic="onoff", retry_limit=True),
             "multihop chain kernel"),
        ):
            resolution = resolve(spec, "auto")
            assert resolution.kernel == kernel, spec
            assert resolution.fallback is None, spec

    def test_forced_vector_retry_mismatch_raises_with_detail(self):
        """Regression for the pre-kernel failure mode: forcing
        ``vector`` on a retry-limited scenario a kernel cannot model
        must raise the structured error with the retry detail attached
        — never reach (and crash) the kernel.  The WLAN kernels now
        support retry caps, so the batched Lindley recursion (which
        does not) keeps this path honest."""
        spec = ScenarioSpec(system="fifo", workload="train",
                            retry_limit=True)
        with pytest.raises(BackendUnavailableError,
                           match="no vector kernel supports") as err:
            resolve(spec, "vector")
        mismatches = err.value.mismatches["batched Lindley recursion"]
        assert [m.capability for m in mismatches] == ["retry_limit"]
        assert mismatches[0].detail == \
            "a retry limit requires the event engine"
        assert resolve(spec, "auto").backend is EVENT

    def test_unknown_request_rejected(self):
        with pytest.raises(ValueError, match="unknown backend"):
            resolve(WLAN_TRAIN, "quantum")

    def test_none_spec_is_event_only(self):
        resolution = resolve(None, "auto")
        assert resolution.backend is EVENT
        assert resolution.fallback
        with pytest.raises(BackendUnavailableError):
            resolve(None, "vector")

    def test_kernel_per_system(self):
        assert resolve(ScenarioSpec(system="fifo"), "auto").kernel == \
            "batched Lindley recursion"
        assert resolve(ScenarioSpec(workload="saturated",
                                    cross_traffic="none"),
                       "auto").kernel == "saturated-DCF kernel"

    def test_family_names(self):
        assert family_names(WLAN_TRAIN) == ("event", "vector", "jit")
        assert family_names(ScenarioSpec(system="other",
                                         workload="other",
                                         cross_traffic="other")) \
            == ("event",)
        assert eligible(WLAN_TRAIN)[-1] is EVENT

    def test_deterministic_across_jobs(self):
        """Resolution ignores the ambient worker-pool scope."""
        outcomes = []
        for jobs in (1, 4, 8):
            with executor.parallel_jobs(jobs):
                outcomes.append(resolve(WLAN_TRAIN, "auto").kernel)
        assert len(set(outcomes)) == 1

    def test_explain_renders_decision_and_rejections(self):
        text = explain(ScenarioSpec(system="fifo"), "auto")
        assert "batched Lindley recursion" in text
        assert "probe-train kernel" in text  # rejected, with reason
        forced = explain(ScenarioSpec(system="other", workload="other",
                                      cross_traffic="other"), "vector")
        assert "ERROR" in forced


class TestChannelIntegration:
    def test_wlan_spec_compiled_from_configuration(self):
        channel = SimulatedWlanChannel(
            [("cross", PoissonGenerator(2e6, 1500))],
            fifo_cross=PoissonGenerator(1e6, 1500),
            rts_threshold=500, retry_limit=4, log_cross_queues=True)
        spec = channel.scenario_spec()
        assert spec.cross_traffic == "poisson"
        assert spec.fifo_cross == "poisson"
        assert spec.rts_cts and spec.retry_limit and spec.queue_traces

    def test_cbr_cross_now_compiles_and_dispatches(self):
        channel = SimulatedWlanChannel([("cbr", CBRGenerator(2e6, 1500))])
        spec = channel.scenario_spec()
        assert spec.cross_traffic == "cbr"
        assert resolve(spec, "auto").fallback is None
        mixed = SimulatedWlanChannel([
            ("cbr", CBRGenerator(2e6, 1500)),
            ("poisson", PoissonGenerator(1e6, 1500))])
        assert mixed.scenario_spec().cross_traffic == "mixed"
        assert mixed.resolve_backend("auto").fallback is None

    def test_onoff_cross_compiles_and_dispatches(self):
        from repro.traffic.generators import OnOffGenerator
        channel = SimulatedWlanChannel(
            [("burst", OnOffGenerator(4e6, 0.1, 0.1, 1500))])
        spec = channel.scenario_spec()
        assert spec.cross_traffic == "onoff"
        assert resolve(spec, "auto").fallback is None
        assert channel.resolve_backend("auto").fallback is None

    def test_retry_limit_compiles_and_dispatches(self):
        channel = SimulatedWlanChannel(
            [("cross", PoissonGenerator(2e6, 1500))], retry_limit=4)
        spec = channel.scenario_spec()
        assert spec.retry_limit
        assert resolve(spec, "auto").fallback is None
        assert channel.resolve_backend("auto").name == "vector"

    def test_trace_cross_disqualifies_with_detail(self):
        from repro.traffic.generators import TraceGenerator
        channel = SimulatedWlanChannel(
            [("replay", TraceGenerator([(0.1, 1500), (0.2, 1500)]))])
        spec = channel.scenario_spec()
        assert spec.cross_traffic == "other"
        reason = resolve(spec, "auto").fallback
        assert "cross station 'replay'" in reason
        assert channel.resolve_backend("auto").fallback == reason

    def test_fifo_size_mismatch_falls_back_instead_of_crashing(self):
        """auto must never pick a kernel that will refuse the batch:
        FIFO cross-traffic at a different packet size than the probe
        disqualifies the probe-train kernel (train-aware spec)."""
        from repro.traffic.probe import ProbeTrain
        channel = SimulatedWlanChannel(
            [("cross", PoissonGenerator(2e6, 1500))],
            fifo_cross=PoissonGenerator(1e6, 800), warmup=0.1)
        train = ProbeTrain.at_rate(10, 5e6, 1500)
        resolution = channel.resolve_backend("auto", train=train)
        assert resolution.name == "event"
        assert "probe size" in resolution.fallback
        dense = channel.send_trains_dense(train, 3, seed=3,
                                          backend="auto")
        assert dense.recv_times.shape == (3, 10)
        # A matching probe size keeps the kernel eligible.
        matching = ProbeTrain.at_rate(10, 5e6, 800)
        assert channel.resolve_backend("auto",
                                       train=matching).name == "vector"

    def test_fifo_channel_resolves_to_lindley(self):
        channel = SimulatedFifoChannel(10e6)
        assert channel.resolve_backend("auto").kernel == \
            "batched Lindley recursion"

    def test_send_trains_auto_routes_to_kernel(self):
        from repro.traffic.probe import ProbeTrain
        channel = SimulatedWlanChannel(
            [("cross", PoissonGenerator(2e6, 1500))], warmup=0.1)
        train = ProbeTrain.at_rate(8, 4e6, 1500)
        auto = channel.send_trains(train, 5, seed=3, backend="auto")
        forced = channel.send_trains(train, 5, seed=3, backend="vector")
        for a, b in zip(auto, forced):
            assert np.array_equal(a.recv_times, b.recv_times)

    def test_send_trains_dense_event_matches_raws(self):
        from repro.traffic.probe import ProbeTrain
        channel = SimulatedWlanChannel(
            [("cross", PoissonGenerator(2e6, 1500))], warmup=0.1)
        train = ProbeTrain.at_rate(8, 4e6, 1500)
        raws = channel.send_trains(train, 5, seed=3)
        dense = channel.send_trains_dense(train, 5, seed=3,
                                          backend="event")
        assert dense.recv_times.shape == (5, 8)
        for r, raw in enumerate(raws):
            assert np.array_equal(dense.recv_times[r], raw.recv_times)
            assert np.array_equal(dense.access_delays[r],
                                  raw.access_delays)


def _flavored_request(repetitions, spec=None):
    """A batch whose results say which task produced them."""
    return BatchRequest.scan([9], repetitions,
                             event_task=lambda s, p: SeedRows("event", [s]),
                             batch_task=lambda seeds, points: (
                                 "vector", list(seeds)),
                             spec=spec)


class TestExecutorDelegation:
    def test_auto_with_spec_picks_kernel(self):
        out = executor.run_batch(_flavored_request(4, WLAN_TRAIN),
                                 backend="auto")
        assert out == ("vector", executor.derive_seeds(9, 4))

    def test_auto_without_spec_stays_on_event(self):
        out = executor.run_batch(_flavored_request(3), backend="auto")
        assert out == SeedRows("event", executor.derive_seeds(9, 3))

    def test_forced_vector_with_spec_runs_kernel(self):
        out = executor.run_batch(_flavored_request(3, WLAN_TRAIN),
                                 backend="vector")
        assert out == ("vector", executor.derive_seeds(9, 3))

    def test_auto_with_ineligible_spec_maps_event(self):
        spec = ScenarioSpec(system="wlan", workload="train",
                            cross_traffic="other",
                            cross_detail=TRACE_DETAIL)
        out = executor.run_batch(_flavored_request(2, spec),
                                 backend="auto")
        assert out == SeedRows("event", executor.derive_seeds(9, 2))


class TestRegistryCacheInteraction:
    """The cache/backend satellite: keys name the *resolved* backend."""

    def test_auto_and_forced_vector_share_cache_key(self, tmp_path):
        cache = ResultCache(root=tmp_path)
        experiment = registry.get("fig6")
        overrides = {"n_packets": 40, "repetitions": 6}
        auto = experiment.run(scale=0.02, seed=1, backend="auto",
                              overrides=overrides, cache=cache)
        forced = experiment.run(scale=0.02, seed=1, backend="vector",
                                overrides=overrides, cache=cache)
        assert auto.kwargs["backend"] == "vector"
        assert forced.cache_key == auto.cache_key
        assert forced.cached is True  # served from the auto run

    def test_auto_key_differs_from_event_key(self, tmp_path):
        cache = ResultCache(root=tmp_path)
        experiment = registry.get("fig6")
        overrides = {"n_packets": 40, "repetitions": 6}
        auto = experiment.run(scale=0.02, seed=1, backend="auto",
                              overrides=overrides, cache=cache)
        event = experiment.run(scale=0.02, seed=1, backend="event",
                               overrides=overrides, cache=cache)
        assert event.cached is False
        assert event.cache_key != auto.cache_key

    def test_auto_resolution_deterministic_across_jobs(self):
        experiment = registry.get("fig6")
        kwargs = []
        for jobs in (1, 2, 8):
            with executor.parallel_jobs(jobs):
                kwargs.append(experiment.kwargs_for(backend="auto"))
        assert kwargs[0] == kwargs[1] == kwargs[2]
        assert kwargs[0]["backend"] == "vector"

    def test_forced_vector_on_ineligible_raises_structured(self):
        experiment = _event_only_experiment()
        with pytest.raises(BackendUnavailableError,
                           match="supports backend") as err:
            experiment.run(scale=0.02, backend="vector")
        assert "no batched arrival sampler" in str(err.value)
        assert err.value.mismatches  # structured records attached

    def test_fallback_reason_lands_in_meta(self, tmp_path):
        """The cache-hit re-annotation contract: a cached auto->event
        fallback result must carry ``meta["backend_fallback"]`` on the
        *second* auto request too — the stored payload has no
        annotation, so the hit path must re-derive it per request."""
        cache = ResultCache(root=tmp_path)
        experiment = _event_only_experiment()
        report = experiment.run(scale=1.0, seed=2, backend="auto",
                                cache=cache)
        assert report.cached is False
        assert report.result.meta["backend"] == "event"
        assert report.result.meta["backend_fallback"] == TRACE_DETAIL
        # A cache hit re-annotates per-request instead of trusting the
        # stored payload.
        hit = experiment.run(scale=1.0, seed=2, backend="auto",
                             cache=cache)
        assert hit.cached is True
        assert hit.result.meta["backend"] == "event"
        assert hit.result.meta["backend_fallback"] == TRACE_DETAIL
        # ... and an explicit event request gets no fallback note.
        explicit = experiment.run(scale=1.0, seed=2, backend="event",
                                  cache=cache)
        assert explicit.cached is True
        assert "backend_fallback" not in explicit.result.meta

    def test_vector_experiments_is_derived(self):
        derived = {e.name for e in registry.experiments()
                   if "vector" in e.backends}
        assert registry.VECTOR_EXPERIMENTS == frozenset(derived)
        # The vector-coverage gap is closed: every registry entry is
        # dual-backend.
        assert registry.VECTOR_EXPERIMENTS == frozenset(registry.names())
        assert len(registry.VECTOR_EXPERIMENTS) == 25


class TestCliDispatch:
    @pytest.fixture(autouse=True)
    def isolated_cache(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))

    def test_explain_backend_prints_without_running(self, capsys):
        assert main(["run", "all", "--explain-backend"]) == 0
        out = capsys.readouterr().out
        assert "fig6" in out and "probe-train kernel" in out
        # 25/25: every experiment resolves to a kernel, nothing falls
        # back to the event engine any more.
        assert "multihop chain kernel" in out
        assert "fallback" not in out
        assert "==" not in out  # no experiment table was printed

    def test_explain_backend_forced_error_exits_nonzero(self, capsys):
        experiment = _event_only_experiment()
        registry.register(experiment)
        try:
            assert main(["run", "t-trace", "--backend", "vector",
                         "--explain-backend"]) == 1
            assert "ERROR" in capsys.readouterr().out
        finally:
            registry.unregister("t-trace")

    def test_default_auto_records_resolved_backend(self, capsys):
        code = main(["run", "fig6", "--scale", "0.02", "--seed", "3",
                     "--no-cache"])
        out = capsys.readouterr().out
        assert code in (0, 1)  # tiny scale may fail shape checks
        assert "backend=vector" in out

    def test_backend_auto_accepted_explicitly(self, capsys):
        code = main(["run", "ext-saturation", "--backend", "auto",
                     "--scale", "0.05", "--seed", "1", "--no-cache"])
        assert code == 0
        assert "backend=vector" in capsys.readouterr().out

    def test_sweep_has_backend_parity(self, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        code = main(["sweep", "fig6", "--backend", "auto", "--param",
                     "repetitions=4,6",
                     "--seed", "2", "--report", str(report_path)])
        out = capsys.readouterr().out
        assert code in (0, 1)
        assert "[vector/probe-train kernel] 2 points" in out
        report = json.loads(report_path.read_text())
        assert [p["backend"] for p in report["points"]] == ["vector"] * 2
