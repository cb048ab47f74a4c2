"""Tests of the benchmark's tracer, speed clock, layer table and
reporting rules.

Run with ``PYTHONPATH=src python -m pytest perfbench/tests -q`` from
the repository root.  Span and speed arithmetic runs on a fake clock,
so every expected time is exact.
"""

import json
import signal
import sys
import time
import types

import pytest

from perfbench import layers
from perfbench.speed import SpeedClock
from perfbench.tracer import Tracer


class FakeClock:
    """A clock that only moves when told to."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


@pytest.fixture
def clock():
    return FakeClock()


@pytest.fixture
def fake_package(clock):
    """``benchfake.kernels`` defines a kernel and a channel class;
    ``benchfake.user`` imports the kernel by name."""
    package = types.ModuleType("benchfake")
    package.__path__ = []
    kernels = types.ModuleType("benchfake.kernels")

    def kernel(rows):
        clock.advance(2.0)
        return rows

    class Channel:
        def send_trains(self, reps):
            clock.advance(reps)
            return reps

        def send_trains_dense(self, reps):
            clock.advance(1.0)
            return self.send_trains(reps)

    class WiredChannel(Channel):
        def send_trains(self, reps):
            clock.advance(0.5)
            return super().send_trains(reps)

    kernels.kernel = kernel
    kernels.Channel = Channel
    kernels.WiredChannel = WiredChannel
    user = types.ModuleType("benchfake.user")
    user.kernel = kernel
    user.run = lambda rows: user.kernel(rows)
    modules = {"benchfake": package, "benchfake.kernels": kernels,
               "benchfake.user": user}
    sys.modules.update(modules)
    yield kernels, user
    for name in modules:
        sys.modules.pop(name, None)


class TestSelfTime:
    def test_nested_spans_split_self_time(self, clock):
        tracer = Tracer(clock)

        def inner():
            clock.advance(2.0)

        def outer():
            clock.advance(1.0)
            traced_inner()
            clock.advance(3.0)

        traced_inner = tracer.wrap("inner", inner)
        tracer.wrap("outer", outer)()
        assert tracer.self_s == pytest.approx({"outer": 4.0, "inner": 2.0})
        assert tracer.outer_s["outer"] == pytest.approx(6.0)
        assert tracer.covered_s == pytest.approx(6.0)
        assert dict(tracer.calls) == {"outer": 1, "inner": 1}

    def test_time_outside_spans_is_not_covered(self, clock):
        tracer = Tracer(clock)
        step = tracer.wrap("step", lambda: clock.advance(1.0))
        step()
        clock.advance(5.0)
        step()
        assert tracer.covered_s == pytest.approx(2.0)

    def test_exception_still_closes_the_span(self, clock):
        tracer = Tracer(clock)

        def fail():
            clock.advance(1.0)
            raise ValueError("boom")

        with pytest.raises(ValueError):
            tracer.wrap("failing", fail)()
        assert tracer.self_s["failing"] == pytest.approx(1.0)
        assert tracer.wrap("later", lambda: None)() is None
        assert tracer.covered_s == pytest.approx(1.0)


class TestReentry:
    def test_layer_reentering_itself_counts_once(self, clock,
                                                 fake_package):
        kernels, _ = fake_package
        tracer = Tracer(clock)
        for method in ("send_trains", "send_trains_dense"):
            tracer.patch_method("channel", "benchfake.kernels",
                                f"Channel.{method}")
        assert kernels.Channel().send_trains_dense(3) == 3
        assert tracer.calls["channel"] == 1
        assert tracer.self_s["channel"] == pytest.approx(4.0)
        assert tracer.covered_s == pytest.approx(4.0)

    def test_overriding_subclasses_are_wrapped_and_restored(
            self, clock, fake_package):
        kernels, _ = fake_package
        originals = (vars(kernels.Channel)["send_trains"],
                     vars(kernels.WiredChannel)["send_trains"])
        tracer = Tracer(clock)
        assert tracer.patch_method("channel", "benchfake.kernels",
                                   "Channel.send_trains") == 2
        kernels.WiredChannel().send_trains(2)
        assert tracer.calls["channel"] == 1
        assert tracer.self_s["channel"] == pytest.approx(2.5)
        tracer.uninstall()
        assert (vars(kernels.Channel)["send_trains"],
                vars(kernels.WiredChannel)["send_trains"]) == originals

    def test_rows_count_on_outer_calls_only(self, clock):
        tracer = Tracer(clock)

        def kernel(n_probe, repetitions, *, nested=False):
            if nested:
                traced(n_probe, repetitions)
            return repetitions

        traced = tracer.wrap("kernel", kernel,
                             rows=lambda args: args["repetitions"])
        traced(24, 3, nested=True)
        traced(24, repetitions=5)
        assert tracer.calls["kernel"] == 2
        assert tracer.rows["kernel"] == 8


class TestGenerators:
    def test_generator_is_timed_over_its_iteration_only(self, clock):
        tracer = Tracer(clock)

        def produce(count):
            for item in range(count):
                clock.advance(1.0)
                yield item
            clock.advance(0.5)

        traced = tracer.wrap("plan", produce)
        seen = []
        for item in traced(3):
            clock.advance(10.0)  # the consumer's time
            seen.append(item)
        assert seen == [0, 1, 2]
        assert tracer.calls["plan"] == 1
        assert tracer.self_s["plan"] == pytest.approx(3.5)
        assert tracer.covered_s == pytest.approx(3.5)

    def test_nested_generators_of_one_layer(self, clock):
        tracer = Tracer(clock)

        def planned():
            for item in range(4):
                clock.advance(1.0)
                yield item

        def windows():
            batch = []
            for item in traced_planned():
                clock.advance(0.25)
                batch.append(item)
                if len(batch) == 2:
                    yield batch
                    batch = []

        def work(batch):
            clock.advance(5.0)

        traced_planned = tracer.wrap("sweep.plan", planned)
        traced_work = tracer.wrap("runner", work)
        for batch in tracer.wrap("sweep.plan", windows)():
            traced_work(batch)
        assert tracer.calls["sweep.plan"] == 1
        assert tracer.self_s["sweep.plan"] == pytest.approx(5.0)
        assert tracer.self_s["runner"] == pytest.approx(10.0)

    def test_close_is_timed(self, clock):
        tracer = Tracer(clock)

        def produce():
            try:
                yield 1
                yield 2
            finally:
                clock.advance(2.0)

        iterator = tracer.wrap("gen", produce)()
        next(iterator)
        iterator.close()
        assert tracer.self_s["gen"] == pytest.approx(2.0)


class TestBindings:
    def test_every_module_binding_is_patched(self, clock, fake_package):
        kernels, user = fake_package
        original = kernels.kernel
        tracer = Tracer(clock)
        tracer.patch_function("kernel", "benchfake.kernels", "kernel")
        assert user.kernel is kernels.kernel is not original
        assert user.run(3) == 3
        assert tracer.calls["kernel"] == 1
        tracer.uninstall()
        assert user.kernel is original and kernels.kernel is original

    def test_layer_table_wraps_and_restores_the_package(self):
        from repro.runtime import registry
        from repro.sim import probe_vector
        from repro.testbed import channel
        kernel = channel.simulate_probe_train_batch
        runner = registry.get("fig1").runner
        tracer = Tracer()
        try:
            layers.install(tracer)
            assert channel.simulate_probe_train_batch \
                is probe_vector.simulate_probe_train_batch
            assert channel.simulate_probe_train_batch is not kernel
            assert registry.get("fig1").runner is not runner
        finally:
            tracer.uninstall()
        assert channel.simulate_probe_train_batch is kernel
        assert probe_vector.simulate_probe_train_batch is kernel
        assert registry.get("fig1").runner is runner

    @pytest.mark.parametrize("backend, executor_calls", [
        ("event", 1), ("vector", 0)])
    def test_real_channel_counts_once(self, backend, executor_calls):
        from repro.testbed.channel import SimulatedFifoChannel
        from repro.traffic.generators import PoissonGenerator
        from repro.traffic.probe import ProbeTrain
        fifo = SimulatedFifoChannel(
            10e6, cross_generator=PoissonGenerator(4e6, 1500))
        train = ProbeTrain.at_rate(24, 4e6, 1500)
        tracer = Tracer()
        try:
            layers.install(tracer)
            fifo.send_trains_dense(train, 2, seed=1, backend=backend)
        finally:
            tracer.uninstall()
        assert tracer.calls["channel"] == 1
        assert tracer.calls["generators.generate"] == 2
        assert tracer.calls["executor"] == executor_calls
        assert tracer.calls["lindley.batch"] == 1 - executor_calls


def fake_speed(clock, loops, burst=0.5):
    """A speed clock on ``clock`` (reference 1 s) whose samples read
    ``loops`` in turn; each sample takes ``burst`` seconds."""
    values = iter([loop for loop in loops for _ in (0, 1)])

    def probe():
        clock.advance(burst / 2)
        return next(values)

    return SpeedClock(probe=probe, timer=clock, reference=1.0)


class TestSpeedClock:
    def test_constant_speed_scales_by_the_loop_time(self, clock):
        speed = fake_speed(clock, [2.0, 2.0])
        speed.sample()  # [0, 0.5]
        clock.advance(10.0)
        speed.sample()  # [10.5, 11]
        assert speed.raw(0.5, 10.5) == pytest.approx(10.0)
        assert speed.scaled(0.5, 10.5) == pytest.approx(5.0)

    def test_sample_time_is_excluded(self, clock):
        speed = fake_speed(clock, [1.0, 1.0, 1.0])
        for gap in (4.0, 6.0, None):
            speed.sample()  # [0, 0.5], [4.5, 5], [11, 11.5]
            if gap:
                clock.advance(gap)
        assert speed.raw(0.0, 11.5) == pytest.approx(10.0)
        assert speed.scaled(0.0, 11.5) == pytest.approx(10.0)

    def test_a_stretch_takes_the_mean_of_its_two_samples(self, clock):
        speed = fake_speed(clock, [1.0, 1.0, 3.0])
        for gap in (4.0, 6.0, None):
            speed.sample()
            if gap:
                clock.advance(gap)
        # [2.5, 4.5] at weight 1, then [5, 8] at weight 2 / (1 + 3).
        assert speed.raw(2.5, 8.0) == pytest.approx(5.0)
        assert speed.scaled(2.5, 8.0) == pytest.approx(2.0 + 3.0 * 0.5)

    def test_an_interval_needs_samples_on_both_sides(self, clock):
        speed = fake_speed(clock, [1.0, 1.0])
        speed.sample()
        clock.advance(1.0)
        speed.sample()  # [0, 0.5], [1.5, 2]
        with pytest.raises(ValueError):
            speed.scaled(0.0, 2.5)

    def test_the_timer_samples_until_stopped(self):
        previous = signal.getsignal(signal.SIGALRM)
        speed = SpeedClock(period=0.02)
        speed.start()
        end = time.perf_counter() + 0.2
        while time.perf_counter() < end:
            pass
        speed.stop()
        assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
        assert signal.getsignal(signal.SIGALRM) is previous
        assert len(speed.loops) >= 5
        bursts = sum(e - s for s, e in zip(speed.starts, speed.ends))
        assert speed.raw(speed.starts[0], speed.ends[-1]) == pytest.approx(
            speed.ends[-1] - speed.starts[0] - bursts)


class TestReporting:
    @pytest.mark.parametrize("count, expected", [
        (10000, 99.9), (1000, 99.0), (999, 90.0), (100, 90.0),
        (99, 50.0), (20, 50.0), (19, None)])
    def test_highest_percentile_with_ten_samples_beyond(self, count,
                                                        expected):
        found = layers.tail_percentile(list(range(count)))
        assert (found[0] if found else None) == expected

    def test_quantile_interpolates_like_numpy(self):
        np = pytest.importorskip("numpy")
        samples = [5.0, 1.0, 4.0, 2.5, 9.0, 7.0]
        for percentile in (0.0, 50.0, 90.0, 99.0, 100.0):
            assert layers.quantile(samples, percentile) == pytest.approx(
                float(np.percentile(samples, percentile)))

    def test_layer_metrics_from_a_trace(self):
        trace = {"self_s": {"store.flush": 2.0, "channel": 1.5},
                 "calls": {"store.flush": 3, "channel": 4,
                           "probe_vector.probe_train": 4},
                 "rows": {"probe_vector.probe_train": 12}}
        metrics = layers.layer_metrics(trace)
        assert metrics["store.flush.self_s"] == 2.0
        assert metrics["store.flush.calls"] == 3
        assert metrics["channel.self_s"] == 1.5
        assert metrics["probe_vector.probe_train.rows_per_call"] == 3.0
        assert metrics["engine.run.calls"] == 0
        assert metrics["vector.saturated.rows_per_call"] == 0.0
        assert layers.missing_calls("atlas-resume", metrics) == [
            name for name in layers.EXPECTED_CALLS["atlas-resume"]]

    def test_declared_workloads_match_the_code(self):
        from perfbench import run, workloads
        declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        names = [entry["name"] for entry in declared["workloads"]]
        assert names == list(run.WORKLOADS) == list(workloads.WORKLOADS)
        assert set(layers.EXPECTED_CALLS) == set(names)

    def test_atlas_grid_is_seeded_fine_and_in_range(self):
        from perfbench.workloads import (ATLAS_CROSS_BPS, ATLAS_POINTS,
                                         atlas_grid)
        grid = atlas_grid(5)
        assert grid == atlas_grid(5) and grid != atlas_grid(6)
        rates = [point["cross_rate_bps"] for point in grid]
        assert len(set(rates)) == ATLAS_POINTS and rates == sorted(rates)
        assert ATLAS_CROSS_BPS[0] <= rates[0]
        assert rates[-1] <= ATLAS_CROSS_BPS[1]
