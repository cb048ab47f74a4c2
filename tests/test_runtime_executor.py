"""Tests for repetition sharding (repro.runtime.executor)."""

import os
import signal
import subprocess
import sys
import textwrap
import time

import numpy as np
import pytest

from repro.runtime import executor, faults
from repro.runtime.executor import (
    RetryPolicy,
    active_jobs,
    active_retry_policy,
    collect_failures,
    derive_seeds,
    map_ordered,
    parallel_jobs,
    resolve_jobs,
    retry_policy,
    shard_bounds,
)
from repro.sim.probe_vector import QueueTraceBatch
from repro.testbed.channel import SimulatedFifoChannel, SimulatedWlanChannel
from repro.traffic.generators import PoissonGenerator
from repro.traffic.probe import ProbeTrain


class TestShardBounds:
    def test_even_split(self):
        assert shard_bounds(8, 4) == [(0, 2), (2, 4), (4, 6), (6, 8)]

    def test_uneven_split_front_loads_remainder(self):
        assert shard_bounds(10, 3) == [(0, 4), (4, 7), (7, 10)]

    def test_more_shards_than_items(self):
        assert shard_bounds(2, 5) == [(0, 1), (1, 2)]

    def test_covers_every_index_exactly_once(self):
        for n in (1, 7, 16, 33):
            for shards in (1, 2, 3, 8):
                bounds = shard_bounds(n, shards)
                indices = [i for lo, hi in bounds for i in range(lo, hi)]
                assert indices == list(range(n))

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            shard_bounds(-1, 2)
        with pytest.raises(ValueError):
            shard_bounds(4, 0)


class TestJobResolution:
    def test_default_is_one(self):
        assert active_jobs() == 1

    def test_zero_means_cpu_count(self):
        assert resolve_jobs(0) == (os.cpu_count() or 1)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            resolve_jobs(-2)

    def test_ambient_scope_nests_and_restores(self):
        with parallel_jobs(3):
            assert active_jobs() == 3
            with parallel_jobs(2):
                assert active_jobs() == 2
            assert active_jobs() == 3
        assert active_jobs() == 1

    def test_environment_default(self, monkeypatch):
        monkeypatch.setenv(executor.JOBS_ENV, "5")
        assert active_jobs() == 5


class TestMapOrdered:
    def test_serial_semantics(self):
        assert map_ordered(lambda x: x * x, range(7), jobs=1) == \
            [0, 1, 4, 9, 16, 25, 36]

    def test_parallel_preserves_order(self):
        out = map_ordered(lambda x: x * 2, list(range(23)), jobs=4)
        assert out == [x * 2 for x in range(23)]

    def test_empty_items(self):
        assert map_ordered(lambda x: x, [], jobs=4) == []

    def test_worker_exception_propagates(self):
        def explode(x):
            raise RuntimeError(f"bad item {x}")

        with pytest.raises(RuntimeError, match="bad item"):
            map_ordered(explode, [1, 2, 3], jobs=2)


class TestRetryPolicy:
    def test_defaults(self):
        policy = active_retry_policy()
        assert policy.retries == executor.DEFAULT_RETRIES
        assert policy.shard_timeout is None

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(retries=-1)
        with pytest.raises(ValueError):
            RetryPolicy(shard_timeout=0)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_s=-0.1)

    def test_scope_nests_and_restores(self):
        with retry_policy(retries=5):
            assert active_retry_policy().retries == 5
            with retry_policy(shard_timeout=2.0):
                # Inner scope keeps the outer retries.
                assert active_retry_policy().retries == 5
                assert active_retry_policy().shard_timeout == 2.0
            assert active_retry_policy().shard_timeout is None
        assert active_retry_policy().retries == executor.DEFAULT_RETRIES

    def test_environment_defaults(self, monkeypatch):
        monkeypatch.setenv(executor.RETRIES_ENV, "7")
        monkeypatch.setenv(executor.SHARD_TIMEOUT_ENV, "1.5")
        policy = active_retry_policy()
        assert policy.retries == 7
        assert policy.shard_timeout == 1.5

    def test_invalid_environment_warns_and_defaults(self, monkeypatch):
        monkeypatch.setenv(executor.RETRIES_ENV, "many")
        monkeypatch.setenv(executor.SHARD_TIMEOUT_ENV, "-3")
        with pytest.warns(UserWarning):
            policy = active_retry_policy()
        assert policy.retries == executor.DEFAULT_RETRIES
        assert policy.shard_timeout is None


class TestSupervision:
    """Crashed/hung workers degrade throughput, never correctness."""

    def test_injected_crash_is_retried(self):
        with faults.injected("crash-shard=0"), \
                retry_policy(retries=2, backoff_s=0.01), \
                collect_failures() as log:
            out = map_ordered(lambda x: x + 1, list(range(10)), jobs=3)
        assert out == [x + 1 for x in range(10)]
        assert len(log) == 1
        assert log[0]["shard"] == 0
        assert log[0]["action"] == "retry"
        assert "crashed" in log[0]["reason"]
        assert f"exit code {faults.CRASH_EXIT_CODE}" in log[0]["reason"]

    def test_crash_exit_code_is_read_after_reaping(self, monkeypatch):
        """EOF can reach the supervisor before the dead worker is
        reaped; the logged exit code must be the real one, not None."""
        real = executor._pool_context()

        class UnreapedProcess:
            """A worker whose exit code stays unknown until join()."""

            def __init__(self, process):
                self._process = process
                self._joined = False

            def start(self):
                self._process.start()

            def join(self, timeout=None):
                self._process.join(timeout)
                self._joined = True

            def is_alive(self):
                return self._process.is_alive()

            def kill(self):
                self._process.kill()

            @property
            def exitcode(self):
                return self._process.exitcode if self._joined else None

        class Context:
            def Pipe(self, duplex):
                return real.Pipe(duplex=duplex)

            def Process(self, **kwargs):
                return UnreapedProcess(real.Process(**kwargs))

        monkeypatch.setattr(executor, "_pool_context", Context)
        with faults.injected("crash-shard=0"), \
                retry_policy(retries=1, backoff_s=0.01), \
                collect_failures() as log:
            out = map_ordered(lambda x: x + 1, list(range(4)), jobs=2)
        assert out == [1, 2, 3, 4]
        assert [record["reason"] for record in log] == [
            f"worker crashed (exit code {faults.CRASH_EXIT_CODE})"]

    def test_persistent_crash_falls_back_in_process(self):
        with faults.injected("crash-shard=1:always"), \
                retry_policy(retries=1, backoff_s=0.01), \
                collect_failures() as log:
            out = map_ordered(lambda x: x * x, list(range(9)), jobs=3)
        assert out == [x * x for x in range(9)]
        assert [record["action"] for record in log] == \
            ["retry", "in-process fallback"]

    def test_hung_shard_is_killed_and_recovered(self):
        with faults.injected("slow-shard=0:30"), \
                retry_policy(retries=0, shard_timeout=0.3,
                             backoff_s=0.01), \
                collect_failures() as log:
            start = time.monotonic()
            out = map_ordered(lambda x: -x, list(range(6)), jobs=2)
            elapsed = time.monotonic() - start
        assert out == [-x for x in range(6)]
        assert elapsed < 10  # never waited out the 30 s sleep
        assert log[0]["action"] == "in-process fallback"
        assert "timeout" in log[0]["reason"]

    def test_results_identical_with_and_without_faults(self):
        clean = map_ordered(lambda x: x * 3, list(range(17)), jobs=4)
        with faults.injected("crash-shard=2"), \
                retry_policy(retries=1, backoff_s=0.01):
            faulty = map_ordered(lambda x: x * 3, list(range(17)),
                                 jobs=4)
        assert faulty == clean == [x * 3 for x in range(17)]

    def test_task_exceptions_are_not_retried(self):
        """Deterministic task errors propagate on the first attempt."""
        def explode(x):
            raise ValueError(f"bad item {x}")

        with retry_policy(retries=5, backoff_s=0.01), \
                collect_failures() as log:
            with pytest.raises(ValueError, match="bad item"):
                map_ordered(explode, [1, 2, 3], jobs=2)
        assert log == []

    def test_no_failure_records_on_clean_runs(self):
        with collect_failures() as log:
            map_ordered(lambda x: x, list(range(8)), jobs=2)
        assert log == []

    def test_interrupt_leaves_no_orphaned_workers(self, tmp_path):
        """Ctrl-C mid-run must reap every worker process."""
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        # One os.write per start line: a pipe write that small is
        # atomic, while print() under PYTHONUNBUFFERED=1 writes each
        # piece on its own and concurrent workers interleave them.
        script = textwrap.dedent("""
            import os
            import time
            from repro.runtime.executor import map_ordered

            def slow(x):
                os.write(1, b"STARTED %d\\n" % x)
                time.sleep(60)
                return x

            print("READY", flush=True)
            map_ordered(slow, list(range(4)), jobs=4)
        """)
        env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
        proc = subprocess.Popen(
            [sys.executable, "-c", script], env=env,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            start_new_session=True)
        try:
            assert proc.stdout.readline().strip() == b"READY"
            # Interrupt once every worker has spawned and blocked.
            started = {proc.stdout.readline().split()[-1]
                       for _ in range(4)}
            assert started == {b"0", b"1", b"2", b"3"}
            os.kill(proc.pid, signal.SIGINT)
            proc.wait(timeout=15)
            # The leader is gone; nothing else may survive in its
            # process group (workers are its direct children).
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline:
                try:
                    os.killpg(proc.pid, 0)
                except ProcessLookupError:
                    break  # group empty: every worker was reaped
                time.sleep(0.1)
            else:
                pytest.fail("worker processes survived the interrupt")
        finally:
            proc.stdout.close()
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass

    def test_interrupt_during_worker_start_propagates(self, tmp_path):
        """A Ctrl-C that lands inside ``Process.start`` — right after
        the fork — surfaces as ``KeyboardInterrupt`` and leaves no
        forked worker alive."""
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        script = textwrap.dedent("""
            import os, signal, threading, time
            import multiprocessing.popen_fork as popen_fork
            from repro.runtime.executor import map_ordered

            forked = []
            launch = popen_fork.Popen._launch

            def interrupted_launch(self, process_obj):
                launch(self, process_obj)  # the child never returns
                forked.append(self.pid)
                if len(forked) == 3:
                    signal.pthread_kill(threading.get_ident(),
                                        signal.SIGINT)

            popen_fork.Popen._launch = interrupted_launch

            def slow(x):
                time.sleep(60)
                return x

            try:
                map_ordered(slow, list(range(4)), jobs=4)
            except KeyboardInterrupt:
                print("INTERRUPTED", flush=True)
            alive = 0
            for pid in forked:
                try:
                    os.kill(pid, 0)
                    alive += 1
                except ProcessLookupError:
                    pass
            print("FORKED", len(forked), "ALIVE", alive, flush=True)
        """)
        env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
        # Files, not pipes: a surviving worker would hold a pipe open.
        out, err = tmp_path / "out", tmp_path / "err"
        with open(out, "wb") as stdout, open(err, "wb") as stderr:
            proc = subprocess.Popen(
                [sys.executable, "-c", script], env=env, stdout=stdout,
                stderr=stderr, start_new_session=True)
        try:
            proc.wait(timeout=30)
        finally:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        assert out.read_text().split() == [
            "INTERRUPTED", "FORKED", "3", "ALIVE", "0"], err.read_text()


class TestShardedSendTrains:
    """The core guarantee: job count never changes the results."""

    def _wlan_delays(self, jobs):
        channel = SimulatedWlanChannel(
            [("cross", PoissonGenerator(4e6, 1500))], warmup=0.05)
        train = ProbeTrain.at_rate(30, 5e6, 1500)
        with parallel_jobs(jobs):
            raws = channel.send_trains(train, 12, seed=7)
        return np.vstack([raw.access_delays for raw in raws])

    def test_wlan_bitwise_identical_across_job_counts(self):
        serial = self._wlan_delays(1)
        for jobs in (2, 4):
            assert np.array_equal(serial, self._wlan_delays(jobs))

    def test_fifo_bitwise_identical_across_job_counts(self):
        def run(jobs):
            channel = SimulatedFifoChannel(
                10e6, cross_generator=PoissonGenerator(4e6, 1500),
                warmup=0.05)
            train = ProbeTrain.at_rate(50, 8e6, 1500)
            with parallel_jobs(jobs):
                raws = channel.send_trains(train, 8, seed=3)
            return np.vstack([raw.recv_times for raw in raws])

        assert np.array_equal(run(1), run(3))

    def test_batch_path_drops_scenario_without_queue_logging(self):
        channel = SimulatedWlanChannel(
            [("cross", PoissonGenerator(2e6, 1500))], warmup=0.05)
        raws = channel.send_trains(ProbeTrain.at_rate(5, 4e6), 2, seed=1)
        assert all(raw.scenario is None for raw in raws)

    def test_event_batch_has_one_queue_trace_per_station(self):
        stations = [("a", PoissonGenerator(2e6, 1500)),
                    ("b", PoissonGenerator(1e6, 1500))]
        channel = SimulatedWlanChannel(stations, warmup=0.05,
                                       log_cross_queues=True)
        train = ProbeTrain.at_rate(5, 4e6)
        with parallel_jobs(2):
            batch = channel.send_trains_dense(train, 3, seed=1)
        assert len(batch.queue_traces) == len(stations)
        assert all(isinstance(trace, QueueTraceBatch)
                   and trace.repetitions == 3
                   for trace in batch.queue_traces)
        raw = channel.send_train(train, derive_seeds(1, 3)[2])
        for k, (name, _) in enumerate(stations):
            assert np.array_equal(
                batch.queue_traces[k].size_at(batch.send_times)[2],
                raw.scenario.station(name).queue_size_at(raw.send_times))

    def test_single_send_train_still_exposes_scenario(self):
        channel = SimulatedWlanChannel(
            [("cross", PoissonGenerator(2e6, 1500))], warmup=0.05)
        raw = channel.send_train(ProbeTrain.at_rate(5, 4e6), seed=1)
        assert raw.scenario is not None
