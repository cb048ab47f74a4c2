"""Chaos tests: fault injection through the real CLI.

Each test here drives ``python -m repro`` in a subprocess with a
``REPRO_FAULTS`` clause active and asserts the declared recovery
contract (see ``repro.runtime.faults``):

* a crashed worker is retried and the run's cached result is
  byte-identical to an undisturbed run;
* a corrupted cache entry is quarantined and recomputed, and
  ``cache ls`` reports the damage;
* a torn manifest tail (mid-crash append) does not poison
  ``--resume``;
* a sweep SIGKILLed mid-flight and restarted with ``--resume`` from
  its default store re-executes only the incomplete points, and every
  stored payload is byte-identical to a standalone run of the point;
* a ``run`` SIGKILLed after journalling its experiment resumes as a
  cache hit, journal and cache bytes unchanged.

All tests are ``chaos``-marked: tier-1 skips them, the CI chaos job
runs them with ``pytest -m chaos``.
"""

import json
import os
import pathlib
import signal
import subprocess
import sys

import pytest

from helpers import store_payloads
from repro.runtime import registry
from repro.runtime.manifest import point_id

pytestmark = pytest.mark.chaos

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

SWEEP = ["sweep", "fig6", "--param", "repetitions=4,6,8", "--seed", "2"]


def run_cli(args, cache_dir, env_extra=None, timeout=600):
    """Run ``python -m repro`` against an isolated cache directory."""
    env = dict(os.environ, PYTHONPATH=str(SRC),
               REPRO_CACHE_DIR=str(cache_dir))
    env.pop("REPRO_FAULTS", None)
    env.pop("REPRO_SWEEP_WINDOW", None)
    env.update(env_extra or {})
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        env=env, capture_output=True, text=True, timeout=timeout)


def cache_bytes(cache_dir):
    """Map entry filename -> raw bytes for every cache entry."""
    root = pathlib.Path(cache_dir)
    return {path.name: path.read_bytes()
            for path in root.glob("*.json")} if root.exists() else {}


class TestWorkerCrashRetry:
    def test_crashed_worker_retried_result_identical(self, tmp_path):
        # backend=event so repetitions shard across worker processes
        # (the vector backend never leaves the parent process).
        argv = ["run", "fig6", "--scale", "0.05", "--seed", "3",
                "--backend", "event", "--retries", "2"]
        clean = run_cli(argv, tmp_path / "clean",
                        env_extra={"REPRO_JOBS": "2"})
        assert clean.returncode == 0, clean.stderr
        faulty = run_cli(argv, tmp_path / "faulty",
                         env_extra={"REPRO_JOBS": "2",
                                    "REPRO_FAULTS": "crash-shard=0"})
        assert faulty.returncode == 0, faulty.stderr
        assert "shard 0" in faulty.stderr and "retry" in faulty.stderr
        assert str(23) in faulty.stderr  # the injected exit code
        # The recovered run cached byte-identical results.
        clean_entries = cache_bytes(tmp_path / "clean")
        faulty_entries = cache_bytes(tmp_path / "faulty")
        assert clean_entries  # sanity: something was stored
        assert faulty_entries == clean_entries

    def test_persistent_crash_finishes_in_process(self, tmp_path):
        argv = ["run", "fig6", "--scale", "0.05", "--seed", "3",
                "--backend", "event", "--retries", "1"]
        proc = run_cli(
            argv, tmp_path / "cache",
            env_extra={"REPRO_JOBS": "2",
                       "REPRO_FAULTS": "crash-shard=0:always"})
        assert proc.returncode == 0, proc.stderr
        assert "in-process fallback" in proc.stderr


class TestCacheCorruptionQuarantine:
    def test_corrupt_entry_quarantined_and_recomputed(self, tmp_path):
        cache_dir = tmp_path / "cache"
        argv = ["run", "fig6", "--scale", "0.05", "--seed", "3"]
        # First run publishes a corrupted entry (bit flipped on disk).
        first = run_cli(argv, cache_dir,
                        env_extra={"REPRO_FAULTS": "cache-bitflip=1"})
        assert first.returncode == 0, first.stderr
        # Second run must treat it as a miss, quarantine, recompute.
        second = run_cli(argv, cache_dir)
        assert second.returncode == 0, second.stderr
        assert "cache hit" not in second.stdout
        corrupt = list((cache_dir / "corrupt").glob("*"))
        assert len(corrupt) == 1
        # The recomputed entry matches an undisturbed run's bytes.
        clean = run_cli(argv, tmp_path / "clean")
        assert clean.returncode == 0, clean.stderr
        assert cache_bytes(cache_dir) == cache_bytes(tmp_path / "clean")
        # ... and cache ls reports the quarantined file, exit 0.
        listing = run_cli(["cache", "ls"], cache_dir)
        assert listing.returncode == 0, listing.stderr
        assert "1 quarantined entry" in listing.stdout
        # A third run is a plain cache hit.
        third = run_cli(argv, cache_dir)
        assert "cache hit" in third.stdout


class TestTornJournalRecovery:
    def test_resume_survives_torn_manifest_tail(self, tmp_path):
        cache_dir = tmp_path / "cache"
        journal = cache_dir / "sweeps" / "fig6" / "manifest.jsonl"
        full = run_cli(SWEEP, cache_dir)
        assert full.returncode == 0, full.stderr
        # Simulate a crash mid-append: a torn, newline-less fragment.
        with open(journal, "a") as handle:
            handle.write('{"kind": "point", "point_id": "t, TORN')
        resumed = run_cli(SWEEP + ["--resume", str(journal)], cache_dir)
        assert resumed.returncode == 0, resumed.stderr
        assert "3/3 points pass (3 resumed)" in resumed.stdout


class TestKillAndResume:
    def test_sigkilled_sweep_resumes_byte_identical(self, tmp_path):
        cache_dir = tmp_path / "cache"
        store = cache_dir / "sweeps" / "fig6"
        journal = store / "manifest.jsonl"
        report = tmp_path / "report.json"

        # One point per window, so the kill after the first point
        # leaves a genuinely partial store and journal.
        killed = run_cli(
            SWEEP, cache_dir,
            env_extra={"REPRO_FAULTS": "kill-after-points=1",
                       "REPRO_SWEEP_WINDOW": "1"})
        assert killed.returncode == -signal.SIGKILL
        rows = [json.loads(line) for line in
                journal.read_text().splitlines()]
        assert [r["status"] for r in rows if r["kind"] == "point"] \
            == ["done"]
        assert len(store_payloads(store)) == 1

        resumed = run_cli(
            SWEEP + ["--resume", str(journal), "--report", str(report)],
            cache_dir)
        assert resumed.returncode == 0, resumed.stderr
        # Only the completed point is served; the two incomplete ones
        # are executed.
        assert "3/3 points pass (1 resumed)" in resumed.stdout
        payload = json.loads(report.read_text())
        assert payload["counts"] == {"done": 3}
        assert [p["resumed"] for p in payload["points"]] \
            == [True, False, False]

        # Every stored payload is byte-identical to a standalone run.
        stored = store_payloads(store)
        experiment = registry.get("fig6")
        assert len(stored) == 3
        for repetitions in (4, 6, 8):
            report_ = experiment.run(
                seed=2, overrides={"repetitions": repetitions},
                backend="auto")
            pid = point_id("fig6", report_.kwargs)
            assert stored[pid] == json.dumps(report_.result.to_dict())

        # A second resume is pure store/journal service: nothing runs.
        again = run_cli(SWEEP + ["--resume", str(journal)], cache_dir)
        assert again.returncode == 0, again.stderr
        assert "3/3 points pass (3 resumed)" in again.stdout
        assert store_payloads(store) == stored

    def test_sigkilled_run_resumes_from_cache(self, tmp_path):
        cache_dir = tmp_path / "cache"
        journal = tmp_path / "m.jsonl"
        report = tmp_path / "report.json"
        argv = ["run", "fig6", "--scale", "0.05", "--seed", "3"]

        # Killed right after the experiment is journalled.
        killed = run_cli(argv + ["--manifest", str(journal)], cache_dir,
                         env_extra={"REPRO_FAULTS": "kill-after-points=1"})
        assert killed.returncode == -signal.SIGKILL
        journal_bytes = journal.read_bytes()
        rows = [json.loads(line) for line in journal_bytes.splitlines()]
        assert [r["status"] for r in rows if r["kind"] == "point"] \
            == ["done"]

        resumed = run_cli(argv + ["--resume", str(journal),
                                  "--report", str(report)], cache_dir)
        assert resumed.returncode == 0, resumed.stderr
        assert "[cache hit " in resumed.stdout
        (point,) = json.loads(report.read_text())["points"]
        assert point["resumed"] is True
        assert journal.read_bytes() == journal_bytes
        # The cache holds exactly what an undisturbed run stores.
        clean = run_cli(argv, tmp_path / "clean")
        assert clean.returncode == 0, clean.stderr
        assert cache_bytes(cache_dir) == cache_bytes(tmp_path / "clean")
