"""Tests for the on-disk result cache (repro.runtime.cache)."""

import concurrent.futures
import json
import multiprocessing
import sys

import numpy as np
import pytest

from repro.analysis.results import ExperimentResult
from repro.runtime import faults
from repro.runtime.cache import (
    ResultCache,
    canonical_kwargs,
    code_version,
    default_cache_dir,
    payload_checksum,
)


@pytest.fixture
def cache(tmp_path):
    return ResultCache(root=tmp_path / "cache")


@pytest.fixture
def result():
    out = ExperimentResult(
        experiment="toy", title="Toy", x_label="x",
        x=np.array([1.0, 2.0, 3.0]),
        series={"zeta": np.array([0.5, 0.25, 0.125]),
                "alpha": np.array([1.0, 2.0, 4.0])},
        meta={"repetitions": 9, "rate_bps": 5e6, "label": "paper"})
    out.add_check("zig", True)
    out.add_check("azag", True)
    return out


class TestRoundTrip:
    def test_to_from_dict_preserves_table(self, result):
        clone = ExperimentResult.from_dict(
            json.loads(json.dumps(result.to_dict())))
        assert clone.table() == result.table()
        assert clone.to_dict() == result.to_dict()

    def test_series_and_check_order_preserved(self, result):
        clone = ExperimentResult.from_dict(result.to_dict())
        assert list(clone.series) == ["zeta", "alpha"]
        assert list(clone.checks) == ["zig", "azag"]

    def test_numpy_meta_values_become_plain(self):
        out = ExperimentResult(
            experiment="np", title="t", x_label="x",
            x=np.array([1.0]), series={"y": np.array([2.0])},
            meta={"scalar": np.float64(0.125), "vec": np.arange(3)})
        payload = json.dumps(out.to_dict())
        assert json.loads(payload)["meta"]["scalar"] == 0.125

    def test_numpy_nested_in_containers_serialises(self):
        out = ExperimentResult(
            experiment="np", title="t", x_label="x",
            x=np.array([1.0]), series={"y": np.array([2.0])},
            meta={"counts": [np.int64(3), np.int64(4)],
                  "nested": {"rates": (np.float64(1.5),)}})
        payload = json.loads(json.dumps(out.to_dict()))
        assert payload["meta"]["counts"] == [3, 4]
        assert payload["meta"]["nested"]["rates"] == [1.5]


class TestKeying:
    def test_same_inputs_same_key(self, cache):
        a = cache.key_for("fig6", {"repetitions": 40, "seed": 7})
        b = cache.key_for("fig6", {"seed": 7, "repetitions": 40})
        assert a == b

    def test_kwargs_change_key(self, cache):
        a = cache.key_for("fig6", {"repetitions": 40, "seed": 7})
        b = cache.key_for("fig6", {"repetitions": 41, "seed": 7})
        assert a != b

    def test_seed_changes_key(self, cache):
        a = cache.key_for("fig6", {"seed": 7})
        assert a != cache.key_for("fig6", {"seed": 8})

    def test_experiment_changes_key(self, cache):
        kwargs = {"repetitions": 40}
        assert cache.key_for("fig6", kwargs) != \
            cache.key_for("fig7", kwargs)

    def test_code_version_changes_key(self, cache):
        kwargs = {"repetitions": 40}
        assert cache.key_for("fig6", kwargs, version="aaaa") != \
            cache.key_for("fig6", kwargs, version="bbbb")

    def test_numpy_kwargs_are_canonical(self, cache):
        a = cache.key_for("e", {"rates": np.array([1.0, 2.0]), "n": 5})
        b = cache.key_for("e", {"rates": [1.0, 2.0], "n": 5})
        assert a == b

    def test_canonical_kwargs_sorts_and_flattens(self):
        out = canonical_kwargs({"b": (1, 2), "a": np.int64(3)})
        assert list(out) == ["a", "b"]
        assert out == {"a": 3, "b": [1, 2]}


class TestHitMissInvalidation:
    def test_miss_then_hit(self, cache, result):
        key = cache.key_for("toy", {"repetitions": 9})
        assert cache.load("toy", key) is None
        cache.store("toy", key, {"repetitions": 9}, result)
        hit = cache.load("toy", key)
        assert hit is not None
        assert hit.table() == result.table()

    def test_code_version_invalidates(self, cache, result):
        old_key = cache.key_for("toy", {"repetitions": 9}, version="old")
        cache.store("toy", old_key, {"repetitions": 9}, result,
                    version="old")
        new_key = cache.key_for("toy", {"repetitions": 9}, version="new")
        assert new_key != old_key
        assert cache.load("toy", new_key) is None

    def test_corrupt_entry_is_a_miss(self, cache, result):
        key = cache.key_for("toy", {})
        path = cache.store("toy", key, {}, result)
        path.write_text("{not json")
        assert cache.load("toy", key) is None

    def test_entries_and_clear(self, cache, result):
        for reps in (1, 2, 3):
            key = cache.key_for("toy", {"repetitions": reps})
            cache.store("toy", key, {"repetitions": reps}, result)
        entries = cache.entries()
        assert len(entries) == 3
        assert all(entry.experiment == "toy" for entry in entries)
        assert all(not entry.stale for entry in entries)
        assert cache.clear() == 3
        assert cache.entries() == []

    def test_stale_entries_flagged(self, cache, result):
        key = cache.key_for("toy", {}, version="ancient")
        cache.store("toy", key, {}, result, version="ancient")
        [entry] = cache.entries()
        assert entry.stale

    def test_clear_on_missing_directory(self, tmp_path):
        assert ResultCache(root=tmp_path / "nowhere").clear() == 0

    def test_clear_sweeps_orphaned_tmp_files(self, cache, result):
        key = cache.key_for("toy", {})
        cache.store("toy", key, {}, result)
        orphan = cache.root / "toy-dead.tmp"
        orphan.write_text("interrupted store")
        assert cache.clear() == 2
        assert not orphan.exists()


def _make_result(tag="toy"):
    return ExperimentResult(
        experiment=tag, title="Toy", x_label="x",
        x=np.array([1.0, 2.0]), series={"y": np.array([3.0, 4.0])},
        meta={"tag": tag})


def _racing_store(root):
    """One concurrent writer: store the same key as everyone else."""
    cache = ResultCache(root=root)
    key = cache.key_for("race", {"n": 1})
    cache.store("race", key, {"n": 1}, _make_result("race"))


class TestChecksumAndQuarantine:
    def test_stored_payload_carries_checksum(self, cache, result):
        key = cache.key_for("toy", {})
        path = cache.store("toy", key, {}, result)
        payload = json.loads(path.read_text())
        checksum = payload.pop("checksum")
        assert checksum == payload_checksum(payload)

    def test_bit_flip_quarantines_and_misses(self, cache, result):
        key = cache.key_for("toy", {})
        path = cache.store("toy", key, {}, result)
        raw = bytearray(path.read_bytes())
        raw[len(raw) // 2] ^= 0x40
        path.write_bytes(bytes(raw))
        assert cache.load("toy", key) is None
        assert not path.exists()
        assert len(cache.quarantined()) == 1

    def test_truncation_quarantines_and_misses(self, cache, result):
        key = cache.key_for("toy", {})
        path = cache.store("toy", key, {}, result)
        raw = path.read_bytes()
        path.write_bytes(raw[:len(raw) // 2])
        assert cache.load("toy", key) is None
        assert len(cache.quarantined()) == 1

    def test_recompute_after_quarantine(self, cache, result):
        key = cache.key_for("toy", {})
        path = cache.store("toy", key, {}, result)
        path.write_text("{")
        assert cache.load("toy", key) is None
        cache.store("toy", key, {}, result)  # the recompute
        hit = cache.load("toy", key)
        assert hit is not None
        assert hit.table() == result.table()
        assert len(cache.quarantined()) == 1

    def test_scan_reports_malformed_without_mutating(self, cache,
                                                     result):
        good_key = cache.key_for("toy", {"n": 1})
        cache.store("toy", good_key, {"n": 1}, result)
        bad_key = cache.key_for("toy", {"n": 2})
        bad_path = cache.store("toy", bad_key, {"n": 2}, result)
        bad_path.write_text("{corrupt")
        entries, malformed = cache.scan()
        assert len(entries) == 1
        assert malformed == [bad_path]
        assert bad_path.exists()  # scan never quarantines
        assert cache.quarantined() == []

    def test_clear_removes_quarantined_entries(self, cache, result):
        key = cache.key_for("toy", {})
        path = cache.store("toy", key, {}, result)
        path.write_text("{")
        cache.load("toy", key)
        assert len(cache.quarantined()) == 1
        assert cache.clear() == 1
        assert cache.quarantined() == []

    def test_injected_bitflip_round_trips_through_quarantine(
            self, cache, result):
        key = cache.key_for("toy", {})
        with faults.injected("cache-bitflip=1"):
            cache.store("toy", key, {}, result)
        assert cache.load("toy", key) is None
        assert len(cache.quarantined()) == 1

    def test_injected_truncation_round_trips_through_quarantine(
            self, cache, result):
        key = cache.key_for("toy", {})
        with faults.injected("cache-truncate=1"):
            cache.store("toy", key, {}, result)
        assert cache.load("toy", key) is None
        assert len(cache.quarantined()) == 1


class TestConcurrentWriters:
    """Racing writers of the same key: last rename wins, entry valid."""

    def _assert_single_valid_entry(self, root):
        cache = ResultCache(root=root)
        key = cache.key_for("race", {"n": 1})
        hit = cache.load("race", key)
        assert hit is not None
        assert hit.meta["tag"] == "race"
        entries, malformed = cache.scan()
        assert len(entries) == 1
        assert malformed == []
        assert list(root.glob("*.tmp")) == []

    def test_threads(self, tmp_path):
        root = tmp_path / "cache"
        with concurrent.futures.ThreadPoolExecutor(8) as pool:
            list(pool.map(lambda _: _racing_store(root), range(16)))
        self._assert_single_valid_entry(root)

    def test_processes(self, tmp_path):
        root = tmp_path / "cache"
        ctx = multiprocessing.get_context(
            "fork" if sys.platform != "win32" else None)
        procs = [ctx.Process(target=_racing_store, args=(root,))
                 for _ in range(6)]
        for proc in procs:
            proc.start()
        for proc in procs:
            proc.join(timeout=60)
            assert proc.exitcode == 0
        self._assert_single_valid_entry(root)


class TestDefaults:
    def test_env_var_moves_default_dir(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "alt"))
        assert default_cache_dir() == tmp_path / "alt"

    def test_code_version_is_stable_within_process(self):
        assert code_version() == code_version()
        assert len(code_version()) == 16
