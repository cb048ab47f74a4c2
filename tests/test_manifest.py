"""Tests for the sweep/run-all progress journal (repro.runtime.manifest)."""

import json

import pytest

from repro.runtime.manifest import (
    Manifest,
    ManifestError,
    PointRecord,
    point_id,
)


@pytest.fixture
def manifest(tmp_path):
    return Manifest.create(tmp_path / "sweep.jsonl", "sweep", "fig6",
                           invocation={"scale": 1.0, "seed": 2})


class TestPointId:
    def test_stable_across_kwarg_order(self):
        assert point_id("fig6", {"a": 1, "b": 2}) == \
            point_id("fig6", {"b": 2, "a": 1})

    def test_kwargs_change_id(self):
        assert point_id("fig6", {"a": 1}) != point_id("fig6", {"a": 2})

    def test_experiment_changes_id(self):
        assert point_id("fig6", {"a": 1}) != point_id("fig7", {"a": 1})

    def test_numpy_scalars_canonical(self):
        import numpy as np
        assert point_id("e", {"n": np.int64(5)}) == \
            point_id("e", {"n": 5})


class TestCreateAndLoad:
    def test_create_publishes_header_atomically(self, manifest):
        # No temp droppings, one well-formed header line.
        assert list(manifest.path.parent.glob("*.tmp")) == []
        lines = manifest.path.read_text().splitlines()
        assert len(lines) == 1
        header = json.loads(lines[0])
        assert header["kind"] == "header"
        assert header["command"] == "sweep"
        assert header["experiment"] == "fig6"

    def test_round_trip(self, manifest):
        pid = point_id("fig6", {"repetitions": 4})
        manifest.record_many([PointRecord(point_id=pid, status="done",
                                          label="repetitions=4",
                                          cache_key="abc123")])
        loaded = Manifest.load(manifest.path)
        record = loaded.get(pid)
        assert record is not None
        assert record.status == "done"
        assert record.cache_key == "abc123"
        assert record.label == "repetitions=4"

    def test_last_record_wins(self, manifest):
        pid = point_id("fig6", {"repetitions": 4})
        manifest.record_many([PointRecord(point_id=pid, status="error",
                                          error="boom")])
        manifest.record_many([PointRecord(point_id=pid, status="done",
                                          cache_key="k")])
        loaded = Manifest.load(manifest.path)
        assert loaded.get(pid).status == "done"

    def test_counts(self, manifest):
        manifest.record_many([PointRecord(point_id="a", status="done"),
                              PointRecord(point_id="b", status="failed"),
                              PointRecord(point_id="c", status="error")])
        assert Manifest.load(manifest.path).counts() == {
            "done": 1, "failed": 1, "error": 1}

    def test_create_replaces_existing_journal(self, tmp_path):
        path = tmp_path / "m.jsonl"
        first = Manifest.create(path, "sweep", "fig6")
        first.record_many([PointRecord(point_id="x", status="done")])
        fresh = Manifest.create(path, "sweep", "fig6")
        assert fresh.records == {}
        assert Manifest.load(path).records == {}


class TestTornTail:
    """The one kind of damage a crash can cause, given O_APPEND lines."""

    def test_torn_final_line_without_newline_dropped(self, manifest):
        pid = point_id("fig6", {"repetitions": 4})
        manifest.record_many([PointRecord(point_id=pid, status="done")])
        with open(manifest.path, "a") as handle:
            handle.write('{"kind": "point", "point_id": "t, TORN')
        loaded = Manifest.load(manifest.path)
        assert loaded.get(pid).status == "done"
        assert len(loaded.records) == 1

    def test_torn_final_line_with_newline_dropped(self, manifest):
        manifest.record_many([PointRecord(point_id="a", status="done")])
        with open(manifest.path, "a") as handle:
            handle.write('{"kind": "po\n')
        loaded = Manifest.load(manifest.path)
        assert set(loaded.records) == {"a"}

    def test_torn_header_is_an_error(self, tmp_path):
        path = tmp_path / "m.jsonl"
        path.write_text('{"kind": "head')
        with pytest.raises(ManifestError, match="no header"):
            Manifest.load(path)

    def test_interior_garbage_is_an_error(self, manifest):
        with open(manifest.path, "a") as handle:
            handle.write("garbage, not json\n")
            handle.write(PointRecord(point_id="a",
                                     status="done").to_json() + "\n")
        with pytest.raises(ManifestError, match="not JSON"):
            Manifest.load(manifest.path)


class TestValidation:
    def test_missing_file(self, tmp_path):
        with pytest.raises(ManifestError, match="cannot read"):
            Manifest.load(tmp_path / "nowhere.jsonl")

    def test_header_required(self, tmp_path):
        path = tmp_path / "m.jsonl"
        path.write_text('{"kind": "point", "point_id": "a", '
                        '"status": "done"}\n')
        with pytest.raises(ManifestError, match="no header"):
            Manifest.load(path)

    def test_version_mismatch_rejected(self, tmp_path):
        path = tmp_path / "m.jsonl"
        path.write_text('{"kind": "header", "manifest_version": 99, '
                        '"command": "sweep", "experiment": "fig6"}\n')
        with pytest.raises(ManifestError, match="version"):
            Manifest.load(path)

    def test_unknown_status_rejected(self, manifest):
        with open(manifest.path, "a") as handle:
            handle.write('{"kind": "point", "point_id": "a", '
                         '"status": "maybe"}\n')
            handle.write('{"kind": "point", "point_id": "b", '
                         '"status": "done"}\n')
        with pytest.raises(ManifestError, match="status"):
            Manifest.load(manifest.path)

    def test_require_matches(self, manifest):
        loaded = Manifest.load(manifest.path)
        loaded.require("sweep", "fig6")
        with pytest.raises(ManifestError, match="refusing to resume"):
            loaded.require("sweep", "fig7")
        with pytest.raises(ManifestError, match="refusing to resume"):
            loaded.require("run", "fig6")

    def test_record_rejects_unknown_status(self, manifest):
        with pytest.raises(ValueError, match="status"):
            manifest.record_many([PointRecord(point_id="a", status="done"),
                                  PointRecord(point_id="b",
                                              status="shrug")])
        # A batch with a bad record writes nothing at all.
        assert Manifest.load(manifest.path).records == {}
