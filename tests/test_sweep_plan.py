"""Tests for the fused sweep engine: plan, store, resume, refinement.

The contracts pinned here are the ones ``repro sweep --store`` sells:

* batch fusion never changes results — every fused payload is
  bit-identical to the standalone ``Experiment.run`` at that point,
  for forced and auto-resolved backends alike;
* the columnar store round-trips rows and payloads losslessly in both
  format tiers (parquet / npz), survives torn index tails, and its
  ``completed()`` answer honours the code-version gate;
* a killed fused sweep resumes from the store, re-executing only the
  incomplete points (chaos-marked subprocess test);
* adaptive refinement places its added points around the response
  curve's knee, not uniformly.
"""

import json
import os
import pathlib
import signal
import subprocess
import sys

import numpy as np
import pytest

from repro.analysis.results import ExperimentResult
from repro.backends import dispatch
from repro.runtime import registry
from repro.runtime import store as store_mod
from repro.runtime.cache import code_version
from repro.runtime.executor import map_batched
from repro.runtime.manifest import Manifest, PointRecord, point_id
from repro.runtime.store import StoreError, SweepStore
from repro.runtime.sweep import (SweepPlan, adapt_axis, point_metric,
                                 refine_candidates, run_adaptive,
                                 run_plan)

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

#: Cheap eq1 configuration: one probe rate, a short train, two reps —
#: sub-millisecond per point, yet it exercises the full kernel path.
CHEAP = {"probe_rates_bps": [4e6], "n_packets": 24, "repetitions": 2}


def cheap_grid(reps=(2, 3), packets=(24, 32)):
    """A small eq1 grid over (repetitions, n_packets)."""
    return [dict(CHEAP, repetitions=r, n_packets=p)
            for r in reps for p in packets]


def make_store(tmp_path, params=("repetitions", "n_packets"),
               experiment="eq1"):
    return SweepStore.create(tmp_path / "store", experiment,
                             params=list(params))


def execute(plan, store, manifest=None, **kwargs):
    """Drain run_plan, returning the windows."""
    return list(run_plan(plan, store=store, manifest=manifest, **kwargs))


@pytest.fixture
def npz_only(monkeypatch):
    """Force the npz tier regardless of what is installed."""
    monkeypatch.setattr(store_mod, "_FORCE_AVAILABLE", False)


# ----------------------------------------------------------------------
# Bit-identity of fused execution
# ----------------------------------------------------------------------

class TestFusedBitIdentity:
    @pytest.mark.parametrize("backend", ["auto", "event", "vector"])
    def test_fused_payload_matches_standalone_run(self, tmp_path,
                                                  npz_only, backend):
        exp = registry.get("eq1")
        grid = cheap_grid()
        store = make_store(tmp_path)
        plan = SweepPlan(exp, iter(grid), seed=7, backend=backend)
        windows = execute(plan, store)
        assert sum(len(w.outcomes) for w in windows) == len(grid)
        for overrides in grid:
            kwargs = exp.kwargs_for(seed=7, overrides=overrides,
                                    backend=backend)
            stored = store.payload(point_id("eq1", kwargs))
            assert stored is not None
            direct = exp.run(seed=7, overrides=overrides,
                             backend=backend).result
            assert json.dumps(stored.to_dict(), sort_keys=True) == \
                json.dumps(direct.to_dict(), sort_keys=True)
            # Annotation parity too: the fused row records the same
            # resolved backend a standalone run reports.
            assert stored.meta.get("backend") == \
                direct.meta.get("backend")

    def test_per_point_backend_override_takes_full_path(self, tmp_path,
                                                        npz_only):
        # A point overriding ``backend`` itself must go through the
        # full kwargs_for resolution (its own validation semantics),
        # and still match the standalone run bit for bit.
        exp = registry.get("eq1")
        grid = [dict(CHEAP, backend="event"),
                dict(CHEAP, backend="vector")]
        store = SweepStore.create(tmp_path / "store", "eq1",
                                  params=["backend"])
        plan = SweepPlan(exp, iter(grid), seed=3, backend="auto")
        execute(plan, store)
        groups = {w.group for w in execute(
            SweepPlan(exp, iter(grid), seed=3, backend="auto"), store)}
        for overrides in grid:
            kwargs = exp.kwargs_for(seed=3, overrides=overrides,
                                    backend="auto")
            stored = store.payload(point_id("eq1", kwargs))
            direct = exp.run(seed=3, overrides=overrides,
                             backend="auto").result
            assert json.dumps(stored.to_dict(), sort_keys=True) == \
                json.dumps(direct.to_dict(), sort_keys=True)
        # The two forced backends landed in two distinct fused groups.
        assert len(groups) == 2

    def test_runner_exception_becomes_error_row(self, tmp_path,
                                                npz_only):
        exp = registry.get("eq1")
        grid = [dict(CHEAP, no_such_kwarg=1)]
        store = SweepStore.create(tmp_path / "store", "eq1",
                                  params=["no_such_kwarg"])
        windows = execute(SweepPlan(exp, iter(grid), seed=1), store)
        (outcome,) = windows[0].outcomes
        assert outcome["status"] == "error"
        assert "no_such_kwarg" in outcome["error"]
        rows = store.rows(columns=["status", "error"])
        assert rows[0]["status"] == "error"


class TestPlanStructure:
    def test_windows_bound_memory(self, npz_only):
        exp = registry.get("eq1")
        grid = [dict(CHEAP, repetitions=r) for r in range(2, 12)]
        plan = SweepPlan(exp, iter(grid), seed=1)
        windows = list(plan.windows(window=4))
        assert [len(w.points) for w in windows] == [4, 4, 2]
        assert all(len({p.group for p in w.points}) == 1
                   for w in windows)
        # group_counts filled during streaming (--report reads it).
        assert sum(plan.group_counts.values()) == len(grid)

    def test_dispatch_resolved_once_per_request(self, monkeypatch):
        exp = registry.get("eq1")
        calls = []
        original = dispatch.resolve

        def counting(spec, requested="auto"):
            calls.append(requested)
            return original(spec, requested)

        monkeypatch.setattr(dispatch, "resolve", counting)
        grid = [dict(CHEAP, repetitions=r) for r in range(2, 22)]
        plan = SweepPlan(exp, iter(grid), seed=1, backend="auto")
        list(plan.planned())
        # A handful of resolutions for the plan's annotation and the
        # one memoised group — never one (or more) per point.
        assert len(calls) < len(grid) // 2

    def test_fusion_key_and_grouping(self):
        exp = registry.get("eq1")
        auto = exp.resolve_backend("auto")
        event = exp.resolve_backend("event")
        assert dispatch.fusion_key(auto) == (auto.name, auto.kernel)
        grid = [dict(CHEAP, backend=requested)
                for requested in ("auto", "auto", "event", "auto")]
        groups = [point.group for point in
                  SweepPlan(exp, iter(grid), seed=1).planned()]
        assert groups == [dispatch.fusion_key(auto)] * 2 + [
            dispatch.fusion_key(event), dispatch.fusion_key(auto)]


# ----------------------------------------------------------------------
# Columnar store
# ----------------------------------------------------------------------

def _rows(n, status="done", start=0):
    return [{"point_id": f"p{start + i:03d}", "label": f"r={i}",
             "status": status, "elapsed_s": 0.5, "error": "",
             "payload": json.dumps({"experiment": "eq1", "title": "t",
                                    "x_label": "x", "x": [float(i)],
                                    "series": {"m": [float(i)]},
                                    "meta": {}, "checks": {}}),
             "repetitions": start + i, "n_packets": 24}
            for i in range(n)]


class TestSweepStoreFormats:
    def test_npz_round_trip(self, tmp_path, npz_only):
        store = make_store(tmp_path)
        assert store.format == "npz"
        store.append(_rows(3))
        assert store.flush() is not None
        reopened = SweepStore.open(tmp_path / "store")
        rows = reopened.rows()
        assert [r["point_id"] for r in rows] == ["p000", "p001", "p002"]
        assert [r["repetitions"] for r in rows] == [0, 1, 2]
        result = reopened.payload("p001")
        assert isinstance(result, ExperimentResult)
        assert result.series["m"].tolist() == [1.0]

    @pytest.mark.skipif(not store_mod.available(),
                        reason="pyarrow not installed")
    def test_parquet_round_trip(self, tmp_path):
        store = make_store(tmp_path)
        assert store.format == "parquet"
        store.append(_rows(3))
        store.flush()
        reopened = SweepStore.open(tmp_path / "store")
        rows = reopened.rows()
        assert [r["point_id"] for r in rows] == ["p000", "p001", "p002"]
        assert [r["repetitions"] for r in rows] == [0, 1, 2]
        assert reopened.payload("p002").x.tolist() == [2.0]

    def test_parquet_request_without_pyarrow_fails(self, tmp_path,
                                                   npz_only):
        with pytest.raises(StoreError, match="pyarrow"):
            SweepStore.create(tmp_path / "store", "eq1",
                              params=["a"], fmt="parquet")

    def test_opening_parquet_store_without_pyarrow_fails(
            self, tmp_path, monkeypatch):
        root = tmp_path / "store"
        root.mkdir()
        header = {"kind": "header", "store_version": 1,
                  "experiment": "eq1", "format": "parquet",
                  "params": ["a"]}
        (root / "index.jsonl").write_text(json.dumps(header) + "\n")
        monkeypatch.setattr(store_mod, "_FORCE_AVAILABLE", False)
        with pytest.raises(StoreError, match="pyarrow"):
            SweepStore.open(root)

    def test_availability_hook(self, monkeypatch):
        monkeypatch.setattr(store_mod, "_FORCE_AVAILABLE", True)
        assert store_mod.available()
        assert store_mod.unavailable_reason() is None
        monkeypatch.setattr(store_mod, "_FORCE_AVAILABLE", False)
        assert not store_mod.available()
        assert "pyarrow" in store_mod.unavailable_reason()


class TestSweepStoreContracts:
    def test_schema_mismatch_rejected(self, tmp_path, npz_only):
        store = make_store(tmp_path)
        with pytest.raises(StoreError, match="missing"):
            store.append([{"point_id": "p", "status": "done"}])
        with pytest.raises(StoreError, match="unknown"):
            store.append([dict(_rows(1)[0], surprise=1)])

    def test_param_fixed_column_collision_rejected(self, tmp_path,
                                                   npz_only):
        with pytest.raises(StoreError, match="collide"):
            SweepStore.create(tmp_path / "store", "eq1",
                              params=["status"])

    def test_open_missing_store_fails(self, tmp_path):
        with pytest.raises(StoreError, match="cannot read"):
            SweepStore.open(tmp_path / "nowhere")

    def test_torn_index_tail_dropped(self, tmp_path, npz_only):
        store = make_store(tmp_path)
        store.append(_rows(2))
        store.flush()
        index = tmp_path / "store" / "index.jsonl"
        with open(index, "a") as handle:
            handle.write('{"kind": "chunk", "file": "chu')  # torn
        reopened = SweepStore.open(tmp_path / "store")
        assert len(reopened.chunks) == 1
        assert reopened.point_ids() == {"p000", "p001"}

    def test_mid_file_damage_raises(self, tmp_path, npz_only):
        store = make_store(tmp_path)
        store.append(_rows(1))
        store.flush()
        index = tmp_path / "store" / "index.jsonl"
        lines = index.read_text().splitlines()
        index.write_text("\n".join([lines[0], "garbage", lines[1]])
                         + "\n")
        with pytest.raises(StoreError, match="not\\s+JSON"):
            SweepStore.open(tmp_path / "store")

    def test_indexed_chunk_with_missing_file_dropped(self, tmp_path,
                                                     npz_only):
        store = make_store(tmp_path)
        store.append(_rows(2))
        chunk = store.flush()
        chunk.unlink()  # crash-window orphan in reverse / manual damage
        reopened = SweepStore.open(tmp_path / "store")
        assert reopened.chunks == []
        assert reopened.completed() == set()

    def test_completed_requires_done_and_current_version(self, tmp_path,
                                                         npz_only):
        store = make_store(tmp_path)
        store.append(_rows(2, status="done"))
        store.append(_rows(1, status="failed", start=2))
        store.flush()
        assert store.completed() == {"p000", "p001"}
        # A code edit (different version) invalidates every row.
        assert store.completed(version="somethingelse") == set()
        assert store.completed(version=code_version()) == \
            {"p000", "p001"}

    def test_last_chunk_wins_dedup(self, tmp_path, npz_only):
        store = make_store(tmp_path)
        store.append(_rows(2, status="error"))
        store.flush()
        store.append(_rows(2, status="done"))
        store.flush()
        frame = store.frame(columns=["point_id", "status"])
        assert sorted(frame["point_id"].tolist()) == ["p000", "p001"]
        assert set(frame["status"].tolist()) == {"done"}
        assert store.completed() == {"p000", "p001"}
        assert store.stats()["rows"] == 4
        assert store.stats()["points"] == 2

    def test_frame_projection_and_filter(self, tmp_path, npz_only):
        store = make_store(tmp_path)
        store.append(_rows(4))
        store.flush()
        frame = store.frame(columns=["repetitions"],
                            where={"point_id": "p002"})
        assert list(frame) == ["repetitions"]
        assert frame["repetitions"].tolist() == [2]
        with pytest.raises(StoreError, match="unknown column"):
            store.frame(columns=["nope"])
        with pytest.raises(StoreError, match="unknown filter"):
            store.frame(where={"nope": 1})

    def test_create_wipes_stale_chunks(self, tmp_path, npz_only):
        store = make_store(tmp_path)
        store.append(_rows(2))
        store.flush()
        fresh = SweepStore.create(tmp_path / "store", "eq1",
                                  params=["repetitions", "n_packets"])
        assert fresh.chunks == []
        assert list((tmp_path / "store").glob("chunk-*")) == []


# ----------------------------------------------------------------------
# Execution plumbing: map_batched, record_many
# ----------------------------------------------------------------------

class TestMapBatched:
    def test_windows_and_order(self):
        out = list(map_batched(lambda v: v * v, range(10), jobs=1,
                               window=4))
        assert [len(chunk) for chunk, _ in out] == [4, 4, 2]
        assert [r for _, results in out for r in results] == \
            [v * v for v in range(10)]

    def test_consumes_any_iterable(self):
        stream = (v for v in range(5))
        out = list(map_batched(lambda v: v + 1, stream, jobs=1,
                               window=2))
        assert [r for _, results in out for r in results] == \
            [1, 2, 3, 4, 5]

    def test_empty_input(self):
        assert list(map_batched(lambda v: v, [], jobs=1)) == []

    def test_parallel_matches_serial(self):
        serial = [r for _, rs in map_batched(
            lambda v: v * 3, range(20), jobs=1, window=8) for r in rs]
        parallel = [r for _, rs in map_batched(
            lambda v: v * 3, range(20), jobs=2, window=8) for r in rs]
        assert serial == parallel


class TestRecordMany:
    def test_batch_append_round_trips(self, tmp_path):
        path = tmp_path / "m.jsonl"
        manifest = Manifest.create(path, "sweep", "eq1")
        manifest.record_many([
            PointRecord("a", "done", "r=1"),
            PointRecord("b", "failed", "r=2", error="boom"),
        ])
        assert manifest.get("a").status == "done"
        reloaded = Manifest.load(path)
        assert reloaded.get("b").error == "boom"
        assert reloaded.counts()["done"] == 1

    def test_empty_batch_is_noop(self, tmp_path):
        path = tmp_path / "m.jsonl"
        manifest = Manifest.create(path, "sweep", "eq1")
        before = path.read_bytes()
        manifest.record_many([])
        assert path.read_bytes() == before

    def test_invalid_status_rejected_before_any_write(self, tmp_path):
        path = tmp_path / "m.jsonl"
        manifest = Manifest.create(path, "sweep", "eq1")
        before = path.read_bytes()
        with pytest.raises(ValueError, match="status"):
            manifest.record_many([PointRecord("a", "done", ""),
                                  PointRecord("b", "bogus", "")])
        assert path.read_bytes() == before


# ----------------------------------------------------------------------
# Resume
# ----------------------------------------------------------------------

class TestResumeFromStore:
    def test_second_run_resumes_everything(self, tmp_path, npz_only):
        exp = registry.get("eq1")
        # reps=(2, 4): every point passes its shape checks at these
        # parameters, so all of them are resumable ("failed" points
        # deliberately re-run on resume).
        grid = cheap_grid(reps=(2, 4))
        store = make_store(tmp_path)
        manifest = Manifest.create(tmp_path / "m.jsonl", "sweep", "eq1")
        first = execute(SweepPlan(exp, iter(grid), seed=5), store,
                        manifest)
        assert sum(w.executed for w in first) == len(grid)
        second = execute(SweepPlan(exp, iter(grid), seed=5), store,
                         manifest)
        assert sum(w.executed for w in second) == 0
        assert sum(w.resumed for w in second) == len(grid)

    def test_refresh_re_executes(self, tmp_path, npz_only):
        exp = registry.get("eq1")
        grid = cheap_grid(reps=(2,), packets=(24,))
        store = make_store(tmp_path)
        execute(SweepPlan(exp, iter(grid), seed=5), store)
        again = execute(SweepPlan(exp, iter(grid), seed=5), store,
                        refresh=True)
        assert sum(w.executed for w in again) == len(grid)

    def test_store_experiment_mismatch_rejected(self, tmp_path,
                                                npz_only):
        exp = registry.get("eq1")
        store = SweepStore.create(tmp_path / "store", "fig6",
                                  params=["repetitions"])
        with pytest.raises(ValueError, match="belongs to"):
            list(run_plan(SweepPlan(exp, iter(cheap_grid())),
                          store=store))

    def test_journal_disagreement_forces_re_run(self, tmp_path,
                                                npz_only):
        # Store says done but the journal has no record (kill between
        # chunk publish and journal append): the point re-runs.
        exp = registry.get("eq1")
        grid = cheap_grid(reps=(2,), packets=(24,))
        store = make_store(tmp_path)
        execute(SweepPlan(exp, iter(grid), seed=5), store)
        manifest = Manifest.create(tmp_path / "m.jsonl", "sweep", "eq1")
        resumed = execute(SweepPlan(exp, iter(grid), seed=5), store,
                          manifest)
        assert sum(w.executed for w in resumed) == len(grid)


# ----------------------------------------------------------------------
# Adaptive refinement
# ----------------------------------------------------------------------

class TestRefineCandidates:
    def test_knee_attracts_candidates(self):
        xs = list(range(11))
        ys = [abs(x - 5) for x in xs]
        candidates = refine_candidates(xs, ys, count=2)
        assert sorted(candidates) == [4.5, 5.5]

    def test_flat_curve_yields_nothing(self):
        xs = list(range(11))
        assert refine_candidates(xs, [2.0 * x for x in xs], 4) == []
        assert refine_candidates(xs, [7.0] * len(xs), 4) == []

    def test_too_few_points(self):
        assert refine_candidates([1, 2], [0, 1], 4) == []

    def test_count_and_gap_respected(self):
        xs = [0.0, 1.0, 2.0, 3.0, 4.0]
        ys = [0.0, 0.0, 4.0, 0.0, 0.0]
        candidates = refine_candidates(xs, ys, count=3)
        assert len(candidates) == 3
        taken = xs + candidates
        assert len(set(taken)) == len(taken)  # no duplicates

    def test_unsorted_input_handled(self):
        xs = [10, 0, 5, 2, 8, 4, 6]
        ys = [abs(x - 5) for x in xs]
        candidates = refine_candidates(xs, ys, count=2)
        assert all(2 < c < 8 for c in candidates)

    def test_integer_axis_rounds_midpoints(self):
        candidates = refine_candidates([50, 60, 70], [0.0, 0.0, 5.0],
                                       count=2, integer=True)
        assert candidates == [55, 65]
        assert all(type(c) is int for c in candidates)

    def test_integer_rounding_onto_a_sampled_value_is_dropped(self):
        # 50.5 and 51.5 round onto 50 and 52 (half to even).
        assert refine_candidates([50, 51, 52], [0.0, 3.0, 0.0], count=2,
                                 integer=True) == []

    def test_already_stored_value_not_proposed(self):
        xs = [0.0, 1.0, 2.0, 3.0, 4.0]
        ys = [0.0, 0.0, 4.0, 0.0, 0.0]
        assert 1.5 in refine_candidates(xs, ys, count=2)
        candidates = refine_candidates(xs, ys, count=2, stored=[1.5])
        assert len(candidates) == 2
        assert 1.5 not in candidates


class TestAdaptAxis:
    def test_single_numeric_axis(self):
        axis, fixed = adapt_axis([("rate", [1.0, 2.0, 3.0]),
                                  ("n", [24])], 2)
        assert axis == "rate"
        assert fixed == {"n": 24}

    def test_two_multi_params_rejected(self):
        with pytest.raises(ValueError, match="exactly one"):
            adapt_axis([("a", [1, 2]), ("b", [1, 2])], 2)

    def test_non_numeric_axis_rejected(self):
        with pytest.raises(ValueError, match="numeric"):
            adapt_axis([("backend", ["event", "vector"])], 2)


def _knee_runner(x=0.0, seed=0):
    """Synthetic response curve with a hinge at x = 5."""
    y = max(0.0, float(x) - 5.0)
    return ExperimentResult(
        experiment="test-knee", title="hinge", x_label="x",
        x=np.asarray([float(x)]),
        series={"response": np.asarray([y])})


@pytest.fixture
def knee_experiment():
    experiment = registry.Experiment(
        name="test-knee", runner=_knee_runner, group="extension")
    registry.register(experiment)
    try:
        yield experiment
    finally:
        registry.unregister("test-knee")


class TestRunAdaptive:
    def test_refinement_clusters_at_the_knee(self, tmp_path, npz_only,
                                             knee_experiment):
        specs = [("x", [0.0, 2.0, 4.0, 6.0, 8.0, 10.0])]
        store = SweepStore.create(tmp_path / "store", "test-knee",
                                  params=["x"])
        windows = list(run_adaptive(knee_experiment, specs, adapt=6,
                                    store=store, metric="response"))
        store.close()
        base = sum(len(w.outcomes) for w in windows if w.wave == 0)
        added = [o["overrides"]["x"] for w in windows if w.wave > 0
                 for o in w.outcomes]
        assert base == 6
        assert 1 <= len(added) <= 6
        # Curvature lives only at the hinge: every refinement point
        # must land inside the coarse intervals flanking it ([2, 8]),
        # most of them in the immediate [4, 6] bracket, and the waves
        # must close in on x = 5 itself.
        assert all(2.0 <= x <= 8.0 for x in added)
        assert sum(4.0 <= x <= 6.0 for x in added) >= len(added) // 2
        assert min(abs(x - 5.0) for x in added) <= 0.5

    def test_flat_curve_stops_after_wave_zero(self, tmp_path, npz_only,
                                              knee_experiment):
        specs = [("x", [6.0, 7.0, 8.0, 9.0])]  # linear region only
        store = SweepStore.create(tmp_path / "store", "test-knee",
                                  params=["x"])
        windows = list(run_adaptive(knee_experiment, specs, adapt=4,
                                    store=store, metric="response"))
        assert {w.wave for w in windows} == {0}

    def test_requires_store(self, knee_experiment):
        with pytest.raises(ValueError, match="store"):
            list(run_adaptive(knee_experiment, [("x", [1.0, 2.0])],
                              adapt=2, store=None))

    def test_point_metric_names_series(self):
        result = _knee_runner(x=7.0)
        assert point_metric(result) == 2.0
        assert point_metric(result, "response") == 2.0
        with pytest.raises(ValueError, match="unknown metric"):
            point_metric(result, "nope")


# ----------------------------------------------------------------------
# CLI integration (in-process)
# ----------------------------------------------------------------------

class TestSweepCli:
    def test_adapt_without_store_uses_default_store(
            self, tmp_path, npz_only, knee_experiment, monkeypatch,
            capsys):
        """Refinement waves read the curve back from the store a sweep
        always writes — by default under the cache dir."""
        from repro import cli
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        code = cli.main(["sweep", "test-knee",
                         "--param", "x=0,2,4,6,8,10",
                         "--adapt", "4", "--metric", "response"])
        out = capsys.readouterr().out
        assert code == 0
        assert "[wave 0]" in out and "[wave 1]" in out
        store = SweepStore.open(tmp_path / "cache" / "sweeps" / "test-knee")
        assert 6 < store.stats()["points"] <= 10

    def test_adapt_on_an_integer_axis_stores_new_ints(
            self, tmp_path, npz_only, monkeypatch, capsys):
        """Refining ``n_packets`` proposes int midpoints the runner
        accepts, and never an axis value the store already holds."""
        from repro import cli
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        code = cli.main(["sweep", "fig6",
                         "--param", "n_packets=50,60,70", "--scale", "0.05",
                         "--adapt", "2", "--metric", "mean_access_delay_s",
                         "--store", str(tmp_path / "S")])
        out = capsys.readouterr().out
        assert code == 0
        assert "5/5 points pass" in out and "ERROR" not in out
        frame = SweepStore.open(tmp_path / "S").frame(
            columns=["n_packets", "status"])
        values = list(frame["n_packets"])
        assert frame["n_packets"].dtype.kind == "i"
        assert len(values) == 5 and len(set(values)) == 5
        assert set(values) > {50, 60, 70}
        assert list(frame["status"]) == ["done"] * 5

    def test_cache_stats_reports_store(self, tmp_path, npz_only,
                                       capsys):
        from repro import cli
        store = SweepStore.create(tmp_path / "s", "eq1",
                                  params=["repetitions", "n_packets"])
        store.append(_rows(3))
        store.flush()
        code = cli.main(["cache", "stats",
                         "--cache-dir", str(tmp_path / "cache"),
                         "--store", str(tmp_path / "s")])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["cache"]["entries"] == 0
        (stats,) = payload["stores"]
        assert stats["points"] == 3
        assert stats["format"] == "npz"

    def test_cache_stats_bad_store_exits_2(self, tmp_path, capsys):
        from repro import cli
        code = cli.main(["cache", "stats",
                         "--cache-dir", str(tmp_path / "cache"),
                         "--store", str(tmp_path / "missing")])
        assert code == 2
        assert "index" in capsys.readouterr().err


# ----------------------------------------------------------------------
# Chaos: SIGKILL mid-sweep, resume from the store
# ----------------------------------------------------------------------

def run_cli(args, cwd, env_extra=None, timeout=600):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("REPRO_FAULTS", None)
    env.pop("REPRO_SWEEP_WINDOW", None)
    env.update(env_extra or {})
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        env=env, cwd=cwd, capture_output=True, text=True,
        timeout=timeout)


@pytest.mark.chaos
class TestKilledSweepResumesFromStore:
    def test_kill_after_one_point_then_resume(self, tmp_path):
        argv = ["sweep", "fig6", "--param", "repetitions=4,6,8",
                "--seed", "2", "--store", "atlas"]
        killed = run_cli(argv, tmp_path, env_extra={
            "REPRO_FAULTS": "kill-after-points=1",
            "REPRO_SWEEP_WINDOW": "1"})
        assert killed.returncode == -signal.SIGKILL
        store = SweepStore.open(tmp_path / "atlas")
        survivors = store.completed()
        assert len(survivors) < 3  # genuinely partial
        resumed = run_cli(argv + ["--resume", "atlas/manifest.jsonl"],
                          tmp_path)
        assert resumed.returncode == 0, resumed.stderr
        assert f"({len(survivors)} resumed)" in resumed.stdout
        store = SweepStore.open(tmp_path / "atlas")
        assert len(store.completed()) == 3
        # The resumed store serves payloads bit-identical to an
        # undisturbed standalone run of the same point.
        exp = registry.get("fig6")
        kwargs = exp.kwargs_for(seed=2, overrides={"repetitions": 4},
                                backend="auto")
        stored = store.payload(point_id("fig6", kwargs))
        direct = exp.run(seed=2, overrides={"repetitions": 4},
                         backend="auto").result
        assert json.dumps(stored.to_dict(), sort_keys=True) == \
            json.dumps(direct.to_dict(), sort_keys=True)
