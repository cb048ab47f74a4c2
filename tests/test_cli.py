"""Tests for the command-line interface."""

import json

import pytest

from helpers import store_payloads
from repro.cli import build_parser, main
from repro.runtime import registry
from repro.runtime.cache import ResultCache
from repro.runtime.manifest import Manifest


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    """Point the CLI's default cache at a throwaway directory."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))


class TestRegistry:
    def test_every_paper_figure_registered(self):
        for figure in ("fig1", "fig4", "fig6", "fig7", "fig8", "fig9",
                       "fig10", "fig13", "fig15", "fig16", "fig17"):
            assert figure in registry.names()

    def test_baselines_and_ablations_registered(self):
        for name in ("eq1", "bounds", "ablation-bianchi",
                     "ablation-rts", "ext-b-vs-n"):
            assert name in registry.names()

    def test_runners_callable(self):
        for experiment in registry.experiments():
            assert callable(experiment.runner)


class TestScaledKwargs:
    def test_scaling(self):
        kwargs = registry.get("fig6").kwargs_for(scale=0.5)
        assert kwargs["repetitions"] == 200

    def test_floor_of_two(self):
        kwargs = registry.get("fig6").kwargs_for(scale=0.001)
        assert kwargs["repetitions"] == 2

    def test_seed_override(self):
        kwargs = registry.get("fig6").kwargs_for(seed=42)
        assert kwargs["seed"] == 42

    def test_default_seed_materialised(self):
        assert registry.get("fig6").kwargs_for()["seed"] == 0


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig6" in out and "fig17" in out

    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "capacity C" in out
        assert "fair share" in out

    def test_run_unknown_experiment(self, capsys):
        assert main(["run", "fig99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_run_backend_vector(self, capsys):
        code = main(["run", "ext-saturation", "--backend", "vector",
                     "--scale", "0.1", "--seed", "1", "--no-cache"])
        out = capsys.readouterr().out
        assert code == 0
        assert "backend=vector" in out

    def test_run_backend_unsupported_fails_cleanly(self, capsys):
        # Trace replay is the one traffic model no kernel samples; the
        # registry's builtins are all dual-backend now, so pin the
        # error path with a temporary event-only experiment.
        from repro.backends import ScenarioSpec
        experiment = registry.Experiment(
            name="t-event-only", runner=registry.get("fig6").runner,
            scalable={"repetitions": 4},
            scenario=ScenarioSpec(system="wlan", workload="train",
                                  cross_traffic="other"))
        registry.register(experiment)
        try:
            code = main(["run", "t-event-only", "--backend", "vector",
                         "--scale", "0.02", "--no-cache"])
        finally:
            registry.unregister("t-event-only")
        captured = capsys.readouterr()
        assert code == 1
        assert "supports backend" in captured.err

    def test_run_backend_vector_fig8(self, capsys):
        # The former poster child of the coverage gap: queue traces
        # now come from the kernel.
        code = main(["run", "fig8", "--backend", "vector", "--scale",
                     "0.05", "--seed", "1", "--no-cache"])
        out = capsys.readouterr().out
        assert code in (0, 1)  # tiny scale may fail shape checks
        assert "backend=vector" in out
        assert "mean_queue" in out  # the table truncates long headers

    def test_run_profile_prints_cprofile_table(self, capsys):
        code = main(["run", "fig6", "--profile", "--scale", "0.02",
                     "--seed", "3"])
        out = capsys.readouterr().out
        assert code in (0, 1)
        assert "cProfile (top 25, cumulative)" in out
        assert "cumtime" in out
        # The profiled run bypasses the cache entirely.
        assert "cache hit" not in out and "stored as" not in out

    def test_run_profile_json_writes_structured_table(self, tmp_path,
                                                      capsys):
        """``--profile PATH`` prints the table and also writes the same
        top-25 cumulative rows to PATH as machine-readable JSON."""
        path = tmp_path / "profile.json"
        code = main(["run", "fig6", "--profile", str(path),
                     "--scale", "0.02", "--seed", "3"])
        out = capsys.readouterr().out
        assert code in (0, 1)
        assert "cProfile (top 25, cumulative)" in out
        payload = json.loads(path.read_text())
        assert payload["target"] == "fig6"
        assert payload["sort"] == "cumulative"
        assert payload["top"] == 25
        (profile,) = payload["profiles"]
        assert profile["experiment"] == "fig6"
        assert profile["total_calls"] > 0
        assert 0 < len(profile["entries"]) <= 25
        entry = profile["entries"][0]
        assert set(entry) == {"file", "line", "function", "ncalls",
                              "primitive_calls", "tottime_s",
                              "cumtime_s"}
        # Sorted by cumulative time, descending.
        cumtimes = [e["cumtime_s"] for e in profile["entries"]]
        assert cumtimes == sorted(cumtimes, reverse=True)

    def test_run_backend_jit_without_numba_fails_cleanly(self, capsys,
                                                         monkeypatch):
        import sys as _sys

        from repro.sim import jit
        monkeypatch.setattr(jit, "_FORCE_AVAILABLE", None)
        monkeypatch.setitem(_sys.modules, "numba", None)
        code = main(["run", "ext-saturation", "--backend", "jit",
                     "--scale", "0.05", "--no-cache"])
        captured = capsys.readouterr()
        assert code == 1
        assert "numba not installed" in captured.err

    def test_run_backend_rejects_unknown_choice(self):
        with pytest.raises(SystemExit):
            main(["run", "fig6", "--backend", "quantum"])

    def test_list_marks_multi_backend_experiments(self, capsys):
        main(["list"])
        out = capsys.readouterr().out
        assert "[backends: event, vector]" in out

    def test_run_small_experiment(self, capsys):
        code = main(["run", "fig6", "--scale", "0.05", "--seed", "3",
                     "--no-cache"])
        out = capsys.readouterr().out
        assert "fig6" in out
        assert "mean_access_de" in out
        assert code in (0, 1)  # tiny scale may fail shape checks

    def test_run_serves_second_invocation_from_cache(self, capsys):
        argv = ["run", "fig6", "--scale", "0.05", "--seed", "3"]
        main(argv)
        first = capsys.readouterr().out
        main(argv)
        second = capsys.readouterr().out
        assert "cache hit" in second
        # Everything except the provenance line is byte-identical.
        strip = lambda text: [line for line in text.splitlines()
                              if not line.startswith("   [")]
        assert strip(first) == strip(second)

    def test_run_all_aggregates_failures(self, capsys, monkeypatch):
        """One exploding experiment must not abort the rest."""
        def boom(**kwargs):
            raise RuntimeError("boom")

        experiments = [
            registry.Experiment(name="t-ok",
                                runner=registry.get("fig6").runner,
                                scalable={"repetitions": 4}),
            registry.Experiment(name="t-boom", runner=boom, scalable={},
                                seed_kwarg=None),
            registry.Experiment(name="t-ok2",
                                runner=registry.get("fig6").runner,
                                scalable={"repetitions": 4}),
        ]
        monkeypatch.setattr(
            registry, "_EXPERIMENTS",
            {e.name: e for e in experiments})
        code = main(["run", "all", "--no-cache", "--scale", "1.0"])
        captured = capsys.readouterr()
        assert code == 1
        assert "t-boom: error: boom" in captured.err
        # Both healthy experiments still ran and printed their tables.
        assert captured.out.count("== fig6:") == 2

    def test_sweep_prints_summary(self, capsys):
        code = main(["sweep", "fig6", "--param", "repetitions=4,6",
                     "--seed", "2"])
        out = capsys.readouterr().out
        assert code in (0, 1)
        # One line per fused window, then the summary and the store.
        assert "[vector/probe-train kernel] 2 points (0 resumed)" in out
        assert "/2 points pass (0 resumed) ==" in out
        assert "2 points, npz]" in out or "2 points, parquet]" in out
        # A passing point prints no series table.
        assert "mean_access_de" not in out

    def test_sweep_rejects_malformed_param(self, capsys):
        assert main(["sweep", "fig6", "--param", "nonsense"]) == 2
        assert "malformed" in capsys.readouterr().err

    def test_cache_ls_and_clear(self, capsys):
        main(["run", "fig6", "--scale", "0.02", "--seed", "5"])
        capsys.readouterr()
        assert main(["cache", "ls"]) == 0
        assert "fig6" in capsys.readouterr().out
        assert main(["cache", "clear"]) == 0
        assert "removed 1" in capsys.readouterr().out
        assert main(["cache", "ls"]) == 0
        assert "empty" in capsys.readouterr().out

    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_no_cache_is_a_run_option_only(self):
        """A sweep's store is its output, not a cache: ``sweep`` has
        no ``--no-cache`` to (not) honour."""
        parser = build_parser()
        assert parser.parse_args(["run", "fig6", "--no-cache"]).no_cache
        with pytest.raises(SystemExit):
            parser.parse_args(["sweep", "fig6", "--param",
                               "repetitions=4", "--no-cache"])


def _default_store(tmp_path, experiment="fig6"):
    """Where a ``sweep`` without ``--store`` writes (see the autouse
    ``isolated_cache`` fixture)."""
    return tmp_path / "cache" / "sweeps" / experiment


class TestCrashSafety:
    """Manifests, --resume, --report, and damage-tolerant cache ls."""

    def _sweep(self, *extra):
        return ["sweep", "fig6", "--param", "repetitions=4,6",
                "--seed", "2", *extra]

    def test_sweep_writes_manifest(self, tmp_path, capsys):
        path = tmp_path / "m.jsonl"
        code = main(self._sweep("--manifest", str(path)))
        assert code in (0, 1)
        capsys.readouterr()
        manifest = Manifest.load(path)
        manifest.require("sweep", "fig6")
        assert len(manifest.records) == 2
        assert all(r.status in ("done", "failed")
                   for r in manifest.records.values())
        assert set(store_payloads(_default_store(tmp_path))) \
            == set(manifest.records)

    def test_sweep_defaults_to_store_under_cache_dir(self, tmp_path,
                                                     capsys):
        """No ``--store``: the store and its journal land under the
        cache dir (``--cache-dir`` wins over the environment)."""
        cache_dir = tmp_path / "elsewhere"
        code = main(self._sweep("--cache-dir", str(cache_dir)))
        out = capsys.readouterr().out
        assert code in (0, 1)
        root = cache_dir / "sweeps" / "fig6"
        assert f"[store {root}: 2 points" in out
        Manifest.load(root / "manifest.jsonl").require("sweep", "fig6")
        assert len(store_payloads(root)) == 2
        # The JSON result cache itself stays untouched.
        assert ResultCache(cache_dir).entries() == []

    def test_resume_skips_completed_points(self, tmp_path, capsys):
        root = _default_store(tmp_path)
        main(self._sweep())
        first = capsys.readouterr().out
        stored = store_payloads(root)
        report_path = tmp_path / "report.json"
        code = main(self._sweep("--resume", str(root / "manifest.jsonl"),
                                "--report", str(report_path)))
        second = capsys.readouterr().out
        assert code in (0, 1)
        assert "[vector/probe-train kernel] 2 points (2 resumed)" \
            in second
        # Same summary as the original, every point resumed.
        summary = [line for line in first.splitlines()
                   if line.startswith("== sweep")]
        assert [line.replace("(0 resumed)", "(2 resumed)")
                for line in summary] == \
            [line for line in second.splitlines()
             if line.startswith("== sweep")]
        report = json.loads(report_path.read_text())
        assert [p["resumed"] for p in report["points"]] == [True, True]
        # Nothing re-ran, so the store holds the original payloads.
        assert store_payloads(root) == stored

    def test_resume_does_not_duplicate_journal_lines(self, tmp_path,
                                                     capsys):
        path = _default_store(tmp_path) / "manifest.jsonl"
        main(self._sweep())
        lines_after_run = path.read_text().count("\n")
        main(self._sweep("--resume", str(path)))
        capsys.readouterr()
        assert path.read_text().count("\n") == lines_after_run

    def test_resume_reopens_the_store_its_journal_names(self, tmp_path,
                                                         capsys):
        """``--resume`` without ``--store`` finds a ``--store DIR``
        sweep's store through the journal, not the default path."""
        atlas = tmp_path / "atlas"
        main(self._sweep("--store", str(atlas)))
        capsys.readouterr()
        stored = store_payloads(atlas)
        code = main(self._sweep("--resume", str(atlas / "manifest.jsonl")))
        out = capsys.readouterr().out
        assert code in (0, 1)
        assert "2 points (2 resumed)" in out
        assert f"[store {atlas}: 2 points" in out
        assert store_payloads(atlas) == stored
        assert not _default_store(tmp_path).exists()

    def test_new_sweep_replaces_the_default_store(self, tmp_path,
                                                  capsys):
        """Without ``--resume`` a sweep starts its store afresh: the
        default store holds one sweep of each experiment."""
        main(self._sweep())
        main(["sweep", "fig6", "--param", "repetitions=8", "--seed", "2"])
        out = capsys.readouterr().out
        assert "/1 points pass (0 resumed) ==" in out
        root = _default_store(tmp_path)
        assert len(store_payloads(root)) == 1
        assert len(Manifest.load(root / "manifest.jsonl").records) == 1

    def test_store_close_failure_exits_cleanly(self, tmp_path, capsys,
                                               monkeypatch):
        """A store that cannot flush (say, a full disk) fails the sweep
        with exit 2 and the error, also when the final flush on close
        fails again."""
        from repro.runtime.store import SweepStore

        def full_disk(self):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(SweepStore, "flush", full_disk)
        code = main(self._sweep())
        assert code == 2
        assert "No space left on device" in capsys.readouterr().err

    def test_run_resume_serves_done_experiment_from_cache(self, tmp_path,
                                                          capsys):
        path = tmp_path / "m.jsonl"
        report_path = tmp_path / "report.json"
        argv = ["run", "fig6", "--scale", "0.02", "--seed", "2"]
        assert main(argv + ["--manifest", str(path)]) == 0
        first = capsys.readouterr().out
        lines_after_run = path.read_text().count("\n")
        code = main(argv + ["--resume", str(path),
                            "--report", str(report_path)])
        second = capsys.readouterr().out
        assert code == 0
        assert "[cache hit " in second
        (point,) = json.loads(report_path.read_text())["points"]
        assert point["resumed"] is True and point["cached"] is True
        assert point["status"] == "done"
        # The journal already says done: nothing is appended.
        assert path.read_text().count("\n") == lines_after_run
        strip = lambda text: [line for line in text.splitlines()
                              if not line.startswith("   [")]
        assert strip(first) == strip(second)

    def test_run_resume_reruns_when_cache_entry_is_gone(self, tmp_path,
                                                        capsys):
        """The journal alone is not enough: a done experiment whose
        cache entry is gone re-runs, and is journalled again."""
        path = tmp_path / "m.jsonl"
        report_path = tmp_path / "report.json"
        argv = ["run", "fig6", "--scale", "0.02", "--seed", "2"]
        main(argv + ["--manifest", str(path)])
        lines_after_run = path.read_text().count("\n")
        ResultCache().clear()
        capsys.readouterr()
        code = main(argv + ["--resume", str(path),
                            "--report", str(report_path)])
        assert code == 0
        assert "computed in" in capsys.readouterr().out
        (point,) = json.loads(report_path.read_text())["points"]
        assert point["resumed"] is False and point["cached"] is False
        assert path.read_text().count("\n") == lines_after_run + 1

    def test_killed_run_all_resumes_unfinished_experiments(
            self, tmp_path, capsys, monkeypatch):
        """``kill-after-points=1`` stops ``run all`` after its first
        experiment; ``--resume`` serves that one and runs the rest."""
        import dataclasses
        import os
        import signal

        class Killed(BaseException):
            """Stands in for the SIGKILL, which would end pytest too."""

        real_kill = os.kill

        def kill(pid, sig):
            if pid == os.getpid() and sig == signal.SIGKILL:
                raise Killed
            real_kill(pid, sig)

        fig6 = registry.get("fig6")
        monkeypatch.setattr(registry, "_EXPERIMENTS", {
            name: dataclasses.replace(fig6, name=name)
            for name in ("t-a", "t-b", "t-c")})
        monkeypatch.setattr(os, "kill", kill)
        monkeypatch.setenv("REPRO_FAULTS", "kill-after-points=1")
        path = tmp_path / "m.jsonl"
        argv = ["run", "all", "--scale", "0.02", "--seed", "2"]
        with pytest.raises(Killed):
            main(argv + ["--manifest", str(path)])
        assert [r.label for r in Manifest.load(path).records.values()] \
            == ["t-a"]
        monkeypatch.delenv("REPRO_FAULTS")
        report_path = tmp_path / "report.json"
        capsys.readouterr()
        code = main(argv + ["--resume", str(path),
                            "--report", str(report_path)])
        assert code == 0
        assert capsys.readouterr().out.count("[cache hit ") == 1
        points = json.loads(report_path.read_text())["points"]
        assert [(p["experiment"], p["resumed"]) for p in points] \
            == [("t-a", True), ("t-b", False), ("t-c", False)]
        assert {r.status for r in Manifest.load(path).records.values()} \
            == {"done"}

    def test_resume_refuses_no_cache(self, tmp_path, capsys):
        """``run --resume`` serves finished experiments from the result
        cache, so it cannot work with ``--no-cache``."""
        path = tmp_path / "m.jsonl"
        argv = ["run", "fig6", "--scale", "0.02", "--seed", "2"]
        main(argv + ["--manifest", str(path)])
        capsys.readouterr()
        code = main(argv + ["--resume", str(path), "--no-cache"])
        assert code == 2
        assert "--no-cache" in capsys.readouterr().err

    def test_resume_refuses_wrong_experiment(self, tmp_path, capsys):
        main(self._sweep())
        capsys.readouterr()
        code = main(["sweep", "fig7", "--param", "repetitions=4",
                     "--resume",
                     str(_default_store(tmp_path) / "manifest.jsonl")])
        assert code == 2
        assert "refusing to resume" in capsys.readouterr().err

    def test_resume_missing_manifest_fails_cleanly(self, tmp_path,
                                                   capsys):
        code = main(self._sweep("--resume",
                                str(tmp_path / "nowhere.jsonl")))
        assert code == 2
        assert "cannot read" in capsys.readouterr().err

    def test_sweep_report_json(self, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        code = main(self._sweep("--report", str(report_path)))
        capsys.readouterr()
        assert code in (0, 1)
        report = json.loads(report_path.read_text())
        assert report["command"] == "sweep"
        assert report["target"] == "fig6"
        assert len(report["points"]) == 2
        point = report["points"][0]
        assert point["experiment"] == "fig6"
        assert point["label"] == "repetitions=4"
        assert point["status"] in ("done", "failed")
        assert point["backend"] == "vector"
        assert point["resumed"] is False
        assert sum(report["counts"].values()) == 2
        assert report["store_path"] == str(_default_store(tmp_path))
        assert report["store"]["points"] == 2
        assert report["fused_groups"] == {"vector/probe-train kernel": 2}
        assert set(store_payloads(_default_store(tmp_path))) == {
            p["point_id"] for p in report["points"]}

    def test_run_all_report_counts_errors(self, tmp_path, capsys,
                                          monkeypatch):
        def boom(**kwargs):
            raise RuntimeError("boom")

        experiments = [
            registry.Experiment(name="t-ok",
                                runner=registry.get("fig6").runner,
                                scalable={"repetitions": 4}),
            registry.Experiment(name="t-boom", runner=boom,
                                scalable={}, seed_kwarg=None),
        ]
        monkeypatch.setattr(registry, "_EXPERIMENTS",
                            {e.name: e for e in experiments})
        report_path = tmp_path / "report.json"
        code = main(["run", "all", "--no-cache",
                     "--report", str(report_path)])
        capsys.readouterr()
        assert code == 1
        report = json.loads(report_path.read_text())
        assert report["command"] == "run"
        statuses = {p["experiment"]: p["status"]
                    for p in report["points"]}
        assert statuses["t-boom"] == "error"
        errors = {p["experiment"]: p["error"] for p in report["points"]}
        assert "boom" in errors["t-boom"]
        assert report["counts"]["error"] == 1

    def test_cache_ls_reports_malformed_and_quarantined(
            self, tmp_path, capsys):
        argv = ["run", "fig6", "--scale", "0.02", "--seed", "5"]
        main(argv)
        capsys.readouterr()
        cache = ResultCache()
        [entry] = cache.entries()
        entry.path.write_text("{corrupt")
        assert main(["cache", "ls"]) == 0
        out = capsys.readouterr().out
        assert "1 malformed entry skipped" in out
        assert entry.path.name in out
        # Re-running quarantines the damaged file and recomputes.
        main(argv)
        capsys.readouterr()
        assert main(["cache", "ls"]) == 0
        out = capsys.readouterr().out
        assert "malformed" not in out
        assert "1 quarantined entry" in out
        assert main(["cache", "clear"]) == 0
        capsys.readouterr()
        assert cache.quarantined() == []
