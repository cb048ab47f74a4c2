"""The benchmark's workloads, run inside one child process per pass.

``python -m perfbench SPEC.json`` starts the speed clock, then calls
:func:`main`, which sets one workload up and (by the spec's ``mode``)
stops (``setup``), measures end-to-end operations untraced for a
number of seconds (``measure``), or runs the traced pass (``trace``).
It writes its findings as JSON to the spec's ``out`` path;
``perfbench/run.py`` spawns these processes, so every pass starts from
a fresh interpreter and its set-up time and peak memory are its own.

Workloads (``perfbench/README.md`` says why each exists), all in one
process (``--jobs 1``):

* ``run-all`` — ``repro run all --report`` through the CLI, every
  experiment at default scale and seeds, ``--backend auto``, into an
  empty result cache;
* ``atlas-sweep`` — a fused, store-backed eq1 sweep over a fine
  ``cross_rate_bps`` grid drawn from the seed, into a fresh store and
  journal;
* ``atlas-resume`` — the same grid, completed during set-up and
  resumed in the timed section, so nothing executes.
"""

from __future__ import annotations

import contextlib
import gc
import json
import os
import pathlib
import platform
import resource
import shutil
import statistics
import time
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro import cli
from repro.runtime import registry
from repro.runtime import store as store_module
from repro.runtime.cache import ResultCache, code_version
from repro.runtime.executor import collect_failures
from repro.runtime.manifest import Manifest
from repro.runtime.store import SweepStore
from repro.runtime import sweep as sweep_engine
from repro.sim import jit

from perfbench import layers
from perfbench.speed import SpeedClock
from perfbench.tracer import Tracer

#: Job count of every workload.  Points and experiments run in the
#: measuring process: with worker processes on a 2-CPU host the
#: timings measure the scheduler, and the speed clock, which samples
#: only this process's CPU, could not correct them.
JOBS = 1

#: Grid points of both atlas workloads: two sweep windows, and a sweep
#: short enough (~0.4 s) for a run to time dozens of them.
ATLAS_POINTS = 1024

#: The swept cross-traffic range.  Every point keeps at least 7.5 Mb/s
#: available for the 4 Mb/s probe, so eq1's checks pass with margin:
#: over 300 seeds they first fail at 3.4 Mb/s of cross-traffic.
ATLAS_CROSS_BPS = (0.5e6, 2.5e6)

#: Grid positions whose stored payloads are compared byte for byte
#: with a standalone ``Experiment.run`` of the same kwargs.
PAYLOAD_SAMPLE = (0, ATLAS_POINTS // 3, 2 * ATLAS_POINTS // 3,
                  ATLAS_POINTS - 1)

#: Resumes per traced pass of atlas-resume (one resume is ~0.02 s).
RESUME_TRACE_REPEATS = 10

#: Per-point latency percentiles reported, highest first.
POINT_LADDER = (99.0, 90.0, 50.0)

Op = Dict[str, object]


def atlas_grid(seed: int) -> List[Dict[str, object]]:
    """The eq1 sweep grid of one seed: a jittered, sorted, fine grid.

    One 4 Mb/s probe rate, 24-packet trains, 2 repetitions per point;
    only ``cross_rate_bps`` varies, one value drawn uniformly inside
    each of ``ATLAS_POINTS`` equal strata of the range.
    """
    rng = np.random.default_rng(seed)
    low, high = ATLAS_CROSS_BPS
    step = (high - low) / ATLAS_POINTS
    return [{"probe_rates_bps": [4e6], "n_packets": 24, "repetitions": 2,
             "cross_rate_bps": float(low + step * (index + offset))}
            for index, offset in enumerate(rng.uniform(size=ATLAS_POINTS))]


def tree_bytes(root: pathlib.Path) -> int:
    """Bytes of every regular file under ``root``."""
    return sum(path.stat().st_size for path in root.rglob("*")
               if path.is_file())


def peak_rss_mb() -> float:
    """Peak resident set of this process or its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, child) / 1024.0


def provenance(experiments: Dict[str, Dict[str, object]]
               ) -> Dict[str, object]:
    """What a run's numbers depend on besides the code itself."""
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numba": jit.available(),
        "pyarrow": store_module.available(),
        "nproc": os.cpu_count(),
        "jobs": JOBS,
        "code_version": code_version(),
        "experiments": experiments,
    }


def backend_note(meta: Dict[str, object]) -> Dict[str, object]:
    """The backend provenance of one result's meta."""
    return {"backend": meta.get("backend"),
            "backend_fallback": meta.get("backend_fallback")}


class Workload:
    """Set up once, then run timed operations and check each."""

    name = ""
    #: Points (or experiments) one operation attempts.
    size = 0
    #: Whether ``measure`` repeats the operation to fill ``--seconds``.
    repeat = True

    def __init__(self, work: pathlib.Path, seed: int) -> None:
        self.work = work
        self.seed = seed
        self.problems: List[str] = []
        #: Backend provenance per experiment, filled by the checks.
        self.experiments: Dict[str, Dict[str, object]] = {}

    def setup(self) -> None:
        self.work.mkdir(parents=True, exist_ok=True)

    def operation(self, index: int) -> Op:
        """One timed operation: its ``start``/``stop`` (perf_counter),
        its ``wall_s`` and raw outcomes."""
        raise NotImplementedError

    def check(self, op: Op) -> None:
        """Fill in ``attempted``/``passed``/``failed``; record problems."""
        raise NotImplementedError

    def store_bytes(self, op: Op) -> int:
        raise NotImplementedError

    def release(self, op: Op) -> None:
        """Drop what a checked operation left on disk."""

    def run(self, index: int, traced: bool = False,
            clock: Optional[SpeedClock] = None) -> Op:
        """Operation, then its checks.  ``traced``: every layer is
        wrapped and the op's ``trace`` is the tracer's summary;
        ``clock``: sampled right before and after the operation."""
        tracer = Tracer() if traced else None
        if tracer is not None:
            layers.install(tracer)
        gc.collect()  # every operation starts from a collected heap
        if clock is not None:
            clock.sample()
        try:
            op = self.operation(index)
        finally:
            if clock is not None:
                clock.sample()
            if tracer is not None:
                tracer.uninstall()
        self.check(op)
        if tracer is not None:
            op["trace"] = dict(tracer.summary(), wall_s=op["wall_s"])
        return op

    def trace_metrics(self) -> Dict[str, object]:
        """Per-layer metrics, the ops behind them, missing layers."""
        raise NotImplementedError


# ----------------------------------------------------------------------
# run-all
# ----------------------------------------------------------------------

class RunAll(Workload):
    """Every registered experiment once, through ``repro run all``."""

    name = "run-all"
    #: One pass (35-45 s) is the unit; a run never makes a second.
    repeat = False

    def setup(self) -> None:
        super().setup()
        self.size = len(registry.names())

    def operation(self, index: int) -> Op:
        """One ``run all`` pass."""
        cache_dir = self.work / f"cache-{index}"
        report = self.work / f"report-{index}.json"
        argv = ["run", "all", "--backend", "auto", "--jobs", str(JOBS),
                "--cache-dir", str(cache_dir), "--report", str(report)]
        with open(self.work / "cli.log", "a") as log, \
                contextlib.redirect_stdout(log), \
                contextlib.redirect_stderr(log):
            start = time.perf_counter()
            code = cli.main(argv)
            stop = time.perf_counter()
        return {"start": start, "stop": stop, "wall_s": stop - start,
                "code": code, "index": index,
                "cache_dir": str(cache_dir), "report": str(report)}

    def check(self, op: Op) -> None:
        """Every experiment reports a status; the first operation's
        cache also yields each experiment's backend provenance."""
        points = json.loads(pathlib.Path(op["report"]).read_text())[
            "points"]
        op.update(attempted=self.size,
                  passed=sum(p["status"] == "done" for p in points),
                  failed=sum(p["status"] == "error" for p in points),
                  recoveries=sum(len(p["failures"]) for p in points),
                  elapsed={p["experiment"]: p["elapsed_s"]
                           for p in points})
        if op["code"] not in (0, 1):
            self.problems.append(f"run all exited {op['code']}")
        if [p["experiment"] for p in points] != registry.names():
            self.problems.append(
                "the report does not list every experiment once")
        for point in points:
            if point["status"] not in ("done", "failed"):
                self.problems.append(
                    f"{point['experiment']}: status {point['status']} "
                    f"({point['error']})")
        if op["index"] != 0:
            return
        cache = ResultCache(op["cache_dir"])
        for experiment in registry.experiments():
            report = experiment.run(backend="auto", jobs=JOBS, cache=cache)
            if not report.cached:
                self.problems.append(
                    f"{experiment.name}: no result in the cache")
            self.experiments[experiment.name] = backend_note(
                report.result.meta)

    def store_bytes(self, op: Op) -> int:
        return tree_bytes(pathlib.Path(op["cache_dir"]))

    def release(self, op: Op) -> None:
        shutil.rmtree(op["cache_dir"], ignore_errors=True)

    def trace_metrics(self) -> Dict[str, object]:
        plain = self.run(0)
        traced = self.run(1, traced=True)
        for op in (plain, traced):
            self.release(op)
        trace = traced["trace"]
        metrics = layers.layer_metrics(trace)
        metrics.update(executor_metrics(trace, [],
                                        recoveries=traced["recoveries"]))
        metrics.update(sweep_metrics(trace, windows=0, elapsed=[]))
        for name, elapsed in plain["elapsed"].items():
            metrics[f"exp.{name}.wall_s"] = elapsed
        metrics.update(trace_summary(trace, plain["wall_s"]))
        return {"metrics": metrics, "ops": [plain, traced]}


# ----------------------------------------------------------------------
# atlas-sweep / atlas-resume
# ----------------------------------------------------------------------

class AtlasSweep(Workload):
    """A fused, store-backed eq1 sweep into a fresh store and journal."""

    name = "atlas-sweep"
    size = ATLAS_POINTS

    def setup(self) -> None:
        super().setup()
        self.experiment = registry.get("eq1")
        self.grid = atlas_grid(self.seed)
        self._reference: Optional[Dict[int, str]] = None
        # Lazy first-use costs (code digest, kernel-tier import) land
        # here, so every timed sweep pays the same.
        warm = self.work / "warm"
        self.sweep(warm, self.grid[:8])
        shutil.rmtree(warm)

    def sweep(self, root: pathlib.Path, grid, resume: bool = False) -> Op:
        """Plan, run, store and journal ``grid`` under ``root`` (or
        resume it there), as ``repro sweep --store`` does."""
        start = time.perf_counter()
        if resume:
            store = SweepStore.open(root / "store")
            manifest = Manifest.load(root / "store" / "manifest.jsonl")
            manifest.require("sweep", self.experiment.name)
        else:
            store = SweepStore.create(root / "store", self.experiment.name,
                                      params=["cross_rate_bps"])
            manifest = Manifest.create(root / "store" / "manifest.jsonl",
                                       "sweep", self.experiment.name)
        plan = sweep_engine.SweepPlan(self.experiment, iter(grid),
                                      seed=self.seed, backend="auto")
        outcomes = []
        windows = 0
        with collect_failures() as failures:
            # Looked up on the module, so the traced pass sees the
            # patched binding.
            for window in sweep_engine.run_plan(
                    plan, jobs=JOBS, store=store, manifest=manifest):
                windows += 1
                outcomes.extend(window.outcomes)
        store.close()
        stop = time.perf_counter()
        return {
            "start": start, "stop": stop, "wall_s": stop - start,
            "root": str(root), "windows": windows,
            "attempted": len(grid), "recoveries": len(failures),
            "point_ids": [o["point_id"] for o in outcomes],
            "statuses": [o["status"] for o in outcomes],
            "resumed": sum(bool(o["resumed"]) for o in outcomes),
            "executed_elapsed": [o["elapsed_s"] for o in outcomes
                                 if not o["resumed"]],
        }

    def operation(self, index: int) -> Op:
        return self.sweep(self.work / f"sweep-{index}", self.grid)

    def check(self, op: Op) -> None:
        """Every point done and stored; sampled payloads byte-identical
        to a standalone run of the same kwargs."""
        op["passed"] = op["statuses"].count("done")
        op["failed"] = op["attempted"] - op["passed"]
        if op["failed"] or len(op["statuses"]) != self.size:
            self.problems.append(
                f"{op['failed']} of {self.size} points not done")
        store = SweepStore.open(pathlib.Path(op["root"]) / "store")
        points = store.stats()["points"]
        if points != self.size:
            self.problems.append(
                f"the store holds {points} points, not {self.size}")
        frame = store.frame(columns=["point_id", "payload"])
        stored = {str(pid): str(blob) for pid, blob
                  in zip(frame["point_id"], frame["payload"])}
        for index, expected in self.reference().items():
            if stored.get(op["point_ids"][index]) != expected:
                self.problems.append(
                    f"the stored payload of point {index} differs from "
                    "a standalone run")

    def reference(self) -> Dict[int, str]:
        """Standalone payloads of the sampled points (computed once)."""
        if self._reference is None:
            self._reference = {}
            for index in PAYLOAD_SAMPLE:
                report = self.experiment.run(
                    seed=self.seed, overrides=self.grid[index],
                    backend="auto")
                self._reference[index] = json.dumps(
                    report.result.to_dict())
                self.experiments[self.experiment.name] = backend_note(
                    report.result.meta)
        return self._reference

    def store_bytes(self, op: Op) -> int:
        return tree_bytes(pathlib.Path(op["root"]) / "store")

    def release(self, op: Op) -> None:
        shutil.rmtree(op["root"], ignore_errors=True)

    def trace_metrics(self) -> Dict[str, object]:
        plain = self.run(0)
        traced = self.run(1, traced=True)
        for op in (plain, traced):
            self.release(op)
        trace = traced["trace"]
        metrics = layers.layer_metrics(trace)
        metrics.update(executor_metrics(
            trace, traced["executed_elapsed"],
            recoveries=traced["recoveries"]))
        metrics.update(sweep_metrics(trace, traced["windows"],
                                     traced["executed_elapsed"]))
        metrics.update(trace_summary(trace, plain["wall_s"]))
        return {"metrics": metrics, "ops": [plain, traced]}


class AtlasResume(AtlasSweep):
    """The atlas grid completed in set-up, resumed in the timed part."""

    name = "atlas-resume"

    def setup(self) -> None:
        super().setup()
        self.root = self.work / "atlas"
        super().check(self.sweep(self.root, self.grid))
        if self.problems:
            raise RuntimeError("set-up did not complete the atlas: "
                               + "; ".join(self.problems))

    def operation(self, index: int) -> Op:
        return self.sweep(self.root, self.grid, resume=True)

    def check(self, op: Op) -> None:
        """All points resume as done; none executes."""
        op["passed"] = op["resumed"]
        op["failed"] = op["attempted"] - op["resumed"]
        if op["failed"] or len(op["statuses"]) != self.size \
                or op["statuses"].count("done") != self.size:
            self.problems.append(
                f"{op['failed']} of {self.size} points did not resume")

    def release(self, op: Op) -> None:
        """Keep the store: every resume reads it."""

    def trace_metrics(self) -> Dict[str, object]:
        repeats = RESUME_TRACE_REPEATS
        plain = [self.run(k) for k in range(repeats)]
        tracer = Tracer()
        layers.install(tracer)
        try:
            ops = [self.operation(k) for k in range(repeats)]
        finally:
            tracer.uninstall()
        for op in ops:
            self.check(op)
        trace = per_operation(tracer.summary(), repeats)
        trace["wall_s"] = statistics.fmean(op["wall_s"] for op in ops)
        metrics = layers.layer_metrics(trace)
        metrics.update(executor_metrics(
            trace, [], recoveries=sum(op["recoveries"] for op in ops)))
        metrics.update(sweep_metrics(trace, ops[0]["windows"], []))
        metrics.update(trace_summary(
            trace, statistics.fmean(op["wall_s"] for op in plain)))
        return {"metrics": metrics, "ops": plain + ops}


WORKLOADS = {cls.name: cls for cls in (RunAll, AtlasSweep, AtlasResume)}


# ----------------------------------------------------------------------
# Derived metrics
# ----------------------------------------------------------------------

def per_operation(summary: Dict[str, object], repeats: int
                  ) -> Dict[str, object]:
    """A summary of ``repeats`` identical operations, per operation."""
    return {"self_s": {k: v / repeats for k, v in summary["self_s"].items()},
            "outer_s": {k: v / repeats
                        for k, v in summary["outer_s"].items()},
            "calls": {k: v // repeats for k, v in summary["calls"].items()},
            "rows": {k: v // repeats for k, v in summary["rows"].items()},
            "covered_s": summary["covered_s"] / repeats}


def executor_metrics(trace: Dict[str, object], elapsed: List[float],
                     recoveries: int) -> Dict[str, float]:
    """Fan-out wall, summed per-point busy time and their ratio."""
    fanout = float(trace["outer_s"].get("executor", 0.0))
    busy = float(sum(elapsed))
    return {"executor.fanout_s": fanout,
            "executor.worker_busy_s": busy,
            "executor.parallel_efficiency":
                busy / (JOBS * fanout) if busy and fanout else 0.0,
            "executor.recoveries": recoveries}


def sweep_metrics(trace: Dict[str, object], windows: int,
                  elapsed: List[float]) -> Dict[str, float]:
    """Planning time, windows and per-point latency percentiles."""
    samples = [seconds * 1e3 for seconds in elapsed]
    tail = layers.tail_percentile(samples, ladder=POINT_LADDER) \
        if samples else None
    return {"sweep.plan_s": float(trace["self_s"].get("sweep.plan", 0.0)),
            "sweep.windows": windows,
            "sweep.point_samples": len(samples),
            "sweep.point_p50_ms":
                layers.quantile(samples, 50.0) if samples else 0.0,
            "sweep.point_p99_ms": tail[1] if tail else 0.0,
            "sweep.point_tail_pct": tail[0] if tail else 0.0}


def trace_summary(trace: Dict[str, object],
                  untraced_wall_s: float) -> Dict[str, float]:
    """Coverage, traced wall and its excess over the untraced wall."""
    return {"trace.coverage": trace["covered_s"] / trace["wall_s"],
            "trace.wall_s": trace["wall_s"],
            "trace.overhead": trace["wall_s"] - untraced_wall_s}


# ----------------------------------------------------------------------
# Modes
# ----------------------------------------------------------------------

def measure(workload: Workload, seconds: float,
            clock: SpeedClock) -> Dict[str, object]:
    """Untraced operations until ``seconds`` of them are measured, each
    timed on the running ``clock``."""
    ops: List[Op] = []
    store_sizes: List[int] = []
    while not ops or (workload.repeat and
                      sum(op["wall_s"] for op in ops) < seconds):
        op = workload.run(len(ops), clock=clock)
        store_sizes.append(workload.store_bytes(op))
        workload.release(op)
        # Only the tallies stay: keeping every op's per-point lists
        # would make peak memory grow with the number of operations.
        ops.append({"wall_s": clock.raw(op["start"], op["stop"]),
                    "scaled_s": clock.scaled(op["start"], op["stop"]),
                    **{key: op[key] for key in
                       ("attempted", "passed", "failed")}})
    attempted = sum(op["attempted"] for op in ops)
    # The lower quartile of the operations in reference seconds.
    # Scaling takes out most of the host's speed changes; the quartile
    # drops what scaling missed, which only ever slows an operation
    # down, without picking up the rare operation that a noisy speed
    # sample made read too fast, as the minimum would.
    scaled = [op["scaled_s"] for op in ops]
    wall = statistics.quantiles(scaled, n=4, method="inclusive")[0] \
        if len(scaled) > 1 else scaled[0]
    return {
        "metrics": {
            "wall_s": wall,
            "points_per_s": workload.size / wall,
            "peak_rss_mb": peak_rss_mb(),
            "pass_share": sum(op["passed"] for op in ops) / attempted,
            "store_bytes": statistics.median(store_sizes),
        },
        "walls": [op["wall_s"] for op in ops],
        "scaled": scaled,
        "attempted": attempted,
        "failed": sum(op["failed"] for op in ops),
    }


def trace(workload: Workload) -> Dict[str, object]:
    """The traced pass: per-layer metrics plus its bookkeeping."""
    found = workload.trace_metrics()
    ops = found.pop("ops")
    for name in registry.names():  # experiments this workload never ran
        found["metrics"].setdefault(f"exp.{name}.wall_s", 0.0)
    missing = layers.missing_calls(workload.name, found["metrics"])
    if missing:
        workload.problems.append(
            "layers recorded no call: " + ", ".join(missing))
    found["attempted"] = sum(op["attempted"] for op in ops)
    found["failed"] = sum(op["failed"] for op in ops)
    return found


def setup_seconds(clock: SpeedClock, started: float,
                  spawned: float) -> Dict[str, float]:
    """Set-up time from the spawn (``time.monotonic``) to now, raw and
    in reference seconds.  The clock started at ``started`` (also
    monotonic); the interpreter's start before it is scaled by the
    clock's first sample."""
    clock.sample()
    ready = clock.ends[-1]
    before = started - spawned
    return {"setup_raw_s": before + clock.raw(clock.starts[0], ready),
            "setup_s": before * clock.reference / clock.loops[0]
            + clock.scaled(clock.starts[0], ready)}


def main(argv: Sequence[str], clock: SpeedClock,
         started: float) -> int:
    """Child-process entry point (see the module docstring): ``clock``
    is running since ``started`` (``time.monotonic``)."""
    spec = json.loads(pathlib.Path(argv[0]).read_text())
    workload = WORKLOADS[spec["workload"]](pathlib.Path(spec["work"]),
                                           int(spec["seed"]))
    workload.setup()
    result: Dict[str, object] = setup_seconds(clock, started,
                                              float(spec["spawned"]))
    if spec["mode"] == "measure":
        result.update(measure(workload, float(spec["seconds"]), clock))
    clock.stop()  # the traced pass's layer times stay free of samples
    if spec["mode"] == "trace":
        result.update(trace(workload))
    if spec["mode"] != "setup":
        result["problems"] = workload.problems
        result["provenance"] = provenance(workload.experiments)
        result["clock"] = clock.summary()
    pathlib.Path(spec["out"]).write_text(json.dumps(result))
    return 0
