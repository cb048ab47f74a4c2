"""Benchmark of the fused sweep engine (``repro sweep``).

Tracks the throughput of the :class:`~repro.runtime.sweep.SweepPlan`
engine — windowed fan-out into a columnar store, journalled per
window — over a grid of cheap eq1 points, end to end (planning,
execution, persistence, journal).

The bench-regression CI job runs this file at ``REPRO_BENCH_SCALE``
0.05 and compares the median against
``benchmarks/results/baseline.json`` via ``tools/bench_compare.py``.
"""

from conftest import bench_jobs, bench_scale

from repro.runtime import registry
from repro.runtime.manifest import Manifest
from repro.runtime.store import SweepStore
from repro.runtime.sweep import SweepPlan, run_plan

#: One cheap eq1 configuration (~0.6 ms/point bare): a single probe
#: rate, a short train, two repetitions.  Sweeping ``cross_rate_bps``
#: keeps per-point cost constant while making every point distinct.
CHEAP = {"probe_rates_bps": [4e6], "n_packets": 24, "repetitions": 2}


def _grid(points):
    return [dict(CHEAP, cross_rate_bps=1e6 + 4e6 * i / max(1, points - 1))
            for i in range(points)]


def _run_fused(experiment, grid, root, jobs):
    root.mkdir(parents=True, exist_ok=True)
    store = SweepStore.create(root / "store", experiment.name,
                              params=["cross_rate_bps"])
    manifest = Manifest.create(root / "manifest.jsonl", "sweep",
                               experiment.name)
    plan = SweepPlan(experiment, iter(grid), seed=1, backend="auto")
    done = 0
    for window in run_plan(plan, jobs=jobs, store=store,
                           manifest=manifest):
        done += len(window.outcomes)
    store.close()
    assert done == len(grid)


def test_fused_sweep_throughput(benchmark, tmp_path):
    """Fused engine over a 400-point grid (scaled)."""
    experiment = registry.get("eq1")
    grid = _grid(max(50, int(round(400 * bench_scale()))))
    benchmark.pedantic(
        lambda: _run_fused(experiment, grid, tmp_path, bench_jobs()),
        rounds=1, iterations=1)
