"""Experiment orchestration: registry, parallel executor, result cache.

This package turns the per-figure runners of :mod:`repro.analysis`
into declarative, schedulable units of work:

* :mod:`repro.runtime.registry` — the :class:`Experiment` dataclass
  and the registry of every figure/ablation/extension runner, with
  repetition scaling, seed policy and cache-aware execution;
* :mod:`repro.runtime.executor` — repetition sharding across worker
  processes; results are bit-identical regardless of the job count
  because shards replay exactly the per-repetition seeds a serial run
  would use;
* :mod:`repro.runtime.cache` — a content-addressed on-disk JSON cache
  keyed on (experiment, kwargs, code version);
* :mod:`repro.runtime.sweep` — parameter-sweep parsing, streaming
  grid expansion, the batch-fused :class:`SweepPlan` engine and
  adaptive refinement for ``python -m repro sweep``;
* :mod:`repro.runtime.store` — the append-only chunked columnar
  result store dense sweeps sink into (parquet when pyarrow is
  importable, compressed ``.npz`` otherwise);
* :mod:`repro.runtime.manifest` — append-only JSONL progress journals
  that make ``sweep`` resumable after a crash (``--resume``);
* :mod:`repro.runtime.faults` — the env-activated fault-injection
  switchboard (worker crashes, cache corruption, mid-run kills) the
  chaos tests drive every recovery contract through.

The CLI (:mod:`repro.cli`) and the benchmark harness are thin clients
of this package.
"""

from repro.runtime.cache import ResultCache, code_version
from repro.runtime.executor import (
    RetryPolicy,
    active_jobs,
    active_retry_policy,
    collect_failures,
    map_batched,
    map_ordered,
    parallel_jobs,
    retry_policy,
)
from repro.runtime.manifest import Manifest, ManifestError, point_id
from repro.runtime.registry import (
    Experiment,
    RunReport,
    experiments,
    get,
    names,
    register,
    unregister,
)
from repro.runtime.store import StoreError, SweepStore
from repro.runtime.sweep import (
    SweepPlan,
    WindowOutcome,
    expand_grid,
    grid_size,
    parse_param_spec,
    run_adaptive,
    run_plan,
)

__all__ = [
    "Experiment",
    "Manifest",
    "ManifestError",
    "ResultCache",
    "RetryPolicy",
    "RunReport",
    "StoreError",
    "SweepPlan",
    "SweepStore",
    "WindowOutcome",
    "active_jobs",
    "active_retry_policy",
    "code_version",
    "collect_failures",
    "expand_grid",
    "experiments",
    "get",
    "grid_size",
    "map_batched",
    "map_ordered",
    "names",
    "parallel_jobs",
    "parse_param_spec",
    "point_id",
    "register",
    "retry_policy",
    "run_adaptive",
    "run_plan",
    "unregister",
]
