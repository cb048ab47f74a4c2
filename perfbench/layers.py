"""The layer table: which entry points the traced pass wraps, and how a
trace becomes the per-layer metrics of ``BENCHMARK.json``.

Layers are named after the modules that own them.  Every workload runs
in one process (``--jobs 1``), so one tracer sees every layer.
"""

from __future__ import annotations

import importlib
import math
import pkgutil
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.runtime import registry

from perfbench.tracer import RowCounter, Tracer


def _repetitions(arguments) -> int:
    return int(arguments["repetitions"])


def _probe_rows(arguments) -> int:
    return len(arguments["probe_times"])


@dataclass(frozen=True)
class Layer:
    """One traced layer: its name and wrapped entry points.

    ``targets`` are ``"module:function"`` or ``"module:Class.method"``
    strings; a method target covers every subclass that overrides it.
    ``runners=True`` wraps every registered experiment runner instead.
    """

    name: str
    targets: Tuple[str, ...] = ()
    rows: RowCounter = None
    runners: bool = False


LAYERS: Tuple[Layer, ...] = (
    Layer("analysis", runners=True),
    Layer("channel", tuple(
        f"repro.testbed.channel:Channel.{method}" for method in (
            "send_train", "send_trains", "send_trains_batch",
            "send_trains_dense", "send_train_sequence"))),
    Layer("probe_vector.steady_state",
          ("repro.sim.probe_vector:simulate_steady_state_batch",),
          rows=_repetitions),
    Layer("probe_vector.probe_train",
          ("repro.sim.probe_vector:simulate_probe_train_batch",),
          rows=_repetitions),
    Layer("probe_vector.probe_arrivals",
          ("repro.sim.probe_vector:simulate_probe_arrivals_batch",),
          rows=_probe_rows),
    Layer("vector.saturated",
          ("repro.sim.vector:simulate_saturated_batch",),
          rows=_repetitions),
    Layer("engine.run", ("repro.sim.engine:Simulator.run",)),
    Layer("lindley.batch", ("repro.queueing.lindley:lindley_batch",)),
    Layer("generators.generate", tuple(
        f"repro.traffic.generators:{cls}.generate" for cls in (
            "PoissonGenerator", "CBRGenerator", "OnOffGenerator",
            "TraceGenerator"))),
    Layer("backends.run_batch", ("repro.backends.base:Backend.run_batch",)),
    Layer("executor", (
        "repro.runtime.executor:run_batch",
        "repro.runtime.executor:map_ordered",
        "repro.runtime.executor:map_batched")),
    Layer("cache.store", ("repro.runtime.cache:ResultCache.store",)),
    Layer("cache.load", ("repro.runtime.cache:ResultCache.load",)),
    Layer("registry.run", ("repro.runtime.registry:Experiment.run",)),
    Layer("registry.kwargs_for",
          ("repro.runtime.registry:Experiment.kwargs_for",)),
    Layer("dispatch.resolve", ("repro.backends.dispatch:resolve",)),
    Layer("sweep.plan", (
        "repro.runtime.sweep:SweepPlan.planned",
        "repro.runtime.sweep:SweepPlan.windows")),
    Layer("sweep.run_plan", ("repro.runtime.sweep:run_plan",)),
    Layer("store.create", ("repro.runtime.store:SweepStore.create",)),
    Layer("store.open", ("repro.runtime.store:SweepStore.open",)),
    Layer("store.append", ("repro.runtime.store:SweepStore.append",)),
    Layer("store.flush", ("repro.runtime.store:SweepStore.flush",)),
    Layer("store.completed", ("repro.runtime.store:SweepStore.completed",)),
    Layer("manifest.create", ("repro.runtime.manifest:Manifest.create",)),
    Layer("manifest.load", ("repro.runtime.manifest:Manifest.load",)),
    Layer("manifest.record_many",
          ("repro.runtime.manifest:Manifest.record_many",)),
    Layer("manifest.get", ("repro.runtime.manifest:Manifest.get",)),
)

#: Layers that must record calls in a workload's traced pass; a layer
#: missing from the trace fails the pass instead of reporting a silent
#: zero.
EXPECTED_CALLS: Dict[str, Tuple[str, ...]] = {
    "run-all": (
        "analysis", "channel", "probe_vector.steady_state",
        "probe_vector.probe_train", "probe_vector.probe_arrivals",
        "vector.saturated", "lindley.batch", "generators.generate",
        "backends.run_batch", "executor", "cache.store",
        "registry.run", "registry.kwargs_for", "dispatch.resolve"),
    "atlas-sweep": (
        "analysis", "channel", "lindley.batch", "generators.generate",
        "executor", "sweep.plan", "sweep.run_plan", "store.create",
        "store.append", "store.flush", "store.completed",
        "manifest.create", "manifest.record_many", "manifest.get",
        "registry.kwargs_for", "dispatch.resolve"),
    "atlas-resume": (
        "sweep.plan", "sweep.run_plan", "store.open", "store.completed",
        "manifest.load", "manifest.get", "registry.kwargs_for",
        "dispatch.resolve"),
}


def import_package(name: str = "repro") -> None:
    """Import every module of the package, so every binding and every
    subclass exists before patching (``__main__`` excepted)."""
    package = importlib.import_module(name)
    for info in pkgutil.walk_packages(package.__path__, f"{name}."):
        if not info.name.endswith(".__main__"):
            importlib.import_module(info.name)


def install(tracer: Tracer, layers: Sequence[Layer] = LAYERS) -> None:
    """Wrap every entry point of ``layers``."""
    import_package()
    for layer in layers:
        if layer.runners:
            for experiment in registry.experiments():
                original = experiment.runner
                wrapper = tracer.patch_attribute(layer.name, experiment,
                                                 "runner", layer.rows)
                tracer.rebind(original, wrapper, "repro")
        for target in layer.targets:
            module_name, _, attr = target.partition(":")
            if "." in attr:
                if not tracer.patch_method(layer.name, module_name, attr,
                                           layer.rows):
                    raise LookupError(f"no class defines {target}")
            else:
                tracer.patch_function(layer.name, module_name, attr,
                                      layer.rows)


def missing_calls(workload: str, metrics: Dict[str, float]) -> List[str]:
    """Expected layers of ``workload`` whose ``.calls`` metric is 0."""
    return [name for name in EXPECTED_CALLS[workload]
            if not metrics.get(f"{name}.calls")]


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------

#: Percentiles tried, highest first.
PERCENTILE_LADDER = (99.9, 99.0, 90.0, 50.0)


def tail_percentile(samples: Sequence[float], beyond: int = 10,
                    ladder: Sequence[float] = PERCENTILE_LADDER
                    ) -> Optional[Tuple[float, float]]:
    """The highest ladder percentile with at least ``beyond`` samples
    above it, as ``(percentile, value)``; ``None`` when even the
    lowest lacks them.  Linear interpolation between order statistics.
    """
    count = len(samples)
    for percentile in ladder:
        # Rounded: 100 - 99.9 is not exactly 0.1 in binary.
        if round(count * (100.0 - percentile) / 100.0, 9) >= beyond:
            return percentile, quantile(samples, percentile)
    return None


def quantile(samples: Sequence[float], percentile: float) -> float:
    """Linearly interpolated percentile (numpy's default rule)."""
    ordered = sorted(samples)
    position = (len(ordered) - 1) * percentile / 100.0
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def layer_metrics(trace: Dict[str, object]) -> Dict[str, float]:
    """Self time, calls and rows of every layer in ``trace``."""
    out: Dict[str, float] = {}
    for layer in LAYERS:
        calls = int(trace["calls"].get(layer.name, 0))
        out[f"{layer.name}.self_s"] = float(
            trace["self_s"].get(layer.name, 0.0))
        out[f"{layer.name}.calls"] = calls
        if layer.rows is not None:
            rows = int(trace["rows"].get(layer.name, 0))
            out[f"{layer.name}.rows_per_call"] = rows / calls \
                if calls else 0.0
    return out
