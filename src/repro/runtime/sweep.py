"""Parameter sweeps: grid expansion, batch-fused planning, refinement.

``python -m repro sweep fig6 --param repetitions=100,400,1600`` runs
one experiment at several parameter points.  This module owns every
pure piece of that pipeline:

* parsing ``name=v1,v2,...`` specifications and expanding several of
  them into the Cartesian grid of override dicts (:func:`expand_grid`
  is a *generator* — a 10^6-point grid never materialises before
  scheduling; :func:`grid_size` counts points with arithmetic);
* :class:`SweepPlan` — cross-point batch fusion.  Grid points are
  grouped by their *resolved* backend and kernel (one dispatch
  resolution per distinct requested backend; the group key is
  :func:`repro.backends.dispatch.fusion_key`) and streamed
  out in fused execution windows: each window fans its points across
  the worker pool in one supervised fan-out
  (:func:`repro.runtime.executor.map_batched`) instead of paying
  per-point process spawning, per-point dispatch and per-point JSON
  fsync.  Every point still executes exactly the kwargs a standalone
  ``repro run`` would resolve — per-point seed streams come from the
  same :func:`~repro.runtime.executor.derive_seeds` scheme inside the
  runner — so fused results are bit-identical to per-point runs
  (pinned by ``tests/test_sweep_plan.py``);
* :func:`run_plan` — the execution engine: windows flow into a
  :class:`~repro.runtime.store.SweepStore` (columnar chunks, one per
  window) with the manifest journalled per window, and a resumed run
  skips exactly the points whose journal record *and* store row are
  intact under the current code version;
* adaptive refinement (:func:`run_adaptive`) — ``sweep --adapt N``
  runs the coarse grid, then iteratively places new points where the
  response curve's curvature (second divided difference of the chosen
  ``--metric``) is largest, reusing the planner for each wave.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import time
from dataclasses import dataclass, field
from typing import (Dict, Iterable, Iterator, List, Optional, Sequence,
                    Tuple, Union)

import numpy as np

from repro.analysis.results import ExperimentResult
from repro.backends import Resolution, dispatch
from repro.runtime import faults
from repro.runtime.executor import map_batched
from repro.runtime.manifest import Manifest, PointRecord, point_id
from repro.runtime.store import SweepStore

Value = Union[int, float, str]

#: Environment variable overriding the fused execution window size.
WINDOW_ENV = "REPRO_SWEEP_WINDOW"

#: Points per fused execution window when nothing else is configured:
#: large enough to amortise one supervised fan-out and one store chunk
#: over hundreds of points, small enough that a crash loses at most a
#: fraction of a second of work.
DEFAULT_WINDOW = 512

#: Refinement waves :func:`run_adaptive` runs at most after the coarse
#: grid.
ADAPT_WAVES = 4


def parse_value(text: str) -> Value:
    """Interpret one sweep value: int if possible, else float, else str.

    Scientific notation (``5e6``) parses as float, which is what every
    rate-style kwarg expects.  Non-finite spellings (``nan``, ``inf``,
    ``-infinity`` ...) are rejected outright: a NaN smuggled into
    runner kwargs poisons every downstream statistic *and* the cache
    key (NaN != NaN breaks content-addressing), so it must fail at the
    parse, with the offending text in the message.
    """
    text = text.strip()
    try:
        return int(text)
    except ValueError:
        pass
    try:
        value = float(text)
    except ValueError:
        return text
    if not math.isfinite(value):
        raise ValueError(
            f"non-finite sweep value {text!r}; sweep parameters must "
            "be finite numbers (or plain strings)")
    return value


def parse_param_spec(spec: str) -> Tuple[str, List[Value]]:
    """Parse one ``--param name=v1,v2,...`` specification."""
    name, sep, rest = spec.partition("=")
    name = name.strip()
    values = [parse_value(v) for v in rest.split(",") if v.strip()]
    if not sep or not name or not values:
        raise ValueError(
            f"malformed sweep parameter {spec!r}; "
            "expected name=value[,value...]")
    return name, values


def _validate_specs(specs: Sequence[Tuple[str, Sequence[Value]]]) -> None:
    """Shared eager validation for :func:`expand_grid`/:func:`grid_size`."""
    seen = set()
    for name, values in specs:
        if name in seen:
            raise ValueError(f"duplicate sweep parameter {name!r}")
        if not values:
            raise ValueError(f"sweep parameter {name!r} has no values")
        seen.add(name)


def grid_size(specs: Sequence[Tuple[str, Sequence[Value]]]) -> int:
    """Number of points :func:`expand_grid` will yield — by arithmetic,
    never by materialising the product."""
    _validate_specs(specs)
    return math.prod(len(values) for _, values in specs)


def expand_grid(specs: Sequence[Tuple[str, Sequence[Value]]]
                ) -> Iterator[Dict[str, Value]]:
    """Cartesian product of parsed specs, as runner-override dicts.

    A *generator*: points stream out one at a time (the last parameter
    fastest, matching the order the ``--param`` flags were given), so
    a million-point grid costs one dict of working memory, not a list
    of a million.  Spec validation still happens eagerly, at the call.
    """
    _validate_specs(specs)
    names = [name for name, _ in specs]
    grids = [values for _, values in specs]

    def generate() -> Iterator[Dict[str, Value]]:
        for combo in itertools.product(*grids):
            yield dict(zip(names, combo))

    return generate()


def point_label(overrides: Dict[str, Value]) -> str:
    """The human label of one grid point (``"a=1, b=2"``)."""
    return ", ".join(f"{k}={v}" for k, v in overrides.items())


def resolve_window(window: Optional[int] = None) -> int:
    """Normalise a window-size request (arg > env > default)."""
    if window is None:
        raw = os.environ.get(WINDOW_ENV)
        if raw is not None:
            try:
                window = int(raw)
            except ValueError:
                raise ValueError(
                    f"invalid {WINDOW_ENV}={raw!r}; expected an integer")
        else:
            return DEFAULT_WINDOW
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    return window


# ----------------------------------------------------------------------
# Planning
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class PlannedPoint:
    """One grid point, fully resolved and ready to execute."""

    index: int
    overrides: Dict[str, Value]
    label: str
    kwargs: Dict[str, object]
    point_id: str
    #: ``(family, kernel)`` of the dispatch resolution — the fusion key.
    group: Tuple[str, str]


@dataclass(frozen=True)
class PlanWindow:
    """One fused execution window: same-resolution points, one fan-out."""

    group: Tuple[str, str]
    resolution: Resolution
    points: List[PlannedPoint]

    @property
    def label(self) -> str:
        """``family/kernel`` display label of the fused group."""
        return "/".join(self.group)


class SweepPlan:
    """Group grid points by resolved backend, stream fused windows.

    Dispatch is resolved once per *distinct requested backend* — never
    per point — because resolution is a pure function of (scenario,
    requested) and the sweep's scenario is a property of the
    experiment.  The resolved base kwargs are likewise computed once
    per group and merged with each point's overrides, which is exactly
    what :meth:`Experiment.kwargs_for` produces for that point (a
    point overriding ``backend`` itself takes the slow full-resolution
    path, so validation semantics never change).
    """

    def __init__(self, experiment, points: Iterable[Dict[str, Value]],
                 *, scale: float = 1.0, seed: Optional[int] = None,
                 backend: str = "auto") -> None:
        self.experiment = experiment
        self.requested = backend or "auto"
        self._points = points
        #: requested backend -> ((family, kernel), Resolution, base kwargs)
        self._memo: Dict[str, Tuple[Tuple[str, str], Resolution,
                                    Dict[str, object]]] = {}
        self._scale = scale
        self._seed = seed
        #: Fused-group point tallies, filled as the plan streams
        #: (``--report`` reads this after execution).
        self.group_counts: Dict[str, int] = {}
        #: The resolution handed to ``_annotate_backend`` — only an
        #: ``auto`` request carries one, mirroring ``Experiment.run``.
        self.auto_resolution: Optional[Resolution] = (
            experiment.resolve_backend("auto")
            if self.requested == "auto" else None)

    def _resolve_group(self, requested: str) -> Tuple[
            Tuple[str, str], Resolution, Dict[str, object]]:
        """Memoised (group key, resolution, base kwargs) per request."""
        hit = self._memo.get(requested)
        if hit is None:
            resolution = self.experiment.resolve_backend(requested)
            base = self.experiment.kwargs_for(
                scale=self._scale, seed=self._seed, backend=requested)
            hit = (dispatch.fusion_key(resolution), resolution, base)
            self._memo[requested] = hit
        return hit

    def planned(self) -> Iterator[PlannedPoint]:
        """Stream the grid as resolved :class:`PlannedPoint` records."""
        for index, overrides in enumerate(self._points):
            requested = str(overrides.get("backend", self.requested))
            key, _resolution, base = self._resolve_group(requested)
            if "backend" in overrides:
                # The override may carry its own validation semantics
                # (unsupported family, single-backend experiment);
                # take the full per-point path the CLI loop takes.
                kwargs = self.experiment.kwargs_for(
                    scale=self._scale, seed=self._seed,
                    overrides=overrides, backend=self.requested)
            else:
                kwargs = dict(base)
                kwargs.update(overrides)
            label = point_label(overrides)
            yield PlannedPoint(
                index=index, overrides=dict(overrides), label=label,
                kwargs=kwargs,
                point_id=point_id(self.experiment.name, kwargs),
                group=key)

    def resolution_for(self, group: Tuple[str, str]) -> Resolution:
        """The memoised resolution behind a group key."""
        for key, resolution, _base in self._memo.values():
            if key == group:
                return resolution
        raise KeyError(group)

    def windows(self, window: Optional[int] = None
                ) -> Iterator[PlanWindow]:
        """Stream fused execution windows (per-group, size-bounded).

        Points buffer per fused group as the grid streams; a group's
        buffer flushes as a window when it reaches the window size,
        and every residue flushes at exhaustion — so peak memory is
        ``O(groups x window)`` regardless of grid size.
        """
        window = resolve_window(window)
        buffers: Dict[Tuple[str, str], List[PlannedPoint]] = {}
        order: List[Tuple[str, str]] = []
        for point in self.planned():
            self.group_counts["/".join(point.group)] = \
                self.group_counts.get("/".join(point.group), 0) + 1
            if point.group not in buffers:
                buffers[point.group] = []
                order.append(point.group)
            buffers[point.group].append(point)
            if len(buffers[point.group]) >= window:
                yield PlanWindow(point.group,
                                 self.resolution_for(point.group),
                                 buffers[point.group])
                buffers[point.group] = []
        for key in order:
            if buffers[key]:
                yield PlanWindow(key, self.resolution_for(key),
                                 buffers[key])


# ----------------------------------------------------------------------
# Execution
# ----------------------------------------------------------------------

@dataclass
class WindowOutcome:
    """What one fused window produced (progress + report rows)."""

    group: str
    wave: int
    outcomes: List[Dict[str, object]]
    resumed: int
    executed: int
    elapsed_s: float


def _execute_point(experiment, point: PlannedPoint,
                   resolution: Optional[Resolution]) -> Dict[str, object]:
    """Run one planned point; always returns a picklable outcome row.

    The runner call is exactly what ``Experiment.run`` performs for
    these kwargs (same seeds, same kernels, same annotation), minus
    the per-point cache/scope ceremony the fused engine amortises at
    the window level — which is why the payload is bit-identical to a
    standalone run.  Exceptions become ``error`` rows instead of
    aborting the window.
    """
    start = time.perf_counter()
    try:
        result = experiment.runner(**point.kwargs)
    except Exception as exc:  # aggregate, never abort the batch
        return {"point_id": point.point_id, "label": point.label,
                "status": "error", "elapsed_s":
                time.perf_counter() - start, "error": str(exc),
                "payload": "", "failed_checks": [], "backend": None,
                "overrides": point.overrides}
    experiment._annotate_backend(result, point.kwargs, resolution)
    return {
        "point_id": point.point_id, "label": point.label,
        "status": "done" if result.all_checks_pass else "failed",
        "elapsed_s": time.perf_counter() - start, "error": "",
        "payload": json.dumps(result.to_dict()),
        "failed_checks": list(result.failed_checks),
        "backend": result.meta.get("backend"),
        "overrides": point.overrides,
    }


def run_plan(plan: SweepPlan, *, jobs: Optional[int] = None,
             store: Optional[SweepStore] = None,
             manifest: Optional[Manifest] = None,
             refresh: bool = False, window: Optional[int] = None,
             wave: int = 0,
             processed_before: int = 0) -> Iterator[WindowOutcome]:
    """Execute a plan window by window; yield progress as it lands.

    Per window: resumable points (journal record ``done`` *and* a
    ``done`` store row under the current code version) are served
    without execution; the rest fan out across the worker pool in one
    supervised batch; the results land in the store as one columnar
    chunk, then the manifest journals the window in one append — so a
    SIGKILL at any instant loses at most one un-flushed window, and
    the next ``--resume`` re-executes only those points.
    """
    experiment = plan.experiment
    if store is not None and store.experiment != experiment.name:
        raise ValueError(
            f"store {store.root} belongs to experiment "
            f"{store.experiment!r}, not {experiment.name!r}")
    completed = store.completed() if store is not None \
        and not refresh else set()
    processed = processed_before
    for plan_window in plan.windows(window):
        start = time.perf_counter()
        to_run: List[PlannedPoint] = []
        outcomes: List[Dict[str, object]] = []
        for point in plan_window.points:
            record = manifest.get(point.point_id) \
                if manifest is not None else None
            journal_done = manifest is None or (
                record is not None and record.status == "done")
            if point.point_id in completed and journal_done:
                outcomes.append({
                    "point_id": point.point_id, "label": point.label,
                    "status": "done", "elapsed_s": 0.0, "error": "",
                    "payload": "", "failed_checks": [],
                    "backend": None, "overrides": point.overrides,
                    "resumed": True})
            else:
                to_run.append(point)
        executed: List[Dict[str, object]] = []
        for _chunk, results in map_batched(
                lambda point: _execute_point(
                    experiment, point, plan.auto_resolution),
                to_run, jobs=jobs, window=len(to_run) or None):
            executed.extend(results)
        for outcome in executed:
            outcome["resumed"] = False
        if store is not None and executed:
            store.append([
                {"point_id": outcome["point_id"],
                 "label": outcome["label"],
                 "status": outcome["status"],
                 "elapsed_s": outcome["elapsed_s"],
                 "error": outcome["error"],
                 "payload": outcome["payload"],
                 **{param: outcome["overrides"].get(param)
                    for param in store.params}}
                for outcome in executed])
            store.flush()
        if manifest is not None and executed:
            manifest.record_many([
                PointRecord(point_id=str(outcome["point_id"]),
                            status=str(outcome["status"]),
                            label=str(outcome["label"]),
                            error=str(outcome["error"]) or None)
                for outcome in executed])
        outcomes.extend(executed)
        processed += len(outcomes)
        yield WindowOutcome(
            group=plan_window.label, wave=wave, outcomes=outcomes,
            resumed=len(outcomes) - len(executed),
            executed=len(executed),
            elapsed_s=time.perf_counter() - start)
        faults.maybe_kill_run(processed)


# ----------------------------------------------------------------------
# Adaptive refinement
# ----------------------------------------------------------------------

def point_metric(result: ExperimentResult,
                 metric: Optional[str] = None) -> float:
    """Scalar refinement signal of one result: mean of a series.

    ``metric`` names one of the result's series (default: the first) —
    the same names ``--report`` tables carry — and the scalar is its
    mean, so a rate-response experiment refines on the mean measured
    rate at each probing point.
    """
    names = list(result.series)
    if not names:
        raise ValueError("result has no series to take a metric from")
    chosen = metric if metric is not None else names[0]
    if chosen not in result.series:
        raise ValueError(
            f"unknown metric {chosen!r}; result has series: "
            f"{', '.join(names)}")
    return float(np.mean(np.asarray(result.series[chosen], dtype=float)))


def refine_candidates(xs: Sequence[float], ys: Sequence[float],
                      count: int,
                      min_gap: Optional[float] = None) -> List[float]:
    """Where to sample next: midpoints flanking high-curvature points.

    Curvature at each interior grid point is the second divided
    difference of ``ys`` over the (generally non-uniform) ``xs``;
    candidates are the midpoints of the two intervals flanking the
    highest-curvature points, deduplicated and kept ``min_gap`` apart
    (default: 1e-4 of the x span) so refinement converges instead of
    stacking points on a singularity.  Returns at most ``count``
    values, best-scored first; empty when the curve is flat or has
    fewer than three points.
    """
    order = np.argsort(np.asarray(xs, dtype=float))
    xs = np.asarray(xs, dtype=float)[order]
    ys = np.asarray(ys, dtype=float)[order]
    if len(xs) < 3 or count < 1:
        return []
    if min_gap is None:
        span = float(xs[-1] - xs[0])
        min_gap = span * 1e-4 if span > 0 else 0.0
    scores = []
    for i in range(1, len(xs) - 1):
        h1 = xs[i] - xs[i - 1]
        h2 = xs[i + 1] - xs[i]
        if h1 <= 0 or h2 <= 0:
            continue
        d2 = 2.0 * (ys[i - 1] / (h1 * (h1 + h2))
                    - ys[i] / (h1 * h2)
                    + ys[i + 1] / (h2 * (h1 + h2)))
        scores.append((abs(d2), i))
    scores.sort(key=lambda item: (-item[0], item[1]))
    chosen: List[float] = []
    taken = list(xs)
    for score, i in scores:
        if score == 0.0 or len(chosen) >= count:
            break
        for candidate in ((xs[i - 1] + xs[i]) / 2.0,
                          (xs[i] + xs[i + 1]) / 2.0):
            if len(chosen) >= count:
                break
            if all(abs(candidate - other) > min_gap for other in taken):
                chosen.append(float(candidate))
                taken.append(float(candidate))
    return chosen


def adapt_axis(specs: Sequence[Tuple[str, Sequence[Value]]], adapt: int
               ) -> Tuple[str, Dict[str, Value]]:
    """The one refinable parameter, plus the fixed values of the rest.

    Refinement needs a 1-D response curve: exactly one ``--param``
    with several values, all numeric; every other parameter pinned to
    a single value.  ``adapt`` (the points to add) must be positive.
    Raises ``ValueError`` otherwise, so ``sweep`` can refuse the flags
    before it replaces a store.
    """
    if adapt < 1:
        raise ValueError(f"--adapt must be >= 1, got {adapt}")
    multi = [(name, values) for name, values in specs if len(values) > 1]
    if len(multi) != 1:
        raise ValueError(
            "--adapt needs exactly one --param with multiple values "
            f"(the refinement axis); got {len(multi)}")
    axis, values = multi[0]
    if not all(isinstance(v, (int, float)) and not isinstance(v, bool)
               for v in values):
        raise ValueError(
            f"--adapt axis {axis!r} must be numeric; got {values!r}")
    fixed = {name: values[0] for name, values in specs
             if name != axis}
    return axis, fixed


def run_adaptive(experiment,
                 specs: Sequence[Tuple[str, Sequence[Value]]], *,
                 adapt: int, metric: Optional[str] = None,
                 scale: float = 1.0, seed: Optional[int] = None,
                 backend: str = "auto", jobs: Optional[int] = None,
                 store: SweepStore = None,
                 manifest: Optional[Manifest] = None,
                 refresh: bool = False,
                 window: Optional[int] = None) -> Iterator[WindowOutcome]:
    """Coarse grid, then curvature-guided refinement waves.

    Wave 0 is the declared grid; each later wave reads the response
    curve back from the store (axis value vs :func:`point_metric` of
    each ``done`` payload), asks :func:`refine_candidates` for up to
    ``ceil(adapt / ADAPT_WAVES)`` new axis values, and executes them
    as a fresh :class:`SweepPlan` — same fusion, same store, same
    journal, so an interrupted adaptive sweep resumes mid-wave like
    any other.  Stops after ``adapt`` added points, ``ADAPT_WAVES``
    waves, or when the curve goes flat, whichever is first.
    """
    if store is None:
        raise ValueError("adaptive refinement requires a sweep store "
                         "(the waves read the response curve from it)")
    axis, fixed = adapt_axis(specs, adapt)
    base_plan = SweepPlan(experiment, expand_grid(specs), scale=scale,
                          seed=seed, backend=backend)
    processed = 0
    for outcome in run_plan(base_plan, jobs=jobs, store=store,
                            manifest=manifest, refresh=refresh,
                            window=window, wave=0):
        processed += len(outcome.outcomes)
        yield outcome
    added = 0
    per_wave = max(1, math.ceil(adapt / ADAPT_WAVES))
    for wave in range(1, ADAPT_WAVES + 1):
        if added >= adapt:
            break
        frame = store.frame(columns=[axis, "status", "payload"],
                            where=dict(fixed) if fixed else None)
        xs, ys = [], []
        for x, status, blob in zip(frame[axis], frame["status"],
                                   frame["payload"]):
            if str(status) != "done" or not str(blob):
                continue
            result = ExperimentResult.from_dict(json.loads(str(blob)))
            xs.append(float(x))
            ys.append(point_metric(result, metric))
        candidates = refine_candidates(xs, ys,
                                       min(per_wave, adapt - added))
        if not candidates:
            break
        overrides = [dict(fixed, **{axis: candidate})
                     for candidate in sorted(candidates)]
        plan = SweepPlan(experiment, overrides, scale=scale, seed=seed,
                         backend=backend)
        for outcome in run_plan(plan, jobs=jobs, store=store,
                                manifest=manifest, refresh=refresh,
                                window=window, wave=wave,
                                processed_before=processed):
            processed += len(outcome.outcomes)
            yield outcome
        added += len(candidates)
