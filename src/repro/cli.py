"""Command-line interface.

Run any of the paper's experiments from a shell::

    python -m repro list
    python -m repro info
    python -m repro run fig6 --jobs 4 --seed 7
    python -m repro run ext-saturation --backend vector
    python -m repro run fig8 --explain-backend
    python -m repro run all --scale 0.25 --report summary.json
    python -m repro run fig6 --profile prof.json --scale 0.2
    python -m repro sweep fig6 --param repetitions=100,400,1600
    python -m repro sweep fig6 --param repetitions=100,400,1600 \\
        --resume .repro-cache/sweeps/fig6/manifest.jsonl
    python -m repro sweep ext-saturation --param n_stations=5,10,20,35 \\
        --store atlas/ --adapt 16 --metric throughput_mbps
    python -m repro cache ls
    python -m repro cache clear
    python -m repro cache stats --store atlas/

``run`` prints the experiment's series table (the same rows the paper's
figure plots) and exits non-zero if any qualitative shape check fails
or any experiment errors; failures are aggregated and reported at the
end, never aborting the remaining experiments.  Results are cached on
disk keyed on (experiment, kwargs, code version) — a repeated
invocation is served from cache unless ``--no-cache`` or ``--refresh``
says otherwise.  ``--jobs N`` shards repetitions across N worker
processes with bit-identical output, and ``--chunk-reps N`` streams
vector-backend batches through the kernel N repetitions at a time —
also bit-identical, with peak memory bounded by the chunk.

The runtime is crash-safe: ``--manifest`` journals per-point progress
to an append-only JSONL file and ``--resume`` restarts an interrupted
``run all`` or ``sweep`` from it, re-running only pending and failed
points.  ``run`` serves completed experiments bit-identically from
the checksummed result cache; ``sweep`` keeps them in its store.
``--retries``/``--shard-timeout`` govern worker-shard
supervision: a crashed, killed, or hung worker is retried with
exponential backoff and finally executed in-process, with every
recovery recorded in the result metadata — a lost worker degrades
throughput, never correctness or completeness.

Backend selection defaults to ``--backend auto``: the capability
dispatcher (:mod:`repro.backends`) picks the fastest kernel eligible
for each experiment's declared scenario — the numba-compiled ``jit``
tier when numba is importable, the numpy ``vector`` tier otherwise —
and records the resolved backend (plus any fallback or degradation
reason) in the result metadata and the cache key.  ``--backend
event`` / ``--backend vector`` / ``--backend jit`` force a family
(forcing a kernel tier on an ineligible experiment — or ``jit``
without numba installed — fails with the structured reason); ``run
EXPERIMENT --explain-backend`` prints the dispatch decision without
running anything.  ``run`` (including ``run all``) and ``sweep``
share the execution, journal and report flags; ``--no-cache`` is
``run``'s alone, since a sweep's store is its output, not a cache.
``run EXPERIMENT --profile`` prints the top-25 cumulative cProfile
rows, and ``--profile PATH`` also writes the same table to PATH as
structured JSON.

``sweep`` is the fused sweep engine for dense parameter atlases:
grid points are grouped by resolved backend/kernel and executed in
fused windows (one worker fan-out per window instead of one per
point), with results appended to a chunked columnar store — parquet
when pyarrow is importable, compressed npz otherwise — at ``--store
DIR``, by default ``<cache dir>/sweeps/<experiment>``; a new sweep
replaces what its store held.  Payloads are bit-identical to
standalone ``run`` invocations.  ``--adapt N`` follows the coarse
grid with curvature-guided refinement waves, and
``cache stats`` reports disk usage for the JSON cache and any
``--store`` directories in one JSON document.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import sys
from contextlib import closing, nullcontext
from typing import Dict, List, Optional

from repro.analytic.bianchi import BianchiModel
from repro.mac.frames import AirtimeModel
from repro.mac.params import PhyParams
from repro.runtime import faults, registry
from repro.runtime.cache import ResultCache
from repro.runtime.executor import chunked_reps, retry_policy
from repro.runtime.manifest import (Manifest, ManifestError, PointRecord,
                                    point_id)
from repro.runtime.registry import RunReport
from repro.runtime.store import StoreError, SweepStore
from repro.runtime.sweep import (SweepPlan, expand_grid, grid_size,
                                 parse_param_spec, run_adaptive,
                                 run_plan)


def cmd_list(_args: argparse.Namespace) -> int:
    """Print the experiment registry, grouped."""
    print("Available experiments:")
    group = None
    for experiment in registry.experiments():
        if experiment.group != group:
            group = experiment.group
            print(f" {group}s:")
        note = ""
        if len(experiment.backends) > 1:
            note = f"  [backends: {', '.join(experiment.backends)}]"
        print(f"  {experiment.name:<26} {experiment.description}{note}")
    return 0


def cmd_info(_args: argparse.Namespace) -> int:
    """Print the link calibration summary."""
    phy = PhyParams.dot11b()
    airtime = AirtimeModel(phy)
    bianchi = BianchiModel(phy, 1500)
    print("802.11b DCF link (1500-byte packets, long preamble):")
    print(f"  slot {phy.slot_time * 1e6:.0f} us, SIFS "
          f"{phy.sifs * 1e6:.0f} us, DIFS {phy.difs * 1e6:.0f} us, "
          f"CW {phy.cw_min}..{phy.cw_max}")
    print(f"  DATA airtime {airtime.data_airtime(1500) * 1e6:.0f} us, "
          f"ACK {airtime.ack_airtime() * 1e6:.0f} us")
    print(f"  capacity C            {bianchi.capacity() / 1e6:6.3f} Mb/s")
    for n in (2, 3, 4, 5):
        print(f"  fair share, {n} stations "
              f"{bianchi.fair_share(n) / 1e6:6.3f} Mb/s "
              f"(collision fraction "
              f"{bianchi.collision_fraction(n):.3f})")
    return 0


def _print_report(report: RunReport) -> None:
    """Print one run's table plus its provenance line."""
    print(report.result.table())
    if report.cached:
        print(f"   [cache hit {report.cache_key}]")
    else:
        note = f"computed in {report.elapsed_s:.2f}s"
        if report.cache_key is not None:
            note += f", stored as {report.cache_key}"
        print(f"   [{note}]")
    print()


def _open_manifest(args: argparse.Namespace) -> Optional[Manifest]:
    """Build the progress journal the ``run`` flags ask for.

    ``--resume PATH`` loads (and validates) an existing journal —
    completed experiments will be served from the cache;
    ``--manifest PATH`` starts a fresh one.  ``None`` means no journal
    was requested.
    """
    if args.resume is not None:
        if args.no_cache:
            raise ManifestError(
                "--resume serves completed points from the result "
                "cache and cannot work with --no-cache")
        loaded = Manifest.load(args.resume)
        loaded.require("run", args.experiment)
        return loaded
    if args.manifest is None:
        return None
    return Manifest.create(
        args.manifest, "run", args.experiment,
        invocation={"scale": args.scale, "seed": args.seed,
                    "backend": args.backend, "params": []})


def _resume_hit(experiment, kwargs: Dict[str, object],
                manifest: Optional[Manifest],
                cache: Optional[ResultCache]) -> Optional[RunReport]:
    """Serve a point the journal marks done, from the verified cache.

    The skip is only taken when the recorded cache key still matches
    the key derived under the *current* code version and the entry
    passes checksum verification — a resume after a code edit, cache
    wipe, or corruption re-runs the point instead of serving a stale
    or damaged result.  Failed/errored/pending points always re-run.
    """
    if manifest is None or cache is None:
        return None
    record = manifest.get(point_id(experiment.name, kwargs))
    if record is None or record.status != "done":
        return None
    key = cache.key_for(experiment.name, kwargs)
    if record.cache_key != key:
        return None
    hit = cache.load(experiment.name, key)
    if hit is None:
        return None
    return RunReport(result=hit, kwargs=kwargs, cached=True,
                     cache_key=key)


def _record_point(manifest: Optional[Manifest], experiment: str,
                  kwargs: Optional[Dict[str, object]], status: str,
                  cache_key: Optional[str] = None,
                  error: Optional[str] = None) -> None:
    """Journal one experiment's outcome (no-op without a journal).

    An experiment that failed before its kwargs could even be resolved
    has no stable identity; it is journalled under a name-derived id
    so the error is recorded, and re-runs simply never match it.
    """
    if manifest is None:
        return
    pid = point_id(experiment, kwargs if kwargs is not None
                   else {"__label__": experiment})
    manifest.record_many([PointRecord(point_id=pid, status=status,
                                      label=experiment,
                                      cache_key=cache_key, error=error)])


def _report(command: str, target: str,
            records: List[Dict[str, object]]) -> Dict[str, object]:
    """The ``--report`` payload: per-point rows plus a status tally."""
    counts: Dict[str, int] = {}
    for record in records:
        status = str(record["status"])
        counts[status] = counts.get(status, 0) + 1
    return {"command": command, "target": target,
            "counts": counts, "points": records}


def _write_json(path: str, payload: Dict[str, object]) -> None:
    """Write ``payload`` to ``path`` as indented JSON, atomically."""
    tmp = f"{path}.{os.getpid()}.tmp"
    with open(tmp, "w") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    os.replace(tmp, path)


def _run_point(experiment, args: argparse.Namespace,
               cache: Optional[ResultCache],
               manifest: Optional[Manifest]) -> Dict[str, object]:
    """Execute one experiment (or serve its resume hit); journal it.

    The returned record is the ``--report`` row: experiment, label,
    final status (``done``/``failed``/``error``), provenance
    (cached/resumed/cache_key/elapsed), the failed check names, any
    shard-recovery actions the executor had to take, and the error
    string for crashed points.
    """
    record: Dict[str, object] = {
        "experiment": experiment.name, "label": experiment.name,
        "status": "error", "cached": False, "resumed": False,
        "cache_key": None, "elapsed_s": 0.0, "failed_checks": [],
        "failures": [], "error": None,
    }
    kwargs: Optional[Dict[str, object]] = None
    try:
        kwargs = experiment.kwargs_for(
            scale=args.scale, seed=args.seed, backend=args.backend)
        report = None if args.refresh else _resume_hit(
            experiment, kwargs, manifest, cache)
        if report is not None:
            record["resumed"] = True
        else:
            report = experiment.run(
                scale=args.scale, seed=args.seed, jobs=args.jobs,
                backend=args.backend, chunk_reps=args.chunk_reps,
                retries=args.retries, shard_timeout=args.shard_timeout,
                cache=cache, refresh=args.refresh)
    except Exception as exc:  # aggregate, don't abort the batch
        record["error"] = str(exc)
        _record_point(manifest, experiment.name, kwargs, "error",
                      error=str(exc))
        return record
    _print_report(report)
    record.update(
        status="done" if report.result.all_checks_pass else "failed",
        cached=report.cached, cache_key=report.cache_key,
        elapsed_s=report.elapsed_s,
        failed_checks=list(report.result.failed_checks),
        failures=list(report.failures),
        backend=report.result.meta.get("backend"))
    if not record["resumed"]:  # the journal already says done
        _record_point(manifest, experiment.name, kwargs,
                      str(record["status"]), cache_key=report.cache_key)
    return record


def cmd_run(args: argparse.Namespace) -> int:
    """Run one experiment (or all) and print its table(s).

    Per-experiment failures — shape-check failures *and* runner
    exceptions — are collected and summarised at the end instead of
    aborting the remaining experiments.  With ``--manifest`` the
    per-experiment outcomes are journalled as they complete, and
    ``--resume`` skips the experiments a previous (crashed) run
    already finished; ``--report PATH`` emits the structured summary
    as JSON.
    """
    try:
        experiments = (registry.experiments() if args.experiment == "all"
                       else [registry.get(args.experiment)])
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return 2
    if args.explain_backend:
        return _explain_backends(experiments, args.backend)
    profile = args.profile is not None
    # Profiling a cache read would be meaningless: bypass the cache so
    # the table shows the simulation itself.
    cache = None if profile or args.no_cache \
        else ResultCache(root=args.cache_dir)
    try:
        manifest = _open_manifest(args)
    except (ManifestError, OSError) as exc:
        print(str(exc), file=sys.stderr)
        return 2
    records: List[Dict[str, object]] = []
    failures: Dict[str, str] = {}
    profiles: List[Dict[str, object]] = []
    for experiment in experiments:
        name = experiment.name
        if profile:
            try:
                report = _profiled_run(experiment, args, profiles)
            except Exception as exc:
                print(f"== {name}: ERROR ==\n   {exc}\n",
                      file=sys.stderr)
                failures[name] = f"error: {exc}"
                continue
            _print_report(report)
            if not report.result.all_checks_pass:
                failures[name] = ("checks failed: " + ", ".join(
                    report.result.failed_checks))
            continue
        record = _run_point(experiment, args, cache, manifest)
        records.append(record)
        if record["status"] == "error":
            print(f"== {name}: ERROR ==\n   {record['error']}\n",
                  file=sys.stderr)
            failures[name] = f"error: {record['error']}"
        elif record["status"] == "failed":
            failures[name] = ("checks failed: "
                              + ", ".join(record["failed_checks"]))
        faults.maybe_kill_run(len(records))
    if args.profile:
        _write_json(args.profile, {
            "target": args.experiment, "sort": "cumulative",
            "top": _PROFILE_TOP_N, "profiles": profiles})
    if args.report is not None and not profile:
        _write_json(args.report, _report("run", args.experiment, records))
    if failures:
        print(f"{len(failures)}/{len(experiments)} experiments failed:",
              file=sys.stderr)
        for name, reason in failures.items():
            print(f"  {name}: {reason}", file=sys.stderr)
        return 1
    return 0


#: Entries kept in the printed hot-spot table and the JSON snapshot.
_PROFILE_TOP_N = 25


def _profiled_run(experiment, args: argparse.Namespace,
                  profiles: List[Dict[str, object]]) -> RunReport:
    """Run one experiment under cProfile and print the hot-spot table.

    The table (top 25 entries by cumulative time) goes to stdout right
    before the experiment's own report, so future perf work starts
    from measured hot paths instead of guesses.  Repetitions stay in
    this process (``jobs`` is forced to 1): the profiler cannot see
    into worker processes, and a sharded profile would show only pool
    bookkeeping.  The same top-25 rows are appended to ``profiles`` in
    structured form for ``--profile PATH``.
    """
    import cProfile
    import pstats

    profiler = cProfile.Profile()
    profiler.enable()
    try:
        report = experiment.run(
            scale=args.scale, seed=args.seed, jobs=1,
            backend=args.backend, chunk_reps=args.chunk_reps)
    finally:
        profiler.disable()
    print(f"== {experiment.name}: cProfile (top {_PROFILE_TOP_N}, "
          "cumulative) ==")
    stats = pstats.Stats(profiler, stream=sys.stdout)
    stats.sort_stats("cumulative").print_stats(_PROFILE_TOP_N)
    entries: List[Dict[str, object]] = []
    for func in (stats.fcn_list or list(stats.stats))[:_PROFILE_TOP_N]:
        filename, line, name = func
        primitive, ncalls, tottime, cumtime, _callers = stats.stats[func]
        entries.append({
            "file": filename, "line": line, "function": name,
            "ncalls": ncalls, "primitive_calls": primitive,
            "tottime_s": tottime, "cumtime_s": cumtime,
        })
    profiles.append({
        "experiment": experiment.name,
        "backend": report.result.meta.get("backend"),
        "total_calls": stats.total_calls,
        "total_time_s": stats.total_tt,
        "entries": entries,
    })
    return report


def _explain_backends(experiments, requested: str) -> int:
    """Print the dispatcher's per-scenario decision, without running.

    One line per experiment (rendered by
    :func:`repro.backends.dispatch.explain`, the single owner of the
    explanation format) — requested backend, resolved backend,
    concrete kernel, and the structured fallback reason whenever
    ``auto`` settles for the event engine.  A single-experiment query
    also prints every rejected kernel's capability mismatches.  Exits
    non-zero only when a *forced* backend cannot run some scenario
    (the decision, with its mismatches, is still printed).
    """
    from repro.backends import dispatch
    code = 0
    verbose = len(experiments) == 1
    for experiment in experiments:
        first, *detail = dispatch.explain(experiment.scenario,
                                          requested).splitlines()
        print(f"{experiment.name:<26} {first}")
        if verbose:
            for line in detail:
                print(line)
        if "-> ERROR" in first:
            code = 1
    return code


def cmd_sweep(args: argparse.Namespace) -> int:
    """Run one experiment over a parameter grid into a sweep store.

    Grid points are grouped by resolved backend/kernel and executed in
    fused windows (one worker fan-out per window instead of one per
    point), with results appended to a columnar store — the path that
    makes 10^5-point parameter atlases affordable.  The store lives at
    ``--store DIR``, by default ``<cache dir>/sweeps/<experiment>``,
    and a sweep started without ``--resume`` replaces its contents.
    Every window is journalled to ``--manifest``, by default
    ``<store>/manifest.jsonl``, so every sweep is resumable: after a
    crash (or Ctrl-C, or SIGKILL) ``--resume MANIFEST`` reopens the
    store the journal names and skips exactly the points whose
    journal record *and* store row both say ``done``.  ``--adapt N``
    follows the coarse grid with curvature-guided refinement waves
    along the one multi-valued ``--param`` axis, scoring points by
    ``--metric`` (a series name; default the first series).

    Progress prints one line per fused window, plus one line per
    failing point — a dense atlas must not print a million rows.
    """
    try:
        experiment = registry.get(args.experiment)
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return 2
    try:
        specs = [parse_param_spec(spec) for spec in args.param]
        total = grid_size(specs)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    root = args.store or \
        ResultCache(args.cache_dir).root / "sweeps" / args.experiment
    try:
        if args.resume is not None:
            # The journal first: it names the store (--store overrides
            # it), and resuming the wrong experiment must be refused as
            # such, not fail on a store it never wrote.
            manifest = Manifest.load(args.resume)
            manifest.require("sweep", args.experiment)
            if args.store is None:
                root = manifest.header["invocation"].get("store", root)
            store = SweepStore.open(root)
        else:
            store = SweepStore.create(
                root, args.experiment, params=[name for name, _ in specs])
            manifest = Manifest.create(
                args.manifest or pathlib.Path(root) / "manifest.jsonl",
                "sweep", args.experiment,
                invocation={"scale": args.scale, "seed": args.seed,
                            "backend": args.backend,
                            "params": list(args.param),
                            "store": str(root)})
    except (StoreError, ManifestError, OSError) as exc:
        print(str(exc), file=sys.stderr)
        return 2
    chunk_scope = chunked_reps(args.chunk_reps) \
        if args.chunk_reps is not None else nullcontext()
    fault_scope = retry_policy(retries=args.retries,
                               shard_timeout=args.shard_timeout) \
        if args.retries is not None or args.shard_timeout is not None \
        else nullcontext()
    records: List[Dict[str, object]] = []
    group_counts: Dict[str, int] = {}
    waves: Dict[int, Dict[str, object]] = {}
    failed = resumed = 0
    try:
        # closing() inside the try: a flush that fails on close (say,
        # a full disk) is reported like any other store error.
        with chunk_scope, fault_scope, closing(store):
            if args.adapt is not None:
                outcome_stream = run_adaptive(
                    experiment, specs, adapt=args.adapt,
                    metric=args.metric, scale=args.scale,
                    seed=args.seed, backend=args.backend,
                    jobs=args.jobs, store=store, manifest=manifest,
                    refresh=args.refresh)
            else:
                plan = SweepPlan(experiment, expand_grid(specs),
                                 scale=args.scale, seed=args.seed,
                                 backend=args.backend)
                outcome_stream = run_plan(
                    plan, jobs=args.jobs, store=store,
                    manifest=manifest, refresh=args.refresh)
            for window in outcome_stream:
                wave_note = f"[wave {window.wave}] " \
                    if args.adapt is not None else ""
                print(f"{wave_note}[{window.group}] "
                      f"{len(window.outcomes)} points "
                      f"({window.resumed} resumed) "
                      f"in {window.elapsed_s:.2f}s")
                group_counts[window.group] = \
                    group_counts.get(window.group, 0) \
                    + len(window.outcomes)
                wave = waves.setdefault(
                    window.wave, {"wave": window.wave, "points": 0,
                                  "resumed": 0, "values": []})
                wave["points"] += len(window.outcomes)
                wave["resumed"] += window.resumed
                resumed += window.resumed
                for outcome in window.outcomes:
                    if window.wave > 0:
                        wave["values"].extend(
                            value for value
                            in outcome["overrides"].values()
                            if isinstance(value, float))
                    if outcome["status"] == "error":
                        print(f"  {outcome['label']}: ERROR: "
                              f"{outcome['error']}", file=sys.stderr)
                        failed += 1
                    elif outcome["status"] == "failed":
                        print(f"  {outcome['label']}: FAIL ("
                              + ", ".join(outcome["failed_checks"])
                              + ")")
                        failed += 1
                    records.append({
                        "experiment": args.experiment,
                        "label": outcome["label"],
                        "status": outcome["status"],
                        "resumed": outcome["resumed"],
                        "point_id": outcome["point_id"],
                        "elapsed_s": outcome["elapsed_s"],
                        "failed_checks": outcome["failed_checks"],
                        "error": outcome["error"] or None,
                        "backend": outcome["backend"],
                        "wave": window.wave,
                        "group": window.group,
                    })
    except (ManifestError, StoreError, ValueError, OSError) as exc:
        print(str(exc), file=sys.stderr)
        return 2
    done = len(records) - failed
    print(f"== sweep {args.experiment}: {done}/{len(records)} points "
          f"pass ({resumed} resumed"
          + (f", {len(records) - total} refined" if args.adapt
             is not None else "") + ") ==")
    print(f"   [store {store.root}: {store.stats()['points']} points, "
          f"{store.format}]")
    if args.report is not None:
        _write_json(args.report, dict(
            _report("sweep", args.experiment, records),
            store_path=str(store.root), store=store.stats(),
            fused_groups=group_counts,
            refinement_waves=[waves[wave] for wave in sorted(waves)]))
    return 1 if failed else 0


def cmd_cache(args: argparse.Namespace) -> int:
    """``cache ls`` / ``cache clear`` / ``cache stats``.

    ``ls`` never trips over damage: malformed entry files and
    previously quarantined ones are skipped from the listing and
    reported (count + paths) instead of raising.  ``stats`` prints one
    JSON document covering the JSON result cache and any columnar
    sweep stores named with ``--store`` (repeatable).
    """
    cache = ResultCache(root=args.cache_dir)
    if args.action == "stats":
        payload: Dict[str, object] = {"cache": cache.stats()}
        stores = []
        for root in args.store or []:
            try:
                stores.append(SweepStore.open(root).stats())
            except StoreError as exc:
                print(str(exc), file=sys.stderr)
                return 2
        payload["stores"] = stores
        print(json.dumps(payload, indent=2))
        return 0
    if args.action == "clear":
        removed = cache.clear()
        print(f"removed {removed} cache entr"
              f"{'y' if removed == 1 else 'ies'} from {cache.root}")
        return 0
    entries, malformed = cache.scan()
    quarantined = cache.quarantined()
    if not entries and not malformed and not quarantined:
        print(f"cache {cache.root} is empty")
        return 0
    print(f"{len(entries)} cache entr"
          f"{'y' if len(entries) == 1 else 'ies'} in {cache.root}:")
    for entry in entries:
        staleness = "  (stale code version)" if entry.stale else ""
        rendered = ", ".join(f"{k}={v}" for k, v in entry.kwargs.items())
        print(f"  {entry.experiment:<26} {entry.key}  "
              f"{entry.size_bytes:>8} B{staleness}")
        print(f"    {rendered}")
    if malformed:
        print(f"{len(malformed)} malformed entr"
              f"{'y' if len(malformed) == 1 else 'ies'} skipped "
              "(will be quarantined and recomputed on use):")
        for path in malformed:
            print(f"  {path}")
    if quarantined:
        print(f"{len(quarantined)} quarantined entr"
              f"{'y' if len(quarantined) == 1 else 'ies'} "
              "(cache clear removes them):")
        for path in quarantined:
            print(f"  {path}")
    return 0


def _add_run_options(parser: argparse.ArgumentParser) -> None:
    """Flags shared by ``run`` and ``sweep``."""
    parser.add_argument("--scale", type=float, default=1.0,
                        help="repetition-count multiplier (default 1.0)")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the experiment seed")
    parser.add_argument("--jobs", type=int, default=None,
                        help="worker processes for repetition sharding "
                             "(0 = one per CPU; default $REPRO_JOBS or "
                             "1; results are identical for any job "
                             "count)")
    parser.add_argument("--chunk-reps", type=int, default=None,
                        help="stream vector-backend batches in chunks "
                             "of this many repetitions, folding each "
                             "chunk into the result as it completes "
                             "(peak memory scales with the chunk, not "
                             "the batch; default $REPRO_CHUNK_REPS or "
                             "dense; results are bit-identical at any "
                             "chunk size)")
    parser.add_argument("--backend",
                        choices=("auto", "event", "vector", "jit"),
                        default="auto",
                        help="repetition backend: 'auto' (default) "
                             "lets the capability dispatcher pick the "
                             "fastest eligible kernel per experiment "
                             "and records the choice in the result "
                             "meta; 'event' runs each repetition "
                             "through the event engine; 'vector' "
                             "forces the numpy batch kernel (fails "
                             "with the structured reason on "
                             "experiments it cannot model — see "
                             "'list' for which offer it); 'jit' "
                             "forces the numba-compiled kernel tier "
                             "(fails with the structured reason when "
                             "numba is not installed)")
    parser.add_argument("--retries", type=int, default=None,
                        help="attempts granted to a crashed or "
                             "timed-out worker shard before it falls "
                             "back to in-process execution (default "
                             "$REPRO_RETRIES or 2; recovery is "
                             "recorded in the result meta and can "
                             "never change results)")
    parser.add_argument("--shard-timeout", type=float, default=None,
                        metavar="SECONDS",
                        help="wall-clock budget per worker shard "
                             "attempt; a shard over budget is killed "
                             "and retried like a crash (default "
                             "$REPRO_SHARD_TIMEOUT or unbounded)")
    parser.add_argument("--manifest", default=None, metavar="PATH",
                        help="journal per-point progress to this "
                             "JSONL manifest (append-only, crash-"
                             "safe) so an interrupted invocation can "
                             "be resumed with --resume (sweep default: "
                             "<store>/manifest.jsonl)")
    parser.add_argument("--resume", default=None, metavar="PATH",
                        help="resume from a progress manifest: "
                             "points it marks done are served bit-"
                             "identically (run: from the result "
                             "cache; sweep: from the store), only "
                             "pending/failed ones re-run; progress "
                             "keeps appending to the same manifest")
    parser.add_argument("--report", default=None, metavar="PATH",
                        help="write the structured per-point "
                             "success/failure/retry summary as JSON "
                             "to PATH")
    parser.add_argument("--refresh", action="store_true",
                        help="recompute even on a cache hit (and "
                             "store the fresh result)")
    parser.add_argument("--cache-dir", default=None,
                        help="cache directory (default $REPRO_CACHE_DIR "
                             "or ./.repro-cache)")


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce 'Impact of Transient CSMA/CA Access "
                    "Delays on Active Bandwidth Measurements' (IMC'09)")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list available experiments") \
        .set_defaults(func=cmd_list)
    sub.add_parser("info", help="print link calibration summary") \
        .set_defaults(func=cmd_info)
    run = sub.add_parser("run", help="run an experiment")
    run.add_argument("experiment",
                     help="experiment name (see 'list'), or 'all'")
    run.add_argument("--explain-backend", action="store_true",
                     help="print the backend dispatcher's decision "
                          "(resolved kernel and any fallback reason) "
                          "for the experiment(s) and exit without "
                          "running anything")
    run.add_argument("--profile", nargs="?", const="", default=None,
                     metavar="PATH",
                     help="run under cProfile and print the top-25 "
                          "cumulative hot spots before the report; "
                          "with PATH, also write the same rows as "
                          "structured JSON there (implies --no-cache "
                          "and --jobs 1, so the profile measures the "
                          "simulation in this process)")
    run.add_argument("--no-cache", action="store_true",
                     help="neither read nor write the result cache")
    _add_run_options(run)
    run.set_defaults(func=cmd_run)
    sweep = sub.add_parser(
        "sweep", help="run an experiment over a parameter grid")
    sweep.add_argument("experiment", help="experiment name (see 'list')")
    sweep.add_argument("--param", action="append", required=True,
                       metavar="NAME=V1,V2,...",
                       help="sweep values for one runner kwarg "
                            "(repeatable; grid = Cartesian product)")
    sweep.add_argument("--store", default=None, metavar="DIR",
                       help="columnar store the sweep's results are "
                            "written to (parquet when pyarrow is "
                            "installed, compressed npz otherwise; "
                            "default <cache dir>/sweeps/EXPERIMENT). "
                            "A new sweep replaces the store's earlier "
                            "results, so pass a DIR of its own to keep "
                            "one; with --resume the store the journal "
                            "names is reopened and completed points "
                            "are skipped")
    sweep.add_argument("--adapt", type=int, default=None, metavar="N",
                       help="after the coarse grid, add up to N "
                            "refinement points where the response "
                            "curve bends hardest (largest second "
                            "difference of --metric along the one "
                            "multi-valued --param axis)")
    sweep.add_argument("--metric", default=None, metavar="SERIES",
                       help="result series scored by --adapt (mean of "
                            "the named series; default: the "
                            "experiment's first series)")
    _add_run_options(sweep)
    sweep.set_defaults(func=cmd_sweep)
    cache = sub.add_parser("cache", help="inspect the result cache")
    cache.add_argument("action", choices=("ls", "clear", "stats"),
                       help="list entries, delete them all, or print "
                            "JSON usage stats")
    cache.add_argument("--cache-dir", default=None,
                       help="cache directory (default $REPRO_CACHE_DIR "
                            "or ./.repro-cache)")
    cache.add_argument("--store", action="append", default=None,
                       metavar="DIR",
                       help="also report this columnar sweep store in "
                            "'cache stats' (repeatable)")
    cache.set_defaults(func=cmd_cache)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point."""
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
