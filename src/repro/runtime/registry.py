"""Declarative experiment registry.

An :class:`Experiment` bundles a runner from :mod:`repro.analysis`
with its execution policy: which kwargs scale with ``--scale``, how
the seed is injected, and how results are cached and parallelised.
The CLI and the benchmark harness both consume this registry instead
of hard-coding ``(runner, kwargs)`` tuples.

>>> from repro.runtime import registry
>>> report = registry.get("fig6").run(scale=0.05, seed=3)
>>> report.result.experiment
'fig6'
"""

from __future__ import annotations

import inspect
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Tuple

from repro import analysis
from repro.analysis.results import ExperimentResult
from repro.backends import (
    BackendUnavailableError,
    Resolution,
    ScenarioSpec,
    dispatch,
)
from repro.runtime.cache import ResultCache
from repro.runtime.executor import collect_failures, parallel_jobs


@dataclass(frozen=True)
class RunReport:
    """Outcome of :meth:`Experiment.run`."""

    result: ExperimentResult
    kwargs: Dict[str, object]
    cached: bool = False
    cache_key: Optional[str] = None
    elapsed_s: float = 0.0
    #: Shard-recovery records (retries, in-process fallbacks) the
    #: executor logged while computing this result; empty for cache
    #: hits and failure-free runs.  Mirrored into
    #: ``result.meta["failures"]`` *after* caching, so recovery
    #: provenance never enters the stored payload.
    failures: Tuple[Dict[str, object], ...] = ()


@dataclass(frozen=True)
class Experiment:
    """One registered experiment and its execution policy.

    Attributes
    ----------
    name:
        CLI-facing identifier (``fig6``, ``ablation-rts`` ...).
    runner:
        The :mod:`repro.analysis` entry point; returns an
        :class:`~repro.analysis.results.ExperimentResult`.
    scalable:
        kwarg -> base value; multiplied by ``--scale`` and clamped
        from below (repetition counts, typically).
    group:
        Registry section (``figure``/``baseline``/``ablation``/
        ``extension``) — display only.
    seed_kwarg:
        Name of the runner's seed parameter, or ``None`` for a
        deterministic runner.
    min_scaled:
        Lower clamp applied to every scaled kwarg.
    scenario:
        Declarative :class:`~repro.backends.ScenarioSpec` of the
        runner's workload — what the backend dispatcher matches kernel
        capabilities against.  ``None`` means "nothing declared": the
        experiment only ever runs the event engine.  The supported
        backend families (:attr:`backends`) are *derived* from this
        spec, never hand-maintained.
    """

    name: str
    runner: Callable[..., ExperimentResult]
    scalable: Mapping[str, int] = field(default_factory=dict)
    group: str = "figure"
    seed_kwarg: Optional[str] = "seed"
    min_scaled: int = 2
    scenario: Optional[ScenarioSpec] = None

    @property
    def backends(self) -> Tuple[str, ...]:
        """Backend families the dispatcher finds eligible (first =
        default).  Experiments with a declared scenario gain
        ``vector`` exactly when some kernel's capabilities cover it."""
        if self.scenario is None:
            return ("event",)
        return dispatch.family_names(self.scenario)

    def resolve_backend(self, requested: str = "auto") -> Resolution:
        """Dispatch decision for this experiment's scenario.

        Deterministic in ``(scenario, requested)`` — job counts,
        caches and the environment never change the answer.
        """
        return dispatch.resolve(self.scenario, requested)

    @property
    def description(self) -> str:
        """First line of the runner's docstring."""
        doc = (self.runner.__doc__ or "").strip()
        return doc.splitlines()[0] if doc else ""

    def default_seed(self) -> Optional[int]:
        """The runner's own default seed (from its signature)."""
        if self.seed_kwarg is None:
            return None
        parameter = inspect.signature(self.runner).parameters.get(
            self.seed_kwarg)
        if parameter is None or parameter.default is inspect.Parameter.empty:
            return None
        return parameter.default

    # ------------------------------------------------------------------

    def kwargs_for(self, scale: float = 1.0,
                   seed: Optional[int] = None,
                   overrides: Optional[Mapping[str, object]] = None,
                   minimum: Optional[int] = None,
                   backend: Optional[str] = None) -> Dict[str, object]:
        """Resolve the runner kwargs for one invocation.

        Scaled kwargs are multiplied by ``scale`` and clamped at
        ``minimum`` (default :attr:`min_scaled`); the seed — explicit
        or the runner's default — is always materialised so cache keys
        are canonical; for multi-backend experiments the ``backend``
        choice (default: the first supported one) is materialised too,
        so each backend caches separately.  ``backend="auto"`` is
        resolved through the dispatcher *before* materialisation, so
        cache keys always name the resolved — never the requested —
        backend.  ``overrides`` wins over everything.  Requesting a
        backend the experiment does not support raises
        :class:`~repro.backends.BackendUnavailableError` carrying the
        structured capability mismatches.
        """
        if scale <= 0:
            raise ValueError(f"scale must be positive, got {scale}")
        if backend == "auto":
            backend = self.resolve_backend("auto").name
        elif backend is not None and backend not in self.backends:
            raise self._unsupported_backend_error(backend)
        elif backend is not None and backend != "event":
            # A capability-supported kernel family may still be
            # unavailable in this environment (jit without numba);
            # surface the structured dependency error now rather than
            # an ImportError from inside the kernel.
            self.resolve_backend(backend)
        floor = self.min_scaled if minimum is None else minimum
        kwargs: Dict[str, object] = {
            key: max(floor, int(round(value * scale)))
            for key, value in self.scalable.items()
        }
        if self.seed_kwarg is not None:
            resolved = seed if seed is not None else self.default_seed()
            if resolved is not None:
                kwargs[self.seed_kwarg] = resolved
        if len(self.backends) > 1:
            kwargs["backend"] = backend if backend is not None \
                else self.backends[0]
        if overrides:
            kwargs.update(overrides)
        # Overrides are the second door a backend can come through (the
        # bench harness passes one as a plain kwarg); validate the
        # final choice, not just the parameter.
        if "backend" in kwargs:
            chosen = kwargs["backend"]
            if len(self.backends) == 1:
                raise ValueError(
                    f"experiment {self.name!r} takes no backend kwarg "
                    f"(it only runs on the {self.backends[0]!r} backend)")
            if chosen == "auto":
                kwargs["backend"] = self.resolve_backend("auto").name
            elif chosen not in self.backends:
                raise self._unsupported_backend_error(chosen)
            elif chosen != "event":
                self.resolve_backend(chosen)
        return kwargs

    def _unsupported_backend_error(self, backend) -> ValueError:
        """Build the error for a forced-but-unsupported backend.

        The message keeps the familiar ``supports backend(s) ...``
        phrasing and appends the dispatcher's structured reason; the
        :class:`~repro.backends.BackendUnavailableError` carries the
        per-kernel :class:`~repro.backends.CapabilityMismatch` records
        for programmatic consumers.
        """
        detail, mismatches = "", {}
        try:
            self.resolve_backend(backend)
        except BackendUnavailableError as exc:
            detail = f": {exc}"
            mismatches = exc.mismatches
        except ValueError:
            pass
        return BackendUnavailableError(
            f"experiment {self.name!r} supports backend(s) "
            f"{', '.join(self.backends)}; not {backend!r}{detail}",
            mismatches)

    def run(self, *, scale: float = 1.0, seed: Optional[int] = None,
            jobs: Optional[int] = None,
            overrides: Optional[Mapping[str, object]] = None,
            minimum: Optional[int] = None,
            backend: Optional[str] = None,
            cache: Optional[ResultCache] = None,
            refresh: bool = False) -> RunReport:
        """Execute the runner (or serve its cached result).

        ``jobs`` shards the repetition loop across worker processes
        (see :mod:`repro.runtime.executor`); the result is identical
        for any job count.  ``None`` defers to the ambient
        :func:`~repro.runtime.executor.parallel_jobs` scope and the
        ``REPRO_JOBS`` environment variable.  ``backend`` selects
        the repetition backend: ``event``/``vector`` force one,
        ``auto`` lets the dispatcher pick the fastest eligible kernel
        — the *resolved* choice is what lands in the kwargs and the
        cache key, and the result meta records it (plus the structured
        fallback reason whenever ``auto`` had to settle for the event
        engine).  With a ``cache``, a hit skips the simulation
        entirely unless ``refresh`` forces a re-run; fresh results are
        stored back (annotation stays out of the stored payload — it
        describes the request, not the result).

        Chunking and the retry policy come from the ambient
        :func:`~repro.runtime.executor.chunked_reps` and
        :func:`~repro.runtime.executor.retry_policy` scopes; neither
        can change the result.  Any recovery actions the executor took
        are reported as ``report.failures`` and mirrored into
        ``result.meta["failures"]`` after the pristine payload is
        cached.
        """
        resolution: Optional[Resolution] = None
        if backend == "auto":
            resolution = self.resolve_backend("auto")
            backend = resolution.name
        kwargs = self.kwargs_for(scale=scale, seed=seed,
                                 overrides=overrides, minimum=minimum,
                                 backend=backend)
        key: Optional[str] = None
        if cache is not None:
            key = cache.key_for(self.name, kwargs)
            if not refresh:
                hit = cache.load(self.name, key)
                if hit is not None:
                    self._annotate_backend(hit, kwargs, resolution)
                    return RunReport(result=hit, kwargs=kwargs,
                                     cached=True, cache_key=key)
        scope = parallel_jobs(jobs) if jobs is not None else nullcontext()
        start = time.perf_counter()
        with scope, collect_failures() as failures:
            result = self.runner(**kwargs)
        elapsed = time.perf_counter() - start
        if cache is not None and key is not None:
            cache.store(self.name, key, kwargs, result)
        # Annotations happen after the store so the cached payload
        # stays pristine (bit-identical whether or not workers had to
        # be retried on this particular run).
        self._annotate_backend(result, kwargs, resolution)
        if failures:
            result.meta["failures"] = list(failures)
        return RunReport(result=result, kwargs=kwargs, cached=False,
                         cache_key=key, elapsed_s=elapsed,
                         failures=tuple(failures))

    def _annotate_backend(self, result: ExperimentResult,
                          kwargs: Mapping[str, object],
                          resolution: Optional[Resolution]) -> None:
        """Record the resolved backend (and why ``auto`` settled for it).

        ``meta["backend"]`` always names the backend that produced the
        result.  Two keys carry the structured reason an ``auto``
        request settled for something slower than the fastest tier,
        instead of the reason being silently swallowed:
        ``meta["backend_fallback"]`` when no kernel could run the
        scenario and the event engine ran, ``meta["backend_degraded"]``
        when the jit tier was skipped (numba missing) and the numpy
        kernels ran.
        """
        final = kwargs.get("backend", "event")
        result.meta.setdefault("backend", final)
        if resolution is not None and resolution.fallback \
                and final == "event":
            result.meta["backend_fallback"] = resolution.fallback
        elif resolution is not None and resolution.degraded \
                and final == resolution.name:
            result.meta["backend_degraded"] = resolution.degraded


# ----------------------------------------------------------------------
# The registry proper
# ----------------------------------------------------------------------

_EXPERIMENTS: Dict[str, Experiment] = {}


def register(experiment: Experiment) -> Experiment:
    """Add ``experiment`` to the registry (name must be unused)."""
    if experiment.name in _EXPERIMENTS:
        raise ValueError(f"experiment {experiment.name!r} already registered")
    _EXPERIMENTS[experiment.name] = experiment
    return experiment


def unregister(name: str) -> None:
    """Remove ``name`` from the registry (tests use this)."""
    _EXPERIMENTS.pop(name, None)


def get(name: str) -> Experiment:
    """Look up one experiment; raises ``KeyError`` with suggestions."""
    try:
        return _EXPERIMENTS[name]
    except KeyError:
        raise KeyError(
            f"unknown experiment {name!r}; available: "
            f"{', '.join(names())}") from None


def names() -> List[str]:
    """Registered experiment names, in registration order."""
    return list(_EXPERIMENTS)


def experiments() -> List[Experiment]:
    """All registered experiments, in registration order."""
    return list(_EXPERIMENTS.values())


# ----------------------------------------------------------------------
# Scenario vocabulary of the builtin experiments.  These are the
# *declared workloads* the backend dispatcher matches kernel
# capabilities against; which experiments end up dual-backend is
# derived from them, never listed by hand.
# ----------------------------------------------------------------------

#: Probe trains against Poisson contenders — the paper's main setting.
_WLAN_TRAIN = ScenarioSpec(system="wlan", workload="train",
                           cross_traffic="poisson")

#: The same with Poisson FIFO cross-traffic sharing the probe queue.
_WLAN_TRAIN_FIFO = ScenarioSpec(system="wlan", workload="train",
                                cross_traffic="poisson",
                                fifo_cross="poisson")

#: Steady-state CBR probing flow (figures 1 and 4).
_WLAN_STEADY = ScenarioSpec(system="wlan", workload="steady-cbr",
                            cross_traffic="poisson")
_WLAN_STEADY_FIFO = ScenarioSpec(system="wlan", workload="steady-cbr",
                                 cross_traffic="poisson",
                                 fifo_cross="poisson")


def _register_builtins() -> None:
    """Populate the registry with every runner the paper needs."""
    builtin: List[Tuple[str, Callable[..., ExperimentResult],
                        Dict[str, int], str,
                        Optional[ScenarioSpec]]] = [
        ("fig1", analysis.fig1_rate_response, {"repetitions": 3}, "figure",
         _WLAN_STEADY),
        ("fig4", analysis.fig4_complete_picture, {"repetitions": 3},
         "figure", _WLAN_STEADY_FIFO),
        ("fig6", analysis.fig6_mean_access_delay, {"repetitions": 400},
         "figure", _WLAN_TRAIN),
        ("fig7", analysis.fig7_delay_histograms, {"repetitions": 500},
         "figure", _WLAN_TRAIN),
        ("fig8", analysis.fig8_ks_and_queue, {"repetitions": 400}, "figure",
         ScenarioSpec(system="wlan", workload="train",
                      cross_traffic="poisson", queue_traces=True)),
        ("fig9", analysis.fig9_ks_complex, {"repetitions": 400}, "figure",
         _WLAN_TRAIN),
        ("fig10", analysis.fig10_transient_duration, {"repetitions": 300},
         "figure", _WLAN_TRAIN),
        ("fig13", analysis.fig13_short_trains, {"repetitions": 80},
         "figure", _WLAN_TRAIN),
        ("fig15", analysis.fig15_short_trains_fifo, {"repetitions": 80},
         "figure", _WLAN_TRAIN_FIFO),
        ("fig16", analysis.fig16_packet_pair, {"pair_repetitions": 400},
         "figure", _WLAN_TRAIN),
        ("fig17", analysis.fig17_mser, {"repetitions": 150}, "figure",
         _WLAN_TRAIN),
        ("eq1", analysis.eq1_fifo_rate_response, {"repetitions": 40},
         "baseline",
         ScenarioSpec(system="fifo", workload="train",
                      cross_traffic="poisson")),
        ("bounds", analysis.bounds_consistency, {"repetitions": 300},
         "baseline", _WLAN_TRAIN),
        ("ablation-bianchi", analysis.ablation_bianchi_calibration,
         {"repetitions": 3}, "ablation",
         ScenarioSpec(system="wlan", workload="steady-cbr",
                      cross_traffic="cbr")),
        ("ablation-immediate-access", analysis.ablation_immediate_access,
         {"repetitions": 250}, "ablation", _WLAN_TRAIN),
        ("ablation-ks", analysis.ablation_ks_methods,
         {"repetitions": 300}, "ablation", _WLAN_TRAIN),
        ("ablation-rts", analysis.ablation_rts_cts,
         {"repetitions": 200}, "ablation",
         ScenarioSpec(system="wlan", workload="train",
                      cross_traffic="poisson", rts_cts=True)),
        ("ablation-truncation", analysis.ablation_truncation_heuristics,
         {"repetitions": 150}, "ablation", _WLAN_TRAIN),
        ("ext-tool-convergence", analysis.tool_convergence_study,
         {"repetitions": 10}, "extension", _WLAN_TRAIN),
        ("ext-b-vs-n", analysis.transient_b_vs_n,
         {"repetitions": 300}, "extension", _WLAN_TRAIN),
        ("ext-topp", analysis.topp_on_wlan_study,
         {"repetitions": 8}, "extension", _WLAN_TRAIN),
        ("ext-multihop", analysis.multihop_access_path_study,
         {"repetitions": 20}, "extension",
         ScenarioSpec(system="path", workload="train",
                      cross_traffic="poisson")),
    ]
    for name, runner, scalable, group, scenario in builtin:
        register(Experiment(name=name, runner=runner, scalable=scalable,
                            group=group, scenario=scenario))
    register(Experiment(
        name="ext-saturation",
        runner=analysis.dcf_saturation_study,
        scalable={"repetitions": 100},
        group="extension",
        scenario=ScenarioSpec(system="wlan", workload="saturated"),
    ))
    register(Experiment(
        name="ext-retry-limit",
        runner=analysis.retry_limit_study,
        scalable={"repetitions": 100},
        group="extension",
        scenario=ScenarioSpec(system="wlan", workload="saturated",
                              retry_limit=True),
    ))
    register(Experiment(
        name="ext-onoff",
        runner=analysis.onoff_cross_study,
        scalable={"repetitions": 150},
        group="extension",
        scenario=ScenarioSpec(system="wlan", workload="train",
                              cross_traffic="onoff"),
    ))


_register_builtins()

#: Experiments whose batches the dispatcher can route to a vectorized
#: numpy kernel (``--backend vector`` / the ``auto`` fast path).
#: *Derived* from the declared scenarios and the kernels' capabilities
#: — never hand-maintained; ``tools/check_backend_coverage.py`` holds
#: it against ``benchmarks/results/backend_coverage.json`` so coverage
#: can only grow.
VECTOR_EXPERIMENTS = frozenset(
    experiment.name for experiment in _EXPERIMENTS.values()
    if "vector" in experiment.backends)
