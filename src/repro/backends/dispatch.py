"""Capability-matching backend dispatcher.

Given a :class:`repro.backends.spec.ScenarioSpec` and a requested
backend (``auto``, ``event``, ``vector`` or ``jit``), :func:`resolve`
picks the concrete :class:`repro.backends.base.Backend` that will
execute the batch:

* ``auto`` — the fastest eligible *and available* backend (the jit
  tier outranks the numpy kernels, which outrank the event engine);
  when every kernel is ineligible the event engine wins and the
  *reason* is recorded as :attr:`Resolution.fallback` instead of being
  swallowed, and when a faster tier is merely unavailable (numba
  missing) the pick degrades to the numpy tier with the reason
  recorded as :attr:`Resolution.degraded`;
* ``event`` / ``vector`` / ``jit`` — force the family; forcing a
  kernel family on an ineligible scenario raises
  :class:`BackendUnavailableError` carrying the structured
  :class:`~repro.backends.spec.CapabilityMismatch` records, and
  forcing ``jit`` without numba raises it with a dependency mismatch
  ("numba not installed").

Resolution is a pure function of ``(spec, requested)`` and the
installed optional dependencies — no clocks, no ambient job count — so
``auto`` picks the same backend under any ``--jobs`` value and on
every worker, which the result-cache key relies on.

Every channel batch pays one resolution, so :func:`resolve` only does
the work its answer needs: a forced family scans that family's
kernels, and the per-kernel rejection list is built only when it
becomes a fallback reason or an error (``--explain-backend`` builds it
itself, see :func:`explain`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.backends.base import (
    Backend,
    EventBackend,
    FAMILIES,
    KERNEL_FAMILIES,
    LindleyJitBackend,
    LindleyVectorBackend,
    PathVectorBackend,
    ProbeTrainJitBackend,
    ProbeTrainVectorBackend,
    SaturatedJitBackend,
    SaturatedVectorBackend,
)
from repro.backends.spec import (
    CapabilityMismatch,
    EVENT_ONLY,
    ScenarioSpec,
)

#: Backend choices a caller may request (concrete families + auto).
REQUESTABLE = ("auto",) + FAMILIES

#: The singleton event backend (the universal fallback).
EVENT = EventBackend()

#: Every backend; ``auto`` scans these sorted by speed rank (the jit
#: tier first, then the numpy kernels, then the event engine).  The
#: declaration order matters twice: the path kernel precedes the
#: Lindley kernel so that, on a path scenario some hop disqualifies,
#: the nearest-miss tie break (:func:`_closest_reason`) surfaces the
#: hop's own detail sentence rather than the Lindley kernel's generic
#: system mismatch — and the jit twins sit *after* the numpy kernels
#: so the same tie break keeps preferring the numpy kernels' labels.
BACKENDS: Tuple[Backend, ...] = (
    ProbeTrainVectorBackend(),
    SaturatedVectorBackend(),
    PathVectorBackend(),
    LindleyVectorBackend(),
    ProbeTrainJitBackend(),
    SaturatedJitBackend(),
    LindleyJitBackend(),
    EVENT,
)


class BackendUnavailableError(ValueError):
    """A forced backend cannot run the scenario.

    ``mismatches`` maps each rejected kernel label to its structured
    :class:`~repro.backends.spec.CapabilityMismatch` records, so
    callers (and tests) can inspect *why* without parsing the message.
    """

    def __init__(self, message: str,
                 mismatches: Dict[str, Tuple[CapabilityMismatch, ...]]):
        super().__init__(message)
        self.mismatches = mismatches


@dataclass(frozen=True)
class Resolution:
    """Outcome of one dispatch decision."""

    requested: str
    backend: Backend
    #: Why ``auto`` fell back to the event engine (``None`` when a
    #: kernel was picked or the caller forced ``event``).
    fallback: Optional[str]
    #: Why ``auto`` skipped a faster-but-unavailable tier for this
    #: pick (e.g. the jit tier without numba); ``None`` when the
    #: fastest capable backend was also available.  Distinct from
    #: ``fallback``, which means "no kernel at all".
    degraded: Optional[str] = None

    @property
    def name(self) -> str:
        """CLI-facing family name of the chosen backend."""
        return self.backend.name

    @property
    def kernel(self) -> str:
        """Human label of the chosen kernel."""
        return self.backend.kernel

    def describe(self) -> str:
        """One line for ``--explain-backend`` output."""
        line = f"{self.requested} -> {self.name} ({self.kernel})"
        if self.fallback:
            line += f"  [fallback: {self.fallback}]"
        if self.degraded:
            line += f"  [degraded: {self.degraded}]"
        return line


def eligible(spec: ScenarioSpec, *,
             assume_available: bool = False) -> List[Backend]:
    """Backends that can run ``spec``, fastest-preference first.

    Ordered by :attr:`Backend.speed_rank` (stable, so declaration
    order breaks ties) — this ordering is what ``auto`` picks from.
    ``assume_available=True`` keeps backends whose optional dependency
    is missing: capability questions ("could this scenario ride the
    jit tier?") must answer the same on every machine, so coverage
    manifests and :func:`family_names` never depend on what happens to
    be installed here.
    """
    found = [backend for backend in BACKENDS
             if not backend.mismatches(spec)]
    if not assume_available:
        found = [backend for backend in found
                 if backend.unavailable_reason() is None]
    return sorted(found, key=lambda backend: backend.speed_rank)


def family_names(spec: ScenarioSpec) -> Tuple[str, ...]:
    """Supported CLI families for ``spec`` (``event`` always; first).

    This is what :attr:`repro.runtime.registry.Experiment.backends`
    derives its value from — the hand-maintained frozenset it replaced
    listed exactly these names.  Capability-only (missing optional
    dependencies do not shrink it): the answer is a property of the
    scenario, not of the machine.
    """
    names = {backend.name
             for backend in eligible(spec, assume_available=True)}
    return tuple(f for f in FAMILIES if f in names)


def _rejections(spec: ScenarioSpec) -> Tuple[
        Tuple[str, Tuple[CapabilityMismatch, ...]], ...]:
    """``(kernel label, mismatches)`` of every ineligible kernel."""
    out = []
    for backend in BACKENDS:
        if backend is EVENT:
            continue
        found = backend.mismatches(spec)
        if found:
            out.append((backend.kernel, tuple(found)))
    return tuple(out)


def _closest_reason(rejected) -> str:
    """The most informative single-line fallback reason.

    The kernel with the *fewest* mismatches was the nearest miss; its
    first mismatch names the one capability that kept the scenario on
    the event engine.
    """
    if not rejected:
        return ""
    _, mismatches = min(rejected, key=lambda item: len(item[1]))
    return str(mismatches[0])


def resolve(spec: Optional[ScenarioSpec],
            requested: str = "auto") -> Resolution:
    """Pick the backend for ``spec``; see the module docstring.

    ``spec=None`` means "nothing declared": only the event engine is
    eligible (an undeclared scenario must never silently ride a
    kernel), so ``auto`` records that as the fallback reason and a
    forced ``vector`` raises.
    """
    if requested not in REQUESTABLE:
        raise ValueError(
            f"unknown backend {requested!r}; "
            f"expected one of {REQUESTABLE}")
    if spec is None:
        spec = EVENT_ONLY
    if requested == "event":
        return Resolution(requested, EVENT, None)
    if requested in KERNEL_FAMILIES:
        capable = [backend for backend in BACKENDS
                   if backend.name == requested
                   and not backend.mismatches(spec)]
        if not capable:
            rejected = _rejections(spec)
            raise BackendUnavailableError(
                f"no {requested} kernel supports this scenario: "
                f"{_closest_reason(rejected)}",
                dict(rejected))
        ready = [backend for backend in capable
                 if backend.unavailable_reason() is None]
        if not ready:
            # Capable but not runnable here: a missing optional
            # dependency, reported as a structured mismatch rather
            # than leaking an ImportError from the kernel.
            reason = capable[0].unavailable_reason()
            unavailable = {backend.kernel: (CapabilityMismatch(
                "dependency", "numba", "not installed", reason),)
                for backend in capable}
            raise BackendUnavailableError(
                f"the {requested} backend cannot run here: {reason}",
                unavailable)
        return Resolution(requested, ready[0], None)
    # auto: fastest capable-and-available kernel, else event + reason;
    # a capable-but-unavailable faster tier is recorded as degradation.
    capable = [backend
               for backend in eligible(spec, assume_available=True)
               if backend is not EVENT]
    ready = [backend for backend in capable
             if backend.unavailable_reason() is None]
    if ready:
        degraded = None
        if capable[0] is not ready[0]:
            degraded = (f"{capable[0].kernel} skipped: "
                        f"{capable[0].unavailable_reason()}")
        return Resolution(requested, ready[0], None, degraded)
    return Resolution(requested, EVENT,
                      _closest_reason(_rejections(spec)))


def fusion_key(resolution: Resolution) -> Tuple[str, str]:
    """The cross-point fusion key of one dispatch decision.

    Two sweep points may share an execution group exactly when their
    resolutions name the same backend family *and* concrete kernel —
    the pair the sweep planner groups grid points by.
    """
    return (resolution.name, resolution.kernel)


def explain(spec: Optional[ScenarioSpec], requested: str = "auto") -> str:
    """Multi-line dispatch explanation (``--explain-backend``).

    Never raises: a forced-but-ineligible request renders the
    structured reasons instead.
    """
    try:
        resolution = resolve(spec, requested)
    except BackendUnavailableError as exc:
        lines = [f"{requested} -> ERROR: {exc}"]
        for kernel, mismatches in exc.mismatches.items():
            for mismatch in mismatches:
                lines.append(f"    {kernel}: {mismatch} "
                             f"[{mismatch.capability}: needs "
                             f"{mismatch.required}, supports "
                             f"{mismatch.supported}]")
        return "\n".join(lines)
    lines = [resolution.describe()]
    for kernel, mismatches in _rejections(
            EVENT_ONLY if spec is None else spec):
        for mismatch in mismatches:
            lines.append(f"    {kernel}: {mismatch}")
    return "\n".join(lines)
