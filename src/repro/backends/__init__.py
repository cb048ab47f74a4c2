"""Capability-based backend dispatch.

The subsystem that decides *which execution engine runs a repetition
batch*: scenarios are described declaratively
(:class:`~repro.backends.spec.ScenarioSpec`), backends advertise what
they support (:class:`~repro.backends.base.Backend` /
:class:`~repro.backends.spec.Capabilities`), and the dispatcher
(:mod:`repro.backends.dispatch`) matches the two — ``auto`` picks the
fastest eligible kernel and records any fallback reason instead of
swallowing it.

Layering: this package sits between the simulation kernels and the
runtime.  It imports nothing from :mod:`repro.runtime`,
:mod:`repro.testbed` or :mod:`repro.analysis`; those layers call *into*
it (the event backend reaches the executor through a lazy import).
"""

from repro.backends.base import (
    Backend,
    BatchRequest,
    CallerKernelBackend,
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
from repro.backends.dispatch import (
    BACKENDS,
    BackendUnavailableError,
    CALLER_KERNEL,
    EVENT,
    REQUESTABLE,
    Resolution,
    eligible,
    explain,
    family_names,
    resolve,
    vector_mismatch_reason,
)
from repro.backends.spec import (
    Capabilities,
    CapabilityMismatch,
    EVENT_ONLY,
    ScenarioSpec,
)

__all__ = [
    "BACKENDS",
    "Backend",
    "BackendUnavailableError",
    "BatchRequest",
    "CALLER_KERNEL",
    "CallerKernelBackend",
    "Capabilities",
    "CapabilityMismatch",
    "EVENT",
    "EVENT_ONLY",
    "EventBackend",
    "FAMILIES",
    "KERNEL_FAMILIES",
    "LindleyJitBackend",
    "LindleyVectorBackend",
    "PathVectorBackend",
    "ProbeTrainJitBackend",
    "ProbeTrainVectorBackend",
    "REQUESTABLE",
    "Resolution",
    "SaturatedJitBackend",
    "SaturatedVectorBackend",
    "ScenarioSpec",
    "eligible",
    "explain",
    "family_names",
    "resolve",
    "vector_mismatch_reason",
]
