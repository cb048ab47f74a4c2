"""Declarative scenario descriptions for backend dispatch.

A :class:`ScenarioSpec` is the contract between an experiment (or a
:class:`repro.testbed.channel.Channel`) and the backend dispatcher: it
names every scenario property a kernel could be sensitive to — the
system under test, the probing workload, the cross-traffic model,
RTS/CTS, retry limits, queue-trace needs — without referencing any
concrete simulator object.  Backends advertise what they support as a
:class:`Capabilities` value over the same vocabulary, and the
dispatcher (:mod:`repro.backends.dispatch`) matches the two.

A failed match is never a bare string: :meth:`Capabilities.mismatches`
returns structured :class:`CapabilityMismatch` records naming the
capability, what the scenario requires and what the backend supports —
the dispatcher threads these into fallback reasons, error messages and
``--explain-backend`` output.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, List

#: Valid ``ScenarioSpec.system`` values.
SYSTEMS = ("wlan", "fifo", "path", "other")

#: Valid ``ScenarioSpec.workload`` values.  Packet pairs are trains of
#: two packets; ``steady-cbr`` is a CBR flow measured in steady state;
#: ``saturated`` is the Bianchi regime (every queue backlogged);
#: ``sequence`` shares one live system across trains.
WORKLOADS = ("train", "steady-cbr", "saturated", "sequence", "other")

#: Valid traffic-model values (``cross_traffic`` / ``fifo_cross``).
TRAFFIC_MODELS = ("none", "poisson", "cbr", "onoff", "mixed", "other")


@dataclass(frozen=True)
class ScenarioSpec:
    """Everything the dispatcher needs to know about one scenario.

    Attributes
    ----------
    system:
        What carries the probing traffic: a contended DCF BSS
        (``wlan``), a wired FIFO hop (``fifo``), a multi-hop path
        (``path``) or anything else (``other``).
    workload:
        The probing workload shape (see :data:`WORKLOADS`).
    cross_traffic:
        Traffic model of the contending stations.
    fifo_cross:
        Traffic model of cross-traffic sharing the probe sender's
        transmission queue (``none`` when there is none).
    rts_cts / retry_limit / queue_traces:
        Protocol and observability features the scenario needs.
    cross_detail / fifo_detail:
        Optional human sentence sharpening an unsupported traffic
        model (e.g. which station carries it); surfaced verbatim in
        mismatch messages.
    """

    system: str = "wlan"
    workload: str = "train"
    cross_traffic: str = "none"
    fifo_cross: str = "none"
    rts_cts: bool = False
    retry_limit: bool = False
    queue_traces: bool = False
    cross_detail: str = ""
    fifo_detail: str = ""

    def __post_init__(self) -> None:
        if self.system not in SYSTEMS:
            raise ValueError(
                f"unknown system {self.system!r}; expected one of {SYSTEMS}")
        if self.workload not in WORKLOADS:
            raise ValueError(
                f"unknown workload {self.workload!r}; "
                f"expected one of {WORKLOADS}")
        for field_name in ("cross_traffic", "fifo_cross"):
            value = getattr(self, field_name)
            if value not in TRAFFIC_MODELS:
                raise ValueError(
                    f"unknown {field_name} {value!r}; "
                    f"expected one of {TRAFFIC_MODELS}")


#: The spec the dispatcher assumes when an experiment declares none:
#: nothing is known about the scenario, so only the event engine (which
#: supports everything) is eligible.
EVENT_ONLY = ScenarioSpec(system="other", workload="other",
                          cross_traffic="other")


@dataclass(frozen=True)
class CapabilityMismatch:
    """One reason a backend cannot run a scenario.

    ``str(mismatch)`` renders the human sentence (``detail``); the
    structured fields exist so tooling can group and test on them
    without parsing prose.
    """

    capability: str
    required: str
    supported: str
    detail: str

    def __str__(self) -> str:
        return self.detail


@dataclass(frozen=True)
class Capabilities:
    """What one backend supports, over the :class:`ScenarioSpec` axes.

    Set-valued axes name the accepted values; boolean axes state
    whether the feature is supported at all (the event engine supports
    everything, kernels typically nothing).
    """

    systems: FrozenSet[str] = frozenset(SYSTEMS)
    workloads: FrozenSet[str] = frozenset(WORKLOADS)
    cross_traffic: FrozenSet[str] = frozenset(TRAFFIC_MODELS)
    fifo_cross: FrozenSet[str] = frozenset(TRAFFIC_MODELS)
    rts_cts: bool = True
    retry_limit: bool = True
    queue_traces: bool = True

    def mismatches(self, spec: ScenarioSpec) -> List[CapabilityMismatch]:
        """Structured reasons ``spec`` does not fit; empty = eligible.

        Check order is stable (system, workload, queue traces, RTS,
        retry limit, cross-traffic, FIFO cross-traffic) so the *first*
        mismatch is deterministic — fallback reasons depend on it.
        """
        found: List[CapabilityMismatch] = []
        if spec.system not in self.systems:
            found.append(CapabilityMismatch(
                "system", spec.system, ", ".join(sorted(self.systems)),
                f"no batched kernel models the {spec.system!r} system"))
        if spec.workload not in self.workloads:
            found.append(CapabilityMismatch(
                "workload", spec.workload,
                ", ".join(sorted(self.workloads)),
                f"the {spec.workload!r} workload requires the event "
                "engine"))
        if spec.queue_traces and not self.queue_traces:
            found.append(CapabilityMismatch(
                "queue_traces", "true", "false",
                "queue traces require the event engine"))
        if spec.rts_cts and not self.rts_cts:
            found.append(CapabilityMismatch(
                "rts_cts", "true", "false",
                "RTS/CTS protection requires the event engine"))
        if spec.retry_limit and not self.retry_limit:
            found.append(CapabilityMismatch(
                "retry_limit", "true", "false",
                "a retry limit requires the event engine"))
        if spec.cross_traffic not in self.cross_traffic:
            detail = spec.cross_detail or (
                f"{spec.cross_traffic} cross-traffic has no batched "
                "sampler; run this scenario with backend='event'")
            found.append(CapabilityMismatch(
                "cross_traffic", spec.cross_traffic,
                ", ".join(sorted(self.cross_traffic)), detail))
        if spec.fifo_cross not in self.fifo_cross:
            detail = spec.fifo_detail or (
                f"{spec.fifo_cross} FIFO cross-traffic has no batched "
                "sampler; run this scenario with backend='event'")
            found.append(CapabilityMismatch(
                "fifo_cross", spec.fifo_cross,
                ", ".join(sorted(self.fifo_cross)), detail))
        return found
