"""Property-based scenario generation for the differential harness.

Every hand-written KS pin checks one operating point of one kernel.
This module turns backend equivalence into a *generative* property:
:func:`scenario_cases` samples runnable WLAN channel configurations —
probe train shape, cross-traffic mix (Poisson/CBR/on-off, occasionally
an event-only trace replay), FIFO sharing, RTS/CTS, retry caps, the
immediate-access rule — and the differential runner
(``tests/test_differential_harness.py``) resolves each through
``repro.backends.dispatch`` and KS-compares the eligible kernel
against the event engine at matched seeds.

hypothesis is optional: when it is not installed ``HAS_HYPOTHESIS``
is ``False``, :func:`scenario_cases` is ``None`` and the differential
tests skip.

The bounds below are deliberate, not incidental:

* offered load stays under the 802.11b MAC capacity so trains drain
  and horizons stay short;
* ``retry_limit`` is drawn from {None, 6} — the event channel raises
  on a lost *probe* packet, and at these contention levels a cap of 6
  makes probe drops ~1e-6 while still exercising the retry counters;
* on-off periods are in the tens of milliseconds so a train actually
  straddles ON/OFF transitions.
"""

from dataclasses import dataclass
from typing import Optional, Tuple

try:
    from hypothesis import strategies as st
    HAS_HYPOTHESIS = True
except ImportError:  # pragma: no cover - exercised in the smoke lane
    st = None
    HAS_HYPOTHESIS = False

from repro.testbed.channel import SimulatedWlanChannel
from repro.traffic.generators import (
    CBRGenerator,
    OnOffGenerator,
    PoissonGenerator,
    TraceGenerator,
)
from repro.traffic.probe import ProbeTrain

L = 1500

#: Mean-rate pool (bps) for one cross station.
CROSS_RATES = (1e6, 1.5e6, 2e6)

#: Probe-rate pool (bps).
PROBE_RATES = (2e6, 3e6, 4e6, 5e6)


@dataclass(frozen=True)
class ScenarioCase:
    """One runnable channel/train configuration plus its seed."""

    n_probe: int
    probe_rate_bps: float
    #: ``(kind, mean_rate_bps)`` per contending station; kinds are
    #: ``poisson`` / ``cbr`` / ``onoff`` / ``trace`` (event-only).
    cross: Tuple[Tuple[str, float], ...]
    onoff_scale: float
    fifo_rate_bps: Optional[float]
    rts: bool
    retry_limit: Optional[int]
    immediate_access: bool
    seed: int

    def _generator(self, kind: str, rate: float):
        if kind == "poisson":
            return PoissonGenerator(rate, L)
        if kind == "cbr":
            return CBRGenerator(rate, L)
        if kind == "onoff":
            # 50% duty cycle: peak = 2 x mean rate.
            return OnOffGenerator(2 * rate, self.onoff_scale,
                                  self.onoff_scale, L)
        if kind == "trace":
            gap = L * 8 / rate
            return TraceGenerator(
                [(0.05 + k * gap, L) for k in range(40)])
        raise ValueError(f"unknown cross kind {kind!r}")

    def build_channel(self) -> SimulatedWlanChannel:
        stations = [(f"x{i}-{kind}", self._generator(kind, rate))
                    for i, (kind, rate) in enumerate(self.cross)]
        fifo = (PoissonGenerator(self.fifo_rate_bps, L, flow="fifo")
                if self.fifo_rate_bps is not None else None)
        return SimulatedWlanChannel(
            stations, fifo_cross=fifo, warmup=0.1,
            rts_threshold=0 if self.rts else None,
            retry_limit=self.retry_limit,
            immediate_access=self.immediate_access)

    def train(self) -> ProbeTrain:
        return ProbeTrain.at_rate(self.n_probe, self.probe_rate_bps, L)

    @property
    def event_only(self) -> bool:
        return any(kind == "trace" for kind, _ in self.cross)


if HAS_HYPOTHESIS:

    @st.composite
    def scenario_cases(draw) -> ScenarioCase:
        """A bounded, runnable :class:`ScenarioCase`.

        Every drawn configuration keeps the offered load under
        capacity and finishes a 30-repetition differential comparison
        in well under a second per backend.
        """
        n_probe = draw(st.integers(min_value=8, max_value=20))
        probe_rate = draw(st.sampled_from(PROBE_RATES))
        n_cross = draw(st.integers(min_value=0, max_value=2))
        kind_pool = ("poisson", "cbr", "onoff", "onoff", "poisson",
                     "cbr", "onoff", "trace")
        cross = tuple(
            (draw(st.sampled_from(kind_pool)),
             draw(st.sampled_from(CROSS_RATES)))
            for _ in range(n_cross))
        # Keep the aggregate mean load under ~6 Mb/s (802.11b MAC
        # capacity for 1500 B frames): drop the probe rate if needed.
        load = probe_rate + sum(rate for _, rate in cross)
        if load > 6e6:
            probe_rate = PROBE_RATES[0]
        onoff_scale = draw(st.sampled_from((0.02, 0.05, 0.1)))
        fifo_rate = draw(st.sampled_from((None, 0.5e6, 1e6)))
        rts = draw(st.booleans())
        retry_limit = draw(st.sampled_from((None, 6)))
        immediate_access = draw(st.booleans())
        seed = draw(st.integers(min_value=0, max_value=2 ** 20))
        return ScenarioCase(
            n_probe=n_probe, probe_rate_bps=probe_rate, cross=cross,
            onoff_scale=onoff_scale, fifo_rate_bps=fifo_rate, rts=rts,
            retry_limit=retry_limit, immediate_access=immediate_access,
            seed=seed)

else:  # pragma: no cover - exercised in the smoke lane
    scenario_cases = None
