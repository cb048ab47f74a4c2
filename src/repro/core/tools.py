"""Higher-level measurement tools from the literature.

The paper's section 7.2 argues that available-bandwidth tools designed
for FIFO links (pathload-style iterative probing, SLoPS) actually
converge to the *achievable throughput* when run over CSMA/CA links.
This module implements such a tool so the claim is machine-checkable:

* :class:`IterativeProbeTool` — binary search for the largest rate at
  which the probing flow is undisturbed (``L/E[g_O] ~ r_i``), the core
  decision logic of pathload-like tools; :func:`search_lockstep` runs
  several such searches with one fused probing scan per round;
* :func:`slops_trend` — the one-way-delay trend detector (pairwise
  comparison + deviation tests) that pathload uses to classify a
  single train as "above" or "below" the turning point.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (TYPE_CHECKING, Generator, List, Optional, Sequence,
                    Tuple)

import numpy as np

from repro.core.dispersion import TrainMeasurement
from repro.core.estimators import train_dispersion_rate
from repro.traffic.probe import ProbeTrain

if TYPE_CHECKING:  # pragma: no cover - avoids a circular import
    from repro.testbed.prober import Prober


def slops_trend(measurement: TrainMeasurement,
                pct_threshold: float = 0.55,
                pdt_threshold: float = 0.4) -> str:
    """Classify a train's one-way-delay trend (SLoPS).

    Implements pathload's two trend statistics over the relative
    one-way delays ``D_i = d_i - a_i``:

    * PCT (pairwise comparison test): fraction of consecutive pairs
      with ``D_{i+1} > D_i`` — near 1 for an increasing trend, near 0.5
      for noise;
    * PDT (pairwise difference test): ``(D_n - D_1) / sum |D_{i+1} -
      D_i|`` — near 1 for increasing, near 0 for noise.

    Returns ``"increasing"`` (probing above the turning point),
    ``"no-trend"``, or ``"ambiguous"`` when the two tests disagree.
    """
    delays = measurement.one_way_delays
    diffs = np.diff(delays)
    if len(diffs) == 0:
        raise ValueError("need at least two packets")
    denominator = float(np.sum(np.abs(diffs)))
    pct = float(np.mean(diffs > 0))
    pdt = (float(delays[-1] - delays[0]) / denominator
           if denominator > 0 else 0.0)
    pct_up = pct > pct_threshold
    pdt_up = pdt > pdt_threshold
    if pct_up and pdt_up:
        return "increasing"
    if not pct_up and not pdt_up:
        return "no-trend"
    return "ambiguous"


@dataclass
class IterativeProbeResult:
    """Outcome of an iterative (pathload-style) rate search."""

    estimate_bps: float
    low_bps: float
    high_bps: float
    iterations: int
    history: List[dict] = field(default_factory=list)


class IterativeProbeTool:
    """Binary search for the turning-point rate of a path.

    On a FIFO path this converges to the available bandwidth A; on a
    CSMA/CA path it converges to the achievable throughput B — which is
    precisely the paper's point about reusing wired tools unchanged.

    Parameters
    ----------
    prober:
        A configured :class:`repro.testbed.prober.Prober`.
    n:
        Train length per iteration.
    repetitions:
        Trains per rate decision.
    disturbance_tolerance:
        A rate is "disturbed" when ``L/E[g_O] < (1 - tol) * r_i``.
    """

    def __init__(self, prober: "Prober", n: int = 50, repetitions: int = 10,
                 disturbance_tolerance: float = 0.08) -> None:
        if n < 2 or repetitions < 1:
            raise ValueError("need n >= 2 and repetitions >= 1")
        if not 0 < disturbance_tolerance < 1:
            raise ValueError("tolerance must be in (0, 1)")
        self.prober = prober
        self.n = n
        self.repetitions = repetitions
        self.disturbance_tolerance = disturbance_tolerance

    def _disturbed(self, rate_bps: float,
                   measurements: Sequence[TrainMeasurement]) -> bool:
        """Whether the trains probed at ``rate_bps`` exceed the knee."""
        output = train_dispersion_rate(measurements)
        return output < (1 - self.disturbance_tolerance) * rate_bps

    def _steps(self, low_bps: float, high_bps: float,
               resolution_bps: float, max_iterations: int, seed: int
               ) -> Generator[Tuple[float, int], bool,
                              IterativeProbeResult]:
        """The search, one probe at a time: yields each ``(rate,
        seed)`` to probe, is sent whether that rate was disturbed, and
        returns the result.  The arguments are checked on the first
        step, before any probe."""
        if low_bps <= 0 or high_bps <= low_bps:
            raise ValueError("need 0 < low < high")
        if resolution_bps <= 0:
            raise ValueError("resolution must be positive")
        history: List[dict] = []
        iterations = 0
        if (yield low_bps, seed):
            # The knee is below the bracket; report the floor.
            return IterativeProbeResult(
                estimate_bps=low_bps, low_bps=0.0, high_bps=low_bps,
                iterations=0, history=history)
        while not (yield high_bps, seed + 1):
            history.append({"rate": high_bps, "disturbed": False})
            high_bps *= 1.5
            iterations += 1
            if iterations >= max_iterations:
                return IterativeProbeResult(
                    estimate_bps=high_bps, low_bps=high_bps,
                    high_bps=float("inf"), iterations=iterations,
                    history=history)
        while (high_bps - low_bps > resolution_bps
               and iterations < max_iterations):
            mid = (low_bps + high_bps) / 2
            disturbed = yield mid, seed + 2 + iterations
            history.append({"rate": mid, "disturbed": disturbed})
            if disturbed:
                high_bps = mid
            else:
                low_bps = mid
            iterations += 1
        return IterativeProbeResult(
            estimate_bps=(low_bps + high_bps) / 2,
            low_bps=low_bps, high_bps=high_bps,
            iterations=iterations, history=history)

    def search(self, low_bps: float, high_bps: float,
               resolution_bps: float = 0.25e6,
               max_iterations: int = 12,
               seed: int = 0) -> IterativeProbeResult:
        """Binary-search the turning point within ``[low, high]``.

        ``low`` must be an undisturbed rate and ``high`` a disturbed
        one (both are verified first and the bracket is widened upward
        if needed).  The :func:`search_lockstep` of this tool alone.
        """
        return search_lockstep([self], low_bps, high_bps, [seed],
                               resolution_bps, max_iterations)[0]


def search_lockstep(tools: Sequence[IterativeProbeTool], low_bps: float,
                    high_bps: float, seeds: Sequence[int],
                    resolution_bps: float = 0.25e6,
                    max_iterations: int = 12
                    ) -> List[IterativeProbeResult]:
    """One :meth:`IterativeProbeTool.search` per tool, in lockstep.

    Tool ``k`` searches ``[low, high]`` from ``seeds[k]``.  Each round
    probes the next rate of every search still running as one fused
    scan (:func:`repro.testbed.prober.measure_points`, each tool's
    prober stamping its own trains), so a kernel backend resolves a
    round in one call; a search's probes, and hence its result, are
    exactly those of its own :meth:`~IterativeProbeTool.search` when
    no two tools share a prober's clocks.  The tools must share their
    train length and repetitions, and their probers' channels must
    form one scan (see :func:`repro.testbed.channel.scan_request`).
    """
    # Imported lazily: repro.testbed sits above this module.
    from repro.testbed.prober import measure_points

    if len(seeds) != len(tools):
        raise ValueError(f"got {len(seeds)} seeds for {len(tools)} tools")
    if len({tool.repetitions for tool in tools}) > 1:
        raise ValueError("tools in lockstep must share repetitions")
    searches = [tool._steps(low_bps, high_bps, resolution_bps,
                            max_iterations, seed)
                for tool, seed in zip(tools, seeds)]
    asks = [next(search) for search in searches]
    results: List[Optional[IterativeProbeResult]] = [None] * len(tools)
    live = list(range(len(tools)))
    while live:
        measured = measure_points(
            [tools[i].prober for i in live],
            [ProbeTrain.at_rate(tools[i].n, asks[i][0],
                                tools[i].prober.config.size_bytes)
             for i in live],
            [asks[i][1] for i in live], tools[0].repetitions)
        for i, measurements in zip(live, measured):
            try:
                asks[i] = searches[i].send(
                    tools[i]._disturbed(asks[i][0], measurements))
            except StopIteration as done:
                results[i] = done.value
        live = [i for i in live if results[i] is None]
    return results
