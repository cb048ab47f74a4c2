"""Channel backends for the prober.

A :class:`Channel` accepts a probing train and returns the true send
and receive instants of its packets after crossing the network under
test.  A live implementation would craft the packets with scapy (or
MGEN, as the paper did) and capture driver timestamps; this repository
ships two simulated backends:

* :class:`SimulatedWlanChannel` — a DCF (CSMA/CA) link with contending
  cross-traffic stations and optional FIFO cross-traffic sharing the
  probe sender's queue: the paper's figure 2/3 system;
* :class:`SimulatedFifoChannel` — the wired FIFO baseline of
  equation (1).

Each :meth:`Channel.send_train` call is an independent *repetition*:
cross-traffic is redrawn, the system is warmed up, and the probing
train is injected — matching the paper's Poisson-spaced repetitions
that "assure complete interaction with the system".
"""

from __future__ import annotations

import abc
import functools
from dataclasses import dataclass, replace
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.backends import BatchRequest, ScenarioSpec, dispatch
from repro.core.batch import resolve_rep_seeds
from repro.mac.params import PhyParams
from repro.mac.scenario import ScenarioResult, StationSpec, WlanScenario
from repro.queueing.fifo import FifoHop
from repro.queueing.lindley import lindley_batch
from repro.sim.probe_vector import (
    PoissonCrossSpec,
    ProbeBatchResult,
    QueueTraceBatch,
    classify_cross_generator,
    classify_cross_stations,
    cross_spec_from_generator,
    fifo_size_mismatch_detail,
    simulate_probe_train_batch,
)
from repro.traffic.probe import ProbeTrain, TrainSequence


@dataclass
class RawTrainResult:
    """True (error-free) timestamps of one train crossing the channel.

    ``access_delays`` (WLAN channels only) carries the per-packet
    ``mu_i``; live channels cannot observe it, but the simulator
    exposes it for validation studies.
    """

    send_times: np.ndarray
    recv_times: np.ndarray
    size_bytes: int
    access_delays: Optional[np.ndarray] = None
    scenario: Optional[ScenarioResult] = None


class Channel(abc.ABC):
    """Anything that can carry a probing train."""

    @abc.abstractmethod
    def send_train(self, train: ProbeTrain, seed: int) -> RawTrainResult:
        """Send one train through a fresh repetition of the channel."""

    def scenario_spec(self,
                      train: Optional[ProbeTrain] = None) -> ScenarioSpec:
        """Declarative description of this channel for the dispatcher.

        ``train`` sharpens the spec with workload properties only the
        probing train knows (e.g. whether FIFO cross-traffic matches
        the probe packet size).  The base class declares nothing
        (:data:`repro.backends.EVENT_ONLY`-like), so unknown channels
        only ever run the event engine; simulated channels override
        this with their actual configuration.
        """
        return ScenarioSpec(system="other", workload="train",
                            cross_traffic="other")

    def resolve_backend(self, requested: str = "auto",
                        train: Optional[ProbeTrain] = None):
        """Dispatch decision for this channel's scenario.

        Returns a :class:`repro.backends.Resolution`; forcing
        ``vector`` on an ineligible channel raises
        :class:`repro.backends.BackendUnavailableError` carrying the
        structured capability mismatches.
        """
        return dispatch.resolve(self.scenario_spec(train=train), requested)

    def batch_request(self, trains: Sequence[ProbeTrain], repetitions: int,
                      point_seeds: Sequence[int]) -> BatchRequest:
        """A scan of trains through this channel: the
        :func:`scan_request` whose every point names this channel."""
        return scan_request([self] * len(trains), trains, repetitions,
                            point_seeds)

    def send_scan(self, trains: Sequence[ProbeTrain], repetitions: int,
                  point_seeds: Sequence[int],
                  backend: str = "event") -> ProbeBatchResult:
        """Run :meth:`batch_request` on the resolved backend: the
        :func:`send_scan` whose every point names this channel."""
        return send_scan([self] * len(trains), trains, repetitions,
                         point_seeds, backend)

    def send_trains(self, train: ProbeTrain, repetitions: int,
                    seed: int = 0,
                    backend: str = "event") -> List[RawTrainResult]:
        """Send ``repetitions`` independent trains (seeds derived).

        With the default ``event`` backend the per-repetition seeds
        are all derived up front from ``seed`` and the repetitions fan
        out across the ambient worker pool (see
        :func:`repro.runtime.executor.parallel_jobs`); results come
        back in repetition order, so the output is bit-identical to a
        serial run regardless of the job count.  ``backend="vector"``
        resolves the whole batch with the channel's kernel instead
        (:meth:`_send_rows`) — statistically equivalent, no
        worker pool at all; channels without a vector kernel raise
        ``ValueError``.  ``backend="jit"`` runs the same batch path
        with the kernel's hot core compiled (bit-identical to
        ``vector``; raises
        :class:`repro.backends.BackendUnavailableError` without
        numba).  ``backend="auto"`` lets the dispatcher pick the
        fastest backend this channel is eligible for.  The results
        are the rows of :meth:`send_trains_dense`'s batch on every
        backend (NaN access delays where the channel cannot observe
        them, no scenario).
        """
        batch = self.send_trains_dense(train, repetitions, seed=seed,
                                       backend=backend)
        return [RawTrainResult(send_times=batch.send_times[r],
                               recv_times=batch.recv_times[r],
                               size_bytes=batch.size_bytes,
                               access_delays=batch.access_delays[r])
                for r in range(repetitions)]

    def send_trains_batch(self, train: ProbeTrain, repetitions: int,
                          seed: int = 0,
                          seeds: Optional[np.ndarray] = None
                          ) -> ProbeBatchResult:
        """Resolve a whole repetition batch with the vector kernel.

        The one-point case of :meth:`_send_rows`: the result's row
        ``r`` is statistically equivalent to
        ``send_train(train, derive_seeds(seed, repetitions)[r])``.
        ``seeds`` overrides the derivation with explicit
        per-repetition values.  Channels without a kernel raise
        ``ValueError``.
        """
        if seeds is None:
            seeds = resolve_rep_seeds(seed, repetitions)
        elif len(seeds) != repetitions:
            raise ValueError(
                f"got {len(seeds)} seeds for {repetitions} repetitions")
        return self._send_rows([self], [train], seeds, [0] * repetitions)

    def _scan_spec(self, channels: Sequence["Channel"],
                   train: ProbeTrain) -> ScenarioSpec:
        """The spec of a scan this channel leads, whose points send
        through ``channels``.

        Only WLAN channels scan across channels; any other channel
        refuses a scan naming another channel.
        """
        if any(channel is not self for channel in channels):
            raise ValueError(f"a {type(self).__name__} scan cannot span "
                             "channels")
        return self.scenario_spec(train)

    def _send_rows(self, channels: Sequence["Channel"],
                   trains: Sequence[ProbeTrain], seeds,
                   points) -> ProbeBatchResult:
        """The channel's kernel over rows: row ``r`` sends
        ``trains[points[r]]`` through ``channels[points[r]]`` from
        ``seeds[r]``.

        The batch task of :func:`scan_request`, which hands it
        contiguous row slices; kernels derive nothing from the rows
        around a row, so chunk rows are bit-identical to the dense
        run's.  Channels with a batched numpy backend override this;
        ``channels`` names this channel only, except in a WLAN scan.
        """
        raise ValueError(
            f"{type(self).__name__} has no vector kernel; "
            "run with backend='event'")

    def send_trains_dense(self, train: ProbeTrain, repetitions: int,
                          seed: int = 0,
                          backend: str = "event") -> ProbeBatchResult:
        """Send a repetition batch and return it in dense batch form:
        the one-point :meth:`send_scan`."""
        return self.send_scan([train], repetitions, [seed], backend)

    def _queue_traces(self, raw: RawTrainResult
                      ) -> Optional[List[QueueTraceBatch]]:
        """One repetition's cross-station queue traces (``None``: none
        were requested)."""
        return None


def _traffic_key(generator: object) -> object:
    """What two generators must share to carry the same traffic: the
    batched spec when one exists, else the generator itself."""
    try:
        return classify_cross_generator(generator)[1]
    except ValueError:
        return generator


def scan_request(channels: Sequence[Channel], trains: Sequence[ProbeTrain],
                 repetitions: int, point_seeds: Sequence[int]
                 ) -> BatchRequest:
    """A scan of trains, ``repetitions`` each, for any backend.

    Point ``k`` sends ``trains[k]`` through ``channels[k]`` from the
    rows :meth:`BatchRequest.scan` seeds from ``point_seeds[k]``, so a
    scan's rows are exactly its one-point requests' rows.  A scan over
    one channel names it at every point
    (:meth:`Channel.batch_request`).  The event task is
    :func:`_train_task` (one row through its point's channel, as a
    one-row batch), the batch task the first channel's
    :meth:`Channel._send_rows` over a row slice, and the spec its
    :meth:`Channel._scan_spec`.  Whichever backend the dispatcher
    resolves runs the request, fanning rows out over ``--jobs``
    workers or resolving them in ``--chunk-reps`` kernel chunks.

    Rows form one dense batch, so the trains must share their length
    and packet size, and the channels must be one channel or WLAN
    channels that differ only in their cross-traffic generators; any
    other scan is refused here, before dispatch.
    """
    channels, trains = list(channels), list(trains)
    if not trains:
        raise ValueError("a scan needs at least one train")
    if len(trains) != len(point_seeds):
        raise ValueError(f"got {len(trains)} trains for "
                         f"{len(point_seeds)} point seeds")
    if len(channels) != len(trains):
        raise ValueError(f"got {len(channels)} channels for "
                         f"{len(trains)} trains")
    for what, values in (("lengths", {t.n for t in trains}),
                         ("packet sizes", {t.size_bytes for t in trains})):
        if len(values) > 1:
            raise ValueError(f"cannot scan trains of different "
                             f"{what}: {sorted(values)}")
    lead = channels[0]
    return BatchRequest.scan(
        point_seeds, repetitions,
        event_task=functools.partial(_train_task, channels, trains),
        batch_task=functools.partial(lead._send_rows, channels, trains),
        spec=lead._scan_spec(channels, trains[0]))


def send_scan(channels: Sequence[Channel], trains: Sequence[ProbeTrain],
              repetitions: int, point_seeds: Sequence[int],
              backend: str = "event") -> ProbeBatchResult:
    """Run :func:`scan_request` on the resolved backend.

    Returns the scan's dense batch, point-major: point ``k``'s
    repetitions are rows ``k * repetitions`` to
    ``(k + 1) * repetitions - 1``.  Every backend returns the same
    :class:`ProbeBatchResult` (the event backend concatenates
    :func:`_train_task`'s one-row batches), so runners never branch
    on the backend.
    """
    request = scan_request(channels, trains, repetitions, point_seeds)
    return dispatch.resolve(request.spec, backend).backend.run_batch(
        request)


def _train_task(channels: Sequence[Channel], trains: Sequence[ProbeTrain],
                seed: int, point: int) -> ProbeBatchResult:
    """One batch row, sending ``trains[point]`` through
    ``channels[point]``, as a one-row :class:`ProbeBatchResult` (NaN
    access delays where the channel cannot observe them); the bulky
    event scenario never crosses a worker-process boundary.
    """
    channel, train = channels[point], trains[point]
    raw = channel.send_train(train, seed)
    delays = raw.access_delays
    if delays is None:  # end-to-end channels cannot observe them
        delays = np.full(train.n, np.nan)
    return ProbeBatchResult(
        send_times=raw.send_times[None, :],
        recv_times=raw.recv_times[None, :],
        access_delays=delays[None, :],
        size_bytes=raw.size_bytes,
        queue_traces=channel._queue_traces(raw))


class SimulatedWlanChannel(Channel):
    """A DCF link driven by :class:`repro.mac.scenario.WlanScenario`.

    Parameters
    ----------
    cross_stations:
        ``(name, generator)`` pairs — one contending station each.  The
        same generator object is reused across repetitions; randomness
        comes from the per-repetition seed.
    fifo_cross:
        Optional generator whose packets share the probe station's
        transmission queue (the paper's FIFO cross-traffic).
    warmup:
        Cross-traffic runs alone for this long before the train starts,
        so the train meets the system in *its* steady state (the
        transient under study is the probing flow's, not the system's).
    start_jitter:
        The train start is additionally delayed by Uniform(0, jitter)
        to avoid phase-locking with CBR cross-traffic.
    drain_rate_floor:
        Sizing hint for how long cross-traffic keeps flowing while the
        probe queue drains: the horizon covers the train duration plus
        ``n * L / drain_rate_floor``.
    """

    def __init__(self, cross_stations: Sequence[Tuple[str, object]],
                 fifo_cross: Optional[object] = None,
                 phy: Optional[PhyParams] = None,
                 warmup: float = 0.25,
                 start_jitter: float = 0.01,
                 drain_rate_floor: float = 1e6,
                 retry_limit: Optional[int] = None,
                 log_cross_queues: bool = False,
                 immediate_access: bool = True,
                 rts_threshold: Optional[int] = None) -> None:
        if warmup < 0 or start_jitter < 0:
            raise ValueError("warmup and start_jitter must be non-negative")
        if drain_rate_floor <= 0:
            raise ValueError("drain_rate_floor must be positive")
        self.cross_stations = list(cross_stations)
        self.fifo_cross = fifo_cross
        self.phy = phy if phy is not None else PhyParams.dot11b()
        self.warmup = warmup
        self.start_jitter = start_jitter
        self.drain_rate_floor = drain_rate_floor
        self.retry_limit = retry_limit
        self.log_cross_queues = log_cross_queues
        self.immediate_access = immediate_access
        self.rts_threshold = rts_threshold
        self._scenario = WlanScenario(self.phy, retry_limit=retry_limit,
                                      immediate_access=immediate_access,
                                      rts_threshold=rts_threshold)

    def horizon_for(self, train: ProbeTrain) -> float:
        """Cross-traffic horizon covering warmup, train and drain."""
        drain = train.n * train.size_bytes * 8 / self.drain_rate_floor
        return self.warmup + self.start_jitter + train.duration + drain

    def send_train(self, train: ProbeTrain, seed: int) -> RawTrainResult:
        rng = np.random.default_rng(seed)
        start = self.warmup + (rng.uniform(0, self.start_jitter)
                               if self.start_jitter > 0 else 0.0)
        horizon = self.horizon_for(train)
        probe_arrivals = train.packets(start=start)
        specs = [StationSpec("probe", generator=self.fifo_cross,
                             arrivals=probe_arrivals)]
        for name, generator in self.cross_stations:
            specs.append(StationSpec(name, generator=generator,
                                     log_queue=self.log_cross_queues))
        # Derive an independent stream for the scenario itself so the
        # start jitter draw does not shift the traffic sample paths.
        result = self._scenario.run(specs, horizon=horizon,
                                    seed=int(rng.integers(0, 2 ** 31)))
        probe = result.station("probe").completed("probe")
        if len(probe) != train.n:
            raise RuntimeError(
                f"{train.n - len(probe)} probe packets were lost")
        return RawTrainResult(
            send_times=np.array([r.arrival for r in probe]),
            recv_times=np.array([r.departure for r in probe]),
            size_bytes=train.size_bytes,
            access_delays=np.array([r.access_delay for r in probe]),
            scenario=result,
        )

    def _queue_traces(self, raw: RawTrainResult
                      ) -> Optional[List[QueueTraceBatch]]:
        """With ``log_cross_queues``, one trace per cross station."""
        if not self.log_cross_queues:
            return None
        return [QueueTraceBatch.from_queue_log(
                    raw.scenario.station(name).queue_log)
                for name, _ in self.cross_stations]

    def scenario_spec(self,
                      train: Optional[ProbeTrain] = None) -> ScenarioSpec:
        """Compile this channel's configuration into a ScenarioSpec.

        The batched kernel covers the paper's probe-train setting —
        Poisson/CBR/on-off cross-traffic (mixed across stations),
        RTS/CTS, retry limits, queue traces, FIFO cross-traffic at the
        probe packet size; the spec states exactly which properties
        this instance (and, when given, the ``train`` it is about to
        carry) has, and the dispatcher turns any unsupported one — a
        trace-replay generator, a FIFO size mismatch — into a
        structured capability mismatch.
        """
        cross_kind, cross_detail = classify_cross_stations(
            self.cross_stations)
        fifo_kind, fifo_detail = "none", ""
        if self.fifo_cross is not None:
            try:
                fifo_kind, spec = classify_cross_generator(self.fifo_cross)
                if train is not None and spec.size_bytes != train.size_bytes:
                    fifo_kind = "other"
                    fifo_detail = fifo_size_mismatch_detail(
                        train.size_bytes, spec.size_bytes)
            except ValueError as exc:
                fifo_kind = "other"
                fifo_detail = f"FIFO cross-traffic: {exc}"
        return ScenarioSpec(
            system="wlan",
            workload="train",
            cross_traffic=cross_kind,
            fifo_cross=fifo_kind,
            rts_cts=self.rts_threshold is not None,
            retry_limit=self.retry_limit is not None,
            queue_traces=self.log_cross_queues,
            cross_detail=cross_detail,
            fifo_detail=fifo_detail,
        )

    #: The settings every channel of a WLAN scan shares: everything
    #: but the cross-traffic generators.
    _SCAN_SETTINGS = ("phy", "warmup", "start_jitter", "drain_rate_floor",
                      "retry_limit", "log_cross_queues", "immediate_access",
                      "rts_threshold")

    def _scan_spec(self, channels: Sequence[Channel],
                   train: ProbeTrain) -> ScenarioSpec:
        """The spec of a scan over WLAN channels this one leads.

        The channels must agree on every setting but their
        cross-traffic generators — kind, rate and number of stations
        may differ, the frame size of each station slot may not — and
        the spec folds every channel's cross stations with
        :func:`classify_cross_stations`, so one channel's scan has its
        :meth:`scenario_spec`.
        """
        distinct = list({id(channel): channel for channel in channels}
                        .values())
        for other in distinct:
            if not isinstance(other, SimulatedWlanChannel):
                raise ValueError(f"a WLAN scan cannot include a "
                                 f"{type(other).__name__}")
            for name in self._SCAN_SETTINGS:
                if getattr(other, name) != getattr(self, name):
                    raise ValueError(f"cannot scan WLAN channels of "
                                     f"different {name}")
            if _traffic_key(other.fifo_cross) != _traffic_key(
                    self.fifo_cross):
                raise ValueError("cannot scan WLAN channels of different "
                                 "FIFO cross-traffic")
        slots = max(len(channel.cross_stations) for channel in distinct)
        for c in range(slots):
            sizes = {getattr(channel.cross_stations[c][1], "size_bytes",
                             None)
                     for channel in distinct
                     if c < len(channel.cross_stations)}
            if len(sizes) > 1:
                raise ValueError(f"cannot scan WLAN channels whose cross "
                                 f"station {c} differs in frame size")
        kind, detail = classify_cross_stations(
            [station for channel in distinct
             for station in channel.cross_stations])
        return replace(self.scenario_spec(train), cross_traffic=kind,
                       cross_detail=detail)

    def _send_rows(self, channels: Sequence[Channel],
                   trains: Sequence[ProbeTrain], seeds,
                   points) -> ProbeBatchResult:
        """One vectorized pass over the rows.

        Statistically equivalent to mapping :meth:`send_train` over
        the rows (the KS tests in ``tests/test_probe_vector_backend.py``
        pin the two); the per-row seed is the executor's, so a row
        refers to the same random universe on either backend.  Each
        row hands the kernel its own train's send offsets
        (``arrival_times(0.0)``, so chirps ride too), its channel's
        cross stations (absent past that channel's count) and
        :meth:`horizon_for`.

        An ineligible scan raises
        :class:`repro.backends.BackendUnavailableError` (a
        ``ValueError``) carrying the structured capability mismatches,
        before any kernel state is built.
        """
        dispatch.resolve(self._scan_spec(channels, trains[0]), "vector")
        point_cross = [[cross_spec_from_generator(generator)
                        for _, generator in channel.cross_stations]
                       for channel in channels]
        slots = max(len(specs) for specs in point_cross)
        cross = [[specs[c] if c < len(specs) else None
                  for specs in (point_cross[p] for p in points)]
                 for c in range(slots)]
        fifo = (cross_spec_from_generator(self.fifo_cross)
                if self.fifo_cross is not None else None)
        rows = np.asarray(points)
        return simulate_probe_train_batch(
            trains[0].n,
            np.stack([t.arrival_times(0.0) for t in trains])[rows],
            len(seeds),
            size_bytes=trains[0].size_bytes,
            cross=cross,
            fifo_cross=fifo,
            horizon=np.array([channel.horizon_for(train) for channel, train
                              in zip(channels, trains)])[rows],
            phy=self.phy,
            warmup=self.warmup,
            start_jitter=self.start_jitter,
            seeds=seeds,
            immediate_access=self.immediate_access,
            rts_threshold=self.rts_threshold,
            retry_limit=self.retry_limit,
            track_queues=self.log_cross_queues,
        )

    def send_train_sequence(self, sequence: TrainSequence,
                            seed: int) -> List[RawTrainResult]:
        """Send ``m`` Poisson-spaced trains through ONE live system.

        This is the paper's literal measurement procedure (section
        5.1.2): all trains of the sequence share a single simulation —
        the cross-traffic is *not* redrawn between trains, only the
        Poisson inter-train spacing lets the system forget the previous
        train.  Compare with :meth:`send_trains`, which runs fully
        independent repetitions (cheaper, same limiting averages).
        """
        rng = np.random.default_rng(seed)
        train = sequence.train
        starts = sequence.start_times(rng, start=self.warmup)
        probe_arrivals = []
        for train_start in starts:
            probe_arrivals.extend(train.packets(float(train_start)))
        drain = train.n * train.size_bytes * 8 / self.drain_rate_floor
        horizon = float(starts[-1]) + train.duration + drain
        specs = [StationSpec("probe", generator=self.fifo_cross,
                             arrivals=probe_arrivals)]
        for name, generator in self.cross_stations:
            specs.append(StationSpec(name, generator=generator,
                                     log_queue=self.log_cross_queues))
        result = self._scenario.run(specs, horizon=horizon,
                                    seed=int(rng.integers(0, 2 ** 31)))
        probe = result.station("probe").completed("probe")
        if len(probe) != len(probe_arrivals):
            raise RuntimeError("probe packets were lost")
        out: List[RawTrainResult] = []
        for k in range(sequence.m):
            chunk = probe[k * train.n:(k + 1) * train.n]
            out.append(RawTrainResult(
                send_times=np.array([r.arrival for r in chunk]),
                recv_times=np.array([r.departure for r in chunk]),
                size_bytes=train.size_bytes,
                access_delays=np.array([r.access_delay for r in chunk]),
            ))
        return out


class SimulatedFifoChannel(Channel):
    """The wired single-queue baseline of equation (1)."""

    def __init__(self, capacity_bps: float,
                 cross_generator: Optional[object] = None,
                 warmup: float = 0.25,
                 start_jitter: float = 0.01,
                 drain_rate_floor: float = 1e6) -> None:
        if warmup < 0 or start_jitter < 0:
            raise ValueError("warmup and start_jitter must be non-negative")
        if drain_rate_floor <= 0:
            raise ValueError("drain_rate_floor must be positive")
        self.hop = FifoHop(capacity_bps)
        self.cross_generator = cross_generator
        self.warmup = warmup
        self.start_jitter = start_jitter
        self.drain_rate_floor = drain_rate_floor

    def scenario_spec(self,
                      train: Optional[ProbeTrain] = None) -> ScenarioSpec:
        """A wired FIFO hop; the batched Lindley kernel replays any
        cross-traffic model's exact sample path, so neither the
        traffic model nor the train shape disqualifies it."""
        kind = "none"
        if self.cross_generator is not None:
            try:
                PoissonCrossSpec.from_generator(self.cross_generator)
                kind = "poisson"
            except ValueError:
                kind = "other"
        return ScenarioSpec(system="fifo", workload="train",
                            cross_traffic=kind)

    def send_train(self, train: ProbeTrain, seed: int) -> RawTrainResult:
        rng = np.random.default_rng(seed)
        start = self.warmup + (rng.uniform(0, self.start_jitter)
                               if self.start_jitter > 0 else 0.0)
        drain = train.n * train.size_bytes * 8 / self.drain_rate_floor
        horizon = start + train.duration + drain
        arrivals = list(train.packets(start=start))
        if self.cross_generator is not None:
            arrivals.extend(self.cross_generator.generate(horizon, rng))
        result = self.hop.run(arrivals)
        probe = result.by_flow("probe")
        return RawTrainResult(
            send_times=np.array([r.arrival for r in probe]),
            recv_times=np.array([r.departure for r in probe]),
            size_bytes=train.size_bytes,
            access_delays=np.array([r.access_delay for r in probe]),
        )

    def _send_rows(self, channels: Sequence[Channel],
                   trains: Sequence[ProbeTrain], seeds,
                   points) -> ProbeBatchResult:
        """All rows through one batched Lindley recursion.

        Each row replays :meth:`send_train`'s exact sample path for
        its own train (same per-row generator, same draw order, same
        stable merge of probe and cross arrivals), so the departures
        agree with the event path to float rounding — the per-packet
        Python loop of :class:`repro.queueing.fifo.FifoHop` is simply
        replaced by one ``(rows, n)`` cumulative-max pass.
        """
        repetitions = len(seeds)
        n = trains[0].n
        probe_services = np.full(
            n, (trains[0].size_bytes + self.hop.overhead_bytes) * 8
            / self.hop.capacity_bps)
        rep_times: List[np.ndarray] = []
        rep_services: List[np.ndarray] = []
        rep_probe_pos: List[np.ndarray] = []
        send = np.zeros((repetitions, n))
        for r, (rep_seed, point) in enumerate(zip(seeds, points)):
            train = trains[point]
            rng = np.random.default_rng(int(rep_seed))
            start = self.warmup + (rng.uniform(0, self.start_jitter)
                                   if self.start_jitter > 0 else 0.0)
            drain = n * train.size_bytes * 8 / self.drain_rate_floor
            horizon = start + train.duration + drain
            probe_times = train.arrival_times(start=start)
            times = probe_times
            services = probe_services
            if self.cross_generator is not None:
                schedule = self.cross_generator.generate(horizon, rng)
                cross_times = schedule.times
                cross_bytes = np.fromiter(
                    (p.size_bytes for _, p in schedule), dtype=np.int64,
                    count=len(schedule))
                cross_services = ((cross_bytes + self.hop.overhead_bytes)
                                  * 8 / self.hop.capacity_bps)
                times = np.concatenate([probe_times, cross_times])
                services = np.concatenate([probe_services, cross_services])
            # Stable sort keeps probe packets ahead of simultaneous
            # cross arrivals, matching FifoHop.run's tie rule.
            order = np.argsort(times, kind="stable")
            inverse = np.empty(len(order), dtype=np.int64)
            inverse[order] = np.arange(len(order))
            rep_times.append(times[order])
            rep_services.append(services[order])
            rep_probe_pos.append(inverse[:n])
            send[r] = probe_times
        width = max(len(t) for t in rep_times)
        arrivals = np.full((repetitions, width), np.inf)
        services = np.zeros((repetitions, width))
        probe_pos = np.zeros((repetitions, n), dtype=np.int64)
        for r in range(repetitions):
            arrivals[r, :len(rep_times[r])] = rep_times[r]
            services[r, :len(rep_services[r])] = rep_services[r]
            probe_pos[r] = rep_probe_pos[r]
        starts, departures = lindley_batch(arrivals, services)
        recv = np.take_along_axis(departures, probe_pos, axis=1)
        hol = np.take_along_axis(starts, probe_pos, axis=1)
        return ProbeBatchResult(
            send_times=send,
            recv_times=recv,
            access_delays=recv - hol,
            size_bytes=trains[0].size_bytes,
        )
