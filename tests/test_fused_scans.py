"""Fused rate scans: rows, not points.

A rate scan is one batch whose rows carry their own seed and point.
Steady-state scans (figures 1 and 4) give each row a probe rate;
probe-train scans (figures 13, 15 and 17, bounds, and every
``Prober.rate_scan`` — ext-topp, ext-multihop) give each row its
point's train; cross-load scans (ext-tool-convergence, ext-topp,
figure 16, ext-onoff, ablation-bianchi) give each row its point's
channel — its cross stations and station count.  The load-bearing
guarantees:

* the steady-state kernel with a probe rate per row equals the
  one-rate calls of its points row for row — probe, FIFO and cross
  bits — with and without FIFO cross-traffic, and when the rows' CBR
  schedules differ in length;
* the probe-train kernel with a schedule and a horizon per row equals
  the per-point calls row for row — with and without FIFO
  cross-traffic, and with RTS/CTS and a retry limit;
* a channel scan's rows equal its one-point requests on the WLAN,
  FIFO and path channels, and a scan mixing train lengths or packet
  sizes is refused before dispatch;
* fig1 and fig4 resolve their whole scan in one steady-state kernel
  call; fig13 and fig15 make one probe-train call per train length,
  fig17 and bounds one per run, ext-topp one per cross rate, and
  ext-multihop's scan one explicit-arrivals call;
* a steady-state scan is checked before dispatch, so the event engine
  refuses exactly the scans the kernel refuses;
* both kernels with cross stations and a station count per row equal
  the per-point calls row for row (FIFO, RTS/CTS with a retry limit,
  queue traces), also when finished rows leave the event loop early;
* a scan over several WLAN channels equals its one-channel requests
  on every backend, and channels that differ in anything but their
  cross-traffic generators are refused before dispatch;
* searches in lockstep equal their sequential searches;
* ext-tool-convergence makes one probe-train call per search round,
  ext-topp, fig16 and ext-onoff one per run, and ablation-bianchi one
  steady-state call.
"""

import numpy as np
import pytest

from repro.analysis import ablations, steady_state
from repro.analysis.steady_state import steady_state_scan
from repro.core.tools import IterativeProbeTool, search_lockstep
from repro.mac.params import PhyParams
from repro.path import NetworkPath, SimulatedPathChannel, WiredHop, WlanHop
from repro.path import hops
from repro.runtime import executor, registry
from repro.sim import vector
from repro.sim.probe_vector import (
    CbrCrossSpec,
    OnOffCrossSpec,
    PoissonCrossSpec,
    simulate_probe_train_batch,
    simulate_steady_state_batch,
)
from repro.testbed import channel as channel_module
from repro.testbed.channel import (
    SimulatedFifoChannel,
    SimulatedWlanChannel,
    scan_request,
    send_scan,
)
from repro.testbed.prober import Prober, ProbeSessionConfig
from repro.traffic.generators import OnOffGenerator, PoissonGenerator
from repro.traffic.probe import ProbeTrain

L = 1500

#: Distinct rates give distinct CBR schedule lengths (25, 50 and 150
#: probe packets in the 0.3 s run); the repeated rate is not adjacent
#: to its twin, so it forms its own block.
RATES = [1e6, 2e6, 6e6, 1e6]
REPS = 3


def _kernel(rates, seeds, fifo):
    return simulate_steady_state_batch(
        rates, len(seeds), size_bytes=L,
        cross=[PoissonCrossSpec(3e6 / (L * 8), L)],
        fifo_cross=PoissonCrossSpec(1.5e6 / (L * 8), L) if fifo else None,
        duration=0.3, warmup=0.1, seeds=seeds)


class TestKernelRows:
    @pytest.mark.parametrize("fifo", [False, True],
                             ids=["no-fifo", "fifo"])
    def test_fused_rows_equal_per_point_calls(self, fifo):
        point_seeds = [11 + k for k in range(len(RATES))]
        seeds = np.concatenate([executor.derive_seeds(s, REPS)
                                for s in point_seeds])
        fused = _kernel(np.repeat(RATES, REPS), seeds, fifo)
        assert fused.repetitions == len(RATES) * REPS
        for k, rate in enumerate(RATES):
            alone = _kernel(rate, executor.derive_seeds(point_seeds[k],
                                                        REPS), fifo)
            rows = slice(k * REPS, (k + 1) * REPS)
            assert np.array_equal(fused.probe_bits[rows], alone.probe_bits)
            assert np.array_equal(fused.fifo_bits[rows], alone.fifo_bits)
            assert np.array_equal(fused.cross_bits[rows], alone.cross_bits)
            assert np.all(alone.probe_bits > 0)
        if fifo:
            assert np.all(fused.fifo_bits > 0)

    def test_scalar_rate_broadcasts(self):
        seeds = executor.derive_seeds(4, REPS)
        scalar = _kernel(2e6, seeds, True)
        per_row = _kernel(np.full(REPS, 2e6), seeds, True)
        for flow in ("probe_bits", "fifo_bits", "cross_bits"):
            assert np.array_equal(getattr(scalar, flow),
                                  getattr(per_row, flow))

    def test_rate_count_must_match_rows(self):
        with pytest.raises(ValueError, match="2 probe rates for 3"):
            _kernel([1e6, 2e6], executor.derive_seeds(0, 3), False)


class TestRunnerScans:
    def test_scan_rows_equal_one_point_scans(self):
        rates = [1.5e6, 4e6]
        scan = steady_state_scan(
            rates, 3e6, 1e6, duration=0.3, warmup=0.1, repetitions=REPS,
            seed=5, backend="vector")
        for k, rate in enumerate(rates):
            alone = steady_state_scan(
                [rate], 3e6, 1e6, duration=0.3, warmup=0.1,
                repetitions=REPS, seed=5 + k, backend="vector")
            for flow in alone:
                assert scan[flow].shape == (len(rates), REPS)
                assert np.array_equal(scan[flow][k], alone[flow][0])

    @pytest.mark.parametrize("name", ["fig1", "fig4"])
    def test_one_kernel_call_per_figure(self, name, monkeypatch):
        calls = []
        kernel = steady_state.simulate_steady_state_batch

        def spy(probe_rate_bps, repetitions, **kwargs):
            calls.append(repetitions)
            return kernel(probe_rate_bps, repetitions, **kwargs)

        monkeypatch.setattr(steady_state, "simulate_steady_state_batch",
                            spy)
        rates = [1e6, 3e6, 6e6]
        registry.get(name).run(
            seed=1, backend="vector",
            overrides={"probe_rates_bps": rates, "repetitions": 2,
                       "duration": 0.3, "warmup": 0.1})
        assert calls == [len(rates) * 2]


class TestScanValidation:
    """The kernel's checks, applied before dispatch on every backend."""

    CASES = {
        "negative-warmup": (dict(warmup=-0.1),
                            "need duration > warmup >= 0"),
        "zero-rate": (dict(probe_rates_bps=[2e6, 0.0]),
                      "probe rate must be positive, got 0.0"),
        "empty-window": (dict(duration=0.2, warmup=0.2),
                         "need duration > warmup >= 0"),
    }

    @pytest.mark.parametrize("backend", ["event", "vector"])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_backends_refuse_alike(self, case, backend):
        overrides, message = self.CASES[case]
        kwargs = dict(probe_rates_bps=[2e6], cross_rate_bps=3e6,
                      duration=0.3, warmup=0.1, repetitions=2)
        kwargs.update(overrides)
        with pytest.raises(ValueError, match=message):
            steady_state_scan(backend=backend, **kwargs)


# ----------------------------------------------------------------------
# Probe-train scans
# ----------------------------------------------------------------------

#: Distinct rates give distinct train spans and so distinct horizons;
#: the repeated rate is not adjacent to its twin.
TRAIN_RATES = [2e6, 5e6, 2e6]
N = 12

#: Kernel configurations a scan's rows must survive unchanged.
TRAIN_CASES = {
    "plain": {},
    "fifo": {"fifo_cross": PoissonCrossSpec(1e6 / (L * 8), L)},
    "rts-retry": {"rts_threshold": 500, "retry_limit": 7},
}


def _trains(rates=TRAIN_RATES, n=N, size=L):
    return [ProbeTrain.at_rate(n, rate, size) for rate in rates]


def _train_kernel(schedule, seeds, **kwargs):
    return simulate_probe_train_batch(
        N, schedule, len(seeds), size_bytes=L,
        cross=[PoissonCrossSpec(3e6 / (L * 8), L)], warmup=0.05,
        seeds=seeds, **kwargs)


def _same_rows(fused, rows, alone):
    for field in ("send_times", "recv_times", "access_delays"):
        assert np.array_equal(getattr(fused, field)[rows],
                              getattr(alone, field), equal_nan=True)


class TestProbeTrainKernelRows:
    @pytest.mark.parametrize("case", sorted(TRAIN_CASES))
    def test_fused_rows_equal_per_point_calls(self, case):
        kwargs = TRAIN_CASES[case]
        trains = _trains()
        point_seeds = [21 + k for k in range(len(trains))]
        seeds = np.concatenate([executor.derive_seeds(s, REPS)
                                for s in point_seeds])
        schedule = np.stack([t.arrival_times(0.0) for t in trains])
        # The default horizon is per row: each row's own train span.
        fused = _train_kernel(
            np.repeat(schedule, REPS, axis=0), seeds, **kwargs)
        assert fused.repetitions == len(trains) * REPS
        for k, train in enumerate(trains):
            alone = _train_kernel(
                train.gap, executor.derive_seeds(point_seeds[k], REPS),
                **kwargs)
            _same_rows(fused, slice(k * REPS, (k + 1) * REPS), alone)

    def test_explicit_row_horizons_equal_per_point_calls(self):
        trains = _trains()
        horizons = [0.4, 0.7, 0.4]
        seeds = np.concatenate([executor.derive_seeds(7 + k, REPS)
                                for k in range(len(trains))])
        fused = _train_kernel(
            np.repeat([t.arrival_times(0.0) for t in trains], REPS,
                      axis=0),
            seeds, horizon=np.repeat(horizons, REPS))
        for k, train in enumerate(trains):
            alone = _train_kernel(train.gap,
                                  executor.derive_seeds(7 + k, REPS),
                                  horizon=horizons[k])
            _same_rows(fused, slice(k * REPS, (k + 1) * REPS), alone)

    def test_scalar_gap_broadcasts(self):
        train = ProbeTrain.at_rate(N, 3e6, L)
        seeds = executor.derive_seeds(4, REPS)
        scalar = _train_kernel(train.gap, seeds)
        per_row = _train_kernel(
            np.tile(train.arrival_times(0.0), (REPS, 1)), seeds)
        _same_rows(scalar, slice(None), per_row)

    def test_schedule_and_horizons_are_checked(self):
        seeds = executor.derive_seeds(0, REPS)
        for shape in ((REPS, N + 1), (N,)):
            with pytest.raises(ValueError, match="schedule must be a gap"):
                _train_kernel(np.zeros(shape), seeds)
        with pytest.raises(ValueError, match="non-decreasing"):
            _train_kernel(np.tile(np.arange(N)[::-1] * 1e-3, (REPS, 1)),
                          seeds)
        with pytest.raises(ValueError, match="2 horizons for 3"):
            _train_kernel(1e-3, seeds, horizon=[0.5, 0.6])


def _channels():
    cross = [("cross", PoissonGenerator(3e6, L))]
    return {
        "wlan": SimulatedWlanChannel(
            cross, fifo_cross=PoissonGenerator(1e6, L, flow="fifo"),
            warmup=0.05),
        "fifo": SimulatedFifoChannel(
            8e6, cross_generator=PoissonGenerator(3e6, L)),
        # Upstream cross-traffic gives every row its own horizon at
        # the WLAN hop.
        "path": SimulatedPathChannel(NetworkPath([
            WiredHop(10e6, cross_generator=PoissonGenerator(6e6, L)),
            WlanHop(cross),
        ])),
    }


class TestChannelScans:
    @pytest.mark.parametrize("backend", ["vector", "event"])
    @pytest.mark.parametrize("name", ["wlan", "fifo", "path"])
    def test_scan_rows_equal_one_point_requests(self, name, backend):
        channel = _channels()[name]
        trains = _trains()
        point_seeds = [31, 5, 17]
        scan = channel.send_scan(trains, REPS, point_seeds,
                                 backend=backend)
        assert scan.repetitions == len(trains) * REPS
        for k, train in enumerate(trains):
            alone = channel.send_trains_dense(train, REPS,
                                              seed=point_seeds[k],
                                              backend=backend)
            _same_rows(scan, slice(k * REPS, (k + 1) * REPS), alone)

    @pytest.mark.parametrize("trains, message", [
        (_trains(rates=[2e6]) + _trains(rates=[3e6], n=N + 1),
         r"different lengths: \[12, 13\]"),
        (_trains(rates=[2e6]) + _trains(rates=[3e6], size=1000),
         r"different packet sizes: \[1000, 1500\]"),
    ], ids=["lengths", "sizes"])
    def test_mixed_scans_are_refused_before_dispatch(self, trains,
                                                     message):
        channel = _channels()["wlan"]
        # Building the request refuses them: nothing was dispatched.
        with pytest.raises(ValueError, match=message):
            scan_request([channel] * 2, trains, REPS, [1, 2])
        for backend in ("event", "vector"):
            with pytest.raises(ValueError, match=message):
                channel.send_scan(trains, REPS, [1, 2], backend=backend)

    def test_a_scan_names_one_seed_per_train(self):
        channel = _channels()["wlan"]
        with pytest.raises(ValueError, match="2 trains for 3 point"):
            scan_request([channel] * 2, _trains(rates=[2e6, 3e6]), REPS,
                         [1, 2, 3])
        with pytest.raises(ValueError, match="at least one train"):
            scan_request([], [], REPS, [])


class TestOneProbeTrainCallPerScan:
    """Kernel calls (rows each) of the fused probe-train runners."""

    RATES = [1e6, 4e6, 8e6]

    @pytest.fixture
    def train_calls(self, monkeypatch):
        calls = []
        kernel = channel_module.simulate_probe_train_batch

        def spy(n_probe, schedule, repetitions, **kwargs):
            calls.append(repetitions)
            return kernel(n_probe, schedule, repetitions, **kwargs)

        monkeypatch.setattr(channel_module, "simulate_probe_train_batch",
                            spy)
        return calls

    def _run(self, name, overrides):
        registry.get(name).run(seed=1, backend="vector",
                               overrides={"repetitions": 2, **overrides})

    @pytest.mark.parametrize("name", ["fig13", "fig15"])
    def test_one_call_per_train_length(self, name, train_calls):
        self._run(name, {"probe_rates_bps": self.RATES,
                         "train_lengths": [3, 10]})
        assert train_calls == [len(self.RATES) * 2] * 2

    @pytest.mark.parametrize("name", ["fig17", "bounds"])
    def test_one_call_per_run(self, name, train_calls):
        self._run(name, {"probe_rates_bps": self.RATES})
        assert train_calls == [len(self.RATES) * 2]

    def test_one_arrivals_call_per_multihop_scan(self, monkeypatch):
        calls = []
        kernel = hops.simulate_probe_arrivals_batch

        def spy(probe_times, **kwargs):
            calls.append(len(probe_times))
            return kernel(probe_times, **kwargs)

        monkeypatch.setattr(hops, "simulate_probe_arrivals_batch", spy)
        self._run("ext-multihop", {"probe_rates_bps": self.RATES})
        # The rate scan, then the packet pairs.
        assert calls == [len(self.RATES) * 2, 100]


# ----------------------------------------------------------------------
# Cross-load scans: rows carry their channel
# ----------------------------------------------------------------------

def _pps(rate_bps, size=L):
    return rate_bps / (size * 8)


#: Each point's cross stations.  Point 1 has none (its rows have one
#: station), point 2 mixes kinds, point 3 repeats point 0 without
#: being adjacent to it.
POINT_CROSS = [
    [PoissonCrossSpec(_pps(1e6), L)],
    [],
    [PoissonCrossSpec(_pps(3e6), L), CbrCrossSpec(_pps(1e6), L, jitter=1e-3),
     OnOffCrossSpec(_pps(4e6), L, mean_on=0.02, mean_off=0.02)],
    [PoissonCrossSpec(_pps(1e6), L)],
]

#: Kernel configurations rows with their own channel must survive.
CROSS_CASES = {
    "plain": {},
    "fifo": {"fifo_cross": PoissonCrossSpec(_pps(1e6), L)},
    "rts-retry": {"rts_threshold": 500, "retry_limit": 7},
    "queues": {"track_queues": True},
}


def _slot_rows(point_cross, points):
    """Per-row specs of each station slot (``None``: absent)."""
    slots = max(len(specs) for specs in point_cross)
    return [[point_cross[p][c] if c < len(point_cross[p]) else None
             for p in points] for c in range(slots)]


def _finite(values):
    return values[np.isfinite(values)]


def _same_traces(fused, rows, alone):
    """Queue traces agree wherever the per-point call has a station;
    the fused rows' extra stations are empty."""
    for c, trace in enumerate(fused.queue_traces):
        for r_fused, r_alone in zip(range(rows.start, rows.stop),
                                    range(alone.repetitions)):
            if c < len(alone.queue_traces):
                other = alone.queue_traces[c]
                for field in ("arrivals", "departures"):
                    assert np.array_equal(
                        _finite(getattr(trace, field)[r_fused]),
                        _finite(getattr(other, field)[r_alone]))
            else:
                assert not np.isfinite(trace.arrivals[r_fused]).any()


class TestPerRowChannelKernels:
    @pytest.mark.parametrize("case", sorted(CROSS_CASES))
    def test_probe_train_rows_equal_per_point_calls(self, case):
        kwargs = CROSS_CASES[case]
        point_seeds = [41 + k for k in range(len(POINT_CROSS))]
        seeds = np.concatenate([executor.derive_seeds(s, REPS)
                                for s in point_seeds])
        points = np.repeat(np.arange(len(POINT_CROSS)), REPS)
        gap = ProbeTrain.at_rate(N, 4e6, L).gap
        fused = simulate_probe_train_batch(
            N, gap, len(seeds), size_bytes=L, warmup=0.05, seeds=seeds,
            cross=_slot_rows(POINT_CROSS, points), **kwargs)
        for k, specs in enumerate(POINT_CROSS):
            alone = simulate_probe_train_batch(
                N, gap, REPS, size_bytes=L, warmup=0.05, cross=specs,
                seeds=executor.derive_seeds(point_seeds[k], REPS),
                **kwargs)
            rows = slice(k * REPS, (k + 1) * REPS)
            _same_rows(fused, rows, alone)
            if case == "queues":
                _same_traces(fused, rows, alone)

    @pytest.mark.parametrize("case", sorted(CROSS_CASES))
    def test_steady_state_rows_equal_per_point_calls(self, case):
        kwargs = CROSS_CASES[case]
        point_seeds = [51 + k for k in range(len(POINT_CROSS))]
        seeds = np.concatenate([executor.derive_seeds(s, REPS)
                                for s in point_seeds])
        points = np.repeat(np.arange(len(POINT_CROSS)), REPS)
        rates = np.array([2e6, 5e6, 1e6, 2e6])
        fused = simulate_steady_state_batch(
            rates[points], len(seeds), size_bytes=L, duration=0.3,
            warmup=0.1, seeds=seeds,
            cross=_slot_rows(POINT_CROSS, points), **kwargs)
        for k, specs in enumerate(POINT_CROSS):
            alone = simulate_steady_state_batch(
                rates[k], REPS, size_bytes=L, duration=0.3, warmup=0.1,
                cross=specs,
                seeds=executor.derive_seeds(point_seeds[k], REPS),
                **kwargs)
            rows = slice(k * REPS, (k + 1) * REPS)
            assert np.array_equal(fused.probe_bits[rows], alone.probe_bits)
            assert np.array_equal(fused.fifo_bits[rows], alone.fifo_bits)
            width = len(specs)
            assert np.array_equal(fused.cross_bits[rows, :width],
                                  alone.cross_bits)
            assert not fused.cross_bits[rows, width:].any()
            if case == "queues":
                _same_traces(fused, rows, alone)

    @pytest.mark.parametrize("cross, message", [
        ([[POINT_CROSS[0][0], None], [POINT_CROSS[0][0]] * 2],
         "must follow its present"),
        ([[POINT_CROSS[0][0], PoissonCrossSpec(_pps(1e6, 1000), 1000)]],
         "mixes frame sizes"),
        ([[POINT_CROSS[0][0]]], "1 specs for 2"),
    ], ids=["absent-first", "frame-sizes", "spec-count"])
    def test_per_row_cross_is_checked(self, cross, message):
        with pytest.raises(ValueError, match=message):
            simulate_probe_train_batch(N, 1e-3, 2, cross=cross,
                                       seeds=executor.derive_seeds(0, 2))


#: Capacity-relative loads: very short rows (0.1 Erlang) next to very
#: long ones (1.0 Erlang over four contenders), and one-station rows
#: next to five-station rows.
def _mixed_load_channels():
    erlang = 6e6
    return [
        SimulatedWlanChannel([("a", PoissonGenerator(0.1 * erlang, L))],
                             warmup=0.05),
        SimulatedWlanChannel([(f"s{i}", PoissonGenerator(0.25 * erlang, L))
                              for i in range(4)], warmup=0.05),
        SimulatedWlanChannel([], warmup=0.05),
    ]


class TestFinishedRowsLeaveTheLoop:
    def test_dense_rows_equal_one_row_chunks_and_points(self, monkeypatch):
        kept = []
        keep = vector._UniformBlocks.keep

        def spy(blocks, rows):
            kept.append(len(rows))
            keep(blocks, rows)

        monkeypatch.setattr(vector._UniformBlocks, "keep", spy)
        channels = _mixed_load_channels()
        trains = [ProbeTrain.at_rate(40, 5e6, L)] * len(channels)
        point_seeds = [3, 4, 5]
        dense = send_scan(channels, trains, 4, point_seeds,
                          backend="vector")
        assert kept, "no row left the loop early"
        with executor.chunked_reps(1):
            rows = send_scan(channels, trains, 4, point_seeds,
                             backend="vector")
        _same_rows(dense, slice(None), rows)
        for k, channel in enumerate(channels):
            alone = channel.send_trains_dense(trains[k], 4,
                                              seed=point_seeds[k],
                                              backend="vector")
            _same_rows(dense, slice(4 * k, 4 * k + 4), alone)


def _wlan(cross, **settings):
    settings.setdefault("warmup", 0.05)
    return SimulatedWlanChannel(cross, **settings)


def _scan_channels(**settings):
    return [
        _wlan([("cross", PoissonGenerator(2e6, L))], **settings),
        _wlan([], **settings),
        _wlan([("p", PoissonGenerator(2e6, L)),
               ("b", OnOffGenerator(6e6, mean_on=0.02, mean_off=0.02,
                                    size_bytes=L))], **settings),
    ]


class TestMultiChannelScans:
    @pytest.mark.parametrize("backend, jobs", [("vector", 1),
                                               ("event", 2)])
    @pytest.mark.parametrize("fifo", [False, True], ids=["no-fifo", "fifo"])
    def test_scan_rows_equal_one_channel_requests(self, backend, jobs,
                                                  fifo):
        settings = {"fifo_cross": PoissonGenerator(1e6, L, flow="fifo")
                    } if fifo else {}
        channels = _scan_channels(**settings)
        trains = _trains()
        point_seeds = [8, 9, 10]
        with executor.parallel_jobs(jobs):
            scan = send_scan(channels, trains, REPS, point_seeds,
                             backend=backend)
            for k, channel in enumerate(channels):
                alone = channel.send_trains_dense(trains[k], REPS,
                                                  seed=point_seeds[k],
                                                  backend=backend)
                _same_rows(scan, slice(k * REPS, (k + 1) * REPS), alone)

    @pytest.mark.parametrize("backend, jobs", [("vector", 1),
                                               ("event", 2)])
    def test_queue_traces_cover_every_station_slot(self, backend, jobs):
        """Rows through a channel with fewer cross stations carry
        empty traces for the rest, on every backend."""
        channels = _scan_channels(log_cross_queues=True)
        trains = _trains()
        with executor.parallel_jobs(jobs):
            scan = send_scan(channels, trains, REPS, [8, 9, 10],
                             backend=backend)
            assert len(scan.queue_traces) == 2
            for k, channel in enumerate(channels):
                alone = channel.send_trains_dense(
                    trains[k], REPS, seed=[8, 9, 10][k], backend=backend)
                _same_traces(scan, slice(k * REPS, (k + 1) * REPS), alone)

    def test_spec_folds_the_points_cross_kinds(self):
        channels = _scan_channels()
        spec = scan_request(channels, _trains(), REPS, [1, 2, 3]).spec
        assert spec.cross_traffic == "mixed"
        only_poisson = scan_request(channels[:2], _trains()[:2], REPS,
                                    [1, 2]).spec
        assert only_poisson == channels[0].scenario_spec(_trains()[0])

    DIFFERENCES = {
        "phy": ({"phy": PhyParams.dot11g()}, "different phy"),
        "warmup": ({"warmup": 0.1}, "different warmup"),
        "rts": ({"rts_threshold": 500}, "different rts_threshold"),
        "retry": ({"retry_limit": 7}, "different retry_limit"),
        "queue-logging": ({"log_cross_queues": True},
                          "different log_cross_queues"),
        "fifo": ({"fifo_cross": PoissonGenerator(1e6, L, flow="fifo")},
                 "different FIFO cross-traffic"),
    }

    @pytest.mark.parametrize("name", sorted(DIFFERENCES))
    def test_differing_channels_are_refused_before_dispatch(
            self, name, monkeypatch):
        settings, message = self.DIFFERENCES[name]
        channels = [_wlan([("cross", PoissonGenerator(2e6, L))]),
                    _wlan([("cross", PoissonGenerator(3e6, L))],
                          **settings)]
        self._refused(channels, message, monkeypatch)

    def test_differing_frame_sizes_are_refused(self, monkeypatch):
        channels = [_wlan([]),
                    _wlan([("cross", PoissonGenerator(2e6, L))]),
                    _wlan([("cross", PoissonGenerator(2e6, 1000))])]
        self._refused(channels, "cross station 0 differs in frame size",
                      monkeypatch)

    def test_only_wlan_channels_span_channels(self, monkeypatch):
        fifo = SimulatedFifoChannel(8e6)
        self._refused([_wlan([]), fifo], "cannot include a "
                      "SimulatedFifoChannel", monkeypatch)
        self._refused([fifo, SimulatedFifoChannel(8e6)],
                      "scan cannot span channels", monkeypatch)

    def _refused(self, channels, message, monkeypatch):
        def kernel(*args, **kwargs):
            raise AssertionError("dispatched")

        monkeypatch.setattr(channel_module, "simulate_probe_train_batch",
                            kernel)
        trains = _trains(rates=[2e6] * len(channels))
        seeds = list(range(len(channels)))
        with pytest.raises(ValueError, match=message):
            scan_request(channels, trains, REPS, seeds)
        for backend in ("event", "vector"):
            with pytest.raises(ValueError, match=message):
                send_scan(channels, trains, REPS, seeds, backend=backend)


def _tools(backend):
    """Fresh tools (fresh clocks) on three WLAN loads; real clocks, so
    each prober's stamping order counts.  The lax third tool widens
    its bracket and outlasts the others."""
    return [IterativeProbeTool(
                Prober(_wlan([("cross", PoissonGenerator(rate, L))]),
                       ProbeSessionConfig(repetitions=4, backend=backend,
                                          clock_seed=7 + k)),
                n=20, repetitions=4, disturbance_tolerance=tolerance)
            for k, (rate, tolerance) in enumerate(
                ((1e6, 0.08), (3e6, 0.08), (5e6, 0.9)))]


class TestLockstepSearch:
    @pytest.mark.parametrize("backend", ["vector", "event"])
    def test_lockstep_equals_sequential_searches(self, backend):
        seeds = [5, 16, 27]
        alone = [search_lockstep([tool], 0.5e6, 8e6, [seed],
                                 resolution_bps=0.5e6)[0]
                 for tool, seed in zip(_tools(backend), seeds)]
        together = search_lockstep(_tools(backend), 0.5e6, 8e6, seeds,
                                   resolution_bps=0.5e6)
        assert len({result.iterations for result in alone}) > 1
        for a, b in zip(alone, together):
            assert (a.estimate_bps, a.low_bps, a.high_bps, a.iterations,
                    a.history) == (b.estimate_bps, b.low_bps, b.high_bps,
                                   b.iterations, b.history)

    def test_arguments_are_checked_before_probing(self, monkeypatch):
        def kernel(*args, **kwargs):
            raise AssertionError("probed")

        monkeypatch.setattr(channel_module, "simulate_probe_train_batch",
                            kernel)
        with pytest.raises(ValueError, match="need 0 < low < high"):
            search_lockstep(_tools("vector"), 2e6, 1e6, [1, 2, 3])
        with pytest.raises(ValueError, match="2 seeds for 3 tools"):
            search_lockstep(_tools("vector"), 1e6, 2e6, [1, 2])


class TestOneCallPerCrossLoadScan:
    """Kernel calls (rows each) of the fused cross-load runners."""

    @pytest.fixture
    def train_calls(self, monkeypatch):
        calls = []
        kernel = channel_module.simulate_probe_train_batch

        def spy(n_probe, schedule, repetitions, **kwargs):
            calls.append(repetitions)
            return kernel(n_probe, schedule, repetitions, **kwargs)

        monkeypatch.setattr(channel_module, "simulate_probe_train_batch",
                            spy)
        return calls

    def _run(self, name, overrides=None):
        return registry.get(name).run(seed=1, backend="vector",
                                      overrides=overrides)

    def test_one_call_per_search_round(self, train_calls):
        self._run("ext-tool-convergence")
        # Five searches of 10 repetitions, seven probes the longest.
        assert len(train_calls) == 7
        assert train_calls[0] == 50
        assert all(rows <= 50 for rows in train_calls)

    def test_one_call_per_topp_run(self, train_calls):
        self._run("ext-topp", {"repetitions": 2, "n_packets": 50,
                               "cross_rates_bps": [2e6, 4e6]})
        # Both cross rates' 10-rate scans in one call.
        assert len(train_calls) == 1 and train_calls[0] >= 2 * 10 * 2

    def test_one_call_per_fig16_run(self, train_calls):
        self._run("fig16", {"pair_repetitions": 5})
        assert train_calls == [7 * 5]

    def test_one_call_per_onoff_run(self, train_calls):
        self._run("ext-onoff", {"repetitions": 3})
        # The Poisson reference and four burst scales.
        assert train_calls == [5 * 3]

    def test_one_steady_state_call_per_bianchi_run(self, monkeypatch):
        calls = []
        kernel = ablations.simulate_steady_state_batch

        def spy(probe_rate_bps, repetitions, **kwargs):
            calls.append(repetitions)
            return kernel(probe_rate_bps, repetitions, **kwargs)

        monkeypatch.setattr(ablations, "simulate_steady_state_batch", spy)
        self._run("ablation-bianchi", {"repetitions": 2, "duration": 0.5,
                                       "warmup": 0.1})
        assert calls == [5 * 2]
