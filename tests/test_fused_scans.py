"""Fused rate scans: rows, not points.

A rate scan is one batch whose rows carry their own seed and point.
Steady-state scans (figures 1 and 4) give each row a probe rate;
probe-train scans (figures 13, 15 and 17, bounds, and every
``Prober.rate_scan`` — ext-topp, ext-multihop) give each row its
point's train.  The load-bearing guarantees:

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
  refuses exactly the scans the kernel refuses.
"""

import numpy as np
import pytest

from repro.analysis import steady_state
from repro.analysis.steady_state import steady_state_scan
from repro.path import NetworkPath, SimulatedPathChannel, WiredHop, WlanHop
from repro.path import hops
from repro.runtime import executor, registry
from repro.sim.probe_vector import (
    PoissonCrossSpec,
    simulate_probe_train_batch,
    simulate_steady_state_batch,
)
from repro.testbed import channel as channel_module
from repro.testbed.channel import SimulatedFifoChannel, SimulatedWlanChannel
from repro.traffic.generators import PoissonGenerator
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
            channel.batch_request(trains, REPS, [1, 2])
        for backend in ("event", "vector"):
            with pytest.raises(ValueError, match=message):
                channel.send_scan(trains, REPS, [1, 2], backend=backend)

    def test_a_scan_names_one_seed_per_train(self):
        channel = _channels()["wlan"]
        with pytest.raises(ValueError, match="2 trains for 3 point"):
            channel.batch_request(_trains(rates=[2e6, 3e6]), REPS,
                                  [1, 2, 3])
        with pytest.raises(ValueError, match="at least one train"):
            channel.batch_request([], REPS, [])


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

    def test_one_call_per_topp_cross_rate(self, train_calls):
        self._run("ext-topp", {"cross_rates_bps": [2e6, 4e6],
                               "n_packets": 50})
        assert len(train_calls) == 2
        # Each call carries one cross rate's whole 10-rate scan.
        assert all(rows >= 10 * 2 for rows in train_calls)

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
