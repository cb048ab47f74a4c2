"""Fused steady-state rate scans: rows, not points.

A rate scan (figures 1 and 4) is one batch whose rows carry their own
seed and point.  The load-bearing guarantees:

* the steady-state kernel with a probe rate per row equals the
  one-rate calls of its points row for row — probe, FIFO and cross
  bits — with and without FIFO cross-traffic, and when the rows' CBR
  schedules differ in length;
* fig1 and fig4 resolve their whole scan in one kernel call;
* a steady-state scan is checked before dispatch, so the event engine
  refuses exactly the scans the kernel refuses.
"""

import numpy as np
import pytest

from repro.analysis import steady_state
from repro.analysis.steady_state import steady_state_scan
from repro.runtime import executor, registry
from repro.sim.probe_vector import (
    PoissonCrossSpec,
    simulate_steady_state_batch,
)

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
