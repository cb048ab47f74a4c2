"""Tests for the cross-traffic generators."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.traffic.generators import (
    ArrivalSchedule,
    CBRGenerator,
    OnOffGenerator,
    PoissonGenerator,
    TraceGenerator,
)


def offered_rate_bps(schedule, horizon):
    """Network-layer load a schedule offers over ``horizon``, in bit/s."""
    return sum(packet.size_bytes for _, packet in schedule) * 8 / horizon


def reference_poisson_times(generator, horizon, rng, start=0.0):
    """The ``t += gap`` loop whose sums ``PoissonGenerator.generate``
    must reproduce bit for bit: the same gap batches, added one at a
    time until the path crosses the horizon."""
    lam = generator.packets_per_second
    t, end = start, start + horizon
    batch = max(16, int(lam * horizon * 1.2) + 8)
    times = []
    while True:
        for gap in rng.exponential(1.0 / lam, size=batch):
            t += gap
            if t >= end:
                return np.array(times)
            times.append(t)


class CountingRng(np.random.Generator):
    """A PCG64 generator that counts its exponential gap batches and
    scales their gaps by ``shrink`` (below 1, a path needs more batches
    to cross its horizon)."""

    def __init__(self, seed, shrink=1.0):
        super().__init__(np.random.PCG64(seed))
        self.shrink = shrink
        self.batches = 0

    def exponential(self, scale=1.0, size=None):
        self.batches += 1
        return super().exponential(scale * self.shrink, size)


class TestArrivalSchedule:
    def test_rejects_decreasing_times(self):
        with pytest.raises(ValueError):
            ArrivalSchedule([1.0, 0.5], [100, 100])

    def test_len_and_iter(self):
        schedule = ArrivalSchedule([0.0, 1.0], [100, 200])
        assert len(schedule) == 2
        assert [t for t, _ in schedule] == [0.0, 1.0]

    def test_times_array(self):
        schedule = ArrivalSchedule([0.5], [100])
        assert schedule.times.dtype == float

    def test_rejects_a_size_count_unlike_the_times(self):
        with pytest.raises(ValueError):
            ArrivalSchedule([0.0, 1.0], [100])

    def test_iteration_yields_the_schedule_packets(self):
        schedule = PoissonGenerator(1e6, 576, flow="fifo").generate(
            0.5, np.random.default_rng(4))
        pairs = list(schedule)
        assert len(pairs) == len(schedule) > 0
        assert [t for t, _ in pairs] == schedule.times.tolist()
        for t, packet in pairs:
            assert packet.size_bytes == 576
            assert packet.flow == "fifo"
            assert packet.created_at == t


class TestPoissonGenerator:
    def test_rate_accuracy(self, rng):
        gen = PoissonGenerator(2e6, 1500)
        schedule = gen.generate(20.0, rng)
        rate = offered_rate_bps(schedule, 20.0)
        assert rate == pytest.approx(2e6, rel=0.1)

    def test_packets_per_second(self):
        gen = PoissonGenerator(1.2e6, 1500)
        assert gen.packets_per_second == pytest.approx(100.0)

    def test_zero_rate_yields_empty(self, rng):
        assert len(PoissonGenerator(0.0).generate(10.0, rng)) == 0

    def test_zero_horizon_yields_empty(self, rng):
        assert len(PoissonGenerator(1e6).generate(0.0, rng)) == 0

    def test_times_within_horizon(self, rng):
        schedule = PoissonGenerator(5e6, 1500).generate(2.0, rng, start=1.0)
        times = schedule.times
        assert times.min() >= 1.0
        assert times.max() < 3.0

    def test_exponential_gaps(self, rng):
        gen = PoissonGenerator(4e6, 1500)
        gaps = np.diff(gen.generate(30.0, rng).times)
        # CV of exponential is 1.
        assert np.std(gaps) / np.mean(gaps) == pytest.approx(1.0, abs=0.12)

    def test_flow_label_propagates(self, rng):
        schedule = PoissonGenerator(1e6, flow="fifo").generate(1.0, rng)
        assert all(p.flow == "fifo" for _, p in schedule)

    def test_rejects_negative_rate(self):
        with pytest.raises(ValueError):
            PoissonGenerator(-1.0)

    def test_rejects_bad_size(self):
        with pytest.raises(ValueError):
            PoissonGenerator(1e6, size_bytes=0)

    def test_reproducible_with_same_seed(self):
        a = PoissonGenerator(1e6).generate(5.0, np.random.default_rng(3))
        b = PoissonGenerator(1e6).generate(5.0, np.random.default_rng(3))
        assert np.array_equal(a.times, b.times)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("shrink, horizon, batches", [
        (1.0, 0.3, range(1, 2)),    # the path ends inside the first batch
        (0.25, 2.0, range(3, 10)),  # quarter-length gaps: three or more
    ])
    def test_draw_is_the_sequential_sum_bit_for_bit(self, seed, shrink,
                                                    horizon, batches):
        gen = PoissonGenerator(1.5e6, 1500)
        rng, reference_rng = CountingRng(seed, shrink), CountingRng(seed,
                                                                     shrink)
        times = gen.generate(horizon, rng, start=0.25).times
        expected = reference_poisson_times(gen, horizon, reference_rng,
                                           start=0.25)
        assert times.tobytes() == expected.tobytes()
        assert rng.batches == reference_rng.batches
        assert rng.batches in batches
        # The stream stops where the loop's does: the next draw agrees.
        assert rng.random() == reference_rng.random()


class TestCBRGenerator:
    def test_interval(self):
        gen = CBRGenerator(1.2e6, 1500)
        assert gen.interval == pytest.approx(0.01)

    def test_periodic_times(self, rng):
        schedule = CBRGenerator(1.2e6, 1500).generate(0.1, rng)
        gaps = np.diff(schedule.times)
        assert np.allclose(gaps, 0.01)

    def test_rate_accuracy(self, rng):
        schedule = CBRGenerator(3e6, 1500).generate(10.0, rng)
        assert offered_rate_bps(schedule, 10.0) == pytest.approx(3e6, rel=0.01)

    def test_zero_rate_empty(self, rng):
        assert len(CBRGenerator(0.0).generate(1.0, rng)) == 0

    def test_jitter_requires_rng(self):
        gen = CBRGenerator(1e6, jitter=1e-3)
        with pytest.raises(ValueError):
            gen.generate(1.0, None)

    def test_jitter_moves_times(self, rng):
        plain = CBRGenerator(1e6, 1500).generate(1.0, np.random.default_rng(1))
        jittered = CBRGenerator(1e6, 1500, jitter=1e-3).generate(
            1.0, np.random.default_rng(1))
        assert not np.allclose(plain.times[:len(jittered)],
                               jittered.times[:len(plain)])

    def test_rejects_negative_jitter(self):
        with pytest.raises(ValueError):
            CBRGenerator(1e6, jitter=-1e-3)

    def test_start_offset(self, rng):
        schedule = CBRGenerator(1.2e6, 1500).generate(0.05, rng, start=2.0)
        assert schedule.times.min() >= 2.0


class TestOnOffGenerator:
    def test_mean_rate(self):
        gen = OnOffGenerator(4e6, mean_on=0.1, mean_off=0.1)
        assert gen.mean_rate_bps == pytest.approx(2e6)

    def test_long_run_rate(self, rng):
        gen = OnOffGenerator(4e6, mean_on=0.05, mean_off=0.05)
        schedule = gen.generate(50.0, rng)
        assert offered_rate_bps(schedule, 50.0) == pytest.approx(2e6, rel=0.2)

    def test_burstier_than_poisson(self, rng):
        onoff = OnOffGenerator(8e6, mean_on=0.05, mean_off=0.15, size_bytes=1500)
        gaps = np.diff(onoff.generate(30.0, rng).times)
        # On-off gaps have CV > 1 (heavier than exponential).
        assert np.std(gaps) / np.mean(gaps) > 1.1

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            OnOffGenerator(0.0, 0.1, 0.1)
        with pytest.raises(ValueError):
            OnOffGenerator(1e6, 0.0, 0.1)
        with pytest.raises(ValueError):
            OnOffGenerator(1e6, 0.1, 0.1, size_bytes=-1)

    def test_times_within_horizon(self, rng):
        schedule = OnOffGenerator(4e6, 0.05, 0.05).generate(2.0, rng)
        if len(schedule):
            assert schedule.times.max() < 2.0


class TestTraceGenerator:
    def test_replays_trace(self):
        gen = TraceGenerator([(0.1, 100), (0.2, 200)])
        schedule = gen.generate(1.0)
        assert len(schedule) == 2
        assert list(schedule)[1][1].size_bytes == 200

    def test_clips_to_window(self):
        gen = TraceGenerator([(0.1, 100), (0.9, 100), (1.5, 100)])
        schedule = gen.generate(1.0)
        assert len(schedule) == 2

    def test_respects_start(self):
        gen = TraceGenerator([(0.1, 100), (0.9, 100)])
        schedule = gen.generate(1.0, start=0.5)
        assert len(schedule) == 1

    def test_rejects_unsorted_trace(self):
        with pytest.raises(ValueError):
            TraceGenerator([(1.0, 100), (0.5, 100)])


class TestGeneratorProperties:
    @settings(max_examples=25, deadline=None)
    @given(rate=st.floats(min_value=1e5, max_value=8e6),
           size=st.integers(min_value=40, max_value=1500),
           seed=st.integers(min_value=0, max_value=2**31))
    def test_poisson_times_sorted_and_bounded(self, rate, size, seed):
        gen = PoissonGenerator(rate, size)
        schedule = gen.generate(1.0, np.random.default_rng(seed))
        times = schedule.times
        assert np.all(np.diff(times) >= 0)
        if len(times):
            assert times.min() >= 0.0 and times.max() < 1.0

    @settings(max_examples=25, deadline=None)
    @given(rate=st.floats(min_value=1e5, max_value=8e6),
           size=st.integers(min_value=40, max_value=1500))
    def test_cbr_rate_matches_request(self, rate, size):
        schedule = CBRGenerator(rate, size).generate(5.0, None)
        measured = offered_rate_bps(schedule, 5.0)
        assert measured == pytest.approx(rate, rel=0.05)
