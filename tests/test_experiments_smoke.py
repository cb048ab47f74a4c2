"""Smoke tests for every figure runner.

These run each experiment with deliberately tiny parameters and verify
structure (series present, finite values, metadata) — the full-size
shape checks are exercised by the benchmark harness.
"""

import numpy as np
import pytest

import repro.analysis as analysis


def assert_well_formed(result, expected_series):
    assert result.experiment
    for name in expected_series:
        assert name in result.series, f"missing series {name}"
        assert np.all(np.isfinite(result.series[name]))
    assert len(result.x) > 0
    assert result.table()


RATES = np.array([1e6, 3e6, 6e6])


class TestSteadyStateRunners:
    def test_fig1(self):
        result = analysis.fig1_rate_response(
            probe_rates_bps=RATES, duration=1.0, warmup=0.3,
            repetitions=1)
        assert_well_formed(result, ["probe_bps", "cross_bps"])
        assert result.meta["capacity_bps"] > 5e6

    def test_fig4(self):
        result = analysis.fig4_complete_picture(
            probe_rates_bps=RATES, duration=1.0, warmup=0.3,
            repetitions=1)
        assert_well_formed(result, ["probe_bps", "cross_bps", "fifo_bps",
                                    "model_eq4_bps"])


class TestTransientRunners:
    def test_fig6(self):
        result = analysis.fig6_mean_access_delay(
            n_packets=40, repetitions=25, plot_limit=20)
        assert_well_formed(result, ["mean_access_delay_s"])
        assert result.meta["steady_state_mean_s"] > 0

    def test_fig7(self):
        result = analysis.fig7_delay_histograms(
            n_packets=40, repetitions=30, bins=10)
        assert_well_formed(result, ["count_first", "count_steady"])
        assert result.series["count_first"].sum() == 30

    def test_fig8(self):
        result = analysis.fig8_ks_and_queue(
            n_packets=40, repetitions=30, plot_limit=15)
        assert_well_formed(result, ["ks_value", "ks_threshold",
                                    "mean_queue_pkts"])

    def test_fig9(self):
        result = analysis.fig9_ks_complex(
            n_packets=16, repetitions=25, plot_limit=8)
        assert_well_formed(result, ["ks_value", "ks_threshold"])

    def test_fig10(self):
        result = analysis.fig10_transient_duration(
            cross_loads_erlang=[0.3, 0.6], n_packets=60, repetitions=30)
        assert_well_formed(result, ["transient_tol_0.1",
                                    "transient_tol_0.01"])
        assert np.all(result.series["transient_tol_0.1"] >= 1)

    def test_fig10_load_validation(self):
        with pytest.raises(ValueError):
            analysis.fig10_transient_duration(
                cross_loads_erlang=[0.0], n_packets=60, repetitions=5)

    def test_collect_delay_matrix_queues(self):
        from repro.traffic.generators import PoissonGenerator
        collection = analysis.collect_delay_matrix(
            5e6, [("cross", PoissonGenerator(2e6, 1500))],
            n_packets=10, repetitions=5, track_queues=True)
        assert collection.matrix.repetitions == 5
        assert collection.mean_queue_profile("cross").shape == (10,)


class TestTrainRunners:
    def test_fig13(self):
        result = analysis.fig13_short_trains(
            probe_rates_bps=RATES, train_lengths=(3, 10),
            repetitions=8)
        assert_well_formed(result, ["steady_state_bps", "train_3_bps",
                                    "train_10_bps"])

    def test_fig15(self):
        result = analysis.fig15_short_trains_fifo(
            probe_rates_bps=RATES, train_lengths=(3, 10),
            repetitions=8)
        assert_well_formed(result, ["steady_state_bps", "train_3_bps"])

    def test_fig16(self):
        result = analysis.fig16_packet_pair(
            cross_rates_bps=[0.0, 3e6], pair_repetitions=40)
        assert_well_formed(result, ["fluid_actual_bps", "packet_pair_bps"])

    def test_fig17(self):
        result = analysis.fig17_mser(
            probe_rates_bps=RATES, n_packets=20, repetitions=12)
        assert_well_formed(result, ["steady_state_bps", "train_20_bps",
                                    "mser2_bps"])


class TestBaselineRunners:
    def test_eq1(self):
        result = analysis.eq1_fifo_rate_response(
            probe_rates_bps=RATES, n_packets=120, repetitions=8)
        assert_well_formed(result, ["model_eq1_bps", "measured_bps"])
        assert result.all_checks_pass

    def test_bounds_consistency(self):
        result = analysis.bounds_consistency(
            probe_rates_bps=np.array([2e6, 6e6]), repetitions=40)
        assert_well_formed(result, ["lower_s", "measured_s", "upper_s"])
        assert result.checks["bounds-ordered"]
