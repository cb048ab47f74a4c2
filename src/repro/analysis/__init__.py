"""Experiment runners — one per figure of the paper.

Every runner returns an :class:`repro.analysis.results.ExperimentResult`
carrying the x-axis, the named series the paper plots, shape checks and
metadata; the benchmark harness prints the table and asserts the
checks.  Parameters default to scaled-down-but-faithful values (the
paper used 25k–70k repetitions on a cluster; see EXPERIMENTS.md).

=====  ============================================================
Fig.   Runner
=====  ============================================================
1      :func:`repro.analysis.steady_state.fig1_rate_response`
4      :func:`repro.analysis.steady_state.fig4_complete_picture`
6      :func:`repro.analysis.transient.fig6_mean_access_delay`
7      :func:`repro.analysis.transient.fig7_delay_histograms`
8      :func:`repro.analysis.transient.fig8_ks_and_queue`
9      :func:`repro.analysis.transient.fig9_ks_complex`
10     :func:`repro.analysis.transient.fig10_transient_duration`
13     :func:`repro.analysis.trains.fig13_short_trains`
15     :func:`repro.analysis.trains.fig15_short_trains_fifo`
16     :func:`repro.analysis.trains.fig16_packet_pair`
17     :func:`repro.analysis.trains.fig17_mser`
eq(1)  :func:`repro.analysis.baseline.eq1_fifo_rate_response`
=====  ============================================================

The bounds framework is validated by
:func:`repro.analysis.baseline.bounds_consistency`.  Design-choice
ablations live in :mod:`repro.analysis.ablations` (Bianchi calibration,
immediate-access rule, KS variants, RTS/CTS, truncation heuristics);
the paper's prose claims (section 7.2 tool convergence, equation (31)
B(n), the multi-hop access-path setting) are made measurable in
:mod:`repro.analysis.extensions`; :mod:`repro.analysis.saturation`
holds the dual-backend (event/vector) saturated-BSS study.

Runners are plain functions; scheduling concerns (repetition scaling,
worker-process sharding, result caching) live one layer up in
:mod:`repro.runtime`, whose registry is how the CLI and the benchmark
harness invoke everything here.
"""

from repro.analysis.results import ExperimentResult
from repro.analysis.steady_state import (
    fig1_rate_response,
    fig4_complete_picture,
)
from repro.analysis.transient import (
    collect_delay_matrix,
    fig6_mean_access_delay,
    fig7_delay_histograms,
    fig8_ks_and_queue,
    fig9_ks_complex,
    fig10_transient_duration,
)
from repro.analysis.trains import (
    fig13_short_trains,
    fig15_short_trains_fifo,
    fig16_packet_pair,
    fig17_mser,
)
from repro.analysis.baseline import (
    bounds_consistency,
    eq1_fifo_rate_response,
)
from repro.analysis.ablations import (
    ablation_bianchi_calibration,
    ablation_immediate_access,
    ablation_ks_methods,
    ablation_rts_cts,
    ablation_truncation_heuristics,
)
from repro.analysis.extensions import (
    multihop_access_path_study,
    onoff_cross_study,
    tool_convergence_study,
    topp_on_wlan_study,
    transient_b_vs_n,
)
from repro.analysis.saturation import (
    dcf_saturation_study,
    retry_limit_study,
    simulate_saturated,
)

__all__ = [
    "ExperimentResult",
    "ablation_bianchi_calibration",
    "ablation_immediate_access",
    "ablation_ks_methods",
    "ablation_rts_cts",
    "ablation_truncation_heuristics",
    "multihop_access_path_study",
    "onoff_cross_study",
    "retry_limit_study",
    "tool_convergence_study",
    "topp_on_wlan_study",
    "transient_b_vs_n",
    "bounds_consistency",
    "collect_delay_matrix",
    "dcf_saturation_study",
    "eq1_fifo_rate_response",
    "fig10_transient_duration",
    "fig13_short_trains",
    "fig15_short_trains_fifo",
    "fig16_packet_pair",
    "fig17_mser",
    "fig1_rate_response",
    "fig4_complete_picture",
    "fig6_mean_access_delay",
    "fig7_delay_histograms",
    "fig8_ks_and_queue",
    "fig9_ks_complex",
    "simulate_saturated",
]
