"""Property-based differential harness: random scenarios, two backends.

The hand-written KS pins each freeze one operating point; this module
drives the whole dispatch surface with generated scenarios instead.
For every :class:`tests.strategies.ScenarioCase` drawn by hypothesis:

* the channel's compiled :class:`~repro.backends.ScenarioSpec` is
  resolved through ``repro.backends.dispatch`` and the resolution is
  checked against the case's actual eligibility (a trace-replay cross
  station is the one event-only axis left);
* eligible cases run on *both* backends at the same master seed and
  their delay and train-span (throughput) distributions are
  KS-compared at a *family-wise* ``alpha = 0.01`` using
  per-repetition statistics — probes within a repetition share one
  cross-traffic sample path, so pooled KS would be anti-conservative
  (see ``tests/test_retry_onoff_equivalence.py``).  The per-comparison
  level is Bonferroni-corrected over all ~90 comparisons of a run;
  without the correction ~1 null failure per run is *expected* (and
  was observed — a heavily atomic FIFO-only delay distribution at 30
  repetitions hit KS 0.50 against a same-backend null topping out at
  0.40).  Gross kernel/engine divergence still trips the corrected
  threshold; the hand-written pins at 100-200 repetitions remain the
  fine-grained instruments;
* event-only cases must fall back with a recorded reason on ``auto``
  and raise :class:`~repro.backends.BackendUnavailableError` when
  ``vector`` is forced.

hypothesis is optional: without it the module's tests skip.
``derandomize=True`` makes the example stream a deterministic
regression suite rather than a flaky sampler — the same >= 25
scenarios run on every invocation.
"""

import numpy as np
import pytest

from helpers import ks_assert_impl as _ks_assert
from repro.backends import EVENT, BackendUnavailableError
from strategies import HAS_HYPOTHESIS, scenario_cases

if HAS_HYPOTHESIS:
    from hypothesis import HealthCheck, given, settings

REPS = 40
MAX_EXAMPLES = 30

#: Family-wise level, split (Bonferroni) over every KS comparison a
#: full harness run can make: 3 statistics per eligible example.
FAMILY_ALPHA = 0.01
KS_ALPHA = FAMILY_ALPHA / (3 * MAX_EXAMPLES)

#: Cases seen by the @given test, consumed by the coverage audit below.
_seen = {"total": 0, "eligible": 0, "event_only": 0}


def _check_event_only(case, channel, train):
    resolution = channel.resolve_backend("auto", train=train)
    assert resolution.backend is EVENT
    assert "batched arrival sampler" in resolution.fallback
    with pytest.raises(BackendUnavailableError):
        channel.resolve_backend("vector", train=train)
    _seen["event_only"] += 1


def _check_differential(case, channel, train):
    resolution = channel.resolve_backend("auto", train=train)
    assert resolution.name == "vector", resolution
    assert resolution.kernel == "probe-train kernel"
    assert resolution.fallback is None

    event = channel.send_trains_dense(train, REPS, seed=case.seed,
                                      backend="event")
    vector = channel.send_trains_dense(train, REPS, seed=case.seed,
                                       backend="vector")
    assert vector.access_delays.shape == (REPS, case.n_probe)
    assert not np.isnan(vector.access_delays).any(), \
        "kernel dropped a probe packet the event engine delivered"

    # Per-repetition statistics (iid across repetitions): the mean
    # access delay, the transient-critical first probe, and the train
    # span (receive-side dispersion, the throughput observable).
    _ks_assert(event.access_delays.mean(axis=1),
               vector.access_delays.mean(axis=1), alpha=KS_ALPHA)
    _ks_assert(event.access_delays[:, 0], vector.access_delays[:, 0],
               alpha=KS_ALPHA)
    _ks_assert(event.recv_times[:, -1] - event.recv_times[:, 0],
               vector.recv_times[:, -1] - vector.recv_times[:, 0],
               alpha=KS_ALPHA)
    _seen["eligible"] += 1


if HAS_HYPOTHESIS:

    @pytest.mark.slow
    @settings(max_examples=MAX_EXAMPLES, deadline=None, derandomize=True,
              database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(case=scenario_cases())
    def test_random_scenarios_agree_across_backends(case):
        _seen["total"] += 1
        channel = case.build_channel()
        train = case.train()
        spec = channel.scenario_spec(train=train)
        assert spec.retry_limit == (case.retry_limit is not None)
        if case.event_only:
            assert spec.cross_traffic == "other"
            _check_event_only(case, channel, train)
        else:
            _check_differential(case, channel, train)

else:  # pragma: no cover - exercised in the smoke lane

    def test_random_scenarios_agree_across_backends():
        pytest.skip("hypothesis is not installed; differential "
                    "harness needs it to generate scenarios")


@pytest.mark.slow
def test_harness_covered_enough_scenarios():
    """Audit the @given run: >= 25 generated specs went through
    dispatch and both dispatch outcomes (kernel and event-only
    fallback) were exercised."""
    if _seen["total"] == 0:
        pytest.skip("differential harness did not run in this session")
    assert _seen["total"] >= 25, _seen
    assert _seen["eligible"] >= 15, _seen
    assert _seen["event_only"] >= 1, _seen
    assert _seen["eligible"] + _seen["event_only"] == _seen["total"]
