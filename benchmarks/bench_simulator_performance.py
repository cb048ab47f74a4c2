"""Micro-benchmarks of the substrates themselves.

Not figure reproductions — these track the raw speed of the pieces the
experiments are built on, so performance regressions in the simulator
show up in CI: event-engine scheduling throughput, DCF packets
simulated per second, the vectorized batch kernel (including its
speedup floor over the event engine), and the Lindley recursion.

The bench-regression CI job runs this file at ``REPRO_BENCH_SCALE``
0.05 and compares the medians against
``benchmarks/results/baseline.json`` via ``tools/bench_compare.py``.
"""

import time
import tracemalloc

import numpy as np

from conftest import bench_scale

from repro.analysis.saturation import simulate_saturated
from repro.backends import BatchRequest, ScenarioSpec, dispatch
from repro.core.dispersion import output_gaps_batch
from repro.runtime.executor import chunked_reps, derive_seeds, run_batch
from repro.mac.scenario import StationSpec, WlanScenario
from repro.queueing.lindley import lindley_batch, lindley_recursion
from repro.sim.engine import Simulator
from repro.sim.probe_vector import (
    CbrCrossSpec,
    OnOffCrossSpec,
    PoissonCrossSpec,
    simulate_probe_train_batch,
    simulate_steady_state_batch,
)
from repro.sim.vector import simulate_saturated_batch
from repro.testbed.channel import SimulatedWlanChannel
from repro.traffic.generators import OnOffGenerator, PoissonGenerator
from repro.traffic.probe import ProbeTrain


def _best_speedup(event_fn, vector_fn, floor=5.0, attempts=3):
    """Best event/vector wall-clock ratio over a few attempts.

    Shared shape of every backend speedup floor: a single
    descheduling hiccup on a noisy shared runner must not fail the
    gate, so the best of ``attempts`` measurements is compared against
    the floor (typical clean ratios sit far above it).
    """
    best, last = 0.0, (0.0, 0.0)
    for _ in range(attempts):
        start = time.perf_counter()
        event_fn()
        event_s = time.perf_counter() - start
        start = time.perf_counter()
        vector_fn()
        vector_s = time.perf_counter() - start
        last = (event_s, vector_s)
        best = max(best, event_s / vector_s)
        if best >= floor:
            break
    return best, last


def test_engine_event_throughput(benchmark):
    """Schedule + fire 20k chained events."""

    def run():
        sim = Simulator()
        count = [0]

        def tick():
            count[0] += 1
            if count[0] < 20_000:
                sim.schedule_after(1e-4, tick)

        sim.schedule(0.0, tick)
        sim.run()
        return count[0]

    assert benchmark(run) == 20_000


def test_dcf_packet_throughput(benchmark):
    """Simulate packet exchanges with two contending stations.

    ~3k packets at full scale; ``REPRO_BENCH_SCALE`` shortens the
    horizon (clamped at 1 s of simulated time) for the quick CI pass.
    """
    horizon = max(1.0, 6.0 * bench_scale())
    scenario = WlanScenario()
    specs = [
        StationSpec("a", generator=PoissonGenerator(3e6, 1500)),
        StationSpec("b", generator=PoissonGenerator(3e6, 1500)),
    ]

    def run():
        result = scenario.run(specs, horizon=horizon, seed=1)
        return result.successes

    successes = benchmark(run)
    # ~500 exchanges per simulated second at 6 Mb/s offered load.
    assert successes > 400 * horizon


def test_vector_dcf_batch_throughput(benchmark):
    """Vector kernel: 10 saturated stations, scaled repetition batch.

    100 repetitions at full scale; ``REPRO_BENCH_SCALE`` shrinks the
    batch (clamped at 20 repetitions, below which fixed per-round
    dispatch dominates and the bench stops measuring the kernel).
    """
    repetitions = max(20, int(round(100 * bench_scale())))

    def run():
        batch = simulate_saturated_batch(10, 20, repetitions, seed=1)
        return int(batch.successes.sum())

    assert benchmark(run) == 10 * 20 * repetitions


def test_vector_backend_speedup():
    """The vector backend must beat the event engine by >= 5x.

    Acceptance floor of the vectorized fast path: a 10-station
    saturated scenario at 100 repetitions, identical workload on both
    backends.  Deliberately *not* scaled by ``REPRO_BENCH_SCALE``: the
    kernel pays a fixed ~10 ms of per-round numpy dispatch that only
    amortises across a real batch, so shrinking the batch would test a
    regime the fast path is not built for.
    """
    stations, packets = 10, 10
    repetitions = 100
    expected = stations * packets

    def run_event():
        event = simulate_saturated(stations, packets, repetitions, seed=2,
                                   backend="event")
        assert np.all(event.successes == expected)

    def run_vector():
        vector = simulate_saturated(stations, packets, repetitions, seed=2,
                                    backend="vector")
        assert np.all(vector.successes == expected)

    best, (event_s, vector_s) = _best_speedup(run_event, run_vector)
    print(f"\nvector backend speedup: {best:.1f}x "
          f"(last attempt: event {event_s:.3f}s, vector {vector_s:.4f}s, "
          f"{repetitions} repetitions)")
    assert best >= 5.0, (
        f"vector backend only {best:.1f}x faster across 3 attempts "
        f"(last: event {event_s:.3f}s vs vector {vector_s:.3f}s)")


def test_lindley_recursion_throughput(benchmark):
    """Push 100k packets through the Lindley recursion."""

    rng = np.random.default_rng(0)
    arrivals = np.sort(rng.uniform(0, 100.0, 100_000))
    services = rng.exponential(1e-3, 100_000)

    def run():
        starts, departures = lindley_recursion(arrivals, services)
        return float(departures[-1])

    assert benchmark(run) > 0


def test_lindley_batch_throughput(benchmark):
    """Batched Lindley: 100 repetitions x 1000 packets in one pass."""

    rng = np.random.default_rng(1)
    arrivals = np.sort(rng.uniform(0, 10.0, (100, 1000)), axis=1)
    services = rng.exponential(1e-3, (100, 1000))

    def run():
        starts, departures = lindley_batch(arrivals, services)
        return float(departures[:, -1].sum())

    assert benchmark(run) > 0


def test_probe_vector_batch_throughput(benchmark):
    """Probe-train kernel: one 25-packet train batch under contention.

    60 repetitions at full scale; ``REPRO_BENCH_SCALE`` shrinks the
    batch (clamped at 15 repetitions, below which fixed per-event
    numpy dispatch dominates and the bench stops measuring the
    kernel).
    """
    repetitions = max(15, int(round(60 * bench_scale())))
    train = ProbeTrain.at_rate(25, 5e6, 1500)

    def run():
        batch = simulate_probe_train_batch(
            train.n, train.gap, repetitions, size_bytes=1500,
            cross=[PoissonCrossSpec(4e6 / (1500 * 8), 1500)],
            horizon=1.0, seed=1)
        return float(batch.recv_times[:, -1].sum())

    assert benchmark(run) > 0


def test_probe_vector_backend_speedup():
    """The probe-train vector backend must beat the event engine >= 5x.

    Acceptance floor of the vectorized rate-response pipeline: a full
    rate scan — 20 probing rates x 60 repetitions of a 10-packet train
    against 2 Mb/s Poisson cross-traffic — on both backends of the
    same channel.  Deliberately *not* scaled by ``REPRO_BENCH_SCALE``:
    the kernel pays fixed per-event numpy dispatch that only amortises
    across a real batch, so shrinking the batch would test a regime
    the fast path is not built for.
    """
    repetitions, n_packets = 60, 10
    rates = np.linspace(1e6, 8e6, 20)
    channel = SimulatedWlanChannel(
        [("cross", PoissonGenerator(2e6, 1500))], warmup=0.05)

    def scan(backend):
        total = 0.0
        for k, rate in enumerate(rates):
            train = ProbeTrain.at_rate(n_packets, float(rate), 1500)
            raws = channel.send_trains(train, repetitions,
                                       seed=7 + 13 * k, backend=backend)
            total += sum(float(r.recv_times[-1]) for r in raws)
        assert total > 0

    best, (event_s, vector_s) = _best_speedup(
        lambda: scan("event"), lambda: scan("vector"))
    print(f"\nprobe vector backend speedup: {best:.1f}x "
          f"(last attempt: event {event_s:.3f}s, vector {vector_s:.4f}s, "
          f"{len(rates)} rates x {repetitions} repetitions)")
    assert best >= 5.0, (
        f"probe vector backend only {best:.1f}x faster across 3 attempts "
        f"(last: event {event_s:.3f}s vs vector {vector_s:.3f}s)")


def test_probe_vector_rts_batch_throughput(benchmark):
    """Probe-train kernel in RTS/CTS mode (ablation-rts's setting).

    60 repetitions at full scale; ``REPRO_BENCH_SCALE`` shrinks the
    batch (clamped at 15 repetitions, below which fixed per-event
    numpy dispatch dominates).
    """
    repetitions = max(15, int(round(60 * bench_scale())))
    train = ProbeTrain.at_rate(25, 5e6, 1500)

    def run():
        batch = simulate_probe_train_batch(
            train.n, train.gap, repetitions, size_bytes=1500,
            cross=[PoissonCrossSpec(4e6 / (1500 * 8), 1500)],
            horizon=1.0, seed=1, rts_threshold=0)
        return float(batch.recv_times[:, -1].sum())

    assert benchmark(run) > 0


def test_probe_vector_queue_trace_batch_throughput(benchmark):
    """Probe-train kernel with queue tracking (fig8's setting).

    40 repetitions at full scale; ``REPRO_BENCH_SCALE`` shrinks the
    batch (clamped at 10 repetitions).
    """
    repetitions = max(10, int(round(40 * bench_scale())))
    train = ProbeTrain.at_rate(30, 8e6, 1500)

    def run():
        batch = simulate_probe_train_batch(
            train.n, train.gap, repetitions, size_bytes=1500,
            cross=[PoissonCrossSpec(2e6 / (1500 * 8), 1500)],
            horizon=1.0, seed=1, track_queues=True)
        return float(batch.queue_traces[0]
                     .size_at(batch.send_times).sum())

    assert benchmark(run) >= 0


def test_steady_cbr_batch_throughput(benchmark):
    """Steady-state kernel with CBR cross-traffic (ablation-bianchi).

    20 repetitions of a 3-station saturated second at full scale;
    ``REPRO_BENCH_SCALE`` shrinks the batch (clamped at 5).
    """
    repetitions = max(5, int(round(20 * bench_scale())))
    pps = 9e6 / (1500 * 8)

    def run():
        batch = simulate_steady_state_batch(
            9e6, repetitions, size_bytes=1500,
            cross=[CbrCrossSpec(pps, 1500)] * 2,
            duration=1.0, warmup=0.3, seed=1)
        return float(np.sum(batch.probe_bits + batch.cross_bits.sum(axis=1)))

    assert benchmark(run) > 0


def test_multihop_chain_batch_throughput(benchmark):
    """Chained per-hop kernels (ext-multihop's path).

    40 repetitions at full scale; ``REPRO_BENCH_SCALE`` shrinks the
    batch (clamped at 10 repetitions).
    """
    from repro.path import NetworkPath, SimulatedPathChannel, WiredHop, WlanHop
    repetitions = max(10, int(round(40 * bench_scale())))
    channel = SimulatedPathChannel(NetworkPath([
        WiredHop(100e6, prop_delay=1e-3),
        WlanHop([("neighbour", PoissonGenerator(4e6, 1500))]),
    ]))
    train = ProbeTrain.at_rate(20, 3e6, 1500)

    def run():
        batch = channel.send_trains_batch(train, repetitions, seed=1)
        return float(batch.recv_times[:, -1].sum())

    assert benchmark(run) > 0


def test_fig8_queue_trace_backend_speedup():
    """fig8's vector path must beat the event engine by >= 5x.

    Acceptance floor of the queue-trace capability: fig8's
    configuration shape (8 Mb/s probe, 2 Mb/s cross, queue tracking)
    at 60 repetitions of a 40-packet train on both backends of
    ``collect_delay_matrix``.  Deliberately *not* scaled by
    ``REPRO_BENCH_SCALE``: the kernel pays fixed per-event numpy
    dispatch that only amortises across a real batch.
    """
    from repro.analysis.transient import collect_delay_matrix
    cross = [("cross", PoissonGenerator(2e6, 1500))]
    kwargs = dict(n_packets=40, repetitions=60, seed=5,
                  track_queues=True)

    best, (event_s, vector_s) = _best_speedup(
        lambda: collect_delay_matrix(8e6, cross, backend="event",
                                     **kwargs),
        lambda: collect_delay_matrix(8e6, cross, backend="vector",
                                     **kwargs))
    print(f"\nfig8 queue-trace backend speedup: {best:.1f}x "
          f"(last attempt: event {event_s:.3f}s, vector {vector_s:.4f}s)")
    assert best >= 5.0, (
        f"fig8 vector path only {best:.1f}x faster across 3 attempts "
        f"(last: event {event_s:.3f}s vs vector {vector_s:.3f}s)")


def test_fused_scan_speedup():
    """One fused rate-scan call must beat its per-point calls by >= 4x.

    Acceptance floor of the fused steady-state scan: fig1's 20-rate
    scan (4.5 Mb/s Poisson contender, 3 repetitions per rate, 1 s runs
    with a 0.25 s warm-up) as one 60-row
    ``simulate_steady_state_batch`` call with a probe rate per row,
    against 20 separate 3-row calls.  Every row must be bit-identical.
    Deliberately *not* scaled by ``REPRO_BENCH_SCALE``, like fig8's
    floor: the saving is per-event numpy dispatch shared across rows,
    which only shows at the figure's own scan width.
    """
    rates = np.arange(0.5e6, 10.01e6, 0.5e6)
    reps = 3
    kwargs = dict(size_bytes=1500,
                  cross=[PoissonCrossSpec(4.5e6 / (1500 * 8), 1500)],
                  duration=1.0, warmup=0.25)
    point_seeds = [derive_seeds(k, reps) for k in range(len(rates))]
    out = {}

    def per_point():
        out["per_point"] = np.concatenate([
            simulate_steady_state_batch(rate, reps, seeds=seeds,
                                        **kwargs).probe_bits
            for rate, seeds in zip(rates, point_seeds)])

    def fused():
        out["fused"] = simulate_steady_state_batch(
            np.repeat(rates, reps), len(rates) * reps,
            seeds=np.concatenate(point_seeds), **kwargs).probe_bits

    best, (per_point_s, fused_s) = _best_speedup(per_point, fused,
                                                 floor=4.0)
    assert np.array_equal(out["fused"], out["per_point"])
    print(f"\nfused scan speedup: {best:.1f}x (last attempt: "
          f"{len(rates)} calls {per_point_s:.3f}s, fused {fused_s:.3f}s)")
    assert best >= 4.0, (
        f"fused scan only {best:.1f}x faster across 3 attempts "
        f"(last: {len(rates)} calls {per_point_s:.3f}s vs fused "
        f"{fused_s:.3f}s)")


def test_rts_cts_backend_speedup():
    """ablation-rts's vector path must beat the event engine by >= 5x.

    Acceptance floor of the RTS/CTS airtime mode: the ablation's
    configuration shape (5 Mb/s probe, 4 Mb/s cross, RTS on every
    frame) at 60 repetitions of a 40-packet train.  Not scaled by
    ``REPRO_BENCH_SCALE`` (see the probe-kernel floor).
    """
    channel = SimulatedWlanChannel(
        [("cross", PoissonGenerator(4e6, 1500))], warmup=0.1,
        rts_threshold=0)
    train = ProbeTrain.at_rate(40, 5e6, 1500)

    best, (event_s, vector_s) = _best_speedup(
        lambda: channel.send_trains_dense(train, 60, seed=3,
                                          backend="event"),
        lambda: channel.send_trains_dense(train, 60, seed=3,
                                          backend="vector"))
    print(f"\nRTS/CTS backend speedup: {best:.1f}x "
          f"(last attempt: event {event_s:.3f}s, vector {vector_s:.4f}s)")
    assert best >= 5.0, (
        f"RTS/CTS vector path only {best:.1f}x faster across 3 attempts "
        f"(last: event {event_s:.3f}s vs vector {vector_s:.3f}s)")


def test_cbr_steady_backend_speedup():
    """ablation-bianchi's vector path must beat the event engine >= 5x.

    Acceptance floor of the batched CBR sampler: the ablation's
    configuration shape (9 Mb/s CBR per station, saturated channel) at
    station counts 2 and 3 with a 40-repetition batch per count over a
    2 s horizon.  Not scaled by ``REPRO_BENCH_SCALE`` (the ratio is
    what is under test).
    """
    from repro.analysis.ablations import ablation_bianchi_calibration
    kwargs = dict(station_counts=(2, 3), repetitions=40, duration=2.0,
                  warmup=0.4, seed=2)

    best, (event_s, vector_s) = _best_speedup(
        lambda: ablation_bianchi_calibration(backend="event", **kwargs),
        lambda: ablation_bianchi_calibration(backend="vector", **kwargs))
    print(f"\nCBR steady backend speedup: {best:.1f}x "
          f"(last attempt: event {event_s:.3f}s, vector {vector_s:.4f}s)")
    assert best >= 5.0, (
        f"CBR steady vector path only {best:.1f}x faster across 3 "
        f"attempts (last: event {event_s:.3f}s vs vector {vector_s:.3f}s)")


def test_multihop_chain_backend_speedup():
    """ext-multihop's vector path must beat the event engine by >= 5x.

    Acceptance floor of the multihop chaining layer: ext-multihop's
    path (100 Mb/s wired backbone + WLAN last mile against 4 Mb/s
    Poisson cross-traffic) probed with 60 repetitions of a 30-packet
    train on both backends.  Not scaled by ``REPRO_BENCH_SCALE`` (see
    the probe-kernel floor).
    """
    from repro.path import NetworkPath, SimulatedPathChannel, WiredHop, WlanHop
    channel = SimulatedPathChannel(NetworkPath([
        WiredHop(100e6, prop_delay=1e-3),
        WlanHop([("neighbour", PoissonGenerator(4e6, 1500))]),
    ]))
    train = ProbeTrain.at_rate(30, 3e6, 1500)

    best, (event_s, vector_s) = _best_speedup(
        lambda: channel.send_trains(train, 60, seed=7, backend="event"),
        lambda: channel.send_trains(train, 60, seed=7, backend="vector"))
    print(f"\nmultihop chain backend speedup: {best:.1f}x "
          f"(last attempt: event {event_s:.3f}s, vector {vector_s:.4f}s)")
    assert best >= 5.0, (
        f"multihop vector path only {best:.1f}x faster across 3 attempts "
        f"(last: event {event_s:.3f}s vs vector {vector_s:.3f}s)")


def test_retry_limit_batch_throughput(benchmark):
    """Saturated kernel with a retry cap (ext-retry-limit's setting).

    100 repetitions at full scale; ``REPRO_BENCH_SCALE`` shrinks the
    batch (clamped at 20 repetitions, below which fixed per-round
    numpy dispatch dominates).
    """
    repetitions = max(20, int(round(100 * bench_scale())))

    def run():
        batch = simulate_saturated_batch(10, 20, repetitions, seed=1,
                                         retry_limit=2)
        return int(batch.successes.sum())

    assert benchmark(run) > 0


def test_onoff_probe_batch_throughput(benchmark):
    """Probe-train kernel against on-off cross-traffic (ext-onoff).

    60 repetitions at full scale; ``REPRO_BENCH_SCALE`` shrinks the
    batch (clamped at 15 repetitions, below which fixed per-event
    numpy dispatch dominates).
    """
    repetitions = max(15, int(round(60 * bench_scale())))
    train = ProbeTrain.at_rate(25, 5e6, 1500)

    def run():
        batch = simulate_probe_train_batch(
            train.n, train.gap, repetitions, size_bytes=1500,
            cross=[OnOffCrossSpec(6e6 / (1500 * 8), 1500,
                                  mean_on=0.05, mean_off=0.05)],
            horizon=1.0, seed=1)
        return float(batch.recv_times[:, -1].sum())

    assert benchmark(run) > 0


def test_retry_limit_backend_speedup():
    """ext-retry-limit's vector path must beat the event engine >= 5x.

    Acceptance floor of the retry-capped saturated kernel: 10
    saturated stations at retry limit 2 with a 100-repetition batch on
    both backends.  Deliberately *not* scaled by ``REPRO_BENCH_SCALE``:
    the kernel pays fixed per-round numpy dispatch that only amortises
    across a real batch.
    """
    kwargs = dict(retry_limit=2, seed=2)

    def run_event():
        batch = simulate_saturated(10, 10, 100, backend="event", **kwargs)
        assert batch.drops is not None

    def run_vector():
        batch = simulate_saturated(10, 10, 100, backend="vector", **kwargs)
        assert batch.drops is not None

    best, (event_s, vector_s) = _best_speedup(run_event, run_vector)
    print(f"\nretry-limit backend speedup: {best:.1f}x "
          f"(last attempt: event {event_s:.3f}s, vector {vector_s:.4f}s)")
    assert best >= 5.0, (
        f"retry-limit vector path only {best:.1f}x faster across 3 "
        f"attempts (last: event {event_s:.3f}s vs vector {vector_s:.3f}s)")


def test_onoff_backend_speedup():
    """ext-onoff's vector path must beat the event engine by >= 5x.

    Acceptance floor of the on-off cross-traffic sampler: ext-onoff's
    configuration shape (4 Mb/s probe train against a 6 Mb/s-peak
    on-off contender at 50 ms mean burst) with 60 repetitions of a
    40-packet train on both backends.  Not scaled by
    ``REPRO_BENCH_SCALE`` (see the probe-kernel floor).
    """
    channel = SimulatedWlanChannel(
        [("burst", OnOffGenerator(6e6, mean_on=0.05, mean_off=0.05,
                                  size_bytes=1500))], warmup=0.1)
    train = ProbeTrain.at_rate(40, 4e6, 1500)

    best, (event_s, vector_s) = _best_speedup(
        lambda: channel.send_trains_dense(train, 60, seed=3,
                                          backend="event"),
        lambda: channel.send_trains_dense(train, 60, seed=3,
                                          backend="vector"))
    print(f"\non-off backend speedup: {best:.1f}x "
          f"(last attempt: event {event_s:.3f}s, vector {vector_s:.4f}s)")
    assert best >= 5.0, (
        f"on-off vector path only {best:.1f}x faster across 3 attempts "
        f"(last: event {event_s:.3f}s vs vector {vector_s:.3f}s)")


def test_chunked_probe_batch_memory(benchmark):
    """Streaming a big probe batch must cut peak memory >= 4x.

    Acceptance floor of the streaming path every runner takes: a
    10^5-repetition probe batch (``REPRO_BENCH_SCALE`` shrinks it,
    clamped at 20k — enough repetitions that matrix storage, not fixed
    kernel state, dominates the peak) run through ``run_batch`` and
    reduced to its per-train output gaps.  The dense run resolves every
    repetition in one kernel call, whose working matrices dwarf the
    result; under ``chunked_reps(1000)`` (``--chunk-reps 1000``) the
    kernel's working memory scales with the chunk while the folded
    batch stays batch-sized, and the run must peak below a quarter of
    the dense one — while producing the bit-identical gap vector.  The
    benchmark fixture times the chunked run, so its wall-clock lands
    in ``baseline.json`` next to the dense kernel benches.
    """
    repetitions = max(20_000, int(round(100_000 * bench_scale())))
    chunk = 1000
    train = ProbeTrain.at_rate(5, 5e6, 1500)

    spec = ScenarioSpec(system="wlan", workload="train")

    def batch_task(seeds, points):
        return simulate_probe_train_batch(
            train.n, train.gap, len(seeds), size_bytes=1500,
            warmup=0.0, seeds=seeds)

    request = BatchRequest.scan([1], repetitions, batch_task=batch_task,
                                spec=spec)

    def gaps(chunk_reps):
        with chunked_reps(chunk_reps):
            batch = run_batch(request, backend="vector")
        return output_gaps_batch(batch.recv_times)

    def dense():
        return gaps(None)

    def chunked():
        return gaps(chunk)

    tracemalloc.start()
    dense_gaps = dense()
    _, dense_peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    tracemalloc.start()
    chunked_gaps = chunked()
    _, chunked_peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()

    assert np.array_equal(chunked_gaps, dense_gaps)
    ratio = dense_peak / chunked_peak
    print(f"\nchunked probe batch peak memory: "
          f"dense {dense_peak / 1e6:.1f} MB vs chunked "
          f"{chunked_peak / 1e6:.1f} MB ({ratio:.1f}x, "
          f"{repetitions} repetitions, chunk {chunk})")
    assert ratio >= 4.0, (
        f"chunked run peaked at {chunked_peak / 1e6:.1f} MB, only "
        f"{ratio:.1f}x below the dense {dense_peak / 1e6:.1f} MB "
        f"({repetitions} repetitions, chunk {chunk})")
    assert len(benchmark(chunked)) == repetitions


def test_chunked_backend_speedup():
    """The >= 5x vector floor must survive chunked execution.

    Same workload as ``test_vector_backend_speedup`` (10 saturated
    stations, 100 repetitions) with the vector side streamed through
    ``chunk_reps=25`` — four kernel calls instead of one.  The fixed
    per-call numpy dispatch quadruples, so this floor guards the chunk
    loop's overhead staying negligible next to the kernel itself.  Not
    scaled by ``REPRO_BENCH_SCALE`` (the ratio is what is under test).
    """
    stations, packets = 10, 10
    repetitions = 100
    expected = stations * packets

    def run_event():
        event = simulate_saturated(stations, packets, repetitions,
                                   seed=2, backend="event")
        assert np.all(event.successes == expected)

    def run_chunked():
        with chunked_reps(25):
            vector = simulate_saturated(stations, packets, repetitions,
                                        seed=2, backend="vector")
        assert np.all(vector.successes == expected)

    best, (event_s, vector_s) = _best_speedup(run_event, run_chunked)
    print(f"\nchunked vector backend speedup: {best:.1f}x "
          f"(last attempt: event {event_s:.3f}s, chunked vector "
          f"{vector_s:.4f}s, {repetitions} repetitions in chunks of 25)")
    assert best >= 5.0, (
        f"chunked vector backend only {best:.1f}x faster across 3 "
        f"attempts (last: event {event_s:.3f}s vs chunked "
        f"{vector_s:.3f}s)")


def test_backend_dispatch_throughput(benchmark):
    """1000 auto-dispatch resolutions of a probe-train scenario.

    The capability dispatcher sits on every ``--backend auto`` code
    path (registry kwargs resolution, channel routing), so a
    regression here taxes every experiment; the companion test below
    bounds it against a real batch.
    """
    spec = ScenarioSpec(system="wlan", workload="train",
                        cross_traffic="poisson")

    def run():
        for _ in range(1000):
            resolution = dispatch.resolve(spec, "auto")
        return resolution.name

    from repro.sim import jit
    assert benchmark(run) == ("jit" if jit.available() else "vector")


def test_auto_dispatch_overhead_under_one_percent():
    """Auto-selection must add < 1% to a repetition batch.

    An experiment resolves its backend once per batch, so the bound
    compares one ``resolve`` call (averaged over many) against the
    probe-kernel batch the speedup floor uses (60 repetitions of a
    25-packet train).  Deliberately *not* scaled by
    ``REPRO_BENCH_SCALE``: the ratio is what is under test.
    """
    train = ProbeTrain.at_rate(25, 5e6, 1500)

    start = time.perf_counter()
    simulate_probe_train_batch(
        train.n, train.gap, 60, size_bytes=1500,
        cross=[PoissonCrossSpec(4e6 / (1500 * 8), 1500)],
        horizon=1.0, seed=1)
    batch_s = time.perf_counter() - start

    spec = ScenarioSpec(system="wlan", workload="train",
                        cross_traffic="poisson")
    rounds = 2000
    start = time.perf_counter()
    for _ in range(rounds):
        dispatch.resolve(spec, "auto")
    resolve_s = (time.perf_counter() - start) / rounds

    ratio = resolve_s / batch_s
    print(f"\nauto-dispatch overhead: {resolve_s * 1e6:.1f} us/resolve "
          f"vs {batch_s * 1e3:.1f} ms/batch ({ratio:.5%})")
    assert ratio < 0.01, (
        f"auto dispatch costs {ratio:.3%} of a 60-repetition batch "
        f"({resolve_s * 1e6:.1f} us vs {batch_s * 1e3:.1f} ms)")


def _require_warm_jit():
    """Skip unless the jit tier can run; compile outside the window.

    ``warm_kernels`` triggers the one-time numba compilation of all
    three cores on dtype-exact toy inputs, so the floors below measure
    steady-state kernel speed, never compiler warm-up — the tier's
    stated contract ("warm-up stays out of measured windows").
    """
    import pytest

    from repro.sim import jit
    if not jit.available():
        pytest.skip("numba not installed — jit tier unavailable")
    jit.warm_kernels()
    return jit


def test_jit_saturated_speedup():
    """The jit tier must beat the numpy saturated kernel by >= 3x.

    Acceptance floor of the PR-9 jit tier, on the same workload as the
    event-vs-vector floor above (10 saturated stations, 100
    repetitions) so the two ratios compose.  Deliberately *not* scaled
    by ``REPRO_BENCH_SCALE``: the numpy kernel pays per-round dispatch
    that only amortises across a real batch, and shrinking it would
    flatter the jit side.
    """
    _require_warm_jit()
    stations, packets, repetitions = 10, 10, 100
    expected = stations * packets

    def run_vector():
        batch = simulate_saturated(stations, packets, repetitions,
                                   seed=2, backend="vector")
        assert np.all(batch.successes == expected)

    def run_jit():
        batch = simulate_saturated(stations, packets, repetitions,
                                   seed=2, backend="jit")
        assert np.all(batch.successes == expected)

    best, (numpy_s, jit_s) = _best_speedup(run_vector, run_jit,
                                           floor=3.0)
    print(f"\njit saturated speedup: {best:.1f}x "
          f"(last attempt: numpy {numpy_s:.3f}s, jit {jit_s:.4f}s, "
          f"{repetitions} repetitions)")
    assert best >= 3.0, (
        f"jit saturated kernel only {best:.1f}x faster than numpy "
        f"across 3 attempts (last: numpy {numpy_s:.3f}s vs jit "
        f"{jit_s:.3f}s)")


def test_jit_probe_train_speedup():
    """The jit tier must beat the numpy probe-train kernel by >= 3x.

    Acceptance floor on the probe-train kernel: 60 repetitions of a
    25-packet train against 4 Mb/s Poisson cross-traffic, the same
    batch shape the dispatch-overhead bound uses.  Not scaled by
    ``REPRO_BENCH_SCALE`` (see the saturated floor).
    """
    _require_warm_jit()
    channel = SimulatedWlanChannel(
        [("cross", PoissonGenerator(4e6, 1500))], warmup=0.05)
    train = ProbeTrain.at_rate(25, 5e6, 1500)

    def run(backend):
        batch = channel.send_trains_dense(train, 60, seed=7,
                                          backend=backend)
        assert np.all(np.isfinite(batch.recv_times))

    best, (numpy_s, jit_s) = _best_speedup(
        lambda: run("vector"), lambda: run("jit"), floor=3.0)
    print(f"\njit probe-train speedup: {best:.1f}x "
          f"(last attempt: numpy {numpy_s:.3f}s, jit {jit_s:.4f}s)")
    assert best >= 3.0, (
        f"jit probe-train kernel only {best:.1f}x faster than numpy "
        f"across 3 attempts (last: numpy {numpy_s:.3f}s vs jit "
        f"{jit_s:.3f}s)")
