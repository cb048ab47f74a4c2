"""Tests for the trace-driven (Matlab-style) queueing simulator."""

import numpy as np
import pytest

from repro.queueing.trace import TraceDrivenQueue


class TestServiceSpecs:
    def test_scalar_service(self):
        queue = TraceDrivenQueue(0.5)
        result = queue.run([0.0, 1.0])
        assert np.allclose(result.services, 0.5)

    def test_sequence_service(self):
        queue = TraceDrivenQueue([0.5, 0.25])
        result = queue.run([0.0, 1.0])
        assert list(result.services) == [0.5, 0.25]

    def test_sequence_length_mismatch(self):
        queue = TraceDrivenQueue([0.5])
        with pytest.raises(ValueError):
            queue.run([0.0, 1.0])

    def test_callable_service(self):
        queue = TraceDrivenQueue(lambda i, rng: 0.1 * (i + 1))
        result = queue.run([0.0, 0.0, 0.0])
        assert np.allclose(result.services, [0.1, 0.2, 0.3])

    def test_callable_gets_rng(self, rng):
        queue = TraceDrivenQueue(lambda i, r: float(r.uniform(0.1, 0.2)))
        result = queue.run([0.0, 1.0], rng=rng)
        assert np.all((result.services >= 0.1) & (result.services <= 0.2))

    def test_negative_scalar_rejected(self):
        queue = TraceDrivenQueue(-0.5)
        with pytest.raises(ValueError):
            queue.run([0.0])


class TestResultMetrics:
    def test_output_gaps(self):
        result = TraceDrivenQueue(1.0).run([0.0, 0.0, 5.0])
        assert np.allclose(result.output_gaps, [1.0, 4.0])

    def test_output_gap_train_level(self):
        result = TraceDrivenQueue(1.0).run([0.0, 0.0, 0.0])
        assert result.output_gap == pytest.approx(1.0)

    def test_output_gap_needs_two(self):
        result = TraceDrivenQueue(1.0).run([0.0])
        with pytest.raises(ValueError):
            _ = result.output_gap


class TestConvolutionUseCase:
    def test_replaying_measured_access_delays(self):
        """The Matlab-simulator use case: arrivals convolved with
        index-dependent service times reproduce the transient shape."""
        transient = np.array([1e-3] * 2 + [2e-3] * 8)  # fast then slow
        queue = TraceDrivenQueue(lambda i, rng: float(transient[i]))
        gap = 1.5e-3
        result = queue.run(np.arange(10) * gap)
        # Early packets fly through; later ones queue.
        waiting = result.starts - result.arrivals
        assert waiting[1] == pytest.approx(0.0, abs=1e-12)
        assert waiting[-1] > 0.0
        # Output gap exceeds input gap once the 2 ms services dominate.
        assert result.output_gap > gap
