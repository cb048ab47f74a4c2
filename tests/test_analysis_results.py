"""Tests for the experiment-result container."""

import numpy as np
import pytest

from repro.analysis.results import ExperimentResult, monotone_nondecreasing


def make_result():
    return ExperimentResult(
        experiment="figX",
        title="A test experiment",
        x_label="x",
        x=np.array([1.0, 2.0, 3.0]),
        series={"y1": np.array([1.0, 2.0, 3.0]),
                "y2": np.array([3.0, 2.0, 1.0])},
        meta={"param": 42},
    )


class TestExperimentResult:
    def test_series_validated_against_x(self):
        with pytest.raises(ValueError):
            ExperimentResult("e", "t", "x", np.array([1.0, 2.0]),
                             {"y": np.array([1.0])})

    def test_checks_default_pass(self):
        assert make_result().all_checks_pass

    def test_add_check(self):
        result = make_result()
        result.add_check("good", True)
        result.add_check("bad", False)
        assert not result.all_checks_pass
        assert result.failed_checks == ["bad"]

    def test_table_contains_series_and_values(self):
        result = make_result()
        text = result.table()
        assert "figX" in text
        assert "y1" in text and "y2" in text
        assert "param=42" in text

    def test_table_row_count(self):
        result = make_result()
        lines = result.table().splitlines()
        # Title + meta + header + 3 rows.
        assert len(lines) == 6

    def test_table_includes_checks(self):
        result = make_result()
        result.add_check("shape", True)
        assert "shape=PASS" in result.table()



class TestMonotoneHelpers:
    def test_nondecreasing(self):
        assert monotone_nondecreasing(np.array([1.0, 1.0, 2.0]))
        assert not monotone_nondecreasing(np.array([2.0, 1.0]))

    def test_slack(self):
        assert monotone_nondecreasing(np.array([1.0, 0.95]), slack=0.1)
