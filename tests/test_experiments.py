"""Unit tests for the experiment harness."""

import pytest

from repro.common.errors import EstimationError
from repro.data.generators import generate_ranked_table
from repro.experiments.harness import (
    build_hrjn_pipeline,
    measure_depths,
    measure_pipeline_depths,
    realized_selectivity,
)
from repro.experiments.report import format_table, relative_error


class TestRealizedSelectivity:
    def test_exact_on_known_tables(self):
        left = generate_ranked_table("L", 100, selectivity=0.5, seed=1)
        right = generate_ranked_table("R", 100, selectivity=0.5, seed=2)
        s = realized_selectivity(left, right, "L.key", "R.key")
        # Domain of 2 keys: selectivity near 0.5.
        assert s == pytest.approx(0.5, abs=0.1)

    def test_empty_table(self):
        left = generate_ranked_table("L", 0, seed=1)
        right = generate_ranked_table("R", 10, seed=2)
        assert realized_selectivity(left, right, "L.key", "R.key") == 0.0


class TestMeasureDepths:
    def test_actual_bracketed_by_estimates(self):
        m = measure_depths(4000, 0.01, 50, seed=5)
        for side in (0, 1):
            assert m.any_k[side] <= m.actual[side] * 1.25
            assert m.actual[side] <= m.top_k[side] * 1.3

    def test_buffer_below_bounds(self):
        m = measure_depths(4000, 0.01, 50, seed=6)
        assert m.buffer_actual <= m.buffer_actual_bound * 1.05
        assert m.buffer_actual_bound <= m.buffer_estimated_bound * 1.5

    def test_invalid_k(self):
        with pytest.raises(EstimationError):
            measure_depths(100, 0.1, 0)

    def test_too_small_workload_detected(self):
        with pytest.raises(EstimationError, match="only"):
            measure_depths(10, 0.05, 500, seed=7)


class TestPipeline:
    def test_three_way_pipeline_runs(self):
        tables = [
            generate_ranked_table("T%d" % i, 300, selectivity=0.05,
                                  seed=10 + i)
            for i in range(3)
        ]
        rows, joins = build_hrjn_pipeline(
            tables,
            ["T0.key", "T1.key", "T2.key"],
            ["T0.score", "T1.score", "T2.score"],
            k=5,
        )
        assert len(rows) == 5
        assert len(joins) == 2

    def test_pipeline_needs_two_tables(self):
        table = generate_ranked_table("T0", 10, seed=1)
        with pytest.raises(EstimationError):
            build_hrjn_pipeline([table], ["T0.key"], ["T0.score"], 1)

    def test_exhausted_pipeline_detected(self):
        # A sparse join yields fewer than k rows: the inputs are scanned
        # to the end, and those depths are not a top-k run's.
        with pytest.raises(EstimationError, match="only"):
            measure_pipeline_depths(200, 0.001, 100)

    def test_measure_pipeline_records(self):
        records = measure_pipeline_depths(800, 0.05, 10, inputs=3, seed=2)
        assert len(records) == 2
        for _name, actual, estimate, required in records:
            assert len(actual) == 2 and len(estimate.as_tuple()) == 2
            assert estimate.c_left <= estimate.d_left
            assert required >= 1


class TestReport:
    def test_relative_error(self):
        assert relative_error(100, 120) == pytest.approx(0.2)
        assert relative_error(0, 0) == 0.0
        assert relative_error(0, 5) == float("inf")

    def test_format_table(self):
        text = format_table(
            ["k", "actual", "estimate"],
            [[10, 33, 45.0], [100, 150, 141.4]],
            title="demo",
        )
        assert "demo" in text
        assert "k" in text.splitlines()[1]
        assert "141.4" in text
