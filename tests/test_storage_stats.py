"""Unit tests for statistics collection and selectivity estimation."""

import pytest

from repro.common.errors import CatalogError
from repro.storage.stats import (
    ColumnStats,
    TableStats,
    estimate_join_selectivity,
)
from repro.storage.table import Table


class TestColumnStats:
    def test_from_numeric_values(self):
        stats = ColumnStats.from_values("T.x", [0.0, 0.5, 1.0])
        assert stats.count == 3
        assert stats.distinct == 3
        assert stats.minimum == 0.0
        assert stats.maximum == 1.0

    def test_empty_column(self):
        stats = ColumnStats.from_values("T.x", [])
        assert stats.count == 0
        assert stats.minimum is None and stats.histogram is None

    def test_nulls_skipped(self):
        stats = ColumnStats.from_values("T.x", [1.0, None, 2.0])
        assert stats.count == 2

    def test_string_column_has_no_histogram(self):
        stats = ColumnStats.from_values("T.x", ["a", "b"])
        assert stats.histogram is None
        assert stats.minimum == "a"

    def test_non_finite_values_leave_range_and_histogram(self):
        """NaN and ±inf count as values but not toward the range, so
        the range no longer depends on where a NaN sits."""
        nan, inf = float("nan"), float("inf")
        for values in ([nan, 0.1, 0.9, inf], [0.1, nan, -inf, 0.9]):
            stats = ColumnStats.from_values("T.x", values)
            assert stats.count == 4
            assert (stats.minimum, stats.maximum) == (0.1, 0.9)
            assert stats.histogram.total == 2

    def test_all_non_finite_column_has_no_range(self):
        stats = ColumnStats.from_values("T.x", [float("nan")])
        assert stats.count == 1
        assert stats.minimum is None and stats.histogram is None

    def test_equality_selectivity(self):
        stats = ColumnStats.from_values("T.x", [1, 1, 2, 3])
        assert stats.selectivity_of_equality() == pytest.approx(1 / 3)

    def test_equality_selectivity_empty(self):
        assert ColumnStats.from_values("T.x", []).selectivity_of_equality() == 0.0


class TestTableStats:
    def make(self):
        table = Table.from_columns("T", [("k", "int"), ("s", "float")])
        for i in range(10):
            table.insert([i % 4, i / 10.0])
        return TableStats.analyze(table)

    def test_cardinality(self):
        assert self.make().cardinality == 10

    def test_column_lookup(self):
        stats = self.make()
        assert stats.column("T.k").distinct == 4

    def test_unknown_column(self):
        with pytest.raises(CatalogError):
            self.make().column("T.zz")


class TestJoinSelectivity:
    def test_distinct_value_formula(self):
        left = Table.from_columns("L", [("k", "int")])
        right = Table.from_columns("R", [("k", "int")])
        for i in range(10):
            left.insert([i % 5])
            right.insert([i % 2])
        s = estimate_join_selectivity(
            TableStats.analyze(left), TableStats.analyze(right),
            "L.k", "R.k",
        )
        assert s == pytest.approx(1 / 5)
