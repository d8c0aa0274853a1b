"""Unit tests for sorted access paths."""

import pytest

from repro.common.errors import CatalogError
from repro.storage.index import SortedIndex
from repro.storage.table import Table


def make_indexed_table(scores):
    table = Table.from_columns("T", [("id", "int"), ("score", "float")])
    for i, score in enumerate(scores):
        table.insert([i, score])
    index = SortedIndex("idx", "T.score")
    table.create_index(index)
    return table, index


class TestSortedAccess:
    def test_descending_order(self):
        _table, index = make_indexed_table([0.1, 0.9, 0.5])
        scores = [score for score, _row in index.sorted_access()]
        assert scores == [0.9, 0.5, 0.1]

    def test_ascending_option(self):
        table = Table.from_columns("T", [("score", "float")])
        for score in (0.3, 0.1, 0.2):
            table.insert([score])
        index = SortedIndex("asc", "T.score", descending=False)
        table.create_index(index)
        assert [s for s, _ in index.sorted_access()] == [0.1, 0.2, 0.3]

    def test_len(self):
        _table, index = make_indexed_table([0.1, 0.2])
        assert len(index) == 2

    def test_snapshot_iteration(self):
        table, index = make_indexed_table([0.5])
        iterator = index.sorted_access()
        table.insert([99, 0.9])
        assert [s for s, _ in iterator] == [0.5]
        assert index.top()[0] == 0.9


class TestProbes:
    def test_top_empty(self):
        _table, index = make_indexed_table([])
        assert index.top() is None


class TestLifecycle:
    def test_callable_key_needs_description(self):
        with pytest.raises(CatalogError, match="key_description"):
            SortedIndex("bad", lambda row: 0.0)

    def test_callable_key(self):
        table = Table.from_columns("T", [("a", "float"), ("b", "float")])
        table.insert([0.2, 0.9])
        table.insert([0.8, 0.1])
        index = SortedIndex(
            "expr", lambda row: row["T.a"] + row["T.b"],
            key_description="T.a + T.b",
        )
        table.create_index(index)
        assert index.top()[0] == pytest.approx(1.1)

    def test_double_attach_rejected(self):
        table, index = make_indexed_table([0.5])
        other = Table.from_columns("U", [("score", "float")])
        with pytest.raises(CatalogError, match="already attached"):
            other.create_index(index)

    def test_detached_use_rejected(self):
        index = SortedIndex("idx", "T.score")
        with pytest.raises(CatalogError, match="not attached"):
            index.entries()
