"""Unit tests for heap tables."""

import pytest

from repro.common.errors import CatalogError, SchemaError
from repro.common.types import Column, Row, Schema
from repro.storage.index import SortedIndex
from repro.storage.table import Table


def make_table():
    return Table.from_columns("T", [("id", "int"), ("score", "float")])


class TestConstruction:
    def test_from_columns(self):
        table = make_table()
        assert table.schema.qualified_names() == ("T.id", "T.score")

    def test_initial_rows(self):
        table = Table.from_columns(
            "T", [("id", "int")], rows=[[1], [2]],
        )
        assert table.cardinality == 2

    def test_foreign_column_rejected(self):
        schema = Schema([Column("c1", table="OTHER")])
        with pytest.raises(SchemaError, match="does not belong"):
            Table("T", schema)

    def test_empty_name_rejected(self):
        with pytest.raises(SchemaError):
            Table.from_columns("", [("id", "int")])


class TestInsert:
    def test_sequence_insert(self):
        table = make_table()
        table.insert([1, 0.5])
        assert next(table.scan())["T.score"] == 0.5

    def test_dict_insert_bare_names(self):
        table = make_table()
        table.insert({"id": 1, "score": 0.5})
        assert next(table.scan())["T.id"] == 1

    def test_dict_insert_qualified(self):
        table = make_table()
        table.insert({"T.id": 1, "T.score": 0.5})
        assert table.cardinality == 1

    def test_row_insert(self):
        table = make_table()
        table.insert(Row({"T.id": 1, "T.score": 0.25}))
        assert next(table.scan())["T.score"] == 0.25

    def test_wrong_arity_rejected(self):
        with pytest.raises(SchemaError, match="expected 2 values"):
            make_table().insert([1])

    def test_missing_column_rejected(self):
        with pytest.raises(SchemaError, match="missing column"):
            make_table().insert({"id": 1})


class TestIndexes:
    def test_create_and_get(self):
        table = make_table()
        table.create_index(SortedIndex("by_score", "T.score"))
        assert table.get_index("by_score").name == "by_score"

    def test_duplicate_index_rejected(self):
        table = make_table()
        table.create_index(SortedIndex("by_score", "T.score"))
        with pytest.raises(CatalogError, match="already exists"):
            table.create_index(SortedIndex("by_score", "T.score"))

    def test_unknown_index(self):
        with pytest.raises(CatalogError, match="no index"):
            make_table().get_index("nope")

    def test_find_index_on(self):
        table = make_table()
        index = SortedIndex("by_score", "T.score")
        table.create_index(index)
        assert table.find_index_on("T.score") is index
        assert table.find_index_on("T.id") is None

    def test_insert_marks_index_stale(self):
        table = make_table()
        table.insert([1, 0.1])
        index = SortedIndex("by_score", "T.score")
        table.create_index(index)
        assert index.top()[0] == 0.1
        table.insert([2, 0.9])
        assert index.top()[0] == 0.9


class TestKeyPositions:
    def make(self):
        return Table.from_columns(
            "T", [("key", "int"), ("score", "float")],
            rows=[[2, 0.1], [1, 0.2], [2, 0.3], [3, 0.4], [1, 0.5]])

    def test_positions_ascend_within_a_key(self):
        groups = self.make().key_positions("T.key")
        assert groups == {2: [0, 2], 1: [1, 4], 3: [3]}
        assert list(groups) == [2, 1, 3]  # First-seen heap order.

    def test_bare_and_qualified_names(self):
        table = self.make()
        assert table.key_positions("key") is table.key_positions("T.key")

    def test_cached_until_the_version_changes(self):
        table = self.make()
        groups = table.key_positions("T.key")
        assert table.key_positions("T.key") is groups
        table.insert([3, 0.6])
        assert table.key_positions("T.key")[3] == [3, 5]
        table.extend([[4, 0.7], [2, 0.8]])
        assert table.key_positions("T.key")[2] == [0, 2, 7]
        assert table.key_positions("T.key")[4] == [6]
        table.load_from(self.make(), [3])
        assert table.key_positions("T.key")[3] == [3, 5, 8]
        assert groups == {2: [0, 2], 1: [1, 4], 3: [3]}  # Not mutated.
