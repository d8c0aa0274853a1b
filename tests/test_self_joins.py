"""Table aliases and self-joins through the full stack.

The flagship use: "find the top-k most similar *pairs*" -- a rank
self-join of a relation with itself under different aliases.
"""

import pytest

from repro.common.errors import OptimizerError, ParseError
from repro.common.rng import make_rng
from repro.executor.database import Database
from repro.sql.parser import parse_query
from repro.storage.table import Table

from tests.reference_answers import assert_query_top_k


class TestAliasedTable:
    def make_table(self):
        table = Table.from_columns(
            "A", [("c1", "float"), ("c2", "int")],
        )
        table.insert([0.9, 1])
        table.insert([0.1, 2])
        from repro.storage.index import SortedIndex

        table.create_index(SortedIndex("A_c1_idx", "A.c1"))
        return table

    def test_renamed_schema_and_rows(self):
        renamed = self.make_table().aliased("a1")
        assert renamed.name == "a1"
        assert renamed.schema.qualified_names() == ("a1.c1", "a1.c2")
        assert next(renamed.scan())["a1.c1"] == 0.9

    def test_indexes_renamed(self):
        renamed = self.make_table().aliased("a1")
        index = renamed.find_index_on("a1.c1")
        assert index is not None
        assert index.top()[0] == 0.9

    def test_identity_alias_returns_self(self):
        table = self.make_table()
        assert table.aliased("A") is table

    def test_original_untouched(self):
        table = self.make_table()
        renamed = table.aliased("a1")
        renamed.insert([0.5, 3])
        assert table.cardinality == 2


class TestParserAliases:
    def test_as_keyword_alias(self):
        query = parse_query("SELECT x.c1 FROM A AS x")
        assert query.aliases == {"x": "A"}

    def test_self_join_aliases(self):
        query = parse_query(
            "SELECT a1.c1, a2.c1 FROM A a1, A a2 "
            "WHERE a1.c2 = a2.c2",
        )
        assert query.tables == frozenset({"a1", "a2"})
        assert query.aliases == {"a1": "A", "a2": "A"}

    def test_duplicate_alias_rejected(self):
        with pytest.raises(ParseError, match="duplicate table alias"):
            parse_query("SELECT x.c1 FROM A x, B x")

    def test_missing_alias_entries_rejected(self):
        from repro.optimizer.query import RankQuery

        with pytest.raises(OptimizerError, match="aliases missing"):
            RankQuery(tables="AB", aliases={"A": "A"})


class TestSelfJoinExecution:
    def make_db(self, rows=150, seed=77):
        rng = make_rng(seed)
        db = Database()
        db.create_table(
            "Items", [("score", "float"), ("grp", "int")],
            rows=[[float(rng.uniform(0, 1)), int(rng.integers(0, 8))]
                  for _ in range(rows)],
        )
        db.analyze()
        return db

    SQL = """
    WITH Pairs AS (
      SELECT a1.score AS x, a2.score AS y,
             rank() OVER (ORDER BY (a1.score + a2.score)) AS rank
      FROM Items a1, Items a2
      WHERE a1.grp = a2.grp)
    SELECT x, y, rank FROM Pairs WHERE rank <= 8
    """

    def test_top_pairs_match_brute_force(self):
        db = self.make_db()
        report = db.execute(self.SQL)
        assert_query_top_k(report.rows, db.catalog, db.parse(self.SQL))

    def test_rank_join_used_for_self_join(self):
        db = self.make_db(rows=800)
        report = db.execute(self.SQL)
        assert report.rank_join_snapshots()
        # Early out on at least one aliased input.
        top = report.rank_join_snapshots()[0]
        assert min(top.pulled) < 800

    def test_base_catalog_unpolluted(self):
        db = self.make_db()
        db.execute(self.SQL)
        assert set(db.catalog.tables()) == {"Items"}

    def test_explain_self_join(self):
        db = self.make_db()
        result = db.explain(self.SQL)
        assert result.best_plan.tables == frozenset({"a1", "a2"})
