"""Unit tests for the executor and Database facade."""

import pytest

from repro.common.rng import make_rng
from repro.executor.database import Database

from tests.reference_answers import assert_query_top_k


def make_db(rows=200, seed=3, domain=15):
    rng = make_rng(seed)
    db = Database()
    db.create_table("A", [("c1", "float"), ("c2", "int")], rows=[
        [float(rng.uniform(0, 1)), int(rng.integers(0, domain))]
        for _ in range(rows)
    ])
    db.create_table("B", [("c1", "int"), ("c2", "float")], rows=[
        [int(rng.integers(0, domain)), float(rng.uniform(0, 1))]
        for _ in range(rows)
    ])
    db.analyze()
    return db


Q1_STYLE = """
WITH Ranked AS (
  SELECT A.c1 AS x, B.c2 AS y,
         rank() OVER (ORDER BY (0.3*A.c1 + 0.7*B.c2)) AS rank
  FROM A, B WHERE A.c2 = B.c1)
SELECT x, y, rank FROM Ranked WHERE rank <= 5
"""


class TestDatabase:
    def test_execute_sql_returns_k_rows(self):
        report = make_db().execute(Q1_STYLE)
        assert len(report.rows) == 5

    def test_results_correctly_ranked(self):
        db = make_db()
        report = db.execute(Q1_STYLE)
        assert_query_top_k(report.rows, db.catalog, db.parse(Q1_STYLE))

    def test_auto_score_indexes(self):
        db = make_db()
        assert db.catalog.table("A").find_index_on("A.c1") is not None
        # Integer columns get no automatic index.
        assert db.catalog.table("A").find_index_on("A.c2") is None

    def test_execute_parsed_query(self):
        db = make_db()
        query = db.parse(Q1_STYLE)
        assert len(db.execute(query).rows) == 5

    def test_explain_only(self):
        result = make_db().explain(Q1_STYLE)
        assert result.best_plan is not None

    def test_execute_rejects_other_types(self):
        with pytest.raises(TypeError):
            make_db().execute(42)

    def test_insert_and_selectivity_pinning(self):
        db = make_db()
        db.insert("A", [0.99, 3])
        db.set_join_selectivity("A.c2", "B.c1", 0.07)
        assert db.catalog.join_selectivity("A", "A.c2", "B", "B.c1") == 0.07


class TestReports:
    def test_operator_snapshots_present(self):
        report = make_db().execute(Q1_STYLE)
        assert report.operators
        names = {snap.name for snap in report.operators}
        assert any(n.startswith(("HRJN", "NRJN", "Limit")) for n in names)

    def test_rank_join_snapshot_depths(self):
        report = make_db().execute(Q1_STYLE)
        snaps = report.rank_join_snapshots()
        if snaps:  # The optimizer picked a rank-join plan.
            assert all(len(s.pulled) == 2 for s in snaps)
            # depth is the deepest consumed input prefix, not a copy
            # of the pulled tuple.
            assert all(s.depth == max(s.pulled) for s in snaps)
            assert all(s.depth > 0 for s in snaps)

    def test_explain_string(self):
        report = make_db().execute(Q1_STYLE)
        text = report.explain()
        assert "best plan" in text and "execution:" in text

    def test_early_out_visible_in_stats(self):
        """The rank-join should not consume its ranked input fully."""
        db = make_db(rows=2000, domain=10)
        report = db.execute(Q1_STYLE)
        snaps = report.rank_join_snapshots()
        assert snaps
        top = snaps[0]
        assert min(top.pulled) < 2000
