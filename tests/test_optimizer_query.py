"""Unit tests for the logical query description."""

import pytest

from repro.common.errors import OptimizerError
from repro.optimizer.expressions import ScoreExpression
from repro.optimizer.query import JoinPredicate, RankQuery


class TestJoinPredicate:
    def test_tables(self):
        predicate = JoinPredicate("A.c1", "B.c1")
        assert predicate.tables == frozenset({"A", "B"})
        assert predicate.left_table == "A"

    def test_same_table_rejected(self):
        with pytest.raises(OptimizerError, match="span two tables"):
            JoinPredicate("A.c1", "A.c2")

    def test_column_for(self):
        predicate = JoinPredicate("A.c1", "B.c2")
        assert predicate.column_for("A") == "A.c1"
        assert predicate.column_for("B") == "B.c2"
        with pytest.raises(OptimizerError):
            predicate.column_for("C")

    def test_connects(self):
        predicate = JoinPredicate("A.c1", "B.c1")
        assert predicate.connects({"A"}, {"B", "C"})
        assert predicate.connects({"B"}, {"A"})
        assert not predicate.connects({"A"}, {"C"})

    def test_symmetric_equality(self):
        assert JoinPredicate("A.c1", "B.c1") == JoinPredicate(
            "B.c1", "A.c1",
        )


class TestRankQueryValidation:
    def test_ranking_requires_k(self):
        with pytest.raises(OptimizerError, match="k >= 1"):
            RankQuery(tables="AB",
                      ranking=ScoreExpression.single("A.c1"))

    @pytest.mark.parametrize("k", [2.5, 3.0, True, "3", 0])
    def test_non_integer_or_small_k_rejected(self, k):
        with pytest.raises(OptimizerError, match="integer k >= 1"):
            RankQuery(tables="AB", ranking=ScoreExpression.single("A.c1"),
                      k=k)

    def test_k_without_ranking_rejected(self):
        with pytest.raises(OptimizerError):
            RankQuery(tables="A", k=5)

    def test_ranking_and_order_by_exclusive(self):
        with pytest.raises(OptimizerError, match="mutually exclusive"):
            RankQuery(tables="A",
                      ranking=ScoreExpression.single("A.c1"), k=5,
                      order_by="A.c2")

    def test_predicate_table_check(self):
        with pytest.raises(OptimizerError, match="not in FROM"):
            RankQuery(tables="AB",
                      predicates=[JoinPredicate("A.c1", "Z.c1")])

    def test_ranking_table_check(self):
        with pytest.raises(OptimizerError, match="not in FROM"):
            RankQuery(tables="A",
                      ranking=ScoreExpression.single("Z.c1"), k=5)

    def test_order_by_table_check(self):
        with pytest.raises(OptimizerError):
            RankQuery(tables="A", order_by="Z.c1")

    def test_empty_tables_rejected(self):
        with pytest.raises(OptimizerError):
            RankQuery(tables=())


class TestGraphHelpers:
    def query(self):
        return RankQuery(
            tables="ABC",
            predicates=[JoinPredicate("A.c1", "B.c1"),
                        JoinPredicate("B.c2", "C.c2")],
        )

    def test_predicates_between(self):
        query = self.query()
        between = query.predicates_between({"A"}, {"B", "C"})
        assert len(between) == 1
        assert between[0].left_column == "A.c1"

    def test_predicates_within(self):
        query = self.query()
        assert len(query.predicates_within({"A", "B"})) == 1
        assert len(query.predicates_within({"A", "B", "C"})) == 2
        assert query.predicates_within({"A", "C"}) == []

    def test_pending_join_columns(self):
        query = self.query()
        assert query.pending_join_columns({"A", "B"}) == ["B.c2"]
        assert query.pending_join_columns({"B"}) == ["B.c1", "B.c2"]
        assert query.pending_join_columns({"A", "B", "C"}) == []

    def test_connectivity(self):
        query = self.query()
        assert query.is_connected({"A", "B"})
        assert query.is_connected({"A", "B", "C"})
        assert not query.is_connected({"A", "C"})
        assert query.is_connected({"A"})

    def test_is_ranking_flag(self):
        assert not self.query().is_ranking
        ranked = RankQuery(
            tables="A", ranking=ScoreExpression.single("A.c1"), k=3,
        )
        assert ranked.is_ranking
