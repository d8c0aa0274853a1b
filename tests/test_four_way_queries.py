"""Integration tests on 4-table queries (deeper enumeration, bushy
splits, longer rank-join pipelines)."""


import pytest

from repro.common.rng import make_rng
from repro.cost.model import CostModel
from repro.executor.database import Database
from repro.optimizer.enumerator import Optimizer, OptimizerConfig
from repro.optimizer.expressions import ScoreExpression
from repro.optimizer.query import JoinPredicate, RankQuery

from tests.reference_answers import assert_query_top_k


def build_db(rows=40, domain=6, seed=21, config=None):
    rng = make_rng(seed)
    db = Database(config=config)
    for name in ("A", "B", "C", "D"):
        db.create_table(
            name, [("c1", "float"), ("c2", "int")],
            rows=[[float(rng.uniform(0, 1)), int(rng.integers(0, domain))]
                  for _ in range(rows)],
        )
    db.analyze()
    return db


def chain_query(k=10):
    """A - B - C - D chain joined on c2, ranked on all four c1."""
    return RankQuery(
        tables="ABCD",
        predicates=[JoinPredicate("A.c2", "B.c2"),
                    JoinPredicate("B.c2", "C.c2"),
                    JoinPredicate("C.c2", "D.c2")],
        ranking=ScoreExpression({"A.c1": 0.25, "B.c1": 0.25,
                                 "C.c1": 0.25, "D.c1": 0.25}),
        k=k,
    )


def star_query(k=10):
    """B is the hub: A-B, B-C, B-D."""
    return RankQuery(
        tables="ABCD",
        predicates=[JoinPredicate("A.c2", "B.c2"),
                    JoinPredicate("B.c2", "C.c2"),
                    JoinPredicate("B.c2", "D.c2")],
        ranking=ScoreExpression({"A.c1": 0.25, "B.c1": 0.25,
                                 "C.c1": 0.25, "D.c1": 0.25}),
        k=k,
    )


@pytest.mark.parametrize("make_query", [chain_query, star_query],
                         ids=["chain", "star"])
class TestFourWay:
    def test_results_match_brute_force(self, make_query):
        db = build_db()
        query = make_query()
        assert_query_top_k(db.execute(query).rows, db.catalog, query)

    def test_memo_covers_all_connected_subsets(self, make_query):
        db = build_db()
        query = make_query()
        memo = db.optimizer().build_memo(query)
        for size in (1, 4):
            entries = [t for t in memo.entries() if len(t) == size]
            assert entries
        # Every retained entry is a connected subgraph.
        for tables in memo.entries():
            assert query.is_connected(tables)

    def test_chosen_plan_is_ranked(self, make_query):
        db = build_db()
        result = db.explain(make_query())
        assert result.best_plan.order.covers(result.required_order)


class TestEnumerationShapes:
    def test_chain_has_no_ac_entry(self):
        db = build_db()
        memo = db.optimizer().build_memo(chain_query())
        assert frozenset("AC") not in memo
        assert frozenset("AD") not in memo
        assert frozenset("ACD") not in memo

    def test_star_bushy_split_possible(self):
        """In the star query {A,B} and {C... } around the hub allow a
        bushy join ({A,B} x {B,C} is not disjoint; but {A,B} x {C} and
        {A,B,C} x {D} are); verify deep entries exist and plans join
        multi-table sides."""
        db = build_db()
        memo = db.optimizer().build_memo(star_query())
        abc = memo.entry(frozenset("ABC"))
        assert abc
        # At least one plan joins a 2-table side with a 1-table side.
        shapes = set()
        for plan in memo.entry(frozenset("ABCD")):
            if plan.children and len(plan.children) == 2:
                shapes.add(tuple(sorted(
                    len(child.tables) for child in plan.children
                )))
        assert shapes  # Join plans exist at the root.

    def test_traditional_agrees_on_answers(self):
        db_rank = build_db()
        db_trad = build_db(config=OptimizerConfig(rank_aware=False))
        query = chain_query()
        rows_rank = db_rank.execute(query).rows
        rows_trad = db_trad.execute(query).rows
        score = lambda r: round(query.ranking.evaluate(r), 9)
        assert ([score(r) for r in rows_rank]
                == [score(r) for r in rows_trad])

    def test_memo_larger_with_rank_awareness(self):
        db = build_db()
        query = chain_query()
        rank_memo = db.optimizer().build_memo(query)
        traditional = Optimizer(
            db.catalog, CostModel(), OptimizerConfig(rank_aware=False),
        ).build_memo(query)
        assert rank_memo.class_count() > traditional.class_count()
