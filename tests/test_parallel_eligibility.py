"""Explicit eligibility gating for sharded parallel alternatives.

``sharding_eligible`` is the one rule deciding which plan roots get a
sharded ScoreMerge alternative: binary single-predicate HRJN only.
These tests pin the gate down for every other root -- NRJN, multi-way
any-k plans -- so new blocking operators are skipped cleanly rather
than mis-sharded, and prove the positive path still produces the
ScoreMerge alternative for an eligible HRJN over hash-co-located
shards.
"""

import pytest

from repro.common.rng import make_rng
from repro.cost.model import CostModel
from repro.executor.database import Database
from repro.optimizer.enumerator import OptimizerConfig
from repro.optimizer.expressions import ScoreExpression
from repro.optimizer.parallel import (
    apply_parallel_mode,
    parallel_alternative,
    sharding_eligible,
)
from repro.optimizer.plans import (
    AccessPlan,
    AnyKPlan,
    RankJoinPlan,
    ScoreMergePlan,
)
from repro.optimizer.properties import OrderProperty
from repro.optimizer.query import JoinPredicate, RankQuery


@pytest.fixture
def model():
    return CostModel()


def ordered_access(model, name, n=1000):
    return AccessPlan(
        model, name, n, order=OrderProperty.on("%s.c1" % name),
        index_name="%s_c1_idx" % name,
    )


def rank_join(model, operator="hrjn", predicates=None):
    left = ordered_access(model, "A")
    right = ordered_access(model, "B")
    left_expr = ScoreExpression.single("A.c1")
    right_expr = ScoreExpression.single("B.c1")
    return RankJoinPlan(
        model, operator, left, right,
        predicates or [JoinPredicate("A.c2", "B.c2")],
        0.01, left_expr, right_expr, left_expr.combine(right_expr),
    )


def anyk_plan(model):
    children = [AccessPlan(model, name, 1000) for name in "ABC"]
    expressions = [ScoreExpression.single("%s.c1" % name)
                   for name in "ABC"]
    combined = expressions[0].combine(expressions[1]) \
        .combine(expressions[2])
    return AnyKPlan(
        model, children,
        [JoinPredicate("A.c2", "B.c2"), JoinPredicate("B.c3", "C.c3")],
        [None, (0, (("B.c2", "A.c2"),)), (1, (("C.c3", "B.c3"),))],
        0.01, combined, expressions,
    )


class TestShardingEligible:
    def test_single_predicate_hrjn_is_eligible(self, model):
        assert sharding_eligible(rank_join(model))

    def test_nrjn_is_not_eligible(self, model):
        assert not sharding_eligible(rank_join(model, operator="nrjn"))

    def test_multi_predicate_rank_join_is_not_eligible(self, model):
        plan = rank_join(model, predicates=[
            JoinPredicate("A.c2", "B.c2"),
            JoinPredicate("A.c1", "B.c1"),
        ])
        assert not sharding_eligible(plan)

    def test_anyk_plan_is_not_eligible(self, model):
        assert not sharding_eligible(anyk_plan(model))

    def test_access_plan_is_not_eligible(self, model):
        assert not sharding_eligible(ordered_access(model, "A"))


class TestAlternativeGating:
    def test_anyk_root_is_skipped_before_catalog_access(self, model):
        # catalog=None: an ineligible root must be rejected by the
        # eligibility gate alone, never by poking catalog state.
        assert parallel_alternative(None, model, anyk_plan(model)) \
            is None

    def test_nrjn_root_is_skipped(self, model):
        plan = rank_join(model, operator="nrjn")
        assert parallel_alternative(None, model, plan) is None

    def test_forced_modes_pass_anyk_through_unchanged(self, model):
        plan = anyk_plan(model)
        for mode in ("inline", "pool", "off"):
            result, changed = apply_parallel_mode(None, model, plan,
                                                  mode)
            assert result is plan
            assert changed == 0


class TestEligibleAlternative:
    """Positive control: the gate still admits what it should."""

    def make_db(self):
        rng = make_rng(9)
        db = Database(config=OptimizerConfig(enable_nrjn=False))
        db.create_table("A", [("c1", "float"), ("c2", "int")], rows=[
            [float(rng.uniform(0, 1)), int(rng.integers(0, 10))]
            for _ in range(120)
        ])
        db.create_table("B", [("c1", "int"), ("c2", "float")], rows=[
            [int(rng.integers(0, 10)), float(rng.uniform(0, 1))]
            for _ in range(120)
        ])
        db.analyze()
        db.partition_table("A", 2, column="A.c2")
        db.partition_table("B", 2, column="B.c1")
        return db

    def query(self):
        return RankQuery(
            tables="AB",
            predicates=[JoinPredicate("A.c2", "B.c1")],
            ranking=ScoreExpression({"A.c1": 0.5, "B.c2": 0.5}),
            k=5,
        )

    def test_eligible_hrjn_gets_score_merge(self):
        db = self.make_db()
        report = db.execute(self.query(), parallel="off")
        plan = report.optimization.best_plan
        assert isinstance(plan, RankJoinPlan)
        assert sharding_eligible(plan)
        alternative = parallel_alternative(db.catalog, db.cost_model,
                                           plan)
        assert isinstance(alternative, ScoreMergePlan)
