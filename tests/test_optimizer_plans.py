"""Unit tests for optimizer plan nodes and their cost(k) semantics."""

import pytest

from repro.common.errors import OptimizerError
from repro.cost.model import CostModel
from repro.optimizer.enumerator import OptimizerConfig
from repro.optimizer.expressions import ScoreExpression
from repro.optimizer.plans import (
    AccessPlan,
    FilterPlan,
    JoinPlan,
    RankJoinPlan,
    SortPlan,
)
from repro.optimizer.properties import OrderProperty
from repro.optimizer.query import FilterPredicate, JoinPredicate


@pytest.fixture
def model():
    return CostModel()


def access(model, name="A", n=10000, ordered=False):
    if ordered:
        return AccessPlan(
            model, name, n, order=OrderProperty.on("%s.c1" % name),
            index_name="%s_c1_idx" % name,
        )
    return AccessPlan(model, name, n)


def rank_join(model, name_left="A", name_right="B", n=10000, s=0.001,
              operator="hrjn", mode="average"):
    left = access(model, name_left, n, ordered=True)
    right = access(model, name_right, n, ordered=True)
    left_expr = ScoreExpression.single("%s.c1" % name_left)
    right_expr = ScoreExpression.single("%s.c1" % name_right)
    return RankJoinPlan(
        model, operator, left, right,
        [JoinPredicate("%s.c2" % name_left, "%s.c2" % name_right)],
        s, left_expr, right_expr, left_expr.combine(right_expr),
        estimation_mode=mode,
    )


class TestAccessPlan:
    def test_cost_scales_with_k(self, model):
        plan = access(model)
        assert plan.cost(10) < plan.cost(1000)

    def test_cost_clamped_at_cardinality(self, model):
        plan = access(model, n=100)
        assert plan.cost(10 ** 9) == plan.cost(100)

    def test_ordered_access_needs_index(self, model):
        with pytest.raises(OptimizerError, match="requires an index"):
            AccessPlan(model, "A", 10, order=OrderProperty.on("A.c1"))

    def test_k_dependent(self, model):
        assert access(model).k_dependent


class TestSortPlan:
    def test_cost_k_independent(self, model):
        plan = SortPlan(model, access(model), OrderProperty.on("A.c1"))
        assert plan.cost(1) == plan.cost(10 ** 6)
        assert not plan.k_dependent

    def test_blocking(self, model):
        plan = SortPlan(model, access(model), OrderProperty.on("A.c1"))
        assert plan.pipelined is False

    def test_needs_order(self, model):
        with pytest.raises(OptimizerError):
            SortPlan(model, access(model), OrderProperty.none())


class TestJoinPlan:
    def test_cardinality(self, model):
        plan = JoinPlan(
            model, "hash", access(model, "A"), access(model, "B"),
            [JoinPredicate("A.c2", "B.c2")], 0.01,
        )
        assert plan.cardinality == pytest.approx(0.01 * 10000 * 10000)

    def test_nl_preserves_pipeline(self, model):
        plan = JoinPlan(
            model, "nl", access(model, "A"), access(model, "B"),
            [JoinPredicate("A.c2", "B.c2")], 0.01,
        )
        assert plan.pipelined

    def test_hash_blocks(self, model):
        plan = JoinPlan(
            model, "hash", access(model, "A"), access(model, "B"),
            [JoinPredicate("A.c2", "B.c2")], 0.01,
        )
        assert not plan.pipelined
        assert not plan.k_dependent

    def test_needs_predicate(self, model):
        with pytest.raises(OptimizerError):
            JoinPlan(model, "hash", access(model, "A"),
                     access(model, "B"), [], 0.01)

    def test_unknown_method(self, model):
        with pytest.raises(OptimizerError):
            JoinPlan(model, "zigzag", access(model, "A"),
                     access(model, "B"),
                     [JoinPredicate("A.c2", "B.c2")], 0.01)


class TestFilterPlan:
    def _filtered(self, model, selectivity=0.25):
        return FilterPlan(
            model, access(model, ordered=True),
            [FilterPredicate("A.c2", "<=", 5)], selectivity,
        )

    def test_cardinality_scaled(self, model):
        assert self._filtered(model).cardinality == pytest.approx(2500)

    def test_preserves_order_and_pipelining(self, model):
        plan = self._filtered(model)
        assert plan.order.describe() == "A.c1"
        assert plan.pipelined

    def test_cost_inflates_by_inverse_selectivity(self, model):
        """Pulling k filtered rows needs ~k/p child rows."""
        plan = self._filtered(model, selectivity=0.25)
        unfiltered = access(model, ordered=True)
        assert plan.cost(100) >= unfiltered.cost(400) * 0.9

    def test_cost_clamped_at_child(self, model):
        plan = self._filtered(model, selectivity=0.001)
        # Even 1/p beyond the child's size reads at most the child.
        assert plan.cost(10 ** 6) <= plan.cost(10 ** 7) + 1e-9

    def test_invalid_selectivity(self, model):
        with pytest.raises(OptimizerError):
            FilterPlan(model, access(model),
                       [FilterPredicate("A.c2", "<=", 5)], 0.0)


class TestRankJoinPlan:
    def test_cost_monotone_in_k(self, model):
        plan = rank_join(model)
        costs = [plan.cost(k) for k in (1, 10, 100, 1000)]
        assert costs == sorted(costs)

    def test_k_dependent(self, model):
        assert rank_join(model).k_dependent

    def test_hrjn_pipelined_from_children(self, model):
        assert rank_join(model).pipelined

    def test_nrjn_ignores_right_pipelining(self, model):
        left = access(model, "A", ordered=True)
        right = SortPlan(model, access(model, "B"),
                         OrderProperty.on("B.c1"))
        plan = RankJoinPlan(
            model, "nrjn", left, right,
            [JoinPredicate("A.c2", "B.c2")], 0.01,
            ScoreExpression.single("A.c1"),
            ScoreExpression.single("B.c1"),
            ScoreExpression({"A.c1": 1.0, "B.c1": 1.0}),
        )
        assert plan.pipelined  # Outer pipelined suffices for NRJN.

    def test_worst_mode_not_cheaper(self, model):
        average = rank_join(model, mode="average")
        worst = rank_join(model, mode="worst")
        assert worst.cost(100) >= average.cost(100)

    def test_propagate_depths_records(self, model):
        top = RankJoinPlan(
            model, "hrjn", rank_join(model),
            access(model, "C", ordered=True),
            [JoinPredicate("B.c2", "C.c2")], 0.001,
            ScoreExpression({"A.c1": 1.0, "B.c1": 1.0}),
            ScoreExpression.single("C.c1"),
            ScoreExpression({"A.c1": 1.0, "B.c1": 1.0, "C.c1": 1.0}),
        )
        records = top.propagate_depths(100)
        assert records[0][0] is top
        assert records[0][1] == 100
        # Child rank-join's required k equals the top's left depth.
        child_record = records[1]
        assert child_record[1] == pytest.approx(
            records[0][2].d_left,
        )

    def test_depth_estimate_clamped(self, model):
        plan = rank_join(model, n=50, s=0.5)
        estimate = plan.depth_estimate(10 ** 9)
        assert estimate.d_left <= 50

    def test_unknown_operator(self, model):
        with pytest.raises(OptimizerError):
            rank_join(model, operator="zigzag")


@pytest.mark.parametrize("build", [
    lambda model: OptimizerConfig(rank_aware=1),
    lambda model: OptimizerConfig(enable_hrjn="no"),
    lambda model: OptimizerConfig(enable_nrjn=None),
    lambda model: OptimizerConfig(enable_anyk="yes"),
    lambda model: OptimizerConfig(eager_enforcement=0),
    lambda model: OptimizerConfig(respect_pipelining="False"),
    lambda model: OptimizerConfig(join_methods=("hash", "merge")),
    lambda model: rank_join(model, mode="bogus"),
    lambda model: rank_join(model, mode="empirical"),
], ids=["rank_aware-1", "enable_hrjn-no", "enable_nrjn-None",
        "enable_anyk-yes", "eager_enforcement-0",
        "respect_pipelining-False-string", "join-method-merge",
        "estimation-bogus", "estimation-empirical"])
def test_invalid_planner_settings_rejected_at_construction(model, build):
    with pytest.raises(OptimizerError):
        build(model)
