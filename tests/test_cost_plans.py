"""Costing the two ranking plans of Figure 5 with the optimizer's nodes.

The sort plan is a ``SortPlan`` over the cheapest traditional join of
two heap scans; the rank-join plan is a ``RankJoinPlan`` over two
sorted index scans (:func:`repro.experiments.figures.two_way_plans`).
"""

import pytest

from repro.common.errors import OptimizerError
from repro.cost.model import CostModel
from repro.estimation.depths import top_k_depths_uniform
from repro.experiments.figures import two_way_plans
from repro.optimizer.expressions import ScoreExpression
from repro.optimizer.plans import (
    AccessPlan,
    JoinPlan,
    RankJoinPlan,
    SortPlan,
)
from repro.optimizer.properties import OrderProperty
from repro.optimizer.query import JoinPredicate


def sort_plan(s, n=10000):
    return two_way_plans(n, s)[0]


def rank_plan(s, n=10000, operator="hrjn", mode="average"):
    """HRJN (or NRJN) over two sorted scans, in estimation ``mode``."""
    plan = two_way_plans(n, s)[1]
    left, right = plan.children
    return RankJoinPlan(plan.model, operator, left, right, plan.predicates,
                        s, plan.left_expression, plan.right_expression,
                        plan.combined_expression, estimation_mode=mode)


def sort_plan_over(method, n=10000, s=0.001):
    model = CostModel()
    join = JoinPlan(model, method, AccessPlan(model, "L", n),
                    AccessPlan(model, "R", n),
                    [JoinPredicate("L.key", "R.key")], s)
    order = ScoreExpression({"L.score": 1.0, "R.score": 1.0})
    return SortPlan(model, join, OrderProperty(order))


class TestSortPlan:
    def test_best_is_minimum(self):
        """The figures' sort plan is the cheapest of inl/hash/sort-merge."""
        best = sort_plan(0.001).cost(1)
        costs = [sort_plan_over(method).cost(1)
                 for method in ("inl", "hash", "sort_merge")]
        assert best == min(costs)

    def test_cost_grows_with_selectivity(self):
        """More join results to sort -> higher cost."""
        assert sort_plan(1e-1).cost(1) > sort_plan(1e-4).cost(1)

    def test_unknown_method_rejected(self):
        with pytest.raises(OptimizerError):
            sort_plan_over("zigzag")


class TestRankJoinPlan:
    def test_cost_monotone_in_k(self):
        plan = rank_plan(0.001)
        costs = [plan.cost(k) for k in (1, 10, 100, 1000)]
        assert costs == sorted(costs)

    def test_cost_decreases_with_selectivity(self):
        """Higher selectivity -> shallower depths -> cheaper."""
        assert rank_plan(1e-1).cost(100) \
            < rank_plan(1e-4).cost(100)

    def test_depths_clamped_at_cardinality(self):
        estimate = rank_plan(1e-6, n=100).depth_estimate(10 ** 9)
        assert estimate.d_left <= 100
        assert estimate.d_right <= 100

    def test_worst_mode_costs_more(self):
        assert (rank_plan(0.001, mode="worst").cost(100)
                >= rank_plan(0.001, mode="average").cost(100))

    def test_nrjn_charges_inner(self):
        """NRJN charges its inner in full, whatever k asks for."""
        n = 10000
        nrjn = rank_plan(0.001, n=n, operator="nrjn")
        inner = nrjn.children[1]
        assert nrjn.charged_depths(10)[1][1] == n
        assert nrjn.cost(10) >= inner.cost(n) + nrjn.model.table_scan_cost(n)
        assert rank_plan(0.001, n=n).cost(10) > 0

    def test_slabs_override(self):
        """Two leaf inputs in worst-case mode are the paper's two
        uniform inputs with unit slabs: ``dL = dR = 2 sqrt(k/s)``."""
        estimate = rank_plan(0.01, n=1000,
                             mode="worst").depth_estimate(10)
        uniform = top_k_depths_uniform(10, 0.01)
        assert estimate.d_left == pytest.approx(uniform.d_left)
        assert estimate.d_right == pytest.approx(uniform.d_right)

    def test_invalid_inputs(self):
        plan = rank_plan(0.1, n=10)
        left, right = plan.children
        with pytest.raises(OptimizerError):
            rank_plan(0.1, n=10, operator="zzz")
        with pytest.raises(OptimizerError):
            RankJoinPlan(plan.model, "hrjn", left, right, [], 0.1,
                         plan.left_expression, plan.right_expression,
                         plan.combined_expression)


class TestFigureShapes:
    """The qualitative shapes of Figures 1 and 6."""

    def test_figure1_crossover_in_selectivity(self):
        """Sort plan wins at low selectivity, rank-join at high."""
        for s, sort_wins in ((1e-5, True), (1e-2, False)):
            sort, rank = two_way_plans(10000, s)
            assert (sort.cost(100) < rank.cost(100)) is sort_wins

    def test_figure6_sort_flat_rank_grows(self):
        """Sort-plan cost is k-independent; rank-join cost grows."""
        sort, rank = two_way_plans(10000, 1e-3)
        assert sort.cost(1) == sort.cost(5000)
        assert rank.cost(1) < sort.cost(1) < rank.cost(5000)
