"""White-box tests for enumerator internals: splits, order demotion,
INL eligibility, and builder error paths."""

import pytest

from repro.common.errors import OptimizerError
from repro.cost.model import CostModel
from repro.data.catalogs import make_abc_catalog
from repro.optimizer.builder import PlanBuilder
from repro.optimizer.enumerator import (
    Optimizer,
    OptimizerConfig,
    _effective_order,
)
from repro.optimizer.expressions import ScoreExpression
from repro.optimizer.interesting import interesting_orders_for_tables
from repro.optimizer.plans import AccessPlan, FilterPlan
from repro.optimizer.properties import OrderProperty
from repro.optimizer.query import FilterPredicate, JoinPredicate, RankQuery


@pytest.fixture(scope="module")
def catalog():
    return make_abc_catalog(rows=60)


@pytest.fixture(scope="module")
def optimizer(catalog):
    return Optimizer(catalog, CostModel(), OptimizerConfig())


def chain_query():
    return RankQuery(
        tables="ABC",
        predicates=[JoinPredicate("A.c2", "B.c2"),
                    JoinPredicate("B.c2", "C.c2")],
        ranking=ScoreExpression({"A.c1": 0.5, "B.c1": 0.5}),
        k=3,
    )


class TestSplits:
    def test_both_orientations_generated(self, optimizer):
        query = chain_query()
        splits = list(optimizer._splits(query, frozenset("AB")))
        assert (frozenset("A"), frozenset("B")) in splits
        assert (frozenset("B"), frozenset("A")) in splits

    def test_disconnected_sides_skipped(self, optimizer):
        query = chain_query()
        splits = list(optimizer._splits(query, frozenset("ABC")))
        sides = {side for split in splits for side in split}
        assert frozenset("AC") not in sides  # A-C not connected.

    def test_each_unordered_split_twice(self, optimizer):
        query = chain_query()
        splits = list(optimizer._splits(query, frozenset("ABC")))
        unordered = {frozenset((left, right)) for left, right in splits}
        assert len(splits) == 2 * len(unordered)


class TestOrderDemotion:
    def test_uninteresting_order_becomes_dc(self):
        """A produced order with no future benefit compares as DC."""
        query = chain_query()
        order = OrderProperty.on("A.c1")
        # A.c1 is interesting at {A} (rank column) but retired at ABC.
        at_leaf = _effective_order(
            interesting_orders_for_tables(query, frozenset("A")), order,
        )
        assert not at_leaf.is_none
        at_root = _effective_order(
            interesting_orders_for_tables(query, frozenset("ABC")), order,
        )
        assert at_root.is_none

    def test_dc_stays_dc(self):
        query = chain_query()
        assert _effective_order(
            interesting_orders_for_tables(query, frozenset("A")),
            OrderProperty.none(),
        ).is_none


class TestInlEligibility:
    def test_access_plan_eligible(self, optimizer):
        plan = AccessPlan(CostModel(), "B", 60)
        assert optimizer._inl_eligible(plan)

    def test_filtered_table_not_eligible(self, optimizer):
        base = AccessPlan(CostModel(), "B", 60)
        filtered = FilterPlan(
            CostModel(), base,
            [FilterPredicate("B.c2", "<=", 5)], 0.5,
        )
        assert not optimizer._inl_eligible(filtered)


class TestFilterSelectivityHelper:
    def test_no_filters(self, optimizer):
        query = chain_query()
        filters, selectivity = optimizer._filter_selectivity(query, "A")
        assert filters is None and selectivity == 1.0

    def test_with_filter(self, catalog):
        optimizer = Optimizer(catalog, CostModel(), OptimizerConfig())
        query = RankQuery(
            tables="AB",
            predicates=[JoinPredicate("A.c2", "B.c2")],
            ranking=ScoreExpression({"A.c1": 1.0, "B.c1": 1.0}), k=2,
            filters=[FilterPredicate("A.c2", "<=", 9.0)],
        )
        filters, selectivity = optimizer._filter_selectivity(query, "A")
        assert filters and 0.0 < selectivity <= 1.0


class TestBuilderErrors:
    def test_unknown_plan_node_rejected(self, catalog):
        class FakePlan:
            pass

        with pytest.raises(OptimizerError, match="cannot build"):
            PlanBuilder(catalog).build(FakePlan())

    def test_sort_fallback_when_no_natural_plan(self, catalog):
        """With eager enforcement off and no usable index order, the
        optimizer still returns a plan (sort glued at the root)."""
        optimizer = Optimizer(
            catalog, CostModel(),
            OptimizerConfig(eager_enforcement=False, enable_hrjn=False,
                            enable_nrjn=False, rank_aware=False),
        )
        result = optimizer.optimize(chain_query())
        assert result.best_plan.order.covers(result.required_order)
