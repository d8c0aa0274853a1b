"""Plan nodes cost each ``k`` once, and cost exactly what they did.

``Plan.cost`` memoises ``_cost(k)`` per node; children are shared
across parents, so the ``Propagate`` recursion is memoised bottom-up.
The differential half enumerates the same queries twice -- once as
shipped, once with every ``cost`` replaced by the uncached recursion in
``tests/reference_plan_cost.py`` -- and requires the two MEMOs, their
plans' costs and the chosen plans to be identical bit for bit.  The
count half pins how much work the memo saves on the benchmark's cold
3-table shape.
"""

import copy

import pytest

from repro.common.rng import make_rng
from repro.cost.model import CostModel
from repro.executor.database import Database
from repro.experiments.harness import pipeline_plan
from repro.optimizer.enumerator import Optimizer, OptimizerConfig
from repro.optimizer.plans import (
    AccessPlan,
    AnyKPlan,
    FilterPlan,
    JoinPlan,
    Plan,
    RankJoinPlan,
    ScoreMergePlan,
    SortPlan,
)
from repro.sql.parser import parse_query

from tests.reference_plan_cost import (
    reference_cost,
    reference_mean_leaf_cardinality,
)

#: Every class that implements ``_cost``.
COSTED = (AccessPlan, FilterPlan, SortPlan, JoinPlan, RankJoinPlan,
          AnyKPlan, ScoreMergePlan)

#: Extra abscissae every retained plan is costed at.
KS = (1, 10, 100, 10 ** 4)


def ranked_sql(tables, weights, form="chain", k=10, extra=""):
    """Top-k over ``tables`` joined on ``c2`` (a chain or a star)."""
    ranking = " + ".join("%r*%s.c1" % (weight, table)
                         for weight, table in zip(weights, tables))
    if form == "star":
        pairs = [(tables[0], other) for other in tables[1:]]
    else:
        pairs = list(zip(tables, tables[1:]))
    where = " AND ".join("%s.c2 = %s.c2" % pair for pair in pairs)
    return ("WITH Ranked AS (SELECT rank() OVER (ORDER BY (%s)) AS rank "
            "FROM %s WHERE %s%s) SELECT rank FROM Ranked WHERE rank <= %d"
            % (ranking, ", ".join(tables), where, extra, k))


SHAPES = {
    "two": ranked_sql("AB", (0.3, 0.7), k=5),
    "chain3": ranked_sql("ABC", (0.2, 0.3, 0.5)),
    "star3": ranked_sql("ABC", (0.5, 0.25, 0.25), form="star",
                        extra=" AND A.c1 > 0.1"),
    "chain4": ranked_sql("ABCD", (0.1, 0.2, 0.3, 0.4), k=20),
    "star4": ranked_sql("ABCD", (0.4, 0.1, 0.3, 0.2), form="star"),
}

CONFIGS = {
    "average": {},
    "anyk": {"enable_anyk": True},
    "no_pipelining": {"respect_pipelining": False},
    # Every table hash-partitioned on its join key, so leaf rank joins
    # get ScoreMerge-over-ShardAccess alternatives.
    "sharded": {},
}


#: Distinct table sizes, so leaf-cardinality sums are order-sensitive.
ROWS = {"A": 300, "B": 310, "C": 290, "D": 305}


def make_db(sharded, domain=12):
    rng = make_rng(17)
    db = Database()
    for name, rows in ROWS.items():
        db.create_table(name, [("c1", "float"), ("c2", "int")], rows=[
            [float(rng.uniform(0, 1)), int(rng.integers(0, domain))]
            for _ in range(rows)
        ])
    db.analyze()
    if sharded:
        for name in "ABCD":
            db.partition_table(name, 2, column="%s.c2" % (name,))
    return db


@pytest.fixture(scope="module")
def catalogs():
    return {sharded: make_db(sharded).catalog for sharded in (False, True)}


def costs(plan, k_min):
    return tuple(plan.cost(k) for k in (k_min, plan.cardinality) + KS) \
        + (plan.total_cost(),)


def signature(result):
    """Every retained plan with its properties and costs, and the
    chosen plan -- read through ``plan.cost``."""
    memo = result.memo
    entries = [
        (tuple(sorted(tables)),
         [(plan.explain(), plan.order.describe(), plan.pipelined,
           costs(plan, memo.k_min)) for plan in plans])
        for tables, plans in sorted(memo.entries().items(),
                                    key=lambda item: sorted(item[0]))
    ]
    best = result.best_plan
    return entries, best.explain(), costs(best, memo.k_min)


class TestMemoMatchesReference:
    @pytest.mark.parametrize("config", sorted(CONFIGS))
    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_memo_and_best_plan(self, shape, config, catalogs,
                                monkeypatch):
        catalog = catalogs[config == "sharded"]
        query = parse_query(SHAPES[shape])

        def optimize():
            optimizer = Optimizer(catalog, CostModel(),
                                  OptimizerConfig(**CONFIGS[config]))
            return optimizer.optimize(query)

        result = optimize()
        memoised = signature(result)
        # Each retained plan against the oracle, on the very same nodes.
        for plans in result.memo.entries().values():
            for plan in plans:
                for k in (result.memo.k_min, plan.cardinality) + KS:
                    assert plan.cost(k) == reference_cost(plan, k)
        with monkeypatch.context() as patch:
            for cls in (Plan, JoinPlan, SortPlan):
                patch.setattr(cls, "cost", reference_cost)
            reference = signature(optimize())
        assert memoised == reference


class _Spy:
    """Stands in for a child plan, recording each ``k`` it is costed at."""

    def __init__(self, plan):
        self._plan = plan
        self.asked = set()

    def cost(self, k):
        self.asked.add(k)
        return self._plan.cost(k)

    def __getattr__(self, name):
        return getattr(self._plan, name)


def charged(node, k):
    """Per child, the ``k`` values ``node._cost(k)`` costs it at."""
    clone = copy.copy(node)
    clone.children = tuple(_Spy(child) for child in node.children)
    clone._cost(k)
    return [spy.asked for spy in clone.children]


def assert_propagation_charges(root, k):
    """``root.propagate_depths(k)`` gives every child the ``k`` its
    parent's cost charges it, walking the records in pre-order."""
    records = root.propagate_depths(k)
    position = 0

    def visit():
        nonlocal position
        node, required, _estimate = records[position]
        position += 1
        for child, asked in zip(node.children, charged(node, required)):
            assert records[position][0] is child
            assert asked == {records[position][1]}, node
            visit()

    visit()
    assert position == len(records)


class TestPropagateChargesCost:
    @pytest.mark.parametrize("config", sorted(CONFIGS))
    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_required_depth_is_the_charged_depth(self, shape, config,
                                                 catalogs):
        """Every child's propagated depth is the ``k`` its parent's
        cost charges it: NRJN's inner in full, a filter's child at
        ``k / selectivity``, a shard at its budget."""
        catalog = catalogs[config == "sharded"]
        optimizer = Optimizer(catalog, CostModel(),
                              OptimizerConfig(**CONFIGS[config]))
        memo = optimizer.optimize(parse_query(SHAPES[shape])).memo
        roots = [plan for plans in memo.entries().values()
                 for plan in plans
                 if isinstance(plan, (RankJoinPlan, ScoreMergePlan))]
        assert roots
        for root in roots:
            for k in (memo.k_min,) + KS:
                assert_propagation_charges(root, k)


class TestCostMemo:
    def test_cold_three_table_optimize_costs_each_node_once(
            self, plan_cold_optimizer, monkeypatch):
        """Before the memo this optimize made 788 ``depth_estimate``
        calls (re-costing both plans of every dominance test)."""
        estimates = []
        reached = {}
        depth_estimate = RankJoinPlan.depth_estimate

        def counted(plan, k):
            estimates.append(k)
            return depth_estimate(plan, k)

        def recording(original):
            def _cost(plan, k):
                # The node is kept alive, so its id cannot be reused.
                assert (id(plan), k) not in reached, (plan, k)
                reached[id(plan), k] = plan
                return original(plan, k)
            return _cost

        monkeypatch.setattr(RankJoinPlan, "depth_estimate", counted)
        for cls in COSTED:
            monkeypatch.setattr(cls, "_cost", recording(cls._cost))
        query = parse_query(ranked_sql("ABC", (0.2, 0.3, 0.5)))
        plan_cold_optimizer.optimize(query)
        assert reached
        assert len(estimates) <= 100

    def test_worst_case_pipeline_matches_reference(self):
        """The optimizer plans with average-case depths; the worst-case
        ones (Equations 2-5) price the experiments' pipelines, and
        their propagated depths are the ones their costs charge."""
        plan = pipeline_plan(5000, [0.001, 0.0005, 0.002])
        for k in KS:
            assert_propagation_charges(plan, k)
        while isinstance(plan, RankJoinPlan):
            assert plan.estimation_mode == "worst"
            for k in KS:
                assert plan.cost(k) == reference_cost(plan, k)
            plan = plan.children[0]

    def test_cost_is_memoised_per_k(self):
        model = CostModel()
        plan = AccessPlan(model, "A", 1000.0)
        assert plan.cost(10) == reference_cost(plan, 10)
        assert plan.cost(10) is plan.cost(10.0)
        assert plan.cost(20) > plan.cost(10)

    def test_copy_starts_with_an_empty_memo(self, plan_cold_optimizer):
        query = parse_query(ranked_sql("AB", (0.4, 0.6), k=5))
        plan = plan_cold_optimizer.optimize(query).best_plan
        assert isinstance(plan, RankJoinPlan)
        before = plan.cost(5.0)
        clone = copy.copy(plan)
        clone.selectivity = plan.selectivity / 4
        assert clone.cost(5.0) == reference_cost(clone, 5.0) != before
        assert plan.cost(5.0) == before == reference_cost(plan, 5.0)

    def test_mean_leaf_cardinality_spans_shards(self, catalogs):
        """A rank join over a ScoreMerge averages over every shard leaf
        (``leaf_logs`` concatenates the children's, as the walk did)."""
        query = parse_query(SHAPES["chain4"])
        optimizer = Optimizer(catalogs[True], CostModel())
        memo = optimizer.optimize(query).memo
        over_merge = [plan for plans in memo.entries().values()
                      for plan in plans if isinstance(plan, RankJoinPlan)
                      and any(isinstance(child, ScoreMergePlan)
                              for child in plan.children)]
        assert over_merge
        for plan in over_merge:
            assert len(plan.leaf_logs) > plan.leaf_count
            assert plan.mean_leaf_cardinality == \
                reference_mean_leaf_cardinality(plan)
            for k in KS:
                assert plan.cost(k) == reference_cost(plan, k)
