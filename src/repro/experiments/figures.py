"""One-call regeneration of every reproduced figure/table.

``generate_report()`` re-runs the paper's evaluation suite and returns a
single text report -- what ``python -m repro report`` prints; the
analytic Figures 1 and 6 are also what ``python -m repro figures``
prints.  Workload sizes are chosen so the full report takes a few
seconds.

Figures 1 and 6 cost the two competing plans of Figure 5 with the
optimizer's own plan nodes (:func:`two_way_plans`), so the reproduced
curves and ``k*`` are the costs the MEMO compares.
"""

from repro.cost.crossover import find_k_star
from repro.cost.model import CostModel
from repro.experiments.harness import measure_depths
from repro.experiments.report import format_table, relative_error
from repro.optimizer.enumerator import Optimizer, OptimizerConfig
from repro.optimizer.expressions import ScoreExpression
from repro.optimizer.interesting import collect_interesting_orders
from repro.optimizer.plans import AccessPlan, JoinPlan, RankJoinPlan, SortPlan
from repro.optimizer.properties import OrderProperty
from repro.optimizer.query import JoinPredicate, RankQuery


def two_way_plans(cardinality, selectivity):
    """The two ranking plans of Figure 5 for ``L join R``.

    Both inputs hold ``cardinality`` rows, join on ``L.key = R.key``
    with ``selectivity``, and rank on ``L.score + R.score``.  Returns
    ``(sort_plan, rank_plan)``: the sort plan sorts the cheapest of the
    index nested-loops, hash and sort-merge joins of two heap scans
    (blocking, flat in ``k``); the rank-join plan is HRJN over the two
    sorted score indexes (its cost grows with ``k``).
    """
    model = CostModel()
    left_score = ScoreExpression.single("L.score")
    right_score = ScoreExpression.single("R.score")
    combined = left_score.combine(right_score)
    predicates = [JoinPredicate("L.key", "R.key")]
    sort_plan = min(
        (SortPlan(model, JoinPlan(model, method,
                                  AccessPlan(model, "L", cardinality),
                                  AccessPlan(model, "R", cardinality),
                                  predicates, selectivity),
                  OrderProperty(combined))
         for method in ("inl", "hash", "sort_merge")),
        key=lambda plan: plan.cost(1),
    )
    ranked = [
        AccessPlan(model, name, cardinality,
                   order=OrderProperty.on("%s.score" % (name,)),
                   index_name="%s_score_idx" % (name,))
        for name in "LR"
    ]
    rank_plan = RankJoinPlan(model, "hrjn", ranked[0], ranked[1],
                             predicates, selectivity, left_score,
                             right_score, combined)
    return sort_plan, rank_plan


def figure1(cardinality=10000, k=100):
    """Figure 1: both plans' cost at ``k`` across join selectivities."""
    rows = []
    for selectivity in (1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1):
        sort_plan, rank_plan = two_way_plans(cardinality, selectivity)
        sort_cost, rank_cost = sort_plan.cost(k), rank_plan.cost(k)
        rows.append([
            "%.0e" % selectivity, sort_cost, rank_cost,
            "rank-join" if rank_cost < sort_cost else "sort",
        ])
    return format_table(
        ["selectivity", "sort plan", "rank-join plan", "winner"], rows,
        title="Figure 1: plan cost vs selectivity (n=%d, k=%d)"
              % (cardinality, k),
    )


def _memo_counts(catalog):
    model = CostModel()
    plain = RankQuery(
        tables="ABC",
        predicates=[JoinPredicate("A.c1", "B.c1"),
                    JoinPredicate("B.c2", "C.c2")],
    )
    ordered = RankQuery(
        tables="ABC",
        predicates=[JoinPredicate("A.c1", "B.c1"),
                    JoinPredicate("B.c2", "C.c2")],
        order_by="A.c2",
    )
    q2 = RankQuery(
        tables="ABC",
        predicates=[JoinPredicate("A.c2", "B.c1"),
                    JoinPredicate("B.c2", "C.c2")],
        ranking=ScoreExpression({"A.c1": 0.3, "B.c1": 0.3, "C.c1": 0.3}),
        k=5,
    )
    traditional = Optimizer(catalog, model,
                            OptimizerConfig(rank_aware=False))
    rank_aware = Optimizer(catalog, model, OptimizerConfig())
    rows = [
        ["Figure 2(a) plain 3-way join",
         traditional.build_memo(plain).class_count(), 12],
        ["Figure 2(b) + ORDER BY A.c2",
         traditional.build_memo(ordered).class_count(), 15],
        ["Figure 3(a) Q2 traditional",
         traditional.build_memo(q2).class_count(), 12],
        ["Figure 3(b) Q2 rank-aware",
         rank_aware.build_memo(q2).class_count(), 17],
    ]
    return format_table(
        ["experiment", "measured plans", "paper"], rows,
        title="Figures 2-3: MEMO plan-class counts",
    )


def _table1():
    q2 = RankQuery(
        tables="ABC",
        predicates=[JoinPredicate("A.c2", "B.c1"),
                    JoinPredicate("B.c2", "C.c2")],
        ranking=ScoreExpression({"A.c1": 0.3, "B.c1": 0.3, "C.c1": 0.3}),
        k=5,
    )
    return format_table(
        ["Interesting Order Expression", "Reason"],
        [[io.expression.description(), " and ".join(io.reasons)]
         for io in collect_interesting_orders(q2)],
        title="Table 1: interesting order expressions in Q2",
    )


def figure6(cardinality=10000, selectivity=1e-3):
    """Figure 6: both plans' cost across ``k``, and their ``k*``."""
    sort_plan, rank_plan = two_way_plans(cardinality, selectivity)
    rows = [[k, sort_plan.cost(k), rank_plan.cost(k)]
            for k in (1, 50, 100, 200, 400, 800)]
    return format_table(
        ["k", "sort plan", "rank-join plan"], rows,
        title="Figure 6: plan cost vs k (n=%d, s=%g); k* = %s "
              "(paper example: 176)"
              % (cardinality, selectivity,
                 find_k_star(rank_plan, sort_plan)),
    )


def _figures_13_15(cardinality=6000, selectivity=0.01):
    depth_rows = []
    buffer_rows = []
    for k in (10, 50, 200):
        m = measure_depths(cardinality, selectivity, k, seed=700 + k)
        actual = sum(m.actual) / 2.0
        depth_rows.append([
            k, actual, m.any_k[0], m.average[0], m.top_k[0],
            "%.0f%%" % (100 * relative_error(actual, m.average[0]),),
        ])
        buffer_rows.append([
            k, m.buffer_actual, m.buffer_actual_bound,
            m.buffer_estimated_bound,
        ])
    depth_table = format_table(
        ["k", "actual depth", "Any-k", "Avg-case", "Top-k", "err"],
        depth_rows,
        title="Figure 13: depth estimation vs k (n=%d, s=%g)"
              % (cardinality, selectivity),
    )
    buffer_table = format_table(
        ["k", "actual buffer", "actual bound", "estimated bound"],
        buffer_rows,
        title="Figure 15: buffer size vs bounds (n=%d, s=%g)"
              % (cardinality, selectivity),
    )
    return depth_table, buffer_table


def generate_report(catalog_factory=None):
    """Return the full text report reproducing the paper's evaluation.

    ``catalog_factory`` optionally supplies the 3-table catalog used by
    the MEMO experiments (defaults to the standard generated one).
    """
    if catalog_factory is None:
        from repro.data.catalogs import make_abc_catalog as catalog_factory
    sections = [
        "Rank-aware Query Optimization (SIGMOD 2004) -- "
        "reproduction report",
        "=" * 66,
        figure1(),
        _memo_counts(catalog_factory()),
        _table1(),
        figure6(),
    ]
    depth_table, buffer_table = _figures_13_15()
    sections.append(depth_table)
    sections.append(buffer_table)
    return "\n\n".join(sections)
