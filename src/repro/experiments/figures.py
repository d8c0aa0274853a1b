"""The paper's evaluation (Section 5), computed once.

One cached function per artifact returns its data (:func:`figure1`,
:func:`figures2_3`, :func:`table1`, :func:`figure4`, :func:`figure6`,
:func:`figure13`, :func:`figure13b`, :func:`figure14`, :func:`figure15`),
so treat what they return as read-only.  :func:`generate_report` formats
all of them (``python -m repro report``, a few seconds), and
:func:`analytic_report` Figures 1 and 6 alone (``python -m repro
figures``).  Figures 1 and 6 cost the two plans of Figure 5 with the
optimizer's own plan nodes (:func:`two_way_plans`), so the curves and
``k*`` are the costs the MEMO compares.
"""

from functools import cache

from repro.cost.crossover import find_k_star
from repro.cost.model import CostModel
from repro.data.catalogs import make_abc_catalog
from repro.experiments.harness import measure_depths, measure_pipeline_depths
from repro.experiments.report import format_table, relative_error
from repro.optimizer.enumerator import Optimizer, OptimizerConfig
from repro.optimizer.expressions import ScoreExpression
from repro.optimizer.interesting import collect_interesting_orders
from repro.optimizer.plans import AccessPlan, JoinPlan, RankJoinPlan, SortPlan
from repro.optimizer.properties import OrderProperty
from repro.optimizer.query import JoinPredicate, RankQuery

#: Figures 1 and 6: rows per input of the analytic two-way plans.
ANALYTIC_CARDINALITY = 10000
FIGURE1_K = 100
FIGURE1_SELECTIVITIES = (1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1)
FIGURE6_SELECTIVITY = 1e-3
FIGURE6_KS = (1, 25, 50, 100, 150, 200, 400, 800)
#: The paper's retained-plan counts for the four MEMOs of Figures 2-3.
PAPER_MEMO_COUNTS = {"2(a)": 12, "2(b)": 15, "3(a)": 12, "3(b)": 17}
#: Figure 4: (rows per input, selectivity, k, seed) of a 3-input pipeline.
FIGURE4 = (4000, 0.01, 100, 42)
#: Figures 13-15 and 13(b) measure HRJN at one selectivity (Figure 14
#: sweeps it at one k).
MEASURED_CARDINALITY = 8000
MEASURED_SELECTIVITY = 0.01
FIGURE13_KS = (5, 10, 25, 50, 100, 200)
FIGURE13B_CARDINALITY = 6000
FIGURE13B_KS = (25, 50, 100)
FIGURE14_K = 50
FIGURE14_SELECTIVITIES = (0.002, 0.005, 0.01, 0.02, 0.05, 0.1)
FIGURE15_KS = (25, 50, 100, 200, 400)


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


def _q2():
    """Query Q2 of Section 3: the Table 1 / Figure 3 query."""
    return RankQuery(
        tables="ABC",
        predicates=[JoinPredicate("A.c2", "B.c1"),
                    JoinPredicate("B.c2", "C.c2")],
        ranking=ScoreExpression({"A.c1": 0.3, "B.c1": 0.3, "C.c1": 0.3}),
        k=5,
    )


@cache
def figure1():
    """Figure 1: ``[(selectivity, sort cost, rank-join cost, winner)]``
    at ``k = FIGURE1_K``."""
    rows = []
    for selectivity in FIGURE1_SELECTIVITIES:
        sort_cost, rank_cost = (
            plan.cost(FIGURE1_K)
            for plan in two_way_plans(ANALYTIC_CARDINALITY, selectivity))
        rows.append((selectivity, sort_cost, rank_cost,
                     "rank-join" if rank_cost < sort_cost else "sort"))
    return rows


@cache
def figures2_3():
    """Figures 2-3: the four MEMOs over the 3-table catalog.

    Keyed like :data:`PAPER_MEMO_COUNTS`: ``"2(a)"`` is the plain 3-way
    join, ``"2(b)"`` the same with ``ORDER BY A.c2`` (both traditional),
    ``"3(a)"`` / ``"3(b)"`` query Q2 traditional / rank-aware.
    """
    catalog = make_abc_catalog()
    model = CostModel()
    predicates = [JoinPredicate("A.c1", "B.c1"),
                  JoinPredicate("B.c2", "C.c2")]
    traditional = Optimizer(catalog, model,
                            OptimizerConfig(rank_aware=False))
    rank_aware = Optimizer(catalog, model, OptimizerConfig())
    return {
        "2(a)": traditional.build_memo(
            RankQuery(tables="ABC", predicates=predicates)),
        "2(b)": traditional.build_memo(
            RankQuery(tables="ABC", predicates=predicates,
                      order_by="A.c2")),
        "3(a)": traditional.build_memo(_q2()),
        "3(b)": rank_aware.build_memo(_q2()),
    }


@cache
def table1():
    """Table 1: the interesting order expressions collected for Q2."""
    return collect_interesting_orders(_q2())


@cache
def figure4():
    """Figure 4: measured vs propagated depths of a 3-input pipeline,
    as :func:`~repro.experiments.harness.measure_pipeline_depths`
    records (bottom-up: ``[HRJN1 (child), HRJN2 (top)]``)."""
    cardinality, selectivity, k, seed = FIGURE4
    return measure_pipeline_depths(cardinality, selectivity, k, inputs=3,
                                   seed=seed)


@cache
def figure6():
    """Figure 6: ``([(k, sort cost, rank-join cost)], k*)``."""
    sort_plan, rank_plan = two_way_plans(ANALYTIC_CARDINALITY,
                                         FIGURE6_SELECTIVITY)
    series = [(k, sort_plan.cost(k), rank_plan.cost(k)) for k in FIGURE6_KS]
    return series, find_k_star(rank_plan, sort_plan)


@cache
def figure13():
    """Figure 13: one two-input HRJN measurement per ``k``."""
    return [measure_depths(MEASURED_CARDINALITY, MEASURED_SELECTIVITY, k,
                           seed=100 + k)
            for k in FIGURE13_KS]


@cache
def figure13b():
    """Figure 13(b): ``{k: pipeline records}`` -- the child operator's
    depths (record 0) against Propagate's estimates."""
    return {k: measure_pipeline_depths(FIGURE13B_CARDINALITY,
                                       MEASURED_SELECTIVITY, k, inputs=3,
                                       seed=2024)
            for k in FIGURE13B_KS}


@cache
def figure14():
    """Figure 14: one two-input HRJN measurement per selectivity."""
    return [measure_depths(MEASURED_CARDINALITY, s, FIGURE14_K,
                           seed=int(1000 * s))
            for s in FIGURE14_SELECTIVITIES]


@cache
def figure15():
    """Figure 15: one two-input HRJN measurement (buffers) per ``k``."""
    return [measure_depths(MEASURED_CARDINALITY, MEASURED_SELECTIVITY, k,
                           seed=500 + k)
            for k in FIGURE15_KS]


def _figure1_text():
    return format_table(
        ["selectivity", "sort plan", "rank-join plan", "winner"],
        [["%.0e" % s, sort_cost, rank_cost, winner]
         for s, sort_cost, rank_cost, winner in figure1()],
        title="Figure 1: plan cost vs selectivity (n=%d, k=%d)"
              % (ANALYTIC_CARDINALITY, FIGURE1_K),
    )


def _figures2_3_text():
    memos = figures2_3()
    summary = format_table(
        ["experiment", "measured plans", "paper"],
        [["Figure %s" % (panel,), memo.class_count(),
          PAPER_MEMO_COUNTS[panel]]
         for panel, memo in memos.items()],
        title="Figures 2-3: MEMO plan-class counts (2: 3-way join, (b) + "
              "ORDER BY A.c2; 3: Q2, (a) traditional, (b) rank-aware)",
    )
    entries = sorted(memos["2(a)"].entries(),
                     key=lambda tables: (len(tables), sorted(tables)))
    per_entry = format_table(
        ["entry"] + list(memos),
        [["".join(sorted(tables))]
         + [memo.class_count(tables) for memo in memos.values()]
         for tables in entries],
        title="Figures 2-3: retained plan classes per MEMO entry",
    )
    return summary + "\n\n" + per_entry


def _table1_text():
    return format_table(
        ["Interesting Order Expression", "Reason"],
        [[io.expression.description(), " and ".join(io.reasons)]
         for io in table1()],
        title="Table 1: interesting order expressions in Q2",
    )


def _figure4_text():
    cardinality, selectivity, k, _seed = FIGURE4
    return format_table(
        ["operator", "required k", "actual dL", "actual dR",
         "estimated dL", "estimated dR"],
        [[name, round(required), actual[0], actual[1],
          estimate.d_left, estimate.d_right]
         for name, actual, estimate, required in figure4()],
        title="Figure 4: propagating k=%d down a 3-input rank-join "
              "pipeline (n=%d, s=%g)" % (k, cardinality, selectivity),
    )


def _figure6_text():
    series, k_star = figure6()
    return format_table(
        ["k", "sort plan", "rank-join plan"], [list(row) for row in series],
        title="Figure 6: plan cost vs k (n=%d, s=%g); k* = %s "
              "(paper example: 176)"
              % (ANALYTIC_CARDINALITY, FIGURE6_SELECTIVITY, k_star),
    )


def _depth_row(first, m):
    actual = sum(m.actual) / 2.0
    return [first, actual, m.any_k[0], m.average[0], m.top_k[0],
            "%.0f%%" % (100 * relative_error(actual, m.average[0]),)]


def _figure13_text():
    return format_table(
        ["k", "actual depth", "Any-k", "Avg-case", "Top-k", "err"],
        [_depth_row(m.k, m) for m in figure13()],
        title="Figure 13: depth estimation vs k (n=%d, s=%g)"
              % (MEASURED_CARDINALITY, MEASURED_SELECTIVITY),
    )


def _figure13b_text():
    rows = []
    for k, records in figure13b().items():
        for level, label in ((1, "top (d1,d2)"), (0, "child (d5,d6)")):
            _name, actual, estimate, required = records[level]
            rows.append([
                k, label, round(required), sum(actual) / 2.0,
                (estimate.c_left + estimate.c_right) / 2.0,
                (estimate.d_left + estimate.d_right) / 2.0,
            ])
    return format_table(
        ["user k", "operator", "required k", "actual depth", "Any-k",
         "Top-k"],
        rows,
        title="Figure 13(b): pipeline depth estimation (n=%d, s=%g, "
              "3 inputs)" % (FIGURE13B_CARDINALITY, MEASURED_SELECTIVITY),
    )


def _figure14_text():
    return format_table(
        ["selectivity", "actual depth", "Any-k", "Avg-case", "Top-k",
         "err"],
        [_depth_row("%.3f" % (m.selectivity,), m) for m in figure14()],
        title="Figure 14: depth estimation vs selectivity (n=%d, k=%d)"
              % (MEASURED_CARDINALITY, FIGURE14_K),
    )


def _figure15_text():
    return format_table(
        ["k", "actual buffer", "actual bound", "estimated bound",
         "bound err"],
        [[m.k, m.buffer_actual, m.buffer_actual_bound,
          m.buffer_estimated_bound,
          "%.0f%%" % (100 * relative_error(m.buffer_actual_bound,
                                           m.buffer_estimated_bound),)]
         for m in figure15()],
        title="Figure 15: buffer size vs bounds (n=%d, s=%g)"
              % (MEASURED_CARDINALITY, MEASURED_SELECTIVITY),
    )


def analytic_report():
    """Figures 1 and 6 (cost model only, no execution) as text."""
    return _figure1_text() + "\n\n" + _figure6_text()


def generate_report():
    """Return the full text report reproducing the paper's evaluation."""
    return "\n\n".join([
        "Rank-aware Query Optimization (SIGMOD 2004) -- "
        "reproduction report",
        "=" * 66,
        _figure1_text(),
        _figures2_3_text(),
        _table1_text(),
        _figure4_text(),
        _figure6_text(),
        _figure13_text(),
        _figure13b_text(),
        _figure14_text(),
        _figure15_text(),
    ])
