"""Ablations of the paper's design choices (DESIGN.md section 5).

Each test toggles one choice -- polling strategy, rank-join operator,
pruning switch, estimation mode, the optimizer's rank-join
menu -- on a seeded workload and asserts the trade-off EXPERIMENTS.md
reports, by counts (depths, buffers, plan classes), never wall-clock.
"""

from repro.common.rng import make_rng
from repro.cost.model import CostModel
from repro.data.catalogs import make_abc_catalog
from repro.executor.database import Database
from repro.experiments.harness import make_ranked_pair, measure_depths
from repro.experiments.report import relative_error
from repro.operators.hrjn import HRJN, POLL_STRATEGIES
from repro.operators.nrjn import NRJN
from repro.operators.scan import IndexScan, TableScan
from repro.operators.topk import Limit
from repro.optimizer.enumerator import Optimizer, OptimizerConfig
from repro.optimizer.expressions import ScoreExpression
from repro.optimizer.query import JoinPredicate, RankQuery


def ranked_scans(left, right):
    return (IndexScan(left, left.get_index("L_score_idx")),
            IndexScan(right, right.get_index("R_score_idx")))


def test_polling_strategy():
    """HRJN's input-polling strategy (Section 2.2) vs consumed depth
    (n=6000, s=0.01, k=50)."""
    results = {}
    for strategy in POLL_STRATEGIES:
        left, right = make_ranked_pair(6000, 0.01, seed=9)
        rank_join = HRJN(*ranked_scans(left, right), "L.key", "R.key",
                         "L.score", "R.score", strategy=strategy, name="RJ")
        rows = list(Limit(rank_join, 50))
        results[strategy] = (rank_join.depths, round(rows[0]["_score_RJ"], 6))
    # Correctness does not depend on polling: one top-1 score.
    assert len({top for _depths, top in results.values()}) == 1
    depths = {strategy: d for strategy, (d, _top) in results.items()}
    # Threshold-guided polling consumes slightly less than round-robin;
    # one-sided polling degenerates to a full scan of its side.
    assert sum(depths["threshold"]) == 199
    assert sum(depths["alternate"]) == 201
    assert sum(depths["left"]) == 6098
    assert depths["left"][0] >= depths["alternate"][0]


def test_hrjn_vs_nrjn():
    """HRJN needs both inputs ranked, NRJN only the outer; NRJN pays by
    exhausting its inner and buffering far more (n=4000, s=0.01)."""
    for k in (10, 50, 200):
        left, right = make_ranked_pair(4000, 0.01, seed=21)
        hrjn = HRJN(*ranked_scans(left, right), "L.key", "R.key",
                    "L.score", "R.score", name="H")
        hrjn_rows = list(Limit(hrjn, k))
        left, right = make_ranked_pair(4000, 0.01, seed=21)
        nrjn = NRJN(ranked_scans(left, right)[0], TableScan(right),
                    "L.key", "R.key", "L.score", "R.score", name="N")
        nrjn_rows = list(Limit(nrjn, k))
        assert len(hrjn_rows) == len(nrjn_rows) == k
        assert round(hrjn_rows[0]["_score_H"], 6) \
            == round(nrjn_rows[0]["_score_N"], 6)
        assert sum(nrjn.depths) >= 4000
        assert sum(hrjn.depths) < sum(nrjn.depths)
        assert nrjn.stats.max_buffer >= hrjn.stats.max_buffer


def q2():
    return RankQuery(
        tables="ABC",
        predicates=[JoinPredicate("A.c2", "B.c1"),
                    JoinPredicate("B.c2", "C.c2")],
        ranking=ScoreExpression({"A.c1": 0.3, "B.c1": 0.3, "C.c1": 0.3}),
        k=5,
    )


def test_pruning_switches():
    """The pipelining property (Section 3.3) and eager order enforcement
    (Section 3.1) toggled on query Q2."""
    catalog = make_abc_catalog()
    results = {}
    for label, config in (
        ("default", OptimizerConfig()),
        ("no pipelining prop", OptimizerConfig(respect_pipelining=False)),
        ("no eager sorts", OptimizerConfig(eager_enforcement=False)),
        ("traditional", OptimizerConfig(rank_aware=False)),
    ):
        optimizer = Optimizer(catalog, CostModel(), config)
        memo = optimizer.build_memo(q2())
        best = optimizer.optimize(q2()).best_plan
        results[label] = (
            memo.class_count(),
            sum(len(plans) for plans in memo.entries().values()),
            type(best).__name__, best.pipelined,
        )
    # Default keeps Figure 3(b)'s 17 classes (21 plans) and picks a
    # pipelined rank-join plan.
    assert results["default"] == (17, 21, "RankJoinPlan", True)
    # Dropping the pipelining property shrinks the plan pool.
    assert results["no pipelining prop"][1] == 18
    # The traditional optimizer falls back to a blocking sort plan.
    assert results["traditional"][0] == 12
    assert results["traditional"][2:] == ("SortPlan", False)


def test_estimation_mode():
    """Worst-case bounds (Equations 2-5) vs the average-case formulas
    (n=6000, s=0.01)."""
    measurements = [measure_depths(6000, 0.01, k, seed=300 + k)
                    for k in (10, 50, 200)]
    actuals = [sum(m.actual) / 2.0 for m in measurements]
    assert actuals == [53.0, 100.5, 224.5]
    for actual, m in zip(actuals, measurements):
        # Worst case never (materially) undershoots.
        assert m.top_k[0] >= actual * 0.85
    # Average-case is the tighter estimator overall.
    mean_average_error = sum(relative_error(a, m.average[0])
                             for a, m in zip(actuals, measurements)) / 3
    mean_worst_error = sum(relative_error(a, m.top_k[0])
                           for a, m in zip(actuals, measurements)) / 3
    assert mean_average_error <= mean_worst_error + 0.05


def test_rank_join_menu_in_optimizer():
    """Section 3.2 generates a plan per rank-join implementation: each
    enabled alone, and both together (2000 rows, k=10)."""
    sql = """
    WITH R AS (
      SELECT A.c1 AS x, B.c1 AS y,
             rank() OVER (ORDER BY (A.c1 + B.c1)) AS rank
      FROM A, B WHERE A.c2 = B.c2)
    SELECT x, y, rank FROM R WHERE rank <= 10
    """
    results = {}
    answers = set()
    for label, config in (
        ("hrjn only", OptimizerConfig(enable_nrjn=False)),
        ("nrjn only", OptimizerConfig(enable_hrjn=False)),
        ("both", OptimizerConfig()),
    ):
        rng = make_rng(55)
        db = Database(config=config)
        for name in ("A", "B"):
            db.create_table(
                name, [("c1", "float"), ("c2", "int")],
                rows=[[float(rng.uniform(0, 1)), int(rng.integers(0, 25))]
                      for _ in range(2000)],
            )
        db.analyze()
        best = db.explain(sql).best_plan
        results[label] = (best.describe().split("(")[0], best.cost(10))
        answers.add(tuple(round(r["A.c1"] + r["B.c1"], 9)
                          for r in db.execute(sql).rows))
    # Identical answers whatever the menu.
    assert len(answers) == 1
    # Each isolated config picks its own operator ...
    assert [results[label][0] for label in
            ("hrjn only", "nrjn only")] == ["HRJN", "NRJN"]
    # ... and with both enabled the optimizer does no worse than
    # the best single implementation (estimated cost).
    best_single = min(cost for label, (_op, cost) in results.items()
                      if label != "both")
    assert results["both"][1] <= best_single + 1e-6
