"""Extension and related-work experiments beyond the paper's evaluation.

Each test runs one seeded experiment EXPERIMENTS.md reports -- the
top-k join strategies side by side, selections under rank joins, model
robustness, score correlation, the video query for growing m, and
sharded execution -- and pins its counts
(depths, buffers, tuples touched).
"""

import math

import numpy as np

from repro.common.rng import make_rng
from repro.data.generators import generate_ranked_table
from repro.data.video import make_video_workload
from repro.estimation.depths import top_k_depths_average
from repro.executor.database import Database
from repro.experiments.harness import (
    build_hrjn_pipeline,
    make_ranked_pair,
    realized_selectivity,
)
from repro.experiments.report import relative_error
from repro.operators.filters import Filter
from repro.operators.hrjn import HRJN
from repro.operators.joins import HashJoin
from repro.operators.nrjn import NRJN
from repro.operators.scan import IndexScan, TableScan
from repro.operators.sort import Sort
from repro.operators.topk import Limit
from repro.optimizer.enumerator import OptimizerConfig
from repro.storage.index import SortedIndex
from repro.storage.table import Table


def scan(table, index=None):
    return IndexScan(table, table.get_index(index or "%s_score_idx"
                                            % (table.name,)))


def two_way_hrjn(left, right, index_suffix="score_idx"):
    return HRJN(scan(left, "L_%s" % (index_suffix,)),
                scan(right, "R_%s" % (index_suffix,)),
                "L.key", "R.key", "L.score", "R.score", name="RJ")


def test_top_k_join_strategies():
    """HRJN, NRJN and the paper's join-then-sort baseline on one
    workload (n=4000, s=0.01, k=50): threshold rank joins touch far
    less input."""
    left, right = make_ranked_pair(4000, 0.01, seed=77)
    k = 50
    hrjn = HRJN(scan(left, "L_score_idx"), scan(right, "R_score_idx"),
                "L.key", "R.key", "L.score", "R.score", name="H")
    nrjn = NRJN(scan(left, "L_score_idx"), TableScan(right),
                "L.key", "R.key", "L.score", "R.score", name="N")
    answers = [
        [round(r["_score_%s" % (op.name,)], 9) for r in Limit(op, k)]
        for op in (hrjn, nrjn)
    ]
    join = HashJoin(TableScan(left), TableScan(right), "L.key", "R.key")

    def score_of(row):
        return row["L.score"] + row["R.score"]

    sort_plan = Limit(Sort(join, score_of, description="sum"), k)
    answers.append([round(score_of(r), 9) for r in sort_plan])
    # Every strategy returns the identical ranked answer.
    assert len({tuple(a) for a in answers}) == 1
    # Input tuples touched: NRJN exhausts its inner, join-then-sort
    # reads both inputs in full.
    assert (sum(hrjn.depths), sum(nrjn.depths),
            sum(join.stats.pulled)) == (202, 4089, 8000)
    assert nrjn.stats.max_buffer > hrjn.stats.max_buffer


def test_selection_under_rank_join():
    """A filter with pass rate p thins the stream a rank join consumes,
    so the base-table reads for the same k grow like 1/p (n=4000,
    k=20).  The paper's round-robin HRJN over the filtered index scans
    shows it; the engine's plan, which polls the input whose threshold
    term is larger, reads no deeper at any p and answers the same."""
    rng = make_rng(17)
    # Pin the plan shape to HRJN over two (filtered) index scans.
    db = Database(config=OptimizerConfig(enable_nrjn=False))
    for name in ("A", "B"):
        db.create_table(
            name, [("c1", "float"), ("c2", "int")],
            rows=[[float(rng.uniform(0, 1)), int(rng.integers(0, 10))]
                  for _ in range(4000)],
        )
    db.analyze()
    a, b = db.catalog.table("A"), db.catalog.table("B")
    base_reads = []
    engine_reads = []
    for bound in (9, 4, 1):  # Pass rates 1.0, 0.5, 0.2.
        left = IndexScan(a, a.get_index("A_c1_idx"))
        right = IndexScan(b, b.get_index("B_c1_idx"))
        join = HRJN(Filter(left, lambda row, _b=bound: row["A.c2"] <= _b),
                    right, "A.c2", "B.c2", "A.c1", "B.c1",
                    strategy="alternate", name="RJ")
        expected = [round(row["_score_RJ"], 9) for row in Limit(join, 20)]
        base_reads.append(left.stats.rows_out + right.stats.rows_out)
        report = db.execute("""
        WITH R AS (
          SELECT A.c1 AS x, B.c1 AS y,
                 rank() OVER (ORDER BY (A.c1 + B.c1)) AS rank
          FROM A, B WHERE A.c2 = B.c2 AND A.c2 <= %d)
        SELECT x, y, rank FROM R WHERE rank <= 20
        """ % (bound,))
        assert len(report.rows) == 20
        assert [round(row["A.c1"] + row["B.c1"], 9)
                for row in report.rows] == expected
        engine_reads.append(sum(
            snap.rows_out for snap in report.operators
            if snap.name.startswith(("IndexScan", "Scan", "TableScan"))
        ))
    assert base_reads == [52, 92, 211]
    assert engine_reads == [43, 61, 86]
    assert all(engine <= base
               for engine, base in zip(engine_reads, base_reads))


def test_model_robustness():
    """Violating Section 4's assumptions: non-uniform scores degrade the
    average-case estimate; a selectivity off by f moves it by
    1/sqrt(f) (n=6000, s=0.01, k=50)."""
    errors = {}
    for distribution in ("uniform", "gaussian", "zipf"):
        left = generate_ranked_table("L", 6000, selectivity=0.01,
                                     distribution=distribution, seed=1300)
        right = generate_ranked_table("R", 6000, selectivity=0.01,
                                      distribution=distribution, seed=1301)
        rank_join = two_way_hrjn(left, right)
        list(Limit(rank_join, 50))
        estimate = top_k_depths_average(
            50, realized_selectivity(left, right, "L.key", "R.key"))
        errors[distribution] = relative_error(
            sum(rank_join.depths) / 2.0, estimate.d_left)
    # Uniform is the model's home turf; gaussian degrades gracefully.
    assert errors["uniform"] <= 0.35
    assert errors["gaussian"] <= 1.0
    d_true = top_k_depths_average(50, 0.01).d_left
    for factor in (0.25, 0.5, 1.0, 2.0, 4.0):
        ratio = top_k_depths_average(50, 0.01 * factor).d_left / d_true
        assert abs(ratio - 1.0 / math.sqrt(factor)) < 1e-6


def correlated_pair(weight, objects=3000, seed=88):
    """Key-joined L and R whose right score mixes the left score (or its
    complement, for negative ``weight``) with independent noise."""
    rng = make_rng(seed)
    left_scores = rng.uniform(0, 1, objects)
    noise = rng.uniform(0, 1, objects)
    base = left_scores if weight >= 0 else 1.0 - left_scores
    right_scores = abs(weight) * base + (1.0 - abs(weight)) * noise
    tables = []
    for name, scores in (("L", left_scores), ("R", right_scores)):
        table = Table.from_columns(name, [("key", "int"), ("score", "float")])
        for i in range(objects):
            table.insert([i, float(scores[i])])
        table.create_index(SortedIndex("%s_idx" % (name,),
                                       "%s.score" % (name,)))
        tables.append(table)
    return tables, float(np.corrcoef(left_scores, right_scores)[0, 1])


def test_score_correlation():
    """Positive input-score correlation makes the rank join terminate
    shallower than the (correlation-blind) model predicts, negative
    correlation deeper (key join, n=3000, k=25)."""
    correlations, depths = [], []
    for weight in (-0.9, -0.5, 0.0, 0.5, 0.9):
        (left, right), correlation = correlated_pair(weight)
        rank_join = two_way_hrjn(left, right, index_suffix="idx")
        assert len(list(Limit(rank_join, 25))) == 25
        correlations.append(correlation)
        depths.append(sum(rank_join.depths) / 2.0)
    assert correlations[0] < -0.99 and correlations[-1] > 0.99
    assert correlations == sorted(correlations)
    assert depths == sorted(depths, reverse=True)
    assert (depths[0], depths[2], depths[-1]) == (2858.0, 413.0, 171.5)
    estimate = top_k_depths_average(25, 1.0 / 3000).clamp(
        max_left=3000, max_right=3000)
    assert round(estimate.d_left) == 387


def test_video_query_for_growing_m():
    """The paper's query Q -- the top-k video shots by m visual features
    -- as a rank-join pipeline vs the join-then-sort baseline, which
    reads everything (key join, n=1200, k=10)."""
    features = ("ColorHist", "ColorLayout", "Texture", "Edges")
    consumed = {}
    for m in (2, 3, 4):
        workload = make_video_workload(1200, features=features[:m],
                                       key_join=True, seed=31)
        tables = [workload.table(f) for f in features[:m]]
        keys = [workload.key_column(f) for f in features[:m]]
        scores = [workload.score_column(f) for f in features[:m]]
        rows, joins = build_hrjn_pipeline(tables, keys, scores, 10)
        # Base-relation reads: the bottom join's left input plus every
        # join's right input (upper left inputs are join streams).
        consumed[m] = joins[0].depths[0] + sum(j.depths[1] for j in joins)
        plan = TableScan(tables[0])
        for table, left_key, key in zip(tables[1:], keys, keys[1:]):
            plan = HashJoin(plan, TableScan(table), left_key, key)

        def score_of(row):
            return sum(row[c] for c in scores)

        baseline = list(Limit(Sort(plan, score_of, description="sum"), 10))
        assert [round(r[joins[-1].output_score_column], 9) for r in rows] \
            == [round(score_of(r), 9) for r in baseline]
        assert consumed[m] <= m * 1200
    # 379 vs 2400 base tuples at m=2, narrowing to 4411 vs 4800 at m=4:
    # binary pipelines amplify required depth down the chain.
    assert (consumed[2], consumed[4]) == (379, 4411)


def sharded_depth(report, sharded):
    """Rank-join depth summed over the serial HRJN or the per-shard
    ``HRJNn[si]`` operators."""
    return sum(sum(snap.pulled) for snap in report.operators
               if snap.name.startswith("HRJN")
               and ("[s" in snap.name) == sharded)


def test_sharded_depth_tracks_serial_depth():
    """Hash-sharded scatter-gather: the rank-aware budget split keeps
    the HRJN depth summed over inline shards within 1.25x of the serial
    plan's (4000 rows per side, key domain 20000, k=100)."""
    rng = make_rng(97)
    db = Database(config=OptimizerConfig(enable_nrjn=False))
    db.create_table("A", [("c1", "float"), ("c2", "int")], rows=[
        [float(rng.uniform(0, 1)), int(rng.integers(0, 20000))]
        for _ in range(4000)
    ])
    db.create_table("B", [("c1", "int"), ("c2", "float")], rows=[
        [int(rng.integers(0, 20000)), float(rng.uniform(0, 1))]
        for _ in range(4000)
    ])
    db.analyze()
    sql = """
    WITH Ranked AS (
      SELECT A.c1 AS x, B.c2 AS y,
             rank() OVER (ORDER BY (0.5*A.c1 + 0.5*B.c2)) AS rank
      FROM A, B WHERE A.c2 = B.c1)
    SELECT x, y, rank FROM Ranked WHERE rank <= 100
    """
    serial = db.execute(sql, parallel="off")
    serial_depth = sharded_depth(serial, sharded=False)
    assert len(serial.rows) == 100 and serial_depth > 0
    for shards in (2, 4):
        report = db.execute(sql, parallel="inline", shards=shards)
        assert report.rows == serial.rows
        assert sharded_depth(report, sharded=True) <= 1.25 * serial_depth
