"""Unit tests for the J* rank-join operator."""

import pytest

from repro.common.errors import ExecutionError
from repro.common.rng import make_rng
from repro.data.generators import generate_ranked_table
from repro.executor.database import Database
from repro.operators.hrjn import HRJN
from repro.operators.jstar import JStarRankJoin
from repro.operators.scan import IndexScan, TableScan
from repro.operators.topk import Limit
from repro.optimizer.enumerator import OptimizerConfig
from repro.storage.table import Table

from tests.test_operators_hrjn import check_top_k


def ranked_pair(n=200, selectivity=0.05, seed=0):
    left = generate_ranked_table("L", n, selectivity=selectivity, seed=seed)
    right = generate_ranked_table(
        "R", n, selectivity=selectivity, seed=seed + 1,
    )
    return left, right


def jstar_over(left, right, **kwargs):
    return JStarRankJoin(
        IndexScan(left, left.get_index("L_score_idx")),
        IndexScan(right, right.get_index("R_score_idx")),
        "L.key", "R.key", "L.score", "R.score", name="JS", **kwargs,
    )


class TestCorrectness:
    def test_top_k_matches_baseline(self):
        left, right = ranked_pair()
        rows = list(Limit(jstar_over(left, right), 10))
        check_top_k(left, right, rows, 10, "_score_JS")

    def test_scores_non_increasing(self):
        left, right = ranked_pair(seed=2)
        scores = [r["_score_JS"] for r in Limit(jstar_over(left, right), 30)]
        assert all(a >= b - 1e-12 for a, b in zip(scores, scores[1:]))

    def test_full_drain_matches_join_size(self):
        left, right = ranked_pair(n=60, selectivity=0.2, seed=3)
        check_top_k(left, right, list(jstar_over(left, right)), None,
                    "_score_JS")

    def test_agrees_with_hrjn(self):
        left, right = ranked_pair(seed=4)
        js_scores = [
            round(r["_score_JS"], 9)
            for r in Limit(jstar_over(left, right), 15)
        ]
        hr = HRJN(
            IndexScan(left, left.get_index("L_score_idx")),
            IndexScan(right, right.get_index("R_score_idx")),
            "L.key", "R.key", "L.score", "R.score", name="H",
        )
        hr_scores = [round(r["_score_H"], 9) for r in Limit(hr, 15)]
        assert js_scores == hr_scores

    def test_empty_inputs(self):
        left = generate_ranked_table("L", 0, seed=1)
        right = generate_ranked_table("R", 0, seed=2)
        assert list(jstar_over(left, right)) == []


class TestBehaviour:
    def test_early_out_depths(self):
        left, right = ranked_pair(n=2000, selectivity=0.05, seed=5)
        rank_join = jstar_over(left, right)
        list(Limit(rank_join, 5))
        d_left, d_right = rank_join.depths
        assert d_left < 300 and d_right < 300

    def test_depth_not_worse_than_hrjn(self):
        """J* explores the candidate grid in exact score order, so its
        depth should not exceed HRJN's by more than a small slack."""
        left, right = ranked_pair(n=2000, selectivity=0.05, seed=6)
        js = jstar_over(left, right)
        list(Limit(js, 20))
        hr = HRJN(
            IndexScan(left, left.get_index("L_score_idx")),
            IndexScan(right, right.get_index("R_score_idx")),
            "L.key", "R.key", "L.score", "R.score", name="H",
        )
        list(Limit(hr, 20))
        assert sum(js.depths) <= sum(hr.depths) + 4

    def test_unsorted_input_detected(self):
        left = Table.from_columns("L", [("key", "int"), ("score", "float")])
        for score in (0.1, 0.9):
            left.insert([1, score])
        right = generate_ranked_table("R", 10, seed=7)
        rank_join = JStarRankJoin(
            TableScan(left),
            IndexScan(right, right.get_index("R_score_idx")),
            "L.key", "R.key", "L.score", "R.score",
        )
        with pytest.raises(ExecutionError, match="not sorted"):
            list(rank_join)

    def test_non_monotone_combiner_rejected(self):
        left, right = ranked_pair(seed=8)
        with pytest.raises(ExecutionError, match="MonotoneScore"):
            jstar_over(left, right, combiner=min)

    def test_frontier_tracked_as_buffer(self):
        left, right = ranked_pair(seed=9)
        rank_join = jstar_over(left, right)
        list(Limit(rank_join, 10))
        assert rank_join.stats.max_buffer > 0


class TestOptimizerJStar:
    def test_jstar_plan_generated_and_executes(self):
        rng = make_rng(99)
        db = Database(config=OptimizerConfig(
            enable_hrjn=False, enable_nrjn=False, enable_jstar=True,
        ))
        for name in ("A", "B"):
            db.create_table(
                name, [("c1", "float"), ("c2", "int")],
                rows=[[float(rng.uniform(0, 1)),
                       int(rng.integers(0, 10))] for _ in range(150)],
            )
        db.analyze()
        report = db.execute("""
            WITH R AS (
              SELECT A.c1 AS x, rank() OVER
                     (ORDER BY (A.c1 + B.c1)) AS rank
              FROM A, B WHERE A.c2 = B.c2)
            SELECT x, rank FROM R WHERE rank <= 5""")
        assert len(report.rows) == 5
        assert any(snap.name.startswith("JSTAR")
                   for snap in report.operators)

    def test_jstar_results_match_hrjn_plan(self):
        sql = """
            WITH R AS (
              SELECT A.c1 AS x, rank() OVER
                     (ORDER BY (A.c1 + B.c1)) AS rank
              FROM A, B WHERE A.c2 = B.c2)
            SELECT x, rank FROM R WHERE rank <= 8"""

        def build(config):
            rng = make_rng(7)
            db = Database(config=config)
            for name in ("A", "B"):
                db.create_table(
                    name, [("c1", "float"), ("c2", "int")],
                    rows=[[float(rng.uniform(0, 1)),
                           int(rng.integers(0, 10))]
                          for _ in range(150)],
                )
            db.analyze()
            return db.execute(sql)

        jstar_rows = build(OptimizerConfig(
            enable_hrjn=False, enable_nrjn=False, enable_jstar=True,
        )).rows
        hrjn_rows = build(OptimizerConfig(enable_nrjn=False)).rows
        assert ([r["A.c1"] for r in jstar_rows]
                == [r["A.c1"] for r in hrjn_rows])
