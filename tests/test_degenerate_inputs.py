"""Degenerate-input behaviour: ties, constants, singletons, extremes,
non-finite values.

Threshold-based early-out logic is most fragile exactly where scores
stop being distinct; these tests pin the behaviour down.
"""

import math

import pytest

from repro.common.errors import DataError
from repro.common.rng import make_rng
from repro.executor.database import Database
from repro.operators.base import ScoreSpec, check_score
from repro.operators.hrjn import HRJN
from repro.operators.nrjn import NRJN
from repro.operators.scan import IndexScan, TableScan
from repro.operators.topk import Limit
from repro.optimizer.enumerator import OptimizerConfig
from repro.storage.index import SortedIndex
from repro.storage.table import Table

from tests.reference_answers import answers, assert_top_k


def constant_score_table(name, n, key_domain=3, score=0.5, seed=0):
    rng = make_rng(seed)
    table = Table.from_columns(name, [("key", "int"), ("score", "float")])
    for _ in range(n):
        table.insert([int(rng.integers(0, key_domain)), score])
    table.create_index(SortedIndex(
        "%s_idx" % name, "%s.score" % name,
    ))
    return table


def tied_answers(left, right):
    return answers([left, right], [("L.key", "R.key")],
                   {"L.score": 1.0, "R.score": 1.0})


class TestAllTiedScores:
    def test_hrjn_emits_full_join_under_ties(self):
        left = constant_score_table("L", 30, seed=1)
        right = constant_score_table("R", 30, seed=2)
        rank_join = HRJN(
            IndexScan(left, left.get_index("L_idx")),
            IndexScan(right, right.get_index("R_idx")),
            "L.key", "R.key", "L.score", "R.score", name="RJ",
        )
        rank_rows = list(rank_join)
        want = tied_answers(left, right)
        assert_top_k(rank_rows, want, len(want), "_score_RJ",
                     columns=("L.key", "R.key"))
        assert all(r["_score_RJ"] == 1.0 for r in rank_rows)

    def test_hrjn_topk_under_ties_returns_exactly_k(self):
        left = constant_score_table("L", 30, seed=3)
        right = constant_score_table("R", 30, seed=4)
        rank_join = HRJN(
            IndexScan(left, left.get_index("L_idx")),
            IndexScan(right, right.get_index("R_idx")),
            "L.key", "R.key", "L.score", "R.score", name="RJ",
        )
        assert_top_k(Limit(rank_join, 7), tied_answers(left, right), 7,
                     "_score_RJ", columns=("L.key", "R.key"))

    def test_nrjn_under_ties(self):
        left = constant_score_table("L", 25, seed=5)
        right = constant_score_table("R", 25, seed=6)
        rank_join = NRJN(
            IndexScan(left, left.get_index("L_idx")),
            TableScan(right),
            "L.key", "R.key", "L.score", "R.score", name="NR",
        )
        assert_top_k(Limit(rank_join, 5), tied_answers(left, right), 5,
                     "_score_NR", columns=("L.key", "R.key"))


class TestSingletons:
    def test_single_row_inputs(self):
        left = constant_score_table("L", 1, key_domain=1, seed=7)
        right = constant_score_table("R", 1, key_domain=1, seed=8)
        rank_join = HRJN(
            IndexScan(left, left.get_index("L_idx")),
            IndexScan(right, right.get_index("R_idx")),
            "L.key", "R.key", "L.score", "R.score", name="RJ",
        )
        rows = list(rank_join)
        assert len(rows) == 1
        assert rows[0]["_score_RJ"] == 1.0

    def test_single_table_single_row_query(self):
        db = Database()
        db.create_table("A", [("c1", "float")], rows=[[0.42]])
        db.analyze()
        report = db.execute(
            "SELECT A.c1 FROM A ORDER BY A.c1 DESC LIMIT 5",
        )
        assert len(report.rows) == 1


class TestExtremeScores:
    def test_zero_scores_everywhere(self):
        left = constant_score_table("L", 10, score=0.0, seed=9)
        right = constant_score_table("R", 10, score=0.0, seed=10)
        rank_join = HRJN(
            IndexScan(left, left.get_index("L_idx")),
            IndexScan(right, right.get_index("R_idx")),
            "L.key", "R.key", "L.score", "R.score", name="RJ",
        )
        rows = list(Limit(rank_join, 3))
        assert all(r["_score_RJ"] == 0.0 for r in rows)

    def test_negative_scores(self):
        """Scores may be negative; only descending order matters."""
        left = Table.from_columns("L", [("key", "int"), ("score", "float")])
        right = Table.from_columns("R", [("key", "int"), ("score", "float")])
        for i, score in enumerate((-0.1, -0.5, -0.9)):
            left.insert([i % 2, score])
            right.insert([i % 2, score])
        left.create_index(SortedIndex("L_idx", "L.score"))
        right.create_index(SortedIndex("R_idx", "R.score"))
        rank_join = HRJN(
            IndexScan(left, left.get_index("L_idx")),
            IndexScan(right, right.get_index("R_idx")),
            "L.key", "R.key", "L.score", "R.score", name="RJ",
        )
        scores = [r["_score_RJ"] for r in rank_join]
        assert scores == sorted(scores, reverse=True)
        assert scores[0] == pytest.approx(-0.2)

    def test_huge_k_on_tiny_join(self):
        db = Database()
        db.create_table("A", [("c1", "float"), ("c2", "int")],
                        rows=[[0.5, 1], [0.6, 2]])
        db.create_table("B", [("c1", "float"), ("c2", "int")],
                        rows=[[0.7, 1]])
        db.analyze()
        report = db.execute("""
            WITH R AS (
              SELECT A.c1 AS x, rank() OVER
                     (ORDER BY (A.c1 + B.c1)) AS rank
              FROM A, B WHERE A.c2 = B.c2)
            SELECT x, rank FROM R WHERE rank <= 99999""")
        assert len(report.rows) == 1


def table_with_score(name, scores, key=1):
    table = Table.from_columns(name, [("key", "int"), ("score", "float")])
    for score in scores:
        table.insert([key, score])
    table.create_index(SortedIndex("%s_idx" % name, "%s.score" % name))
    return table


class TestNonFiniteScores:
    """NaN/±inf scores are rejected with DataError at the boundary.

    NaN poisons every threshold comparison (all comparisons False) and
    ±inf pins the threshold, so both must fail the query at the
    offending row, not corrupt the top-k silently.
    """

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"),
                                     float("-inf")])
    def test_check_score_rejects_non_finite(self, bad):
        with pytest.raises(DataError):
            check_score(bad)

    @pytest.mark.parametrize("bad", [None, "0.5", [1.0]])
    def test_check_score_rejects_non_numbers(self, bad):
        with pytest.raises(DataError):
            check_score(bad)

    def test_check_score_passes_finite_values_through(self):
        assert check_score(0.25) == 0.25
        assert check_score(-3) == -3

    def test_checked_spec_wraps_accessor(self):
        spec = ScoreSpec("score", None).checked()
        assert spec({"score": 0.5}) == 0.5
        with pytest.raises(DataError) as excinfo:
            spec({"score": float("nan")})
        assert "score" in str(excinfo.value)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_hrjn_rejects_non_finite_left_score(self, bad):
        # SortedIndex orders by score, so a NaN row's position is
        # undefined -- but wherever it surfaces, the join must raise.
        left = table_with_score("L", [0.9, bad, 0.1])
        right = table_with_score("R", [0.8, 0.2])
        rank_join = HRJN(
            IndexScan(left, left.get_index("L_idx")),
            IndexScan(right, right.get_index("R_idx")),
            "L.key", "R.key", "L.score", "R.score", name="RJ",
        )
        with pytest.raises(DataError):
            list(rank_join)

    def test_nrjn_rejects_non_finite_inner_score(self):
        outer = table_with_score("L", [0.9, 0.1])
        inner = table_with_score("R", [0.8, float("-inf")])
        rank_join = NRJN(
            IndexScan(outer, outer.get_index("L_idx")),
            TableScan(inner),
            "L.key", "R.key", "L.score", "R.score", name="NR",
        )
        with pytest.raises(DataError):
            list(rank_join)

    def test_nan_detected_before_threshold_corruption(self):
        """The failure fires when the NaN row is observed, not after
        quietly mis-ranking rows -- no partial wrong output."""
        left = table_with_score("L", [math.nan, 0.9, 0.8])
        right = table_with_score("R", [0.7])
        rank_join = HRJN(
            IndexScan(left, left.get_index("L_idx")),
            IndexScan(right, right.get_index("R_idx")),
            "L.key", "R.key", "L.score", "R.score", name="RJ",
        )
        rank_join.open()
        try:
            with pytest.raises(DataError):
                while rank_join.next() is not None:
                    pass
        finally:
            rank_join.close()


def database_with_non_finite(column):
    """Tables A(c1, c2, c3) and B(c1, c2) where three rows of A's
    ``column`` hold NaN, +inf and -inf."""
    rng = make_rng(5)
    rows = [[float(rng.uniform(0, 1)), int(rng.integers(0, 5)),
             float(rng.uniform(0, 1))] for _ in range(200)]
    for i, bad in enumerate((math.nan, math.inf, -math.inf)):
        rows[10 * i + 3][column] = bad
    db = Database()
    db.create_table("A", [("c1", "float"), ("c2", "int"), ("c3", "float")],
                    rows=rows)
    db.create_table("B", [("c1", "int"), ("c2", "float")],
                    rows=[[int(rng.integers(0, 5)), float(rng.uniform(0, 1))]
                          for _ in range(200)])
    return db


RANKED_AB = """
WITH R AS (
  SELECT A.c1 AS x, B.c2 AS y,
         rank() OVER (ORDER BY (A.c1 + B.c2)) AS rank
  FROM A, B WHERE A.c2 = B.c1)
SELECT x, y, rank FROM R WHERE rank <= 5"""


class TestNonFiniteColumnsThroughDatabase:
    def test_analyze_survives_non_finite_values_in_unread_column(self):
        """ANALYZE keeps NaN/±inf out of the range and histogram, so a
        query that never reads the column answers."""
        db = database_with_non_finite(column=2)
        report = db.execute(RANKED_AB)
        assert len(report.rows) == 5
        stats = db.catalog.stats("A").column("A.c3")
        assert stats.count == 200
        assert math.isfinite(stats.minimum) and math.isfinite(stats.maximum)
        assert stats.histogram.total == 197

    def test_ranked_query_over_non_finite_score_raises_data_error(self):
        db = database_with_non_finite(column=0)
        with pytest.raises(DataError,
                           match=r"score must be finite \(rank-join input 0"
                                 r", A\.c1\)"):
            db.execute(RANKED_AB)


OVERFLOWING_AB = """
WITH R AS (
  SELECT A.c1 AS x, B.c1 AS y,
         rank() OVER (ORDER BY (A.c1 + B.c1)) AS rank
  FROM A, B WHERE A.c2 = B.c2)
SELECT x, y, rank FROM R WHERE rank <= 2"""
RANK_JOIN_INPUTS = r"rank-join input 0, A\.c1; rank-join input 1, B\.c1"


class TestOverflowingCombinedScore:
    """Finite scores whose sum overflows a float: every plan type
    raises DataError instead of a bare OverflowError or an inf row."""

    @pytest.mark.parametrize("config,plan,message", [
        ({"enable_nrjn": False}, "hrjn", RANK_JOIN_INPUTS),
        ({"enable_hrjn": False}, "nrjn", RANK_JOIN_INPUTS),
        ({"enable_hrjn": False, "enable_nrjn": False}, "SortPlan",
         r"Sort, A\.c1 \+ B\.c1"),
        ({"enable_anyk": True}, "AnyKPlan", r"any-k ANYK1"),
    ], ids=["hrjn", "nrjn", "sort", "anyk"])
    def test_raises_data_error_naming_the_input(self, config, plan,
                                                 message):
        db = Database(config=OptimizerConfig(**config))
        for name in ("A", "B"):
            db.create_table(name, [("c1", "float"), ("c2", "int")],
                            rows=[[1e308, 1], [1.0, 2]])
        db.analyze()
        best = db.explain(OVERFLOWING_AB).best_plan
        assert getattr(best, "operator", type(best).__name__) == plan
        with pytest.raises(DataError, match=message):
            db.execute(OVERFLOWING_AB)
