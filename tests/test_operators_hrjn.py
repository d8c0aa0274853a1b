"""Unit tests for HRJN -- the hash rank-join operator."""

import pytest

from repro.common.errors import ExecutionError
from repro.common.rng import make_rng
from repro.common.scoring import WeightedSum
from repro.data.generators import generate_ranked_table
from repro.operators.hrjn import HRJN
from repro.operators.scan import IndexScan, TableScan
from repro.operators.topk import Limit
from repro.storage.index import SortedIndex
from repro.storage.table import Table

from tests.reference_answers import answers, assert_top_k


def ranked_pair(n=200, selectivity=0.05, seed=0):
    left = generate_ranked_table("L", n, selectivity=selectivity, seed=seed)
    right = generate_ranked_table(
        "R", n, selectivity=selectivity, seed=seed + 1,
    )
    return left, right


def hrjn_over(left, right, **kwargs):
    return HRJN(
        IndexScan(left, left.get_index("L_score_idx")),
        IndexScan(right, right.get_index("R_score_idx")),
        "L.key", "R.key", "L.score", "R.score", name="RJ", **kwargs,
    )


def check_top_k(left, right, rows, k, score_column, combiner=None):
    """``rows`` are a top-``k`` of ``L JOIN R ON key`` (all: ``k=None``)
    by the summed -- or ``combiner``-combined -- scores."""
    if combiner is None:
        score = {"L.score": 1.0, "R.score": 1.0}
    else:
        score = lambda r: combiner((r["L.score"], r["R.score"]))
    want = answers([left, right], [("L.key", "R.key")], score)
    assert_top_k(rows, want, len(want) if k is None else k, score_column,
                 columns=("L.id", "R.id"))


class TestCorrectness:
    def test_top_k_matches_join_then_sort(self):
        left, right = ranked_pair()
        rows = list(Limit(hrjn_over(left, right), 10))
        check_top_k(left, right, rows, 10, "_score_RJ")

    def test_scores_non_increasing(self):
        left, right = ranked_pair(seed=3)
        scores = [r["_score_RJ"] for r in Limit(hrjn_over(left, right), 25)]
        assert all(a >= b - 1e-12 for a, b in zip(scores, scores[1:]))

    def test_full_drain_equals_full_join(self):
        left, right = ranked_pair(n=60, selectivity=0.2, seed=4)
        check_top_k(left, right, list(hrjn_over(left, right)), None,
                    "_score_RJ")

    def test_weighted_combiner(self):
        left, right = ranked_pair(seed=5)
        combiner = WeightedSum([0.3, 0.7])
        rows = list(Limit(hrjn_over(left, right, combiner=combiner), 8))
        check_top_k(left, right, rows, 8, "_score_RJ", combiner=combiner)

    def test_empty_inputs(self):
        left = generate_ranked_table("L", 0, seed=1)
        right = generate_ranked_table("R", 0, seed=2)
        assert list(hrjn_over(left, right)) == []

    def test_one_empty_input(self):
        """An input that ends empty joins nothing: the other stops."""
        full_left = generate_ranked_table("L", 500, seed=1)
        empty_right = generate_ranked_table("R", 0, seed=2)
        full_right = generate_ranked_table("R", 500, seed=1)
        empty_left = generate_ranked_table("L", 0, seed=2)
        for strategy in ("alternate", "threshold", "left", "right"):
            rank_join = hrjn_over(full_left, empty_right, strategy=strategy)
            assert list(rank_join) == []
            assert rank_join.depths == (1, 0)
            rank_join = hrjn_over(empty_left, full_right, strategy=strategy)
            assert list(rank_join) == []
            assert rank_join.depths == (0, 0)

    @pytest.mark.parametrize("strategy", ["alternate", "threshold",
                                          "left", "right"])
    def test_all_strategies_agree(self, strategy):
        left, right = ranked_pair(seed=6)
        rows = list(Limit(hrjn_over(left, right, strategy=strategy), 10))
        check_top_k(left, right, rows, 10, "_score_RJ")


class TestEarlyOut:
    def test_depth_well_below_input_size(self):
        left, right = ranked_pair(n=2000, selectivity=0.05, seed=7)
        rank_join = hrjn_over(left, right)
        list(Limit(rank_join, 5))
        d_left, d_right = rank_join.depths
        assert d_left < 300 and d_right < 300

    def test_depth_monotone_in_k(self):
        left, right = ranked_pair(n=2000, selectivity=0.05, seed=8)
        depths = []
        for k in (5, 20, 80):
            rank_join = hrjn_over(left, right)
            list(Limit(rank_join, k))
            depths.append(sum(rank_join.depths))
        assert depths == sorted(depths)

    def test_threshold_strategy_not_worse_total(self):
        left, right = ranked_pair(n=2000, selectivity=0.05, seed=9)
        rj_alt = hrjn_over(left, right, strategy="alternate")
        list(Limit(rj_alt, 20))
        rj_thr = hrjn_over(left, right, strategy="threshold")
        list(Limit(rj_thr, 20))
        assert sum(rj_thr.depths) <= sum(rj_alt.depths) + 10


class TestThreshold:
    def test_threshold_unbounded_before_first_pull(self):
        left, right = ranked_pair(seed=10)
        rank_join = hrjn_over(left, right)
        rank_join.open()
        assert rank_join.threshold() is None
        rank_join.close()

    def test_threshold_decreases(self):
        left, right = ranked_pair(seed=11)
        rank_join = hrjn_over(left, right)
        thresholds = []
        rank_join.open()
        for _ in range(15):
            if rank_join.next() is None:
                break
            t = rank_join.threshold()
            if t is not None:
                thresholds.append(t)
        rank_join.close()
        assert all(a >= b - 1e-9 for a, b in zip(thresholds, thresholds[1:]))

    def test_emitted_scores_at_least_threshold_at_emit(self):
        left, right = ranked_pair(seed=12)
        rank_join = hrjn_over(left, right)
        rank_join.open()
        for _ in range(10):
            row = rank_join.next()
            if row is None:
                break
            threshold = rank_join.threshold()
            assert row["_score_RJ"] >= threshold - 1e-9
        rank_join.close()


class TestValidation:
    def test_unsorted_input_detected(self):
        left = Table.from_columns("L", [("key", "int"), ("score", "float")])
        for score in (0.1, 0.9):  # Ascending heap order.
            left.insert([1, score])
        right = generate_ranked_table("R", 10, seed=1)
        rank_join = HRJN(
            TableScan(left),
            IndexScan(right, right.get_index("R_score_idx")),
            "L.key", "R.key", "L.score", "R.score", strategy="left",
        )
        with pytest.raises(ExecutionError, match="not sorted"):
            list(rank_join)

    def test_unknown_strategy_rejected(self):
        left, right = ranked_pair(seed=13)
        with pytest.raises(ExecutionError, match="strategy"):
            hrjn_over(left, right, strategy="bogus")

    def test_non_monotone_combiner_rejected(self):
        left, right = ranked_pair(seed=14)
        with pytest.raises(ExecutionError, match="MonotoneScore"):
            hrjn_over(left, right, combiner=sum)

    def test_output_schema_contains_score_column(self):
        left, right = ranked_pair(seed=15)
        rank_join = hrjn_over(left, right)
        assert "_score_RJ" in rank_join.schema


class TestChaining:
    def test_hrjn_feeding_hrjn(self):
        """A pipeline of two HRJNs produces the correct 3-way top-k."""
        rng = make_rng(16)
        tables = []
        for name in ("X", "Y", "Z"):
            table = Table.from_columns(
                name, [("key", "int"), ("score", "float")],
            )
            for _ in range(80):
                table.insert([
                    int(rng.integers(0, 6)), float(rng.uniform(0, 1)),
                ])
            table.create_index(
                SortedIndex("%s_idx" % name, "%s.score" % name),
            )
            tables.append(table)
        x, y, z = tables
        inner = HRJN(
            IndexScan(x, x.get_index("X_idx")),
            IndexScan(y, y.get_index("Y_idx")),
            "X.key", "Y.key", "X.score", "Y.score", name="RJ1",
            output_score_column="_s1",
        )
        outer = HRJN(
            inner, IndexScan(z, z.get_index("Z_idx")),
            "Y.key", "Z.key", "_s1", "Z.score", name="RJ2",
            output_score_column="_s2",
        )
        want = answers(tables, [("X.key", "Y.key"), ("Y.key", "Z.key")],
                       {"X.score": 1.0, "Y.score": 1.0, "Z.score": 1.0})
        assert_top_k(Limit(outer, 10), want, 10, "_s2",
                     columns=("X.score", "Y.score", "Z.score"))
