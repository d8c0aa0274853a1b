"""Property-based tests (hypothesis) on core invariants."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.scoring import WeightedSum
from repro.common.types import Row
from repro.estimation.depths import (
    any_k_depths_uniform,
    top_k_depths,
    top_k_depths_average,
    top_k_depths_streams,
)
from repro.operators.hrjn import HRJN
from repro.operators.nrjn import NRJN
from repro.operators.scan import IndexScan, TableScan
from repro.operators.sort import Sort
from repro.operators.topk import Limit
from repro.storage.index import SortedIndex
from repro.storage.table import Table

from tests.reference_answers import answers, assert_top_k

# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
scores = st.floats(min_value=0.0, max_value=1.0, allow_nan=False,
                   width=32)

ranked_rows = st.lists(
    st.tuples(st.integers(min_value=0, max_value=5), scores),
    min_size=0, max_size=40,
)


def make_ranked_table(name, rows):
    table = Table.from_columns(name, [("key", "int"), ("score", "float")])
    for key, score in rows:
        table.insert([key, float(score)])
    table.create_index(SortedIndex(
        "%s_idx" % name, "%s.score" % name,
    ))
    return table


def check_top_k(left_table, right_table, rows, k, score_column):
    """``rows`` are a top-``k`` of ``L JOIN R ON key`` by score sum."""
    want = answers([left_table, right_table], [("L.key", "R.key")],
                   {"L.score": 1.0, "R.score": 1.0})
    assert_top_k(rows, want, k, score_column,
                 columns=("L.key", "L.score", "R.key", "R.score"))


# ----------------------------------------------------------------------
# Rank-join == join-then-sort (the paper's core correctness claim)
# ----------------------------------------------------------------------
class TestRankJoinEquivalence:
    @given(left=ranked_rows, right=ranked_rows,
           k=st.integers(min_value=1, max_value=20))
    @settings(max_examples=60, deadline=None)
    def test_hrjn_matches_brute_force(self, left, right, k):
        left_table = make_ranked_table("L", left)
        right_table = make_ranked_table("R", right)
        rank_join = HRJN(
            IndexScan(left_table, left_table.get_index("L_idx")),
            IndexScan(right_table, right_table.get_index("R_idx")),
            "L.key", "R.key", "L.score", "R.score", name="RJ",
        )
        check_top_k(left_table, right_table, list(Limit(rank_join, k)), k,
                    "_score_RJ")

    @given(left=ranked_rows, right=ranked_rows,
           k=st.integers(min_value=1, max_value=20))
    @settings(max_examples=60, deadline=None)
    def test_nrjn_matches_brute_force(self, left, right, k):
        left_table = make_ranked_table("L", left)
        right_table = make_ranked_table("R", right)
        rank_join = NRJN(
            IndexScan(left_table, left_table.get_index("L_idx")),
            TableScan(right_table),
            "L.key", "R.key", "L.score", "R.score", name="NR",
        )
        check_top_k(left_table, right_table, list(Limit(rank_join, k)), k,
                    "_score_NR")

    @given(left=ranked_rows, right=ranked_rows)
    @settings(max_examples=40, deadline=None)
    def test_hrjn_output_sorted(self, left, right):
        left_table = make_ranked_table("L", left)
        right_table = make_ranked_table("R", right)
        rank_join = HRJN(
            IndexScan(left_table, left_table.get_index("L_idx")),
            IndexScan(right_table, right_table.get_index("R_idx")),
            "L.key", "R.key", "L.score", "R.score", name="RJ",
        )
        out = [r["_score_RJ"] for r in rank_join]
        assert all(a >= b - 1e-9 for a, b in zip(out, out[1:]))

    @given(left=ranked_rows, right=ranked_rows)
    @settings(max_examples=40, deadline=None)
    def test_hrjn_full_drain_count(self, left, right):
        left_table = make_ranked_table("L", left)
        right_table = make_ranked_table("R", right)
        rank_join = HRJN(
            IndexScan(left_table, left_table.get_index("L_idx")),
            IndexScan(right_table, right_table.get_index("R_idx")),
            "L.key", "R.key", "L.score", "R.score", name="RJ",
        )
        assert len(list(rank_join)) == len(answers(
            [left_table, right_table], [("L.key", "R.key")]))


# ----------------------------------------------------------------------
# Estimation model invariants
# ----------------------------------------------------------------------
est_k = st.integers(min_value=1, max_value=10 ** 6)
est_s = st.floats(min_value=1e-6, max_value=1.0, allow_nan=False)
est_lr = st.integers(min_value=1, max_value=4)


class TestEstimationInvariants:
    @given(k=est_k, s=est_s)
    @settings(max_examples=100)
    def test_any_k_satisfies_theorem_1(self, k, s):
        c_left, c_right = any_k_depths_uniform(k, s)
        assert s * c_left * c_right >= k * (1 - 1e-9)

    @given(k=est_k, s=est_s, l=est_lr, r=est_lr)
    @settings(max_examples=100)
    def test_worst_dominates_average(self, k, s, l, r):
        n = 10 ** 4
        worst = top_k_depths(k, s, n=n, l=l, r=r)
        average = top_k_depths_average(k, s, n=n, l=l, r=r)
        assert average.d_left <= worst.d_left * (1 + 1e-9)
        assert average.d_right <= worst.d_right * (1 + 1e-9)

    @given(k=st.integers(min_value=1, max_value=10 ** 5), s=est_s)
    @settings(max_examples=100)
    def test_depths_positive_and_finite(self, k, s):
        estimate = top_k_depths(k, s)
        assert 0 < estimate.d_left < float("inf")
        assert 0 < estimate.d_right < float("inf")

    @given(s=est_s, l=est_lr, r=est_lr,
           k1=st.integers(min_value=1, max_value=1000),
           k2=st.integers(min_value=1, max_value=1000))
    @settings(max_examples=100)
    def test_depth_monotone_in_k(self, s, l, r, k1, k2):
        n = 10 ** 4
        lo, hi = sorted((k1, k2))
        small = top_k_depths_streams(lo, s, n, l=l, r=r)
        large = top_k_depths_streams(hi, s, n, l=l, r=r)
        assert small.d_left <= large.d_left * (1 + 1e-9)

    @given(k=est_k, s=est_s)
    @settings(max_examples=50)
    def test_streams_reduce_to_paper(self, k, s):
        n = 5000
        paper = top_k_depths(k, s, n=n, l=2, r=2)
        streams = top_k_depths_streams(k, s, n, l=2, r=2)
        assert math.isclose(paper.d_left, streams.d_left, rel_tol=1e-6)


# ----------------------------------------------------------------------
# Sort plan and scoring invariants
# ----------------------------------------------------------------------
class TestAggregationInvariants:
    @given(values=st.lists(scores, min_size=0, max_size=60),
           k=st.integers(min_value=0, max_value=20))
    @settings(max_examples=50, deadline=None)
    def test_sort_limit_matches_sorted_prefix(self, values, k):
        table = Table.from_columns("T", [("score", "float")])
        for value in values:
            table.insert([float(value)])
        got = list(Limit(Sort(TableScan(table), "T.score"), k))
        assert_top_k(got, answers([table], score="T.score"), k, "T.score",
                     columns=("T.score",))

    @given(weights=st.lists(
        st.floats(min_value=0.01, max_value=5.0, allow_nan=False),
        min_size=1, max_size=4,
    ), base=st.lists(scores, min_size=4, max_size=4))
    @settings(max_examples=50)
    def test_weighted_sum_monotone(self, weights, base):
        f = WeightedSum(weights)
        inputs = base[:len(weights)]
        bumped = list(inputs)
        bumped[0] = min(1.0, bumped[0] + 0.1)
        assert f(bumped) >= f(inputs) - 1e-9

    @given(rows=ranked_rows)
    @settings(max_examples=30, deadline=None)
    def test_row_merge_is_commutative_on_disjoint(self, rows):
        left = Row({"L.x": 1})
        right = Row({"R.y": 2})
        assert left.merge(right) == right.merge(left)
