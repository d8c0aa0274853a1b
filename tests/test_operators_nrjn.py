"""Unit tests for NRJN -- the nested-loops rank-join operator."""

import pytest

from repro.common.errors import ExecutionError
from repro.common.rng import make_rng
from repro.data.generators import generate_ranked_table
from repro.cost.model import PAPER_2004, CostModel
from repro.executor.database import Database
from repro.operators.filters import Filter
from repro.operators.nrjn import NRJN
from repro.operators.scan import IndexScan, TableScan
from repro.operators.topk import Limit
from repro.storage.table import Table

from tests.test_operators_hrjn import check_top_k


def ranked_pair(n=200, selectivity=0.05, seed=0):
    left = generate_ranked_table("L", n, selectivity=selectivity, seed=seed)
    right = generate_ranked_table(
        "R", n, selectivity=selectivity, seed=seed + 1,
    )
    return left, right


def nrjn_over(left, right, **kwargs):
    return NRJN(
        IndexScan(left, left.get_index("L_score_idx")),
        TableScan(right),  # Inner needs no ranked access.
        "L.key", "R.key", "L.score", "R.score", name="NR", **kwargs,
    )


class TestCorrectness:
    def test_top_k_matches_baseline(self):
        left, right = ranked_pair()
        rows = list(Limit(nrjn_over(left, right), 10))
        check_top_k(left, right, rows, 10, "_score_NR")

    def test_scores_non_increasing(self):
        left, right = ranked_pair(seed=2)
        scores = [r["_score_NR"] for r in Limit(nrjn_over(left, right), 30)]
        assert all(a >= b - 1e-12 for a, b in zip(scores, scores[1:]))

    def test_inner_needs_no_sorted_access(self):
        """The inner is a plain heap scan -- the NRJN eligibility rule."""
        left, right = ranked_pair(seed=3)
        rows = list(Limit(nrjn_over(left, right), 5))
        assert len(rows) == 5

    def test_full_drain_matches_join_size(self):
        left, right = ranked_pair(n=60, selectivity=0.2, seed=4)
        check_top_k(left, right, list(nrjn_over(left, right)), None,
                    "_score_NR")

    def test_empty_outer(self):
        left = generate_ranked_table("L", 0, seed=1)
        right = generate_ranked_table("R", 10, seed=2)
        assert list(nrjn_over(left, right)) == []

    def test_empty_inner_reads_no_outer(self):
        left = generate_ranked_table("L", 500, seed=1)
        right = generate_ranked_table("R", 0, seed=2)
        rank_join = nrjn_over(left, right)
        assert list(rank_join) == []
        assert rank_join.depths == (0, 0)


class TestBehaviour:
    def test_inner_fully_materialised(self):
        left, right = ranked_pair(n=500, seed=5)
        rank_join = nrjn_over(left, right)
        list(Limit(rank_join, 5))
        d_outer, d_inner = rank_join.depths
        assert d_inner == 500  # Nested loops must exhaust the inner.
        assert d_outer < 500   # ... but the outer stops early.

    def test_outer_depth_monotone_in_k(self):
        left, right = ranked_pair(n=1000, selectivity=0.05, seed=6)
        depths = []
        for k in (5, 25, 100):
            rank_join = nrjn_over(left, right)
            list(Limit(rank_join, k))
            depths.append(rank_join.depths[0])
        assert depths == sorted(depths)

    def test_threshold_semantics(self):
        left, right = ranked_pair(seed=7)
        rank_join = nrjn_over(left, right)
        rank_join.open()
        assert rank_join.threshold() is None  # Nothing pulled yet.
        row = rank_join.next()
        if row is not None:
            assert row["_score_NR"] >= rank_join.threshold() - 1e-9
        rank_join.close()

    def test_unsorted_outer_detected(self):
        outer = Table.from_columns("L", [("key", "int"), ("score", "float")])
        for score in (0.2, 0.8):
            outer.insert([1, score])
        right = generate_ranked_table("R", 10, seed=8)
        rank_join = NRJN(
            TableScan(outer), TableScan(right),
            "L.key", "R.key", "L.score", "R.score",
        )
        with pytest.raises(ExecutionError, match="not sorted"):
            list(rank_join)

    def test_non_monotone_combiner_rejected(self):
        left, right = ranked_pair(seed=9)
        with pytest.raises(ExecutionError, match="MonotoneScore"):
            nrjn_over(left, right, combiner=max)

    def test_output_schema_contains_score_column(self):
        left, right = ranked_pair(seed=10)
        assert "_score_NR" in nrjn_over(left, right).schema

    def test_agrees_with_hrjn(self):
        from repro.operators.hrjn import HRJN

        left, right = ranked_pair(seed=11)
        nr_scores = [
            round(r["_score_NR"], 9)
            for r in Limit(nrjn_over(left, right), 15)
        ]
        hr = HRJN(
            IndexScan(left, left.get_index("L_score_idx")),
            IndexScan(right, right.get_index("R_score_idx")),
            "L.key", "R.key", "L.score", "R.score", name="H",
        )
        hr_scores = [round(r["_score_H"], 9) for r in Limit(hr, 15)]
        assert nr_scores == hr_scores


def naive_inner_table(rows):
    """``{key: [(score, row)]}`` of the inner stream, loop-built."""
    table = {}
    for row in rows:
        table.setdefault(row["R.key"], []).append((row["R.score"], row))
    return table


class TestCheckpointContents:
    """The inner's probe table checkpoints as the full hash table."""

    def inner_state(self, left, inner):
        rank_join = NRJN(
            IndexScan(left, left.get_index("L_score_idx")), inner,
            "L.key", "R.key", "L.score", "R.score", name="NR",
        )
        rank_join.open()
        try:
            return rank_join._kernel.state_dict()["hash"][1]
        finally:
            rank_join.close()

    def test_heap_scan_inner(self):
        left, right = ranked_pair(seed=12)
        state = self.inner_state(left, TableScan(right))
        naive = naive_inner_table(right.rows())
        assert state == naive and list(state) == list(naive)

    def test_heap_scan_inner_uses_the_cached_grouping(self):
        left, right = ranked_pair(seed=12)
        rank_join = nrjn_over(left, right)
        rank_join.open()
        try:
            probe = rank_join._kernel.tables[1]
            assert probe.groups is right.key_positions("R.key")
        finally:
            rank_join.close()

    def test_index_scan_inner(self):
        left, right = ranked_pair(seed=13)
        index = right.get_index("R_score_idx")
        state = self.inner_state(left, IndexScan(right, index))
        naive = naive_inner_table(row for _score, row in index.entries())
        assert state == naive and list(state) == list(naive)

    def test_row_input_inner(self):
        left, right = ranked_pair(seed=14)
        inner = Filter(TableScan(right), lambda row: row["R.score"] > 0.3)
        state = self.inner_state(left, inner)
        naive = naive_inner_table(
            row for row in right.rows() if row["R.score"] > 0.3)
        assert state == naive and list(state) == list(naive)


class TestInnerUpdates:
    def test_inner_grown_after_fusion_is_read_as_of_the_view(self):
        """An insert between fusing the inner and draining it: the
        table's grouping would name a position past the view."""
        left, right = ranked_pair(seed=15)
        rank_join = nrjn_over(left, right)
        make_kernel = rank_join._make_kernel

        def make_kernel_then_insert():
            kernel = make_kernel()
            top = left.get_index("L_score_idx").top()[1]
            right.insert({"R.id": -1, "R.key": top["L.key"],
                          "R.score": 5.0})
            return kernel

        rank_join._make_kernel = make_kernel_then_insert
        rank_join.open()
        try:
            probe = rank_join._kernel.tables[1]
            assert max(max(group) for group in probe.groups.values()) < 200
            rows = rank_join.next_batch(5)
            assert rank_join.depths[1] == 200
        finally:
            rank_join.close()
        assert all(row["R.id"] != -1 for row in rows)

    SQL = ("WITH Ranked AS (SELECT D.c1 AS s0, E.c1 AS s1, rank() OVER "
           "(ORDER BY (0.5*D.c1 + 0.5*E.c1)) AS rank FROM D, E "
           "WHERE D.c2 = E.c2) SELECT s0, s1, rank FROM Ranked "
           "WHERE rank <= 10")

    def make_db(self, extra=()):
        rng = make_rng(5)
        # The paper's cost profile plans NRJN here; IN_MEMORY plans HRJN.
        db = Database(cost_model=CostModel(PAPER_2004))
        for name in "DE":
            db.create_table(name, [("c1", "float"), ("c2", "int")], rows=[
                [float(rng.uniform(0, 1)), int(rng.integers(0, 700))]
                for _ in range(2000)])
        for row in extra:
            db.insert("E", row)
        db.analyze()
        return db

    def test_insert_into_the_inner_reaches_the_next_execution(self):
        db = self.make_db()
        prepared = db.prepare(self.SQL)
        before = prepared.execute()
        assert any(op.name.startswith("NRJN") for op in before.operators)
        top = max(db.catalog.table("D").rows(), key=lambda row: row["D.c1"])
        inserted = [2.0, top["D.c2"]]
        db.insert("E", inserted)
        after = [dict(row._values) for row in prepared.execute().rows]
        fresh = self.make_db(extra=[inserted]).execute(self.SQL)
        assert after == [dict(row._values) for row in fresh.rows]
        assert 2.0 in [row["E.c1"] for row in after]
