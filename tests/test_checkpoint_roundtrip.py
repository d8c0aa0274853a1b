"""Checkpoint round-trip contract for every stateful operator.

The contract under test: interrupt any operator tree after ``j`` output
rows, ``state_dict()`` it, load the snapshot into a freshly built
identical tree, and the remaining output is exactly what the
uninterrupted run would have produced -- for every ``j``.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import CheckpointError
from repro.common.rng import make_rng
from repro.operators.anyk import AnyK, AnyKNode
from repro.operators.hrjn import HRJN
from repro.operators.merge import ScoreMerge
from repro.operators.joins import (
    HashJoin,
    IndexNestedLoopsJoin,
    NestedLoopsJoin,
)
from repro.operators.nrjn import NRJN
from repro.operators.scan import IndexScan, TableScan
from repro.operators.sort import Sort
from repro.operators.topk import Limit
from repro.storage.index import SortedIndex
from repro.storage.table import Table


def ranked_table(name, n, key_domain=4, seed=0):
    rng = make_rng(seed)
    table = Table.from_columns(
        name, [("id", "int"), ("key", "int"), ("score", "float")]
    )
    for i in range(n):
        table.insert([i, int(rng.integers(0, key_domain)),
                      float(rng.uniform(0, 1))])
    table.create_index(SortedIndex("%s_idx" % name, "%s.score" % name))
    return table


L = ranked_table("L", 18, seed=11)
R = ranked_table("R", 15, seed=22)
M = ranked_table("M", 12, seed=33)


def shard_tables(base, count, seed):
    """Manual row-wise shards of ``ranked_table(base, ...)`` -- same
    name/schema/index so shard scans emit merge-compatible rows."""
    rng = make_rng(seed)
    shards = [
        Table.from_columns(
            base, [("id", "int"), ("key", "int"), ("score", "float")]
        )
        for _ in range(count)
    ]
    for i in range(18):
        row = [i, int(rng.integers(0, 4)), float(rng.uniform(0, 1))]
        shards[i % count].insert(row)
    for table in shards:
        table.create_index(
            SortedIndex("%s_idx" % base, "%s.score" % base)
        )
    return shards


L_SHARDS = shard_tables("L", 3, seed=11)


def index_scan(table):
    return IndexScan(table, table.get_index("%s_idx" % table.name))


# One factory per stateful operator; each call builds a fresh,
# identically configured tree (a checkpoint must restore into it).
FACTORIES = {
    "table_scan": lambda: TableScan(L),
    "index_scan": lambda: index_scan(L),
    "sort": lambda: Sort(TableScan(L), "L.score", descending=True),
    "limit": lambda: Limit(TableScan(L), 7),
    "sort_limit": lambda: Limit(Sort(TableScan(L), "L.score"), 6),
    "nl_join": lambda: NestedLoopsJoin(
        TableScan(L), TableScan(R), "L.key", "R.key"),
    "inl_join": lambda: IndexNestedLoopsJoin(
        TableScan(L), TableScan(R), "L.key", "R.key"),
    "hash_join": lambda: HashJoin(
        TableScan(L), TableScan(R), "L.key", "R.key"),
    "hrjn": lambda: HRJN(
        index_scan(L), index_scan(R), "L.key", "R.key",
        "L.score", "R.score", name="RJ"),
    "nrjn": lambda: NRJN(
        index_scan(L), TableScan(R), "L.key", "R.key",
        "L.score", "R.score", name="NR"),
    "anyk": lambda: AnyK(
        (TableScan(L), TableScan(R), TableScan(M)),
        (AnyKNode(0, None, score_weights=[("L.score", 1.0)]),
         AnyKNode(1, 0, key="R.key", parent_key="L.key",
                  score_weights=[("R.score", 1.0)]),
         AnyKNode(2, 1, key="M.key", parent_key="R.key",
                  score_weights=[("M.score", 1.0)])),
        name="AK"),
    "limit_over_hrjn": lambda: Limit(HRJN(
        index_scan(L), index_scan(R), "L.key", "R.key",
        "L.score", "R.score", name="RJ"), 9),
    "score_merge": lambda: ScoreMerge(
        [index_scan(table) for table in L_SHARDS],
        score_spec="L.score"),
}


def drain(operator, count=None):
    """Pull up to ``count`` rows (all when None); operator stays open."""
    rows = []
    while count is None or len(rows) < count:
        row = operator.next()
        if row is None:
            break
        rows.append(row)
    return rows


def full_run(factory):
    operator = factory()
    operator.open()
    try:
        return drain(operator)
    finally:
        operator.close()


@pytest.mark.parametrize("kind", sorted(FACTORIES))
def test_roundtrip_at_every_interrupt_point(kind):
    factory = FACTORIES[kind]
    expected = full_run(factory)
    assert expected, "factory %s produced no rows" % (kind,)
    for j in range(len(expected) + 1):
        original = factory()
        original.open()
        try:
            prefix = drain(original, j)
            assert prefix == expected[:j]
            state = original.state_dict()
        finally:
            original.close()
        restored = factory()
        restored.load_state_dict(state)
        try:
            assert drain(restored) == expected[j:], (
                "restored %s diverged after %d rows" % (kind, j)
            )
        finally:
            restored.close()


@pytest.mark.parametrize("kind", sorted(FACTORIES))
def test_snapshot_is_reusable(kind):
    """One snapshot restores correctly more than once (no aliasing)."""
    factory = FACTORIES[kind]
    expected = full_run(factory)
    j = len(expected) // 2
    original = factory()
    original.open()
    try:
        drain(original, j)
        state = original.state_dict()
    finally:
        original.close()
    for _ in range(2):
        restored = factory()
        restored.load_state_dict(state)
        try:
            assert drain(restored) == expected[j:]
        finally:
            restored.close()


def test_stats_travel_with_the_snapshot():
    operator = FACTORIES["hrjn"]()
    operator.open()
    drain(operator, 5)
    state = operator.state_dict()
    pulled = list(operator.stats.pulled)
    operator.close()
    restored = FACTORIES["hrjn"]()
    restored.load_state_dict(state)
    assert restored.stats.rows_out == 5
    assert list(restored.stats.pulled) == pulled
    restored.close()


def test_unopened_tree_roundtrip():
    operator = FACTORIES["hrjn"]()
    state = operator.state_dict()
    assert state["opened"] is False
    restored = FACTORIES["hrjn"]()
    restored.load_state_dict(state)
    restored.open()
    try:
        assert drain(restored) == full_run(FACTORIES["hrjn"])
    finally:
        restored.close()


class TestSnapshotValidation:
    def _snapshot(self, kind="hrjn"):
        operator = FACTORIES[kind]()
        operator.open()
        try:
            drain(operator, 3)
            return operator.state_dict()
        finally:
            operator.close()

    def test_wrong_operator_class_rejected(self):
        state = self._snapshot("hrjn")
        with pytest.raises(CheckpointError):
            FACTORIES["nrjn"]().load_state_dict(state)

    def test_wrong_name_rejected(self):
        state = self._snapshot("hrjn")
        other = HRJN(index_scan(L), index_scan(R), "L.key", "R.key",
                     "L.score", "R.score", name="OTHER")
        with pytest.raises(CheckpointError):
            other.load_state_dict(state)

    def test_wrong_child_count_rejected(self):
        state = self._snapshot("hrjn")
        state["children"] = state["children"][:1]
        with pytest.raises(CheckpointError):
            FACTORIES["hrjn"]().load_state_dict(state)


@settings(max_examples=25, deadline=None)
@given(
    left_rows=st.lists(
        st.tuples(st.integers(0, 3), st.floats(0, 1, width=16)),
        min_size=1, max_size=20),
    right_rows=st.lists(
        st.tuples(st.integers(0, 3), st.floats(0, 1, width=16)),
        min_size=1, max_size=20),
    data=st.data(),
)
def test_hrjn_roundtrip_property(left_rows, right_rows, data):
    """Round-trip holds for arbitrary inputs and interrupt points."""
    def build():
        left = Table.from_columns(
            "PL", [("key", "int"), ("score", "float")])
        right = Table.from_columns(
            "PR", [("key", "int"), ("score", "float")])
        for key, score in left_rows:
            left.insert([key, score])
        for key, score in right_rows:
            right.insert([key, score])
        left.create_index(SortedIndex("PL_idx", "PL.score"))
        right.create_index(SortedIndex("PR_idx", "PR.score"))
        return HRJN(
            IndexScan(left, left.get_index("PL_idx")),
            IndexScan(right, right.get_index("PR_idx")),
            "PL.key", "PR.key", "PL.score", "PR.score", name="PRJ",
        )

    expected = full_run(build)
    j = data.draw(st.integers(0, len(expected)), label="interrupt_after")
    original = build()
    original.open()
    try:
        drain(original, j)
        state = original.state_dict()
    finally:
        original.close()
    restored = build()
    restored.load_state_dict(state)
    try:
        assert drain(restored) == expected[j:]
    finally:
        restored.close()
