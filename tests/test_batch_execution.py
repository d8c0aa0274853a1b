"""Batch-at-a-time drain: exact equivalence with row-at-a-time.

``next_batch(n)`` must produce, over any sequence of calls, the exact
row sequence ``next()`` would -- for every operator, at every batch
size, even when calls are interleaved or a checkpoint lands mid-batch.
The plan shapes come from the checkpoint suite so every stateful
operator (scans, sort, limit, top-k, the four classic joins, and the
five rank-join variants) is covered.
"""

import pytest

from repro.common.errors import BudgetExceededError, ExecutionError
from repro.common.rng import make_rng
from repro.executor.database import Database
from repro.robustness.budget import ExecutionGuard, ResourceBudget

from tests.test_checkpoint_roundtrip import FACTORIES, drain, full_run
from tests.test_parallel_equivalence import SHAPES, make_db

BATCH_SIZES = (1, 2, 3, 7, 64)


def drain_batched(operator, batch_size):
    """Drain via ``next_batch`` only; operator stays open."""
    rows = []
    while True:
        batch = operator.next_batch(batch_size)
        rows.extend(batch)
        if len(batch) < batch_size:
            return rows


@pytest.mark.parametrize("kind", sorted(FACTORIES))
@pytest.mark.parametrize("batch_size", BATCH_SIZES)
def test_batched_drain_matches_row_at_a_time(kind, batch_size):
    factory = FACTORIES[kind]
    expected = full_run(factory)
    operator = factory()
    operator.open()
    try:
        assert drain_batched(operator, batch_size) == expected
        assert operator.next_batch(batch_size) == []
        assert operator.stats.rows_out == len(expected)
    finally:
        operator.close()


@pytest.mark.parametrize("kind", sorted(FACTORIES))
def test_interleaved_next_and_next_batch(kind):
    factory = FACTORIES[kind]
    expected = full_run(factory)
    operator = factory()
    operator.open()
    try:
        rows = drain(operator, 2)
        rows.extend(operator.next_batch(3))
        rows.extend(drain(operator, 1))
        while True:
            batch = operator.next_batch(4)
            rows.extend(batch)
            if len(batch) < 4:
                break
        assert rows == expected
    finally:
        operator.close()


@pytest.mark.parametrize("kind", sorted(FACTORIES))
def test_checkpoint_mid_batch_roundtrip(kind):
    """A snapshot taken between batches restores exactly."""
    factory = FACTORIES[kind]
    expected = full_run(factory)
    batch_size = 3
    for consumed in range(0, len(expected) + 1, batch_size):
        original = factory()
        original.open()
        try:
            prefix = []
            while len(prefix) < consumed:
                prefix.extend(original.next_batch(batch_size))
            assert prefix == expected[:consumed]
            state = original.state_dict()
        finally:
            original.close()
        restored = factory()
        restored.load_state_dict(state)
        try:
            assert drain_batched(restored, batch_size) == expected[consumed:]
        finally:
            restored.close()


def test_batch_after_row_checkpoint_restores_to_batches():
    """Row-wise snapshot, batch-wise resume (and vice versa)."""
    factory = FACTORIES["hrjn"]
    expected = full_run(factory)
    original = factory()
    original.open()
    try:
        drain(original, 4)
        state = original.state_dict()
    finally:
        original.close()
    restored = factory()
    restored.load_state_dict(state)
    try:
        assert drain_batched(restored, 5) == expected[4:]
    finally:
        restored.close()


def test_next_batch_requires_open():
    operator = FACTORIES["table_scan"]()
    with pytest.raises(ExecutionError):
        operator.next_batch(4)


def test_next_batch_nonpositive_is_empty():
    operator = FACTORIES["table_scan"]()
    operator.open()
    try:
        assert operator.next_batch(0) == []
        assert operator.next_batch(-3) == []
        assert operator.next_batch(4) != []
    finally:
        operator.close()


def build_db(rows=120, seed=11):
    rng = make_rng(seed)
    db = Database()
    for name in ("A", "B", "C"):
        db.create_table(name, [("c1", "float"), ("c2", "int")], rows=[
            [float(rng.uniform(0, 1)), int(rng.integers(0, 8))]
            for _ in range(rows)
        ])
    db.analyze()
    return db


END_TO_END_SQL = """
WITH Ranked AS (
  SELECT A.c1 AS x, B.c1 AS y, C.c1 AS z,
         rank() OVER (ORDER BY (0.3*A.c1 + 0.3*B.c1 + 0.3*C.c1)) AS rank
  FROM A, B, C
  WHERE A.c2 = B.c2 AND B.c2 = C.c2)
SELECT x, y, z, rank FROM Ranked WHERE rank <= 10
"""

SORT_SQL = "SELECT A.c1 FROM A ORDER BY A.c1 DESC LIMIT 100"


def hand_drain(root, batch_size=None):
    """Open, drain and close a built tree: ``next()`` by default."""
    root.open()
    try:
        if batch_size is None:
            return list(iter(root.next, None))
        return drain_batched(root, batch_size)
    finally:
        root.close()


def tree_counters(root):
    return [(op.name, tuple(op.stats.pulled), op.stats.rows_out,
             op.stats.max_buffer) for op in root.walk()]


def report_counters(report):
    return [(snap.name, snap.pulled, snap.rows_out, snap.max_buffer)
            for snap in report.operators]


class TestEndToEndBatching:
    @pytest.mark.parametrize("sql", [END_TO_END_SQL, SORT_SQL])
    @pytest.mark.parametrize("batch_size", [1, 64, 512])
    def test_execute_batched_matches_row_at_a_time(self, sql, batch_size):
        db = build_db()
        report = db.execute(sql)
        build = db.executor().builder.build_query
        expected = hand_drain(build(report.optimization))
        batched = hand_drain(build(report.optimization), batch_size)
        assert report.rows == expected == batched

    def test_untraced_next_span_has_no_batch_attribute(self):
        db = build_db()
        report = db.execute(END_TO_END_SQL, trace=True)
        assert report.telemetry.tracer.find("next").attributes == {}


class TestExecuteDrainIsTheRowDrain:
    """``execute``'s batch drain leaves exactly a ``next()`` drain's
    rows and per-operator counters on the same built plan."""

    def check(self, report, executor):
        root = executor.builder.build_query(report.optimization)
        assert hand_drain(root) == report.rows
        assert tree_counters(root) == report_counters(report)

    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_shape(self, shape):
        db = make_db()
        self.check(db.execute(SHAPES[shape]), db.executor())

    @pytest.mark.parametrize("shape", ["base_k5", "three_way"])
    def test_sharded_shape(self, shape):
        db = make_db()
        report = db.execute(SHAPES[shape], parallel="inline", shards=2)
        assert any(snap.name.startswith("ScoreMerge")
                   for snap in report.operators)
        self.check(report, db.executor())

    @pytest.mark.parametrize("shape", ["base_k5", "selection_left",
                                       "three_way"])
    def test_budget_breach_snapshot(self, shape):
        """A guarded drain delivers one row per call, so a breach
        snapshot holds the root's ``rows_out`` of a row drain."""
        db = make_db()
        budget = ResourceBudget(max_pulls=40)
        with pytest.raises(BudgetExceededError) as executed:
            db.execute(SHAPES[shape], budget=budget)
        root = db.executor().builder.build_query(db.explain(SHAPES[shape]))
        ExecutionGuard(budget).attach(root)
        with pytest.raises(BudgetExceededError) as by_hand:
            hand_drain(root)
        assert ([(s.name, s.pulled, s.rows_out)
                 for s in executed.value.snapshots]
                == [(s.name, s.pulled, s.rows_out)
                    for s in by_hand.value.snapshots])
