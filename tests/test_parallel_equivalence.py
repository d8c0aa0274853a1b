"""Byte-identical equivalence of sharded parallel rank-join execution.

Sharded execution (hash-partitioned inputs, per-shard HRJN pipelines,
rank-aware ScoreMerge gather) must return *exactly* the serial plan's
rows -- same values, same order -- in both inline and process-pool
modes, across a matrix of plan shapes mirroring the breadth of the
checkpoint suite, and even while per-shard transient faults are being
retried.
"""

import pytest

from repro.common.errors import TransientFaultError
from repro.common.rng import make_rng
from repro.executor.database import Database
from repro.executor.shard_pool import ShardPool, ShardStream
from repro.optimizer.enumerator import OptimizerConfig

ROWS = 240
SHARD_COUNTS = (2, 4)


def make_db(seed=5, rows=ROWS, key_domain=30, cost_model=None):
    """A/C rank float ``c1`` and join on int ``c2``; B is mirrored
    (int ``c1``, float ``c2``) so every score column has a descending
    index and every A-B / B-C predicate joins int columns."""
    rng = make_rng(seed)
    db = Database(cost_model=cost_model,
                  config=OptimizerConfig(enable_nrjn=False))
    for name in ("A", "C"):
        db.create_table(
            name, [("c1", "float"), ("c2", "int")], rows=[
                [float(rng.uniform(0, 1)),
                 int(rng.integers(0, key_domain))]
                for _ in range(rows)
            ],
        )
    db.create_table(
        "B", [("c1", "int"), ("c2", "float")], rows=[
            [int(rng.integers(0, key_domain)),
             float(rng.uniform(0, 1))]
            for _ in range(rows)
        ],
    )
    db.analyze()
    return db


def topk_sql(k=5, weights=(0.3, 0.7), where="A.c2 = B.c1",
             tables="A, B", select="x, y, rank",
             left="A.c1", right="B.c2"):
    return """
WITH Ranked AS (
  SELECT %s AS x, %s AS y,
         rank() OVER (ORDER BY (%g*%s + %g*%s)) AS rank
  FROM %s WHERE %s)
SELECT %s FROM Ranked WHERE rank <= %d
""" % (left, right, weights[0], left, weights[1], right,
       tables, where, select, k)


# Sixteen plan shapes: one per checkpoint-suite operator family --
# varying k, score weights, join direction, selections, projections,
# a three-way join and a joinless ranking (the latter two exercise the
# serial-fallback path of the forced parallel modes).
SHAPES = {
    "base_k5": topk_sql(),
    "k1": topk_sql(k=1),
    "k20": topk_sql(k=20),
    "k_large": topk_sql(k=400),
    "even_weights": topk_sql(weights=(0.5, 0.5)),
    "skewed_weights": topk_sql(weights=(0.9, 0.1)),
    "more_skew": topk_sql(weights=(0.25, 0.75), k=7),
    "selection_left": topk_sql(
        where="A.c2 = B.c1 AND A.c1 > 0.2", k=10),
    "selection_right": topk_sql(
        where="A.c2 = B.c1 AND B.c2 > 0.1", k=10),
    "swapped_tables": topk_sql(
        tables="B, A", where="B.c1 = A.c2"),
    "swapped_predicate": topk_sql(where="B.c1 = A.c2"),
    "bc_join": topk_sql(
        tables="B, C", where="B.c1 = C.c2",
        left="B.c2", right="C.c1"),
    "no_rank_in_select": topk_sql(select="x, y"),
    "reordered_select": topk_sql(select="y, rank, x"),
    "three_way": """
WITH Ranked AS (
  SELECT A.c1 AS x, B.c2 AS y, C.c1 AS z,
         rank() OVER (ORDER BY (0.2*A.c1 + 0.5*B.c2 + 0.3*C.c1))
           AS rank
  FROM A, B, C WHERE A.c2 = B.c1 AND B.c1 = C.c2)
SELECT x, y, z FROM Ranked WHERE rank <= 5
""",
    "single_table": """
WITH Ranked AS (
  SELECT A.c1 AS x,
         rank() OVER (ORDER BY (1.0*A.c1)) AS rank
  FROM A)
SELECT x FROM Ranked WHERE rank <= 10
""",
}


@pytest.fixture(scope="module")
def serial_rows():
    db = make_db()
    return {name: db.execute(sql, parallel="off").rows
            for name, sql in SHAPES.items()}


class TestShapeEquivalence:
    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_inline_matches_serial(self, shape, serial_rows):
        db = make_db()
        for shards in SHARD_COUNTS:
            report = db.execute(SHAPES[shape], parallel="inline",
                                shards=shards)
            assert report.rows == serial_rows[shape], (
                "inline shards=%d diverged on %s" % (shards, shape)
            )

    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_pool_matches_serial(self, shape, serial_rows):
        db = make_db()
        try:
            for shards in SHARD_COUNTS:
                report = db.execute(SHAPES[shape], parallel="pool",
                                    shards=shards)
                assert report.rows == serial_rows[shape], (
                    "pool shards=%d diverged on %s" % (shards, shape)
                )
        finally:
            db.shard_pool.shutdown()

    def test_auto_mode_matches_serial(self, serial_rows):
        db = make_db()
        try:
            for shards in SHARD_COUNTS:
                report = db.execute(SHAPES["base_k5"], parallel="auto",
                                    shards=shards)
                assert report.rows == serial_rows["base_k5"]
        finally:
            db.shard_pool.shutdown()


def _faulting_pool(pool, times=1):
    """Wrap ``pool.submit`` so every shard-0 window faults ``times``
    times before succeeding (exercising the retry path end to end)."""
    original = pool.submit
    injected = []

    def submit(spec, skip, budget, attempt=1):
        spec = dict(spec, fault={"times": times})
        injected.append(attempt)
        return original(spec, skip, budget, attempt)

    pool.submit = submit
    return injected


class TestShardFaults:
    def test_stream_retries_transient_faults(self, serial_rows):
        db = make_db()
        try:
            db.execute(SHAPES["base_k5"], parallel="pool", shards=2)
            injected = _faulting_pool(db.shard_pool, times=1)
            report = db.execute(SHAPES["base_k5"], parallel="pool",
                                shards=2)
            assert report.rows == serial_rows["base_k5"]
            assert injected, "fault injection never engaged"
            streams = [snap for snap in report.operators
                       if "ShardStream" in snap.description]
            assert streams, "pool plan did not run ShardStreams"
        finally:
            db.shard_pool.shutdown()

    def test_persistent_fault_raises(self):
        db = make_db()
        try:
            db.execute(SHAPES["base_k5"], parallel="pool", shards=2)
            _faulting_pool(db.shard_pool,
                           times=ShardStream.MAX_RETRIES + 5)
            with pytest.raises(TransientFaultError):
                db.execute(SHAPES["base_k5"], parallel="pool",
                           shards=2)
        finally:
            db.shard_pool.shutdown()

    def test_guarded_run_records_shard_retries(self, serial_rows):
        db = make_db()
        try:
            db.execute(SHAPES["base_k5"], parallel="pool", shards=2)
            _faulting_pool(db.shard_pool, times=1)
            report = db.execute_guarded(SHAPES["base_k5"],
                                        parallel="pool", shards=2)
            assert report.rows == serial_rows["base_k5"]
            kinds = [event.kind for event in report.recovery.events]
            assert "shard_retry" in kinds
            assert report.recovery.path == "direct"
        finally:
            db.shard_pool.shutdown()


class TestKernelWindows:
    """The worker kernel is a pure function of (spec, window)."""

    def _spec(self, db):
        captured = {}
        original = ShardPool.submit

        def spy(pool, spec, skip, budget, attempt=1):
            captured.setdefault("spec", dict(spec))
            return original(pool, spec, skip, budget, attempt)

        ShardPool.submit = spy
        try:
            db.execute(SHAPES["base_k5"], parallel="pool", shards=2)
        finally:
            ShardPool.submit = original
        return captured["spec"]

    def test_windows_tile_the_stream(self):
        db = make_db()
        try:
            spec = self._spec(db)
            pool = db.shard_pool
            whole = pool.run_inline(spec, 0, 30)["rows"]
            tiled = (pool.run_inline(spec, 0, 10)["rows"]
                     + pool.run_inline(spec, 10, 10)["rows"]
                     + pool.run_inline(spec, 20, 10)["rows"])
            assert tiled == whole
        finally:
            db.shard_pool.shutdown()

    def test_inline_fault_respects_attempts(self):
        db = make_db()
        try:
            spec = dict(self._spec(db), fault={"times": 2})
            pool = db.shard_pool
            with pytest.raises(TransientFaultError):
                pool.run_inline(spec, 0, 5, attempt=1)
            with pytest.raises(TransientFaultError):
                pool.run_inline(spec, 0, 5, attempt=2)
            result = pool.run_inline(spec, 0, 5, attempt=3)
            clean = pool.run_inline(
                dict(spec, fault=None), 0, 5,
            )
            assert result["rows"] == clean["rows"]
        finally:
            db.shard_pool.shutdown()
