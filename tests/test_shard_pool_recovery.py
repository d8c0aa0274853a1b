"""Worker-death recovery for the sharded process-pool vehicle.

A dead worker process breaks every in-flight future of a
``ProcessPoolExecutor`` at once (``BrokenProcessPool``).  That is not
a data fault -- the window never ran -- so a :class:`ShardStream`
re-dispatches it verbatim after rebuilding the pool once; a second
death degrades the stream to inline in-process execution for the rest
of the query (recorded as the ``shard_pool_degraded`` recovery path)
instead of failing the query.
"""

from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.common.errors import ExecutionError, TransientFaultError
from repro.common.rng import make_rng
from repro.executor.database import Database
from repro.executor.shard_pool import ShardPool, ShardStream
from repro.optimizer.enumerator import OptimizerConfig
from repro.robustness.recovery import RecoveryLog

SQL = """
WITH Ranked AS (
  SELECT A.c1 AS x, B.c2 AS y,
         rank() OVER (ORDER BY (0.3*A.c1 + 0.7*B.c2)) AS rank
  FROM A, B WHERE A.c2 = B.c1)
SELECT x, y, rank FROM Ranked WHERE rank <= 5
"""


def make_db(seed=5, rows=240, key_domain=30):
    rng = make_rng(seed)
    db = Database(config=OptimizerConfig(enable_nrjn=False))
    db.create_table("A", [("c1", "float"), ("c2", "int")], rows=[
        [float(rng.uniform(0, 1)), int(rng.integers(0, key_domain))]
        for _ in range(rows)
    ])
    db.create_table("B", [("c1", "int"), ("c2", "float")], rows=[
        [int(rng.integers(0, key_domain)), float(rng.uniform(0, 1))]
        for _ in range(rows)
    ])
    db.analyze()
    return db


# ----------------------------------------------------------------------
# Stream-level behaviour against a scripted pool
# ----------------------------------------------------------------------
ROWS = [{"S.v": n, "S.score": 1.0 - n / 10.0} for n in range(3)]


def window(skip, budget):
    """Mimic ``_run_shard_task``'s window contract over ROWS."""
    needed = skip + budget
    emitted = ROWS[:needed]
    return {
        "rows": emitted[skip:],
        "pulled": (4, 4),
        "exhausted": len(emitted) < needed,
    }


SPEC = {
    "score_column": "S.score",
    "left": {"table": "A"},
    "right": {"table": "B"},
}


class ScriptedPool:
    """A pool whose submits fail with ``BrokenProcessPool`` N times."""

    def __init__(self, deaths=0, rebuild_raises=False):
        self.deaths = deaths
        self.rebuild_raises = rebuild_raises
        self.submits = 0
        self.rebuilds = 0
        self.inline_runs = 0

    def submit(self, spec, skip, budget, attempt=1):
        self.submits += 1
        future = Future()
        if self.deaths > 0:
            self.deaths -= 1
            future.set_exception(
                BrokenProcessPool("a worker died abruptly"))
        else:
            future.set_result(window(skip, budget))
        return future

    def run_inline(self, spec, skip, budget, attempt=1):
        self.inline_runs += 1
        return window(skip, budget)

    def rebuild(self):
        self.rebuilds += 1
        if self.rebuild_raises:
            raise OSError("cannot fork")


def make_stream(pool, budget=16):
    return ShardStream(pool, SPEC, schema=("S.v", "S.score"),
                       shard_index=0, shard_count=1, budget=budget,
                       name="SH0")


def drain(stream):
    rows = []
    while True:
        row = stream.next()
        if row is None:
            return rows
        rows.append(row)


class TestShardStreamWorkerDeath:
    def test_single_death_rebuilds_and_redispatches(self):
        pool = ScriptedPool(deaths=1)
        stream = make_stream(pool)
        stream.open()
        rows = drain(stream)
        stream.close()
        assert [row["S.v"] for row in rows] == [0, 1, 2]
        assert pool.rebuilds == 1
        assert stream.pool_rebuilds == 1
        assert not stream.degraded
        assert pool.inline_runs == 0

    def test_second_death_degrades_to_inline(self):
        pool = ScriptedPool(deaths=2)
        stream = make_stream(pool)
        stream.open()
        rows = drain(stream)
        stream.close()
        assert [row["S.v"] for row in rows] == [0, 1, 2]
        assert stream.degraded
        assert pool.inline_runs >= 1

    def test_failed_rebuild_degrades_immediately(self):
        pool = ScriptedPool(deaths=1, rebuild_raises=True)
        stream = make_stream(pool)
        stream.open()
        rows = drain(stream)
        stream.close()
        assert [row["S.v"] for row in rows] == [0, 1, 2]
        assert stream.degraded
        assert pool.rebuilds == 1

    def test_degraded_stream_stays_inline(self):
        pool = ScriptedPool(deaths=2)
        stream = make_stream(pool, budget=1)
        stream.open()
        rows = drain(stream)
        stream.close()
        assert [row["S.v"] for row in rows] == [0, 1, 2]
        # Once degraded, later windows never touch the pool again.
        submits_at_degrade = pool.submits
        assert pool.inline_runs >= 2
        assert pool.submits == submits_at_degrade

    def test_transient_faults_still_retry_inline_when_degraded(self):
        pool = ScriptedPool(deaths=2)
        fails = {"n": 1}
        original = pool.run_inline

        def flaky_inline(spec, skip, budget, attempt=1):
            if fails["n"] > 0:
                fails["n"] -= 1
                raise TransientFaultError("flaky shard")
            return original(spec, skip, budget, attempt)

        pool.run_inline = flaky_inline
        stream = make_stream(pool)
        stream.open()
        rows = drain(stream)
        stream.close()
        assert [row["S.v"] for row in rows] == [0, 1, 2]
        assert stream.retries == 1

    def test_other_worker_failures_still_raise(self):
        pool = ScriptedPool()

        def poisoned_submit(spec, skip, budget, attempt=1):
            future = Future()
            future.set_exception(RuntimeError("worker raised"))
            return future

        pool.submit = poisoned_submit
        stream = make_stream(pool)
        with pytest.raises(ExecutionError):
            stream.open()
            drain(stream)
        stream.close()

    def test_recovery_log_records_degradation(self):
        pool = ScriptedPool(deaths=2)
        stream = make_stream(pool)
        stream.open()
        drain(stream)
        log = RecoveryLog()
        log.record_shard_recoveries(stream)
        stream.close()
        kinds = [event.kind for event in log.events]
        assert "shard_pool_degraded" in kinds
        # Degradation is a serviced query, not an escalation.
        assert log.path == "direct"

    def test_state_dict_carries_degradation_flags(self):
        pool = ScriptedPool(deaths=2)
        stream = make_stream(pool)
        stream.open()
        drain(stream)
        state = stream.state_dict()
        stream.close()
        restored = make_stream(ScriptedPool())
        restored.load_state_dict(state)
        assert restored.pool_rebuilds == 1
        assert restored.degraded

    def test_legacy_state_without_flags_still_loads(self):
        stream = make_stream(ScriptedPool())
        stream.open()
        drain(stream)
        state = stream.state_dict()
        stream.close()
        del state["state"]["rebuilds"], state["state"]["degraded"]
        restored = make_stream(ScriptedPool())
        restored.load_state_dict(state)
        assert restored.pool_rebuilds == 0
        assert not restored.degraded


# ----------------------------------------------------------------------
# Pool-level rebuild
# ----------------------------------------------------------------------
class TestShardPoolRebuild:
    def test_rebuild_is_idempotent_on_a_healthy_pool(self):
        db = make_db()
        pool = ShardPool(db.catalog)
        if not pool.available:  # pragma: no cover - no fork platform
            pytest.skip("fork-based pools unavailable")
        try:
            first = pool._ensure()
            assert pool.rebuild() is first
            # A broken executor (what BrokenProcessPool leaves behind)
            # is replaced by a fresh one.
            first._broken = "a worker died"
            second = pool.rebuild()
            assert second is not first
            assert pool.rebuild() is second
        finally:
            pool.shutdown()


# ----------------------------------------------------------------------
# End-to-end: a guarded pool query survives total worker loss
# ----------------------------------------------------------------------
class TestEndToEndDegradation:
    def test_guarded_query_degrades_and_matches_serial(self):
        serial = make_db().execute_guarded(SQL, parallel="off")
        db = make_db()
        db.execute(SQL, parallel="pool", shards=2)  # build the pool

        def always_broken(spec, skip, budget, attempt=1):
            future = Future()
            future.set_exception(
                BrokenProcessPool("every worker is gone"))
            return future

        db.shard_pool.submit = always_broken
        try:
            report = db.execute_guarded(SQL, parallel="pool", shards=2)
        finally:
            db.shard_pool.shutdown()
        assert report.rows == serial.rows
        kinds = [event.kind for event in report.recovery.events]
        assert "shard_pool_degraded" in kinds
        assert report.recovery.path == "direct"
