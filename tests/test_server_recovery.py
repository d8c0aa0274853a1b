"""Server-level crash recovery: admission journal + durable resume.

Pins the serving acceptance scenario of the durability layer: a server
running with a ``state_dir`` journals every admission and persists
instalment suspensions; after a crash (modelled as a drained server
whose process state is thrown away), a *fresh* server over the same
directory replays the journal, re-admits the unfinished queries, and
continues them byte-identically from their last durable snapshot --
falling back to a journalled-SQL restart (recovery path
``"restarted"``) when every snapshot is corrupt.
"""

import asyncio
import json
import os

import pytest

from repro.common.rng import make_rng
from repro.executor.database import Database
from repro.observability.events import EventLog
from repro.optimizer.enumerator import OptimizerConfig
from repro.robustness.durability import _HEADER, CheckpointStore
from repro.server import AdmissionJournal, SchedulerConfig, Server
from repro.server.session import COMPLETED, DRAINED

SQL = """
WITH Ranked AS (
  SELECT A.c1 AS x, B.c2 AS y,
         rank() OVER (ORDER BY (0.3*A.c1 + 0.7*B.c2)) AS rank
  FROM A, B WHERE A.c2 = B.c1)
SELECT x, y, rank FROM Ranked WHERE rank <= 5
"""

#: Same shape at k=40 -- expensive enough to span many instalments.
BIG_SQL = SQL.replace("rank <= 5", "rank <= 40")


def hrjn_db(rows=400, seed=3, domain=15):
    # NRJN materialises its inner inside open() -- one atomic step no
    # instalment can split -- so recovery tests that need incremental
    # progress pin the fully pipelined HRJN.
    rng = make_rng(seed)
    db = Database(config=OptimizerConfig(enable_nrjn=False))
    db.create_table("A", [("c1", "float"), ("c2", "int")], rows=[
        [float(rng.uniform(0, 1)), int(rng.integers(0, domain))]
        for _ in range(rows)
    ])
    db.create_table("B", [("c1", "int"), ("c2", "float")], rows=[
        [int(rng.integers(0, domain)), float(rng.uniform(0, 1))]
        for _ in range(rows)
    ])
    db.analyze()
    return db


# ----------------------------------------------------------------------
# The admission journal
# ----------------------------------------------------------------------
class TestAdmissionJournal:
    def test_replay_diffs_submissions_against_terminals(self, tmp_path):
        journal = AdmissionJournal(tmp_path / "journal.jsonl",
                                   fsync=False)
        journal.record_submitted("q1", "SELECT 1", "alice",
                                 "interactive")
        journal.record_submitted("q2", "SELECT 2", "bob", "batch")
        journal.record_suspended("q2", rows_streamed=7)
        journal.record_terminal("q1", "completed")
        pending = journal.replay()
        assert list(pending) == ["q2"]
        entry = pending["q2"]
        assert entry["sql"] == "SELECT 2"
        assert entry["tenant"] == "bob"
        assert entry["queue_class"] == "batch"
        assert entry["suspended"] is True
        assert entry["rows_streamed"] == 7

    def test_directory_path_places_journal_inside(self, tmp_path):
        journal = AdmissionJournal(tmp_path, fsync=False)
        assert journal.path == str(tmp_path / "journal.jsonl")

    def test_torn_trailing_line_skipped_and_counted(self, tmp_path):
        journal = AdmissionJournal(tmp_path / "journal.jsonl",
                                   fsync=False)
        journal.record_submitted("q1", "SELECT 1", "alice", "batch")
        with open(journal.path, "a") as handle:
            handle.write('{"event": "termi')  # the crash mid-append
        pending = journal.replay()
        assert list(pending) == ["q1"]
        assert journal.skipped_lines == 1

    def test_unknown_event_counted_not_fatal(self, tmp_path):
        journal = AdmissionJournal(tmp_path / "journal.jsonl",
                                   fsync=False)
        with open(journal.path, "w") as handle:
            handle.write(json.dumps(
                {"event": "mystery", "query_id": "q9"}) + "\n")
            handle.write(json.dumps(["not", "an", "object"]) + "\n")
        assert journal.replay() == {}
        assert journal.skipped_lines == 2

    def test_reset_truncates_atomically(self, tmp_path):
        journal = AdmissionJournal(tmp_path / "journal.jsonl",
                                   fsync=False)
        journal.record_submitted("q1", "SELECT 1", "alice", "batch")
        journal.reset()
        assert journal.replay() == {}
        assert os.path.getsize(journal.path) == 0
        assert not os.path.exists(journal.path + ".tmp")

    def test_replay_of_missing_file_is_empty(self, tmp_path):
        journal = AdmissionJournal(tmp_path / "journal.jsonl",
                                   fsync=False)
        assert journal.replay() == {}


# ----------------------------------------------------------------------
# Crash / restart cycles
# ----------------------------------------------------------------------
def drain_midflight(state_dir, instalment_pulls=50):
    """Phase 1 of the crash model: submit the big query, let it make
    incremental progress, then drain -- leaving journal + snapshots
    behind exactly as a killed process would."""

    async def phase():
        db = hrjn_db()
        config = SchedulerConfig(instalment_pulls=instalment_pulls)
        server = Server(db, scheduler=config, state_dir=state_dir)
        server.start()
        session = await server.submit(BIG_SQL, tenant="analytics")
        for _ in range(500):
            await asyncio.sleep(0.005)
            if session.stats["instalments"] >= 2:
                break
        await server.drain()
        return session

    return asyncio.run(phase())


def recover_and_finish(state_dir, instalment_pulls=400):
    """Phase 2: a fresh server over the same directory recovers and
    runs every re-admitted query to completion."""

    async def phase():
        db = hrjn_db()
        config = SchedulerConfig(instalment_pulls=instalment_pulls)
        server = Server(db, scheduler=config, state_dir=state_dir)
        server.start()
        sessions = await server.recover()
        reports = [await session.result() for session in sessions]
        await server.drain()
        return db, sessions, reports

    return asyncio.run(phase())


@pytest.mark.timeout(120)
class TestServerCrashRecovery:
    def test_drain_leaves_durable_state_behind(self, tmp_path):
        state_dir = str(tmp_path / "state")
        session = drain_midflight(state_dir)
        assert session.state == DRAINED
        assert session.query_id is not None
        store = CheckpointStore(state_dir)
        assert store.query_ids() == [session.query_id]
        pending = AdmissionJournal(state_dir).replay()
        assert list(pending) == [session.query_id]
        assert pending[session.query_id]["suspended"] is True
        assert pending[session.query_id]["tenant"] == "analytics"

    def test_fresh_server_resumes_byte_identically(self, tmp_path):
        clean = hrjn_db().execute_guarded(BIG_SQL)
        state_dir = str(tmp_path / "state")
        drained = drain_midflight(state_dir)
        db, sessions, reports = recover_and_finish(state_dir)
        assert len(sessions) == 1
        session, report = sessions[0], reports[0]
        assert session.state == COMPLETED
        assert session.query_id == drained.query_id
        assert report.rows == clean.rows
        assert report.recovery.path == "resumed"
        # The resumed instalment continued from the durable snapshot:
        # its fresh guard pulled strictly less than a from-scratch run.
        assert (report.recovery.stats["pulled_total"]
                < clean.recovery.stats["pulled_total"])
        recoveries = db.metrics.counter("durability_recoveries_total")
        assert recoveries.value(outcome="resumed") == 1

    def test_completion_cleans_up_durable_state(self, tmp_path):
        state_dir = str(tmp_path / "state")
        drain_midflight(state_dir)
        recover_and_finish(state_dir)
        assert CheckpointStore(state_dir).query_ids() == []
        assert AdmissionJournal(state_dir).replay() == {}
        leftovers = [name for name in os.listdir(state_dir)
                     if name != "journal.jsonl"]
        assert leftovers == []

    def test_completed_queries_are_not_recovered(self, tmp_path):
        state_dir = str(tmp_path / "state")

        async def phase1():
            server = Server(hrjn_db(), state_dir=state_dir)
            server.start()
            session = await server.submit(SQL)
            await session.result()
            await server.drain()

        asyncio.run(phase1())
        _db, sessions, _reports = recover_and_finish(state_dir)
        assert sessions == []

    def test_corrupt_snapshots_restart_from_journalled_sql(
            self, tmp_path):
        clean = hrjn_db().execute_guarded(BIG_SQL)
        state_dir = str(tmp_path / "state")
        drain_midflight(state_dir)
        store = CheckpointStore(state_dir)
        (query_id,) = store.query_ids()
        for path in store.snapshots(query_id):
            with open(path, "r+b") as handle:
                handle.seek(_HEADER.size + 3)
                byte = handle.read(1)
                handle.seek(_HEADER.size + 3)
                handle.write(bytes([byte[0] ^ 0x08]))
        db, sessions, reports = recover_and_finish(state_dir)
        assert len(sessions) == 1
        assert sessions[0].state == COMPLETED
        report = reports[0]
        assert report.rows == clean.rows
        assert report.recovery.path == "restarted"
        recoveries = db.metrics.counter("durability_recoveries_total")
        assert recoveries.value(outcome="restarted") == 1
        corruptions = db.metrics.counter("durability_corruptions_total")
        assert corruptions.value(kind="checksum") >= 1

    def test_each_suspension_is_written_once(self, tmp_path):
        log = EventLog()

        async def main():
            db = hrjn_db()
            config = SchedulerConfig(instalment_pulls=50)
            async with Server(db, scheduler=config, events=log,
                              state_dir=str(tmp_path / "state")) as server:
                session = await server.submit(BIG_SQL)
                await session.result()
            return db

        db = asyncio.run(main())
        suspensions = log.count("preempt")
        assert suspensions >= 2
        writes = db.metrics.counter("durability_writes_total")
        assert writes.value(reason="suspend") == suspensions
        assert ({labels["reason"] for labels in writes.labelsets()}
                <= {"cadence", "pressure", "suspend", "explicit"})
        durable = log.events("durable_checkpoint")
        assert len(durable) == writes.total()
        assert sum(event.attributes["reason"] == "suspend"
                   for event in durable) == suspensions

    def test_recover_without_state_dir_is_a_noop(self):
        async def main():
            server = Server(hrjn_db())
            server.start()
            recovered = await server.recover()
            await server.drain()
            return recovered

        assert asyncio.run(main()) == []

    def test_recovery_survives_a_second_crash(self, tmp_path):
        """Recover, drain again mid-flight, recover again: the query
        still completes byte-identically on the third process."""
        clean = hrjn_db().execute_guarded(BIG_SQL)
        state_dir = str(tmp_path / "state")
        drain_midflight(state_dir)

        async def crash_again():
            db = hrjn_db()
            config = SchedulerConfig(instalment_pulls=40)
            server = Server(db, scheduler=config, state_dir=state_dir)
            server.start()
            sessions = await server.recover()
            for _ in range(500):
                await asyncio.sleep(0.005)
                if sessions[0].stats["instalments"] >= 1:
                    break
            await server.drain()
            return sessions[0]

        middle = asyncio.run(crash_again())
        assert middle.state in (DRAINED, COMPLETED)
        _db, sessions, reports = recover_and_finish(state_dir)
        if middle.state == DRAINED:
            assert len(sessions) == 1
            assert reports[0].rows == clean.rows
        else:  # finished during the middle process
            assert sessions == []
