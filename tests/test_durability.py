"""Durable checkpoint persistence: wire format, store, crash recovery.

Pins the durability acceptance scenario: every checkpoint a guarded
execution takes under a ``state_dir`` becomes a validated, checksummed
snapshot on disk; a *fresh process* (modelled as a freshly built,
identically seeded :class:`Database`) continues the query
byte-identically from the last durable snapshot without rereading
consumed tuples; and any corruption -- bit flips, truncation, version
skew -- is detected by validation and degrades to a restart
(recovery path ``"restarted"``), never a crash.
"""

import os
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import (
    CheckpointCorruptionError,
    ExecutionError,
)
from repro.common.rng import make_rng
from repro.cost.model import PAPER_2004, CostModel
from repro.executor.database import Database
from repro.observability.metrics import MetricsRegistry
from repro.optimizer.enumerator import OptimizerConfig
from repro.robustness.budget import ResourceBudget
from repro.robustness.durability import (
    _HEADER,
    FORMAT_VERSION,
    MAGIC,
    CheckpointStore,
    decode_snapshot,
    default_query_id,
    encode_snapshot,
)

from tests.test_checkpoint_roundtrip import FACTORIES, drain, full_run

SQL = """
WITH Ranked AS (
  SELECT A.c1 AS x, B.c2 AS y,
         rank() OVER (ORDER BY (0.3*A.c1 + 0.7*B.c2)) AS rank
  FROM A, B WHERE A.c2 = B.c1)
SELECT x, y, rank FROM Ranked WHERE rank <= 5
"""


def make_db(rows=400, seed=3, domain=15, hrjn_only=False):
    """The Figure 6 workload tables; deterministic across processes."""
    rng = make_rng(seed)
    config = (OptimizerConfig(enable_nrjn=False) if hrjn_only else None)
    # The suspension scenarios need a plan that reads past 100 pulls:
    # pin the paper's cost profile, whose plan here is NRJN (428
    # pulls; IN_MEMORY's HRJN reads 36).
    db = Database(cost_model=CostModel(PAPER_2004), config=config)
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
# Wire format
# ----------------------------------------------------------------------
class TestSnapshotWireFormat:
    PAYLOAD = {"query": "marker", "checkpoint": None, "rows": [1, 2, 3]}

    def test_roundtrip(self):
        blob = encode_snapshot(self.PAYLOAD)
        assert blob[:4] == MAGIC
        assert decode_snapshot(blob) == self.PAYLOAD

    def test_truncated_header_detected(self):
        with pytest.raises(CheckpointCorruptionError) as info:
            decode_snapshot(b"RA")
        assert info.value.kind == "truncated"

    def test_bad_magic_detected(self):
        blob = encode_snapshot(self.PAYLOAD)
        with pytest.raises(CheckpointCorruptionError) as info:
            decode_snapshot(b"XXXX" + blob[4:])
        assert info.value.kind == "magic"

    def test_version_mismatch_detected(self):
        blob = bytearray(encode_snapshot(self.PAYLOAD))
        struct.pack_into(">H", blob, 4, FORMAT_VERSION + 1)
        with pytest.raises(CheckpointCorruptionError) as info:
            decode_snapshot(bytes(blob))
        assert info.value.kind == "version"

    def test_truncated_payload_detected(self):
        blob = encode_snapshot(self.PAYLOAD)
        with pytest.raises(CheckpointCorruptionError) as info:
            decode_snapshot(blob[:-3])
        assert info.value.kind == "truncated"

    @pytest.mark.parametrize("offset", [0, 1, 7])
    def test_payload_bit_flip_detected_by_checksum(self, offset):
        blob = bytearray(encode_snapshot(self.PAYLOAD))
        blob[_HEADER.size + offset] ^= 0x40
        with pytest.raises(CheckpointCorruptionError) as info:
            decode_snapshot(bytes(blob))
        assert info.value.kind == "checksum"

    def test_non_dict_payload_rejected(self):
        with pytest.raises(CheckpointCorruptionError) as info:
            decode_snapshot(encode_snapshot([1, 2, 3]))
        assert info.value.kind == "payload"


# ----------------------------------------------------------------------
# The store
# ----------------------------------------------------------------------
class TestCheckpointStore:
    def _store(self, tmp_path, **kwargs):
        kwargs.setdefault("fsync", False)
        return CheckpointStore(tmp_path / "state", **kwargs)

    def test_save_and_load_latest(self, tmp_path):
        store = self._store(tmp_path)
        path = store.save_checkpoint("q1", "the-query", None,
                                     reason="cadence")
        assert os.path.exists(path)
        payload = store.load_latest("q1")
        assert payload["query"] == "the-query"
        assert payload["reason"] == "cadence"
        assert payload["format"] == FORMAT_VERSION

    def test_load_latest_without_snapshots_returns_none(self, tmp_path):
        assert self._store(tmp_path).load_latest("missing") is None

    def test_retention_keeps_newest_and_leaves_no_temp_files(
            self, tmp_path):
        store = self._store(tmp_path, keep=2)
        for n in range(5):
            store.save_checkpoint("q1", "query-%d" % n, None)
        names = sorted(os.listdir(store.root))
        assert names == ["q1-00000004.ckpt", "q1-00000005.ckpt"]
        assert store.load_latest("q1")["query"] == "query-4"

    def test_queries_are_isolated(self, tmp_path):
        store = self._store(tmp_path)
        store.save_checkpoint("alpha", "a", None)
        store.save_checkpoint("alpha.2", "b", None)
        assert store.query_ids() == ["alpha", "alpha.2"]
        assert store.load_latest("alpha")["query"] == "a"
        assert store.discard("alpha") == 1
        assert store.query_ids() == ["alpha.2"]

    def test_invalid_query_id_rejected(self, tmp_path):
        store = self._store(tmp_path)
        with pytest.raises(ExecutionError):
            store.save_checkpoint("../escape", "q", None)
        with pytest.raises(ExecutionError):
            store.save_checkpoint("", "q", None)

    def test_bit_flip_detected_file_deleted_and_counted(self, tmp_path):
        metrics = MetricsRegistry()
        store = self._store(tmp_path, metrics=metrics)
        path = store.save_checkpoint("q1", "the-query", None)
        with open(path, "r+b") as handle:
            handle.seek(_HEADER.size + 2)
            byte = handle.read(1)
            handle.seek(_HEADER.size + 2)
            handle.write(bytes([byte[0] ^ 0x10]))
        with pytest.raises(CheckpointCorruptionError) as info:
            store.load_latest("q1")
        assert info.value.kind == "checksum"
        assert not os.path.exists(path), "corrupt snapshot not deleted"
        counter = metrics.counter("durability_corruptions_total")
        assert counter.value(kind="checksum") == 1

    def test_version_skew_detected_on_disk(self, tmp_path):
        store = self._store(tmp_path)
        path = store.save_checkpoint("q1", "the-query", None)
        with open(path, "r+b") as handle:
            handle.seek(4)
            handle.write(struct.pack(">H", FORMAT_VERSION + 7))
        with pytest.raises(CheckpointCorruptionError) as info:
            store.load_latest("q1")
        assert info.value.kind == "version"

    def test_truncated_snapshot_detected_on_disk(self, tmp_path):
        store = self._store(tmp_path)
        path = store.save_checkpoint("q1", "the-query", None)
        size = os.path.getsize(path)
        with open(path, "r+b") as handle:
            handle.truncate(size - 5)
        with pytest.raises(CheckpointCorruptionError) as info:
            store.load_latest("q1")
        assert info.value.kind == "truncated"

    def test_write_metrics_recorded(self, tmp_path):
        metrics = MetricsRegistry()
        store = CheckpointStore(tmp_path / "state", metrics=metrics)
        path = store.save_checkpoint("q1", "the-query", None,
                                     reason="cadence")
        writes = metrics.counter("durability_writes_total")
        assert writes.value(reason="cadence") == 1
        assert (metrics.counter("durability_bytes_total").total()
                == os.path.getsize(path))
        # File fsync + directory-entry fsync per write.
        assert metrics.counter("durability_fsyncs_total").total() == 2


# ----------------------------------------------------------------------
# Serialization property over every checkpoint-suite plan shape
# ----------------------------------------------------------------------
@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(sorted(FACTORIES)), data=st.data())
def test_serialized_state_roundtrips_for_every_plan_shape(kind, data):
    """For all 16 operator-tree shapes of the checkpoint suite and an
    arbitrary interrupt offset, operator state survives the full wire
    format (encode -> bytes -> decode) and the restored tree emits
    exactly the remaining rows."""
    factory = FACTORIES[kind]
    expected = full_run(factory)
    j = data.draw(st.integers(0, len(expected)), label="interrupt_after")
    original = factory()
    original.open()
    try:
        drain(original, j)
        state = original.state_dict()
    finally:
        original.close()
    blob = encode_snapshot({"query": kind, "state": state})
    payload = decode_snapshot(blob)
    restored = factory()
    restored.load_state_dict(payload["state"])
    try:
        assert drain(restored) == expected[j:], (
            "shape %s diverged after offset %d" % (kind, j)
        )
    finally:
        restored.close()


# ----------------------------------------------------------------------
# Database-level crash recovery
# ----------------------------------------------------------------------
class TestDatabaseDurableRecovery:
    def _suspend_into(self, state_dir, hrjn_only=False, max_pulls=100):
        db = make_db(hrjn_only=hrjn_only)
        report = db.execute_guarded(
            SQL, budget=ResourceBudget(max_pulls=max_pulls),
            checkpoint=2, state_dir=state_dir,
        )
        assert report.suspended
        return report

    def test_checkpoints_become_durable_snapshots(self, tmp_path):
        state_dir = str(tmp_path / "state")
        self._suspend_into(state_dir)
        store = CheckpointStore(state_dir)
        ids = store.query_ids()
        assert ids == [default_query_id(
            make_db().explain(SQL).query)]
        assert store.snapshots(ids[0])
        assert not [name for name in os.listdir(state_dir)
                    if name.endswith(".tmp")]

    def test_fresh_process_resumes_byte_identically(self, tmp_path):
        clean = make_db().execute_guarded(SQL)
        state_dir = str(tmp_path / "state")
        first = self._suspend_into(state_dir)
        assert first.rows == clean.rows[:len(first.rows)]
        # A different, freshly built Database over identically seeded
        # tables models the restarted process.
        resumed = make_db().resume(state_dir)
        assert resumed.rows == clean.rows
        assert not resumed.suspended
        assert resumed.recovery.path == "resumed"

    def test_resume_does_not_reread_consumed_tuples(self, tmp_path):
        clean = make_db(hrjn_only=True).execute_guarded(SQL)
        state_dir = str(tmp_path / "state")
        db = make_db(hrjn_only=True)
        first = db.execute_guarded(
            SQL, budget=ResourceBudget(max_pulls=15), checkpoint=2,
            state_dir=state_dir,
        )
        assert first.suspended and not first.suspension.pre_open
        snapshot_pulled = first.suspension.checkpoint.total_pulled
        assert snapshot_pulled > 0
        resumed = make_db(hrjn_only=True).resume(state_dir)
        assert resumed.rows == clean.rows
        # The resumed guard counts only post-restore pulls: together
        # with the snapshot's preserved work it must not exceed the
        # uninterrupted run (nothing was reread).
        total = clean.recovery.stats["pulled_total"]
        resumed_pulls = resumed.recovery.stats["pulled_total"]
        assert resumed_pulls == total - snapshot_pulled

    def test_resume_from_single_snapshot_file(self, tmp_path):
        clean = make_db().execute_guarded(SQL)
        state_dir = str(tmp_path / "state")
        self._suspend_into(state_dir)
        store = CheckpointStore(state_dir)
        latest = store.snapshots(store.query_ids()[0])[-1]
        resumed = make_db().resume(latest)
        assert resumed.rows == clean.rows

    def test_load_suspended_requires_unambiguous_query(self, tmp_path):
        state_dir = str(tmp_path / "state")
        db = make_db()
        with pytest.raises(ExecutionError):
            db.load_suspended(state_dir, query_id="nothing-there")
        CheckpointStore(state_dir, fsync=False).save_checkpoint(
            "qa", "x", None)
        CheckpointStore(state_dir, fsync=False).save_checkpoint(
            "qb", "y", None)
        with pytest.raises(ExecutionError):
            db.load_suspended(state_dir)

    def test_corrupt_snapshot_restarts_from_scratch(self, tmp_path):
        clean = make_db().execute_guarded(SQL)
        state_dir = str(tmp_path / "state")
        self._suspend_into(state_dir)
        # Flip a payload byte in *every* retained snapshot: validation
        # must reject them all and the resume must degrade to restart.
        store = CheckpointStore(state_dir)
        (query_id,) = store.query_ids()
        for path in store.snapshots(query_id):
            with open(path, "r+b") as handle:
                handle.seek(_HEADER.size + 1)
                byte = handle.read(1)
                handle.seek(_HEADER.size + 1)
                handle.write(bytes([byte[0] ^ 0x20]))
        fresh = make_db()
        with pytest.raises(CheckpointCorruptionError):
            fresh.resume(state_dir)
        # Both snapshots were deleted on failed validation; the caller
        # retries and lands on the no-snapshot restart path below.
        assert store.query_ids() == []
        report = fresh.execute_guarded(SQL, state_dir=state_dir)
        assert report.rows == clean.rows

    def test_older_format_snapshot_is_rejected_and_restarted(self, tmp_path):
        """A version-1 snapshot (rank-join queues held merged output
        dicts) must never be restored into version-2 operators: the
        wire check rejects it, and ``resume`` reruns its query."""
        clean = make_db().execute_guarded(SQL)
        state_dir = str(tmp_path / "state")
        self._suspend_into(state_dir, hrjn_only=True, max_pulls=15)
        store = CheckpointStore(state_dir, fsync=False)
        (query_id,) = store.query_ids()
        for path in store.snapshots(query_id):
            with open(path, "r+b") as handle:
                blob = bytearray(handle.read())
                struct.pack_into(">H", blob, 4, 1)
                handle.seek(0)
                handle.write(blob)
        with pytest.raises(CheckpointCorruptionError) as info:
            decode_snapshot(bytes(blob))
        assert info.value.kind == "version"
        assert info.value.query is not None
        fresh = make_db(hrjn_only=True)
        report = fresh.resume(state_dir)
        assert report.rows == clean.rows
        assert report.recovery.path == "restarted"
        recoveries = fresh.metrics.counter("durability_recoveries_total")
        assert recoveries.value(outcome="restarted") == 1
        assert store.query_ids() == []

    def test_stale_snapshot_restarts_with_restarted_path(self, tmp_path):
        """A snapshot whose state no longer fits the re-optimized plan
        is discarded and the query reruns, recorded as "restarted"."""
        clean = make_db().execute_guarded(SQL)
        state_dir = str(tmp_path / "state")
        self._suspend_into(state_dir, hrjn_only=True, max_pulls=15)
        store = CheckpointStore(state_dir, fsync=False)
        (query_id,) = store.query_ids()
        payload = store.load_latest(query_id)
        # Corrupt the checkpoint *semantically*: valid wire format, but
        # operator state that cannot restore into the rebuilt plan.
        payload["checkpoint"].state = {
            "operator": "Limit", "name": "BOGUS", "opened": True,
            "children": [],
        }
        store.save_checkpoint(
            query_id, payload["query"], payload["checkpoint"],
            policy=payload["policy"], reason="stale")
        fresh = make_db()
        metrics = fresh.metrics
        report = fresh.resume(state_dir)
        assert report.rows == clean.rows
        assert report.recovery.path == "restarted"
        recoveries = metrics.counter("durability_recoveries_total")
        assert recoveries.value(outcome="restarted") == 1
        # The stale snapshots were discarded and the rerun completed,
        # so no durable state lingers for this query.
        assert store.query_ids() == []
