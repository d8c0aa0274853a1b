"""Crash-safe persistence of checkpoints and suspended queries.

PR 3 made in-flight rank-join state checkpointable and PR 6 made it
schedulable, but both kept every snapshot in process memory: a SIGKILL
lost all of it.  This module is the durable half of that contract -- a
:class:`CheckpointStore` that serializes checkpoints to disk such that
a freshly started process can continue a killed query byte-identically
from its last durable snapshot, without rereading consumed tuples.

On-disk format (documented in ``docs/robustness.md`` section 6)::

    +-------+---------+-------+-------+----------+=============+
    | magic | version | flags | crc32 | length   | payload     |
    | RAQC  | u16     | u16   | u32   | u64      | pickle      |
    +-------+---------+-------+-------+----------+=============+

The payload is a pickled plain-container dict: the
:class:`~repro.optimizer.query.RankQuery`, its SQL text, the
:class:`~repro.robustness.checkpoint.Checkpoint` (operator
``state_dict()`` trees are plain dicts/lists/Rows, so pickling them is
safe and stable), the checkpoint policy, and suspension metadata.
Optimization results and executors are deliberately *not* persisted --
:func:`rehydrate` re-optimizes the query in the recovering process,
which is deterministic for an unchanged catalog, and any structural
mismatch surfaces as a
:class:`~repro.common.errors.CheckpointError` that callers turn into a
restart-from-scratch (recovery path ``"restarted"``).

Writes are atomic and durable: the snapshot is written to a ``.tmp``
sibling, flushed and fsynced, renamed over the final name, and the
directory entry is fsynced -- a crash mid-write leaves at most a stale
temp file, never a torn snapshot.  Retention keeps the newest ``keep``
snapshots per query and garbage-collects the rest; terminal queries
are dropped entirely via :meth:`CheckpointStore.discard`.

Every snapshot is validated on read (magic, format version, length,
CRC32 of the payload); validation failures raise
:class:`~repro.common.errors.CheckpointCorruptionError` after deleting
the unusable file, so one corrupt snapshot can never wedge recovery.
"""

import hashlib
import os
import pickle
import re
import struct
import zlib
from time import perf_counter

from repro.common.errors import CheckpointCorruptionError, ExecutionError
from repro.observability.events import NULL_EVENTS
from repro.observability.metrics import NULL_METRICS
from repro.robustness.checkpoint import Checkpoint, SuspendedQuery

#: Snapshot file magic ("Rank-Aware Query Checkpoint").
MAGIC = b"RAQC"

#: Current snapshot format version; mismatches are corruption.
#: 2: rank-join queue entries are ``(-score, seq, left_row, right_row)``
#: sharing rows with the hash tables (1: a merged output dict each).
FORMAT_VERSION = 2

#: Header layout: magic, version, flags, payload CRC32, payload length.
_HEADER = struct.Struct(">4sHHIQ")

#: Snapshot filename: ``<query_id>-<sequence>.ckpt``.
_SNAPSHOT_RE = re.compile(r"^(?P<qid>[A-Za-z0-9_.-]+)-(?P<seq>\d{8})\.ckpt$")

_QUERY_ID_RE = re.compile(r"^[A-Za-z0-9_.-]+$")


def default_query_id(query):
    """Deterministic query id derived from the query fingerprint.

    The same query shape maps to the same id across processes, so a
    ``Database.resume(state_dir)`` after a crash finds the snapshots
    its predecessor wrote without any journal.
    """
    from repro.executor.plan_cache import query_fingerprint

    digest = hashlib.sha1(
        repr(query_fingerprint(query)).encode("utf-8")).hexdigest()
    return "q" + digest[:12]


def encode_snapshot(payload):
    """Serialize ``payload`` to the versioned, checksummed wire format."""
    body = pickle.dumps(payload, protocol=4)
    crc = zlib.crc32(body) & 0xFFFFFFFF
    return _HEADER.pack(MAGIC, FORMAT_VERSION, 0, crc, len(body)) + body


def decode_snapshot(blob, source="<bytes>"):
    """Validate and deserialize one snapshot blob.

    Raises :class:`CheckpointCorruptionError` (with ``kind`` naming the
    failed check) on a bad magic number, unsupported format version,
    truncation, CRC mismatch, or an unpicklable payload.
    """
    if len(blob) < _HEADER.size:
        raise CheckpointCorruptionError(
            "snapshot %s: truncated header (%d bytes)"
            % (source, len(blob)), path=source, kind="truncated")
    magic, version, _flags, crc, length = _HEADER.unpack_from(blob)
    if magic != MAGIC:
        raise CheckpointCorruptionError(
            "snapshot %s: bad magic %r" % (source, magic),
            path=source, kind="magic")
    body = blob[_HEADER.size:]
    if version != FORMAT_VERSION:
        # Envelope and top-level payload keys are the same in every
        # version (operator state inside the checkpoint is what
        # changes), so an intact snapshot still names its query.
        query = None
        if len(body) == length and zlib.crc32(body) & 0xFFFFFFFF == crc:
            try:
                query = pickle.loads(body).get("query")
            except Exception:  # Unreadable here: nothing to salvage.
                pass
        raise CheckpointCorruptionError(
            "snapshot %s: format version %d not supported (expected %d)"
            % (source, version, FORMAT_VERSION),
            path=source, kind="version", query=query)
    if len(body) != length:
        raise CheckpointCorruptionError(
            "snapshot %s: truncated payload (%d of %d bytes)"
            % (source, len(body), length), path=source, kind="truncated")
    if zlib.crc32(body) & 0xFFFFFFFF != crc:
        raise CheckpointCorruptionError(
            "snapshot %s: payload checksum mismatch" % (source,),
            path=source, kind="checksum")
    try:
        payload = pickle.loads(body)
    except Exception as error:
        raise CheckpointCorruptionError(
            "snapshot %s: undeserializable payload (%s)"
            % (source, error), path=source, kind="payload") from error
    if not isinstance(payload, dict) or "query" not in payload:
        raise CheckpointCorruptionError(
            "snapshot %s: payload is not a snapshot dict" % (source,),
            path=source, kind="payload")
    return payload


class CheckpointStore:
    """Durable, checksummed, atomically written checkpoint snapshots.

    Parameters
    ----------
    root:
        Directory holding the snapshots (created if missing).
    keep:
        Newest snapshots retained per query id; older ones are
        garbage-collected after each successful write.
    fsync:
        Durability switch: fsync the snapshot file and its directory
        entry on every write.  Tests and benchmarks may turn it off to
        measure the pure serialization cost.
    metrics:
        Optional :class:`~repro.observability.metrics.MetricsRegistry`
        receiving the ``durability_*`` metric family (recoveries are
        counted by the callers that rehydrate).
    events:
        Optional :class:`~repro.observability.events.EventLog`;
        ``durable_checkpoint`` / ``durable_corruption`` events are
        emitted.
    """

    def __init__(self, root, keep=2, fsync=True, metrics=None,
                 events=None):
        if keep < 1:
            raise ExecutionError("keep must be >= 1")
        self.root = os.fspath(root)
        self.keep = keep
        self.fsync = fsync
        self.metrics = NULL_METRICS if metrics is None else metrics
        self.events = NULL_EVENTS if events is None else events
        os.makedirs(self.root, exist_ok=True)

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------
    def save_checkpoint(self, query_id, query, checkpoint, policy=None,
                        sql=None, reason=None, pre_open=False):
        """Persist one :class:`Checkpoint` of ``query``; returns the path.

        This is the cadence-persistence entry point the
        :class:`~repro.executor.executor.Executor` hooks into the
        checkpoint manager: every in-memory checkpoint taken under
        a wired store also becomes durable.
        """
        payload = {
            "format": FORMAT_VERSION,
            "query_id": query_id,
            "query": query,
            "sql": sql,
            "reason": reason or (checkpoint.reason
                                 if checkpoint is not None else "suspend"),
            "pre_open": bool(pre_open),
            "policy": policy,
            "checkpoint": checkpoint,
        }
        return self._write(query_id, payload)

    def _write(self, query_id, payload):
        self._check_query_id(query_id)
        started = perf_counter()
        blob = encode_snapshot(payload)
        sequence = self._next_sequence(query_id)
        final = os.path.join(self.root,
                             "%s-%08d.ckpt" % (query_id, sequence))
        tmp = final + ".tmp"
        fsyncs = 0
        with open(tmp, "wb") as handle:
            handle.write(blob)
            handle.flush()
            if self.fsync:
                os.fsync(handle.fileno())
                fsyncs += 1
        os.replace(tmp, final)
        if self.fsync:
            fsyncs += self._fsync_dir()
        self._gc(query_id)
        metrics = self.metrics
        metrics.counter("durability_writes_total").inc(
            reason=payload["reason"])
        metrics.counter("durability_bytes_total").inc(len(blob))
        if fsyncs:
            metrics.counter("durability_fsyncs_total").inc(fsyncs)
        metrics.histogram("durability_write_seconds").observe(
            perf_counter() - started)
        self.events.emit(
            "durable_checkpoint", query_id=query_id, sequence=sequence,
            bytes=len(blob), reason=payload["reason"],
        )
        return final

    def _fsync_dir(self):
        try:
            fd = os.open(self.root, os.O_RDONLY)
        except OSError:  # pragma: no cover - platform without dir fds
            return 0
        try:
            os.fsync(fd)
        finally:
            os.close(fd)
        return 1

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def load_latest(self, query_id):
        """Read the newest snapshot of ``query_id``; ``None`` if absent.

        A snapshot that fails validation is deleted and re-raised as
        :class:`CheckpointCorruptionError` -- the caller restarts the
        query from scratch rather than retrying the bad file forever.
        """
        paths = self.snapshots(query_id)
        if not paths:
            return None
        return self.read_snapshot(paths[-1])

    def read_snapshot(self, path):
        """Read and validate one snapshot file."""
        try:
            with open(path, "rb") as handle:
                blob = handle.read()
        except OSError as error:
            raise CheckpointCorruptionError(
                "snapshot %s: unreadable (%s)" % (path, error),
                path=path, kind="truncated") from error
        try:
            return decode_snapshot(blob, source=path)
        except CheckpointCorruptionError as error:
            self.metrics.counter("durability_corruptions_total").inc(
                kind=error.kind)
            self.events.emit("durable_corruption", path=str(path),
                             kind=error.kind)
            try:
                os.unlink(path)
            except OSError:
                pass
            raise

    # ------------------------------------------------------------------
    # Inventory and retention
    # ------------------------------------------------------------------
    def query_ids(self):
        """Sorted query ids with at least one snapshot on disk."""
        ids = set()
        for name in self._listing():
            match = _SNAPSHOT_RE.match(name)
            if match is not None:
                ids.add(match.group("qid"))
        return sorted(ids)

    def snapshots(self, query_id):
        """Snapshot paths of ``query_id``, oldest first."""
        self._check_query_id(query_id)
        prefix = query_id + "-"
        names = [name for name in self._listing()
                 if name.startswith(prefix)
                 and _SNAPSHOT_RE.match(name) is not None
                 and _SNAPSHOT_RE.match(name).group("qid") == query_id]
        return [os.path.join(self.root, name) for name in sorted(names)]

    def discard(self, query_id):
        """Delete every snapshot of ``query_id``; returns the count."""
        removed = 0
        for path in self.snapshots(query_id):
            try:
                os.unlink(path)
                removed += 1
            except OSError:
                pass
        return removed

    def _listing(self):
        try:
            return os.listdir(self.root)
        except OSError:
            return []

    def _next_sequence(self, query_id):
        paths = self.snapshots(query_id)
        if not paths:
            return 1
        last = _SNAPSHOT_RE.match(os.path.basename(paths[-1]))
        return int(last.group("seq")) + 1

    def _gc(self, query_id):
        """Drop superseded snapshots past the retention window."""
        paths = self.snapshots(query_id)
        for path in paths[:-self.keep] if self.keep else paths:
            try:
                os.unlink(path)
            except OSError:
                pass

    @staticmethod
    def _check_query_id(query_id):
        if not _QUERY_ID_RE.match(query_id or ""):
            raise ExecutionError(
                "query_id must match [A-Za-z0-9_.-]+, got %r"
                % (query_id,))

    def __repr__(self):
        return "CheckpointStore(%r, keep=%d, %d quer%s)" % (
            self.root, self.keep, len(self.query_ids()),
            "y" if len(self.query_ids()) == 1 else "ies",
        )


def rehydrate(payload, executor):
    """Rebuild a :class:`SuspendedQuery` from a snapshot payload.

    ``executor`` is any :class:`~repro.executor.executor.Executor` over
    the catalog the snapshot was taken against: the query is
    re-optimized (deterministic for an unchanged catalog, and operator
    names are a function of the plan, so the rebuilt tree lines up with
    the checkpointed state) and packaged with the deserialized
    checkpoint.  The actual state restore happens inside
    ``executor.resume``; a structural mismatch there raises
    :class:`~repro.common.errors.CheckpointError`, which callers treat
    as "snapshot unusable -- restart from scratch".  The suspension
    carries no budget: it resumes unlimited unless given one.
    """
    query = payload["query"]
    result = executor.optimizer.optimize(query)
    checkpoint = payload.get("checkpoint")
    if checkpoint is not None and not isinstance(checkpoint, Checkpoint):
        raise CheckpointCorruptionError(
            "snapshot payload carries a %r where a Checkpoint was "
            "expected" % (type(checkpoint).__name__,), kind="payload")
    return SuspendedQuery(
        query, result, checkpoint,
        reason=payload.get("reason") or "recovered from durable snapshot",
        policy=payload.get("policy"),
        pre_open=bool(payload.get("pre_open")),
    )
