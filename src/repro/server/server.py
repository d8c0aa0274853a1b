"""The asyncio query server tying admission to instalment scheduling.

:class:`Server` is the front door for concurrent serving::

    async with Server(db) as server:
        session = await server.submit(SQL, tenant="alice", k=10)
        async for batch in session.batches():
            render(batch)

Submission plans the query through the database's plan cache, admits
it through cost-based :mod:`~repro.server.admission` (interactive /
batch classing, load shedding, :class:`OverloadError` past the
high-water mark), and hands it to the
:class:`~repro.server.scheduler.InstalmentScheduler`, which time-slices
the engine across every admitted query via checkpoint-based
preemption.  The returned :class:`~repro.server.session.QuerySession`
streams result batches in rank order as they are produced.
"""

import itertools
import os
import time

from repro.common.errors import ExecutionError, ReproError
from repro.observability.events import NULL_EVENTS
from repro.server.admission import (
    AdmissionController,
    AdmissionDecision,
    AdmissionPolicy,
)
from repro.server.journal import AdmissionJournal
from repro.server.scheduler import InstalmentScheduler, SchedulerConfig
from repro.server.session import QuerySession
from repro.sql.unparse import to_sql


class Server:
    """Concurrent query server over one :class:`Database`.

    Parameters
    ----------
    database:
        The :class:`~repro.executor.database.Database` to serve.
    admission:
        An :class:`~repro.server.admission.AdmissionPolicy` (defaults
        apply when ``None``).
    scheduler:
        A :class:`~repro.server.scheduler.SchedulerConfig` (defaults
        apply when ``None``).
    events:
        Optional :class:`~repro.observability.events.EventLog`
        collecting serving lifecycle events (``admit`` / ``preempt`` /
        ``shed`` / ...).
    clock:
        Monotonic-time source shared with the scheduler (overridable
        for deterministic tests).
    state_dir:
        Optional directory for durable query state.  When set, every
        admission is journalled (``journal.jsonl``), instalment
        suspensions and checkpoints are persisted as validated
        snapshots (``*.ckpt``), and :meth:`recover` can re-admit the
        unfinished queries of a previous (crashed or drained) process
        and continue them byte-identically from their last durable
        checkpoint.

    Serving metrics land in the database's persistent ``metrics``
    registry (``server_*`` -- see ``docs/observability.md``).  Use the
    instance as an async context manager, or call :meth:`start` and
    :meth:`drain` explicitly.
    """

    def __init__(self, database, admission=None, scheduler=None,
                 events=None, clock=time.monotonic, state_dir=None):
        if admission is not None and not isinstance(admission,
                                                    AdmissionPolicy):
            raise TypeError("admission must be an AdmissionPolicy")
        if scheduler is not None and not isinstance(scheduler,
                                                    SchedulerConfig):
            raise TypeError("scheduler must be a SchedulerConfig")
        self.database = database
        self.events = NULL_EVENTS if events is None else events
        self.admission = AdmissionController(database, admission,
                                             events=self.events)
        self.state_dir = (os.fspath(state_dir)
                          if state_dir is not None else None)
        self.store = None
        self.journal = None
        if self.state_dir is not None:
            from repro.robustness.durability import CheckpointStore

            self.store = CheckpointStore(
                self.state_dir, metrics=database.metrics, events=self.events)
            self.journal = AdmissionJournal(
                os.path.join(self.state_dir, "journal.jsonl"))
        self.scheduler = InstalmentScheduler(
            database, scheduler, events=self.events, clock=clock,
            store=self.store, journal=self.journal)
        self._started = False
        self._query_seq = itertools.count(1)
        self._instance = os.urandom(4).hex()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self):
        """Start serving (requires a running event loop); returns self."""
        self.scheduler.start()
        self._started = True
        return self

    async def drain(self):
        """Graceful shutdown: finish the current instalment, suspend
        the rest to resumable checkpoints, and stop the worker."""
        await self.scheduler.drain()
        self._started = False

    async def __aenter__(self):
        return self.start()

    async def __aexit__(self, exc_type, exc, tb):
        await self.drain()

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def register_tenant(self, name, weight=1.0, cap=None):
        """Declare a tenant's fair-share ``weight`` (default 1.0) and
        optional aggregate :class:`ResourceBudget` cap."""
        return self.scheduler.register_tenant(name, weight=weight,
                                              cap=cap)

    async def submit(self, query, tenant="default", deadline=None,
                     k=None, faults=None):
        """Admit ``query`` (SQL text or a :class:`RankQuery`).

        Returns a :class:`~repro.server.session.QuerySession`
        streaming result batches, or raises
        :class:`~repro.common.errors.OverloadError` when the queue is
        past the admission high-water mark.

        ``deadline`` (seconds from submission) is enforced mid-flight:
        the query is suspended at the deadline and cancelled with the
        partial results it already streamed.  ``k`` rebinds the result
        count for ranking queries.  ``faults`` injects a
        :class:`~repro.robustness.faults.FaultPlan` into the query's
        *first* execution attempt (chaos-testing hook; the scheduler's
        retry/backoff loop absorbs the resulting transient failures).
        """
        if not self._started:
            raise ExecutionError("server is not started")
        query = self.database._statement(query, "submit")[0]
        if k is not None and query.is_ranking and k != query.k:
            query = AdmissionController._with_k(query, k)
        if deadline is not None and deadline <= 0:
            raise ExecutionError("deadline must be > 0 seconds")
        tenant_budget = self.scheduler.tenant(tenant)
        if tenant_budget.over_cap():
            from repro.common.errors import OverloadError

            self.database.metrics.counter("server_queries_total").inc(
                tenant=tenant, queue_class="none", outcome="rejected")
            raise OverloadError(
                "tenant %r exhausted its aggregate resource cap"
                % (tenant,),
                tenant=tenant,
            )
        decision = self.admission.admit(query, tenant,
                                        self.scheduler.depth())
        session = QuerySession(decision.query, tenant,
                               decision.queue_class, deadline=deadline)
        query_id = None
        if self.journal is not None:
            query_id = self._next_query_id()
            # Journal the query that will actually run (post-shedding),
            # so a recovery restart replays the admitted work, not the
            # pre-degradation submission.
            self.journal.record_submitted(
                query_id, to_sql(decision.query), tenant,
                decision.queue_class, shed_action=decision.shed_action,
            )
        session.query_id = query_id
        self.scheduler.submit(session, decision, faults=faults,
                              deadline=deadline, query_id=query_id)
        return session

    def _next_query_id(self):
        """A server-unique snapshot/journal key for one submission."""
        return "s%s.%d" % (self._instance, next(self._query_seq))

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------
    async def recover(self):
        """Re-admit the unfinished queries of a previous process.

        Replays the admission journal under ``state_dir``, diffs
        submissions against terminal transitions, and resubmits every
        pending query as a resumable session: queries with a valid
        durable snapshot continue byte-identically from it (no
        consumed tuple is reread); queries whose snapshot is missing,
        corrupt (checksum or format-version mismatch), or structurally
        stale restart from their journalled SQL -- recorded as the
        ``"restarted"`` recovery path -- and nothing short of an
        unparseable journal entry is dropped.  Recovery bypasses
        admission control (the recorded queue class is reused), so a
        loaded queue can neither re-shed nor reject work the previous
        process had already accepted.

        Returns the list of recovered
        :class:`~repro.server.session.QuerySession` handles, in
        original submission order.  Call after :meth:`start`.
        """
        if self.journal is None:
            return []
        if not self._started:
            raise ExecutionError("server is not started")
        pending = self.journal.replay()
        self.journal.reset()
        sessions = []
        for query_id, record in pending.items():
            session = self._recover_one(query_id, record)
            if session is not None:
                sessions.append(session)
        return sessions

    def _recover_one(self, query_id, record):
        from repro.common.errors import CheckpointCorruptionError
        from repro.robustness.durability import rehydrate

        db = self.database
        suspension = None
        try:
            payload = self.store.load_latest(query_id)
        except CheckpointCorruptionError:
            payload = None  # counted + deleted by the store already
        if payload is not None:
            try:
                suspension = rehydrate(
                    payload, db._executor_for(payload["query"]))
            except ReproError:
                suspension = None
        try:
            if suspension is not None:
                query = suspension.query
                result = suspension.result
            else:
                sql = record.get("sql")
                if not sql:
                    raise ExecutionError("journal entry carries no SQL")
                query, fingerprint = db._statement(sql, "recover")
                executor = db._executor_for(query)
                result = db._cached_optimization(executor, query,
                                                 fingerprint)
        except ReproError as error:
            self.events.emit(
                "recover_failed", query_id=query_id, error=str(error))
            if self.store is not None:
                self.store.discard(query_id)
            return None
        queue_class = record.get("queue_class") or "batch"
        k = float(query.k) if query.is_ranking else 1.0
        decision = AdmissionDecision(query, result, queue_class,
                                     result.best_plan.cost(k))
        tenant = record.get("tenant") or "default"
        session = QuerySession(query, tenant, queue_class)
        session.query_id = query_id
        self.journal.record_submitted(
            query_id, to_sql(query), tenant, queue_class,
            shed_action=record.get("shed_action"),
        )
        job = self.scheduler.submit(session, decision,
                                    query_id=query_id,
                                    resume_from=suspension)
        outcome = "resumed" if suspension is not None else "restarted"
        if suspension is None:
            job.restarted = True
            if self.store is not None:
                self.store.discard(query_id)
        self.store.metrics.counter("durability_recoveries_total").inc(
            outcome=outcome)
        self.events.emit(
            "recover", query_id=query_id, tenant=tenant,
            outcome=outcome,
            rows_streamed=record.get("rows_streamed", 0),
        )
        return session

    # ------------------------------------------------------------------
    def stats(self):
        """A point-in-time summary for dashboards and tests."""
        return {
            "depth": self.scheduler.depth(),
            "tenants": {
                name: {"weight": budget.weight, "pulls": budget.pulls,
                       "queries": budget.queries}
                for name, budget in sorted(
                    self.scheduler.tenants.items())
            },
            "plan_cache": self.database.plan_cache.stats(),
        }

    def __repr__(self):
        return "Server(%r, depth=%d)" % (
            self.database, self.scheduler.depth(),
        )
