"""Cooperative preemptive scheduling of admitted queries.

The engine's operators are synchronous, so preemption is cooperative:
the scheduler grants each query one *budget instalment* at a time -- a
:class:`~repro.robustness.budget.ResourceBudget` of pulls (and the
remaining slice of the query's deadline) -- and runs it in a worker
thread.  When the instalment expires, PR 3's checkpoint machinery
suspends the query into a resumable
:class:`~repro.robustness.checkpoint.SuspendedQuery`; the scheduler
then re-picks: ``interactive``-class work strictly before ``batch``,
and within a class the tenant with the least *weighted virtual time*
(consumed pulls over tenant weight -- weighted fair queueing, so no
tenant starves behind a heavier one).  Exactly one instalment executes
at any moment, which keeps the single-threaded engine consistent while
admission planning proceeds concurrently on the event loop.

The same instalment boundary carries the robustness surface: deadlines
are enforced both mid-flight (the instalment budget carries the
remaining deadline slice, so a breach suspends the tree consistently)
and at re-pick (an expired query is cancelled with the partial results
it already streamed); transient faults are retried with exponential
backoff; and a drain shutdown stops granting instalments, leaving
every unfinished query suspended at a resumable checkpoint.
"""

import asyncio
import time

from repro.common.errors import ExecutionError, TransientFaultError
from repro.observability.events import NULL_EVENTS
from repro.robustness.budget import ResourceBudget, TenantBudget
from repro.robustness.checkpoint import CheckpointPolicy
from repro.robustness.recovery import (
    RecoveryEvent,
    RecoveryPolicy,
    restart_event,
)
from repro.server.admission import INTERACTIVE
from repro.server.session import (
    CANCELLED,
    COMPLETED,
    DRAINED,
    FAILED,
    RUNNING,
    SUSPENDED,
)


class SchedulerConfig:
    """Tunables for instalment scheduling.

    Parameters
    ----------
    instalment_pulls:
        Pull budget per instalment.  Smaller values preempt more often
        (better interactive latency, more checkpoint overhead).
    escalation_factor:
        Multiplier applied to the next instalment after a *pre-open*
        suspension: an operator with an atomic open (NRJN inner
        materialisation) makes no progress within a too-small
        instalment, so the grant grows geometrically until the open
        clears instead of livelocking.
    max_retries:
        Transient-failure retries per query before it fails.
    retry_backoff:
        Base seconds for exponential retry backoff (doubles each
        retry).
    checkpoint:
        The :class:`~repro.robustness.checkpoint.CheckpointPolicy`
        applied to every instalment (defaults to suspend-on-budget
        with pressure-triggered checkpoints).
    """

    def __init__(self, instalment_pulls=2000, escalation_factor=4.0,
                 max_retries=2, retry_backoff=0.01, checkpoint=None):
        if instalment_pulls < 1:
            raise ExecutionError("instalment_pulls must be >= 1")
        if escalation_factor < 1.0:
            raise ExecutionError("escalation_factor must be >= 1.0")
        self.instalment_pulls = instalment_pulls
        self.escalation_factor = escalation_factor
        self.max_retries = max_retries
        self.retry_backoff = retry_backoff
        self.checkpoint = checkpoint or CheckpointPolicy()

    def __repr__(self):
        return ("SchedulerConfig(instalment=%d pulls, retries=%d)"
                % (self.instalment_pulls, self.max_retries))


class _Job:
    """Scheduler-internal state for one admitted query."""

    __slots__ = ("session", "decision", "faults", "sequence",
                 "deadline_at", "submitted_at", "suspension",
                 "rows_streamed", "pre_open_restarts", "attempts",
                 "retries", "last_report", "first_run_at", "query_id",
                 "durable_resume", "restarted")

    def __init__(self, session, decision, faults, sequence,
                 deadline_at, submitted_at, query_id=None):
        self.session = session
        self.decision = decision
        self.faults = faults
        self.sequence = sequence
        self.deadline_at = deadline_at
        self.submitted_at = submitted_at
        self.suspension = None
        self.rows_streamed = 0
        self.pre_open_restarts = 0
        self.attempts = 0
        self.retries = 0
        self.last_report = None
        self.first_run_at = None
        self.query_id = query_id
        #: True while the pending resume restores a *durable* snapshot
        #: (recovered from disk) -- a structural mismatch then restarts
        #: the query instead of failing it.
        self.durable_resume = False
        self.restarted = False

    @property
    def tenant(self):
        return self.session.tenant

    @property
    def queue_class(self):
        return self.session.queue_class


class InstalmentScheduler:
    """Runs admitted queries one budget instalment at a time.

    Parameters
    ----------
    database:
        The :class:`~repro.executor.database.Database` executed
        against: every instalment runs on its executor for the query
        (``Database._executor_for``) under the default
        :class:`~repro.robustness.recovery.RecoveryPolicy`.
    config:
        A :class:`SchedulerConfig` (defaults apply when ``None``).
    events:
        Optional :class:`~repro.observability.events.EventLog`
        receiving lifecycle events (``instalment`` / ``preempt`` /
        ``complete`` / ...).  Serving metrics land in
        ``database.metrics``.
    clock:
        Monotonic-time source, overridable for deterministic tests.
    store:
        Optional :class:`~repro.robustness.durability.CheckpointStore`.
        When wired, every checkpoint taken inside an instalment is
        persisted -- including the ``suspend`` checkpoint that ends
        an instalment, so a crash between instalments recovers from
        exactly there: the server-level crash-recovery substrate.
    journal:
        Optional :class:`~repro.server.journal.AdmissionJournal`
        receiving suspension and terminal transitions (the server
        records submissions itself, where the SQL text is known).
    """

    def __init__(self, database, config=None, events=None,
                 clock=time.monotonic, store=None, journal=None):
        self.database = database
        self.config = config or SchedulerConfig()
        self.metrics = database.metrics
        self.events = NULL_EVENTS if events is None else events
        self.clock = clock
        self.store = store
        self.journal = journal
        self.tenants = {}
        self._ready = []
        self._current = None
        self._sequence = 0
        self._wake = None
        self._worker = None
        self._draining = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self):
        """Start the worker loop (requires a running event loop)."""
        if self._worker is not None:
            raise ExecutionError("scheduler already started")
        self._draining = False
        self._wake = asyncio.Event()
        self._worker = asyncio.get_running_loop().create_task(
            self._run())
        return self

    async def drain(self):
        """Stop granting instalments; suspend what remains.

        The currently running instalment finishes (its budget bounds
        how long that takes) and every unfinished job's session ends
        ``drained`` -- carrying a resumable
        :class:`~repro.robustness.checkpoint.SuspendedQuery` when the
        query had started executing.
        """
        if self._worker is None:
            return
        self._draining = True
        self._wake.set()
        await self._worker
        self._worker = None
        leftovers, self._ready = self._ready, []
        for job in leftovers:
            self._finish(job, DRAINED, report=job.last_report,
                         suspension=job.suspension, outcome="drained")
            self.events.emit(
                "drain", tenant=job.tenant,
                resumable=job.suspension is not None,
                rows_streamed=job.rows_streamed,
            )
        self._publish_depth()

    # ------------------------------------------------------------------
    # Submission (event-loop thread)
    # ------------------------------------------------------------------
    def register_tenant(self, name, weight=1.0, cap=None):
        """Declare a tenant's fair-share weight and optional cap."""
        budget = TenantBudget(name, weight=weight, cap=cap)
        self.tenants[name] = budget
        return budget

    def tenant(self, name):
        """The tenant's :class:`TenantBudget`, created at weight 1."""
        budget = self.tenants.get(name)
        if budget is None:
            budget = self.register_tenant(name)
        return budget

    def depth(self):
        """Queued plus running queries (the admission signal)."""
        return len(self._ready) + (1 if self._current is not None else 0)

    def submit(self, session, decision, faults=None, deadline=None,
               query_id=None, resume_from=None):
        """Enqueue an admitted query; returns its job handle.

        ``query_id`` keys the job's durable snapshots when a store is
        wired.  ``resume_from`` seeds the job with a rehydrated
        :class:`~repro.robustness.checkpoint.SuspendedQuery` (the
        server-recovery path): its first instalment resumes from the
        durable checkpoint, and a structural mismatch there restarts
        the query from scratch instead of failing it.
        """
        if self._worker is None:
            raise ExecutionError("scheduler is not running")
        if self._draining:
            raise ExecutionError("scheduler is draining")
        now = self.clock()
        self._sequence += 1
        job = _Job(
            session, decision, faults, self._sequence,
            deadline_at=(now + deadline if deadline is not None else None),
            submitted_at=now, query_id=query_id,
        )
        if resume_from is not None:
            job.suspension = resume_from
            job.durable_resume = True
        self.tenant(job.tenant).queries += 1
        self._ready.append(job)
        self._publish_depth()
        self._wake.set()
        return job

    # ------------------------------------------------------------------
    # Worker loop
    # ------------------------------------------------------------------
    async def _run(self):
        while True:
            job = self._pick()
            if job is None:
                if self._draining:
                    return
                self._wake.clear()
                await self._wake.wait()
                continue
            await self._run_instalment(job)

    def _pick(self):
        """Pop the next job: interactive first, then weighted-fair.

        Within a queue class the job whose tenant has the least
        *weighted virtual time* runs next, FIFO breaking ties -- a
        tenant that has consumed nothing always beats one mid-burn, so
        cheap tenants are never starved by an expensive one.
        """
        if self._draining or not self._ready:
            return None
        best = min(self._ready, key=lambda job: (
            0 if job.queue_class == INTERACTIVE else 1,
            self.tenant(job.tenant).virtual_time,
            job.sequence,
        ))
        self._ready.remove(best)
        return best

    def _instalment_budget(self, job, remaining):
        pulls = int(self.config.instalment_pulls
                    * self.config.escalation_factor
                    ** job.pre_open_restarts)
        return ResourceBudget(max_pulls=pulls,
                              deadline_seconds=remaining)

    async def _run_instalment(self, job):
        session = job.session
        now = self.clock()
        if session.cancel_requested:
            self._cancel(job, "cancelled by client")
            return
        remaining = None
        if job.deadline_at is not None:
            remaining = job.deadline_at - now
            if remaining <= 0:
                self._cancel(job, "deadline expired in queue"
                             if job.last_report is None
                             else "deadline expired")
                return
        if job.first_run_at is None:
            job.first_run_at = now
            wait = now - job.submitted_at
            session.stats["wait_seconds"] = wait
            self.metrics.histogram("server_wait_seconds").observe(
                wait, queue_class=job.queue_class)
        session.state = RUNNING
        self._current = job
        budget = self._instalment_budget(job, remaining)
        job.attempts += 1
        session.stats["instalments"] += 1
        self.metrics.counter("server_instalments_total").inc(
            tenant=job.tenant)
        self.events.emit(
            "instalment", tenant=job.tenant, max_pulls=budget.max_pulls,
            resumed=job.suspension is not None,
        )
        started = self.clock()
        try:
            report = await asyncio.get_running_loop().run_in_executor(
                None, self._execute_instalment, job, budget)
        except TransientFaultError as fault:
            self._current = None
            await self._retry(job, fault)
            return
        except Exception as error:  # noqa: BLE001 - job isolation
            self._current = None
            self._fail(job, error)
            return
        self._current = None
        self.tenant(job.tenant).charge(
            report.recovery.stats.get("pulled_total", 0),
            self.clock() - started,
        )
        job.last_report = report
        session._push(report.rows[job.rows_streamed:])
        job.rows_streamed = len(report.rows)
        if report.suspended:
            self._suspend(job, report)
        else:
            self._complete(job, report)

    def _execute_instalment(self, job, budget):
        """One instalment, in a worker thread (engine code only).

        A durable resume whose checkpointed state no longer fits the
        freshly optimized plan (catalog drift across the restart, or a
        snapshot surviving only partially) degrades to a from-scratch
        rerun in the same instalment -- the ``"restarted"`` recovery
        path -- rather than failing the recovered query.
        """
        db = self.database
        checkpoint = self.config.checkpoint
        suspension = job.suspension

        def from_scratch(query=job.decision.query):
            job.suspension = None
            return db._executor_for(query).run(
                query, result=job.decision.result, budget=budget,
                policy=RecoveryPolicy(), checkpoint=checkpoint,
                faults=(job.faults if job.attempts == 1 else None),
                store=self.store, query_id=job.query_id,
            )

        if suspension is None:
            return from_scratch()
        if not job.durable_resume:
            return db._executor_for(suspension.query).resume(
                suspension, budget=budget, checkpoint=checkpoint,
                store=self.store, query_id=job.query_id,
            )
        report, restarted = db._resume_or_restart(
            lambda: suspension, from_scratch, self.store, job.query_id,
            budget=budget, checkpoint=checkpoint,
        )
        job.durable_resume = False
        job.restarted = job.restarted or restarted
        return report

    # ------------------------------------------------------------------
    # Transitions
    # ------------------------------------------------------------------
    def _suspend(self, job, report):
        suspension = report.suspension
        # An instalment's budget is a time slice, not the query's own:
        # a drained handle resumed outside the server runs unlimited.
        suspension.budget = None
        job.suspension = suspension
        if suspension.pre_open:
            job.pre_open_restarts += 1
        if self.journal is not None and job.query_id is not None:
            # The instalment's persist hook already made the suspension
            # durable; the journal records where the stream stopped.
            self.journal.record_suspended(
                job.query_id, rows_streamed=job.rows_streamed)
        session = job.session
        session.state = SUSPENDED
        preempted = bool(self._ready)
        if preempted:
            session.stats["preemptions"] += 1
            self.metrics.counter("server_preemptions_total").inc(
                tenant=job.tenant)
        self.events.emit(
            "preempt", tenant=job.tenant, preempted=preempted,
            pre_open=suspension.pre_open,
            rows_streamed=job.rows_streamed,
        )
        self._ready.append(job)
        self._publish_depth()

    async def _retry(self, job, fault):
        job.retries += 1
        job.session.stats["retries"] = job.retries
        if job.retries > self.config.max_retries:
            self._fail(job, fault)
            return
        self.metrics.counter("server_retries_total").inc(tenant=job.tenant)
        self.events.emit(
            "retry", tenant=job.tenant, attempt=job.retries,
            error=str(fault),
        )
        backoff = self.config.retry_backoff * 2 ** (job.retries - 1)
        if backoff > 0:
            await asyncio.sleep(backoff)
        self._ready.append(job)
        self._publish_depth()

    def _complete(self, job, report):
        if job.restarted:
            report.recovery.record(restart_event(len(report.rows)))
        if job.decision.shed:
            report.recovery.record(RecoveryEvent(
                "shed", "admission", None, None, len(report.rows),
                ("k reduced %d -> %d under load"
                 % (job.decision.original_k, job.decision.query.k))
                if job.decision.shed_action == "reduced_k"
                else "forced sort-fallback plan under load",
            ))
        self._finish(job, COMPLETED, report=report, outcome="completed")
        self.events.emit(
            "complete", tenant=job.tenant, rows=len(report.rows),
            instalments=job.session.stats["instalments"],
        )

    def _cancel(self, job, detail):
        report = job.last_report
        if report is not None:
            report.recovery.record(RecoveryEvent(
                "deadline_cancel", "scheduler", None, None,
                job.rows_streamed, detail,
            ))
        self._finish(job, CANCELLED, report=report, outcome="cancelled")
        self.events.emit(
            "deadline_cancel", tenant=job.tenant, detail=detail,
            rows_streamed=job.rows_streamed,
        )

    def _fail(self, job, error):
        self._finish(job, FAILED, error=error, outcome="failed")

    def _finish(self, job, state, report=None, error=None,
                suspension=None, outcome=None):
        if job.query_id is not None and state != DRAINED:
            # Drained queries stay pending in the journal (and keep
            # their snapshots): they are precisely what the next
            # process's recover() re-admits.
            if self.journal is not None:
                self.journal.record_terminal(job.query_id,
                                             outcome or state)
            if self.store is not None:
                self.store.discard(job.query_id)
        session = job.session
        latency = self.clock() - job.submitted_at
        session.stats["latency_seconds"] = latency
        if state in (COMPLETED, CANCELLED):
            self.metrics.histogram("server_latency_seconds").observe(
                latency, queue_class=job.queue_class)
        self.metrics.counter("server_queries_total").inc(
            tenant=job.tenant, queue_class=job.queue_class,
            outcome=outcome or state)
        session._finish(state, report=report, error=error,
                        suspension=suspension)
        self._publish_depth()

    def _publish_depth(self):
        by_class = {}
        jobs = list(self._ready)
        if self._current is not None:
            jobs.append(self._current)
        for job in jobs:
            by_class[job.queue_class] = by_class.get(job.queue_class,
                                                     0) + 1
        depth = self.metrics.gauge("server_queue_depth")
        for queue_class in (INTERACTIVE, "batch"):
            depth.set(by_class.get(queue_class, 0), queue_class=queue_class)

    def __repr__(self):
        return "InstalmentScheduler(%d ready, %d tenants)" % (
            len(self._ready), len(self.tenants),
        )
