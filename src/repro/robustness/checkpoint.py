"""Checkpointing of in-flight operator state, and suspended queries.

A pipelined rank-join accumulates real work toward the top-k answer:
hash tables of consumed prefixes, a ranked candidate queue, and a
threshold.  PR 1's recovery layer discarded all of it -- a fault or a
depth-overrun fallback reran the query from scratch.  This module
preserves it instead:

* every operator serializes its execution state via
  :meth:`~repro.operators.base.Operator.state_dict` (see the
  per-operator contract in ``docs/robustness.md``);
* a :class:`CheckpointManager` snapshots the whole tree on a cadence
  set by :class:`CheckpointPolicy` -- every N delivered rows and/or
  when the :class:`~repro.robustness.budget.ExecutionGuard` reports
  budget pressure -- and restores the latest snapshot into the same
  tree (in-place resume) or a freshly built plan (crash / suspend
  resume);
* a :class:`SuspendedQuery` packages a checkpoint with everything
  needed to continue later -- the handle
  :meth:`~repro.executor.database.Database.resume` accepts.

The round-trip contract is exact: after a restore, the remaining
output stream is identical to an uninterrupted run's.
"""

from repro.common.errors import CheckpointError, ExecutionError
from repro.observability.events import NULL_EVENTS
from repro.observability.metrics import NULL_METRICS


class CheckpointPolicy:
    """When to checkpoint, and what recovery may use checkpoints for.

    Parameters
    ----------
    every_rows:
        Take a checkpoint each time this many new rows were delivered
        since the last one (``None`` disables the cadence trigger).
    pressure_threshold:
        Take a checkpoint when the execution guard's budget
        :meth:`~repro.robustness.budget.ExecutionGuard.pressure`
        crosses this fraction (``None`` disables; re-arms only after
        pressure drops back below the threshold, so a run hovering
        near its budget does not checkpoint every row).
    max_resumes:
        Checkpoint restores allowed per execution before a transient
        fault is re-raised (guards against a fault that never clears).
    suspend_on_budget:
        Turn a :class:`~repro.common.errors.BudgetExceededError` into a
        :class:`SuspendedQuery` on the report instead of raising.
    migrate_on_fallback:
        On a depth-overrun fallback decision, keep draining the live
        rank-join tree (its already-joined state migrates forward, so
        consumed tuples are never reread) instead of rebuilding the
        blocking sort plan from scratch.
    """

    def __init__(self, every_rows=None, pressure_threshold=0.85,
                 max_resumes=3, suspend_on_budget=True,
                 migrate_on_fallback=True):
        if every_rows is not None and every_rows < 1:
            raise ExecutionError("every_rows must be >= 1")
        if pressure_threshold is not None and not (
                0.0 < pressure_threshold <= 1.0):
            raise ExecutionError("pressure_threshold must be in (0, 1]")
        if max_resumes < 0:
            raise ExecutionError("max_resumes must be >= 0")
        self.every_rows = every_rows
        self.pressure_threshold = pressure_threshold
        self.max_resumes = max_resumes
        self.suspend_on_budget = suspend_on_budget
        self.migrate_on_fallback = migrate_on_fallback

    def __repr__(self):
        return ("CheckpointPolicy(every_rows=%r, pressure=%r, "
                "max_resumes=%d)"
                % (self.every_rows, self.pressure_threshold,
                   self.max_resumes))


class Checkpoint:
    """One frozen snapshot of a running query.

    Attributes
    ----------
    state:
        The operator tree's ``state_dict()`` (caller-owned copy).
    rows:
        Rows already delivered to the client at snapshot time; a
        resumed execution re-emits exactly the rows after these.
    sequence:
        1-based index of this checkpoint within its manager.
    reason:
        What triggered it: ``cadence`` / ``pressure`` / ``suspend`` /
        ``explicit``.
    total_pulled:
        The guard's cumulative pull count at snapshot time (``0``
        without a guard) -- the work the checkpoint preserves.
    """

    __slots__ = ("state", "rows", "sequence", "reason", "total_pulled")

    def __init__(self, state, rows, sequence, reason, total_pulled=0):
        self.state = state
        self.rows = list(rows)
        self.sequence = sequence
        self.reason = reason
        self.total_pulled = total_pulled

    @property
    def rows_delivered(self):
        return len(self.rows)

    def __repr__(self):
        return "Checkpoint(#%d, %s, %d rows)" % (
            self.sequence, self.reason, len(self.rows),
        )


class CheckpointManager:
    """Takes and restores checkpoints of one operator tree.

    Parameters
    ----------
    root:
        The operator tree to snapshot.
    policy:
        A :class:`CheckpointPolicy` (defaults apply when ``None``).
    guard:
        Optional :class:`~repro.robustness.budget.ExecutionGuard`
        supplying the budget-pressure signal and pull counters.
    events:
        Optional :class:`~repro.observability.events.EventLog`;
        ``checkpoint`` / ``checkpoint_restore`` events are emitted.
    metrics:
        Optional :class:`~repro.observability.metrics.MetricsRegistry`
        receiving ``robustness_checkpoints_total`` /
        ``robustness_resumes_total``.
    persist:
        Optional callable receiving every taken :class:`Checkpoint` --
        the durability hook: the
        :class:`~repro.executor.executor.Executor` wires a
        :class:`~repro.robustness.durability.CheckpointStore` write
        here so cadence/pressure/suspend checkpoints become crash-safe
        the moment they are taken.
    """

    def __init__(self, root, policy=None, guard=None, events=None,
                 metrics=None, persist=None):
        self.root = root
        self.policy = policy or CheckpointPolicy()
        self.guard = guard
        self.events = NULL_EVENTS if events is None else events
        self.metrics = NULL_METRICS if metrics is None else metrics
        self.persist = persist
        self.latest = None
        self.checkpoints_taken = 0
        self.resumes = 0
        self._pressure_armed = True

    # ------------------------------------------------------------------
    # Taking checkpoints
    # ------------------------------------------------------------------
    def maybe_checkpoint(self, rows):
        """Checkpoint if the policy's cadence or pressure trigger fires.

        ``rows`` is the full list of rows delivered so far; returns the
        new :class:`Checkpoint` or ``None``.
        """
        policy = self.policy
        delivered = len(rows)
        since = delivered - (self.latest.rows_delivered
                             if self.latest is not None else 0)
        if (policy.every_rows is not None
                and since >= policy.every_rows):
            return self.checkpoint(rows, reason="cadence")
        if policy.pressure_threshold is not None and self.guard is not None:
            pressure = self.guard.pressure()
            if pressure < policy.pressure_threshold:
                self._pressure_armed = True
            elif self._pressure_armed and since > 0:
                self._pressure_armed = False
                return self.checkpoint(rows, reason="pressure")
        return None

    def checkpoint(self, rows, reason="explicit"):
        """Snapshot the tree and delivered ``rows`` now."""
        self.checkpoints_taken += 1
        pulled = self.guard.total_pulled if self.guard is not None else 0
        self.latest = Checkpoint(
            self.root.state_dict(), rows, self.checkpoints_taken, reason,
            total_pulled=pulled,
        )
        self.metrics.counter("robustness_checkpoints_total").inc(
            reason=reason)
        if self.persist is not None:
            self.persist(self.latest)
        self.events.emit(
            "checkpoint", sequence=self.latest.sequence, reason=reason,
            rows_delivered=len(rows), total_pulled=pulled,
        )
        return self.latest

    # ------------------------------------------------------------------
    # Restoring
    # ------------------------------------------------------------------
    def can_resume(self):
        """True when a checkpoint exists and the resume budget allows."""
        return (self.latest is not None
                and self.resumes < self.policy.max_resumes)

    def restore(self, root=None, kind=None):
        """Restore the latest checkpoint; returns the delivered rows.

        With ``root`` the snapshot is loaded into that (freshly built)
        tree, which also becomes the manager's subject for subsequent
        checkpoints; without it the original tree is rewound in place.
        ``kind`` labels the restore for metrics (defaults to
        ``in_place`` / ``fresh_plan`` accordingly).  The returned list
        is the rows delivered up to the checkpoint -- the caller's row
        buffer must be reset to it, since anything delivered after the
        snapshot will be re-emitted.
        """
        if self.latest is None:
            raise CheckpointError("no checkpoint to restore")
        if kind is None:
            kind = "in_place" if root is None else "fresh_plan"
        target = root if root is not None else self.root
        target.load_state_dict(self.latest.state)
        if root is not None:
            self.root = root
        self.resumes += 1
        self.metrics.counter("robustness_resumes_total").inc(kind=kind)
        self.events.emit(
            "checkpoint_restore", sequence=self.latest.sequence,
            resume_kind=kind, rows_delivered=self.latest.rows_delivered,
        )
        return list(self.latest.rows)

    def adopt(self, checkpoint):
        """Seed this manager with an existing checkpoint (resume path)."""
        self.latest = checkpoint
        return self

    def __repr__(self):
        return "CheckpointManager(taken=%d, resumes=%d, latest=%r)" % (
            self.checkpoints_taken, self.resumes, self.latest,
        )


class SuspendedQuery:
    """A query paused at a budget breach, resumable later.

    Produced by a guarded execution whose
    :class:`CheckpointPolicy.suspend_on_budget` is on: instead of
    raising :class:`~repro.common.errors.BudgetExceededError`, the
    executor checkpoints the tree and attaches one of these to the
    report (``report.suspension``).  Hand it to
    :meth:`~repro.executor.database.Database.resume` (or
    :meth:`Executor.resume <repro.executor.executor.Executor.resume>`)
    with a fresh budget to continue exactly where the query stopped.
    Any executor over the same catalog can resume it: operator names
    are a function of the plan, so the rebuilt tree matches the
    checkpoint.

    Attributes
    ----------
    query / result:
        The original :class:`~repro.optimizer.query.RankQuery` and its
        :class:`OptimizationResult` (the plan is rebuilt from the
        latter).
    checkpoint:
        The :class:`Checkpoint` taken at the breach, or ``None`` for a
        *pre-open* suspension (see ``pre_open``).
    reason:
        The budget-breach message.
    policy:
        The :class:`CheckpointPolicy` in force when suspending (reused
        on resume unless overridden).
    budget / recovery_policy:
        The :class:`~repro.robustness.budget.ResourceBudget` and
        :class:`~repro.robustness.recovery.RecoveryPolicy` the query
        was suspended under, likewise reused on resume unless
        overridden (``None`` -- a suspension rehydrated from disk --
        resumes unlimited under the default policy).
    pre_open:
        True when the budget tripped *inside* ``open()`` -- before the
        tree produced anything.  Some operators perform one atomic step
        on open (NRJN materialises its whole inner), so there is no
        consistent mid-open state to snapshot; the failed open unwinds
        cleanly and a resume simply restarts the query under the new
        budget.  No delivered row is lost (there were none), but no
        work carries over either -- schedulers should grant a larger
        instalment on resume so the atomic step eventually clears.
    """

    __slots__ = ("query", "result", "checkpoint", "reason", "policy",
                 "pre_open", "budget", "recovery_policy")

    def __init__(self, query, result, checkpoint, reason, policy=None,
                 pre_open=False, budget=None, recovery_policy=None):
        self.query = query
        self.result = result
        self.checkpoint = checkpoint
        self.reason = reason
        self.policy = policy
        self.pre_open = pre_open
        self.budget = budget
        self.recovery_policy = recovery_policy

    @property
    def rows_delivered(self):
        """Rows the client already received before the suspension."""
        if self.checkpoint is None:
            return 0
        return self.checkpoint.rows_delivered

    def __repr__(self):
        if self.pre_open:
            return "SuspendedQuery(pre-open, %s)" % (self.reason,)
        return "SuspendedQuery(%d rows delivered, %s)" % (
            self.rows_delivered, self.reason,
        )
