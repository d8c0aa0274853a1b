"""Plan execution with instrumentation collection.

The :class:`Executor` ties the pipeline together: logical query ->
optimizer -> plan builder -> operator tree -> rows, and snapshots every
operator's counters into an :class:`ExecutionReport` -- the measured
depths and buffer sizes the Section 5 experiments read.
"""

from repro.common.errors import (
    BudgetExceededError,
    DepthOverrunError,
    TransientFaultError,
)
from repro.observability.metrics import NULL_METRICS
from repro.observability.tracer import NULL_TRACER
from repro.operators.topk import Limit
from repro.optimizer.builder import PlanBuilder
from repro.optimizer.enumerator import OptimizationResult, Optimizer
from repro.robustness.budget import ExecutionGuard
from repro.robustness.checkpoint import CheckpointManager, CheckpointPolicy
from repro.robustness.durability import default_query_id
from repro.robustness.faults import inject_faults
from repro.robustness.recovery import (
    RecoveryLog,
    RecoveryPolicy,
    install_depth_limits,
    on_overrun,
    restore_checkpoint,
    resume_from,
    suspend,
)

#: Rows per ``next_batch`` call of an unguarded drain.
DRAIN_BATCH = 256


class OperatorSnapshot:
    """Frozen instrumentation for one operator after a run.

    ``depth`` is the rank-join depth: the deepest prefix consumed from
    any input (``max(pulled)``; 0 for leaves).  The per-input detail
    stays available as ``pulled``.  The ``time_*_ns`` fields carry the
    per-phase inclusive wall-clock collected under tracing (all zero
    for untraced runs).
    """

    __slots__ = ("name", "description", "rows_out", "pulled", "max_buffer",
                 "depth", "plan", "time_open_ns", "time_next_ns",
                 "time_close_ns", "next_calls", "pull_ns")

    def __init__(self, operator):
        self.name = operator.name
        self.description = operator.describe()
        self.rows_out = operator.stats.rows_out
        self.pulled = tuple(operator.stats.pulled)
        self.max_buffer = operator.stats.max_buffer
        self.depth = max(self.pulled, default=0)
        self.plan = operator.plan
        self.time_open_ns = operator.stats.time_open_ns
        self.time_next_ns = operator.stats.time_next_ns
        self.time_close_ns = operator.stats.time_close_ns
        self.next_calls = operator.stats.next_calls
        self.pull_ns = tuple(operator.stats.pull_ns)

    @property
    def total_time_ns(self):
        return self.time_open_ns + self.time_next_ns + self.time_close_ns

    def __repr__(self):
        return "OperatorSnapshot(%s, pulled=%s, buffer=%d)" % (
            self.description, list(self.pulled), self.max_buffer,
        )


class ExecutionReport:
    """Rows plus per-operator instrumentation from one execution.

    ``result`` may be an OptimizationResult or a zero-argument callable
    producing one: forced-plan runs (:meth:`Executor.run_plan`) pass a
    thunk so the optimizer only runs if the report is actually asked
    for estimates.

    ``recovery`` is the :class:`~repro.robustness.recovery.RecoveryLog`
    of a guarded execution (``None`` for unguarded runs): it records
    whether the query ran straight through, continued after mid-query
    re-estimation, or fell back to the blocking sort plan.

    ``telemetry`` is the :class:`~repro.observability.Telemetry` bundle
    of a traced execution (``None`` otherwise): span tree, metrics
    registry and event log for this run.

    ``suspension`` is a
    :class:`~repro.robustness.checkpoint.SuspendedQuery` when a
    guarded, checkpointed execution hit its budget and paused instead
    of raising (``None`` otherwise); ``rows`` then holds the partial
    prefix delivered so far.
    """

    def __init__(self, query, result, rows, operators, recovery=None,
                 telemetry=None, suspension=None):
        self.query = query
        if callable(result):
            self._optimization = None
            self._optimize = result
        else:
            self._optimization = result
            self._optimize = None
        self.rows = rows
        self.operators = operators
        self.recovery = recovery
        self.telemetry = telemetry
        self.suspension = suspension

    @property
    def suspended(self):
        """True when this report carries a resumable suspended query."""
        return self.suspension is not None

    @property
    def optimization(self):
        """The OptimizationResult (computed lazily for forced plans)."""
        if self._optimization is None and self._optimize is not None:
            self._optimization = self._optimize()
            self._optimize = None
        return self._optimization

    @property
    def best_plan(self):
        return self.optimization.best_plan

    def rank_join_snapshots(self):
        """Snapshots of the rank-join operators, outermost first."""
        return [snap for snap in self.operators
                if snap.name.startswith(("HRJN", "NRJN"))]

    @property
    def timed(self):
        """True when any operator carries traced wall-clock timing."""
        return any(snap.total_time_ns for snap in self.operators)

    @staticmethod
    def _time_column(snap):
        return "  time=%.3fms" % (snap.total_time_ns / 1e6,)

    def explain(self):
        timed = self.timed
        lines = [self.optimization.explain(), "", "execution:"]
        for snap in self.operators:
            line = (
                "  %-50s rows_out=%-6d pulled=%-14s buffer=%d"
                % (snap.description, snap.rows_out, list(snap.pulled),
                   snap.max_buffer)
            )
            if timed:
                line += self._time_column(snap)
            lines.append(line)
        if self.recovery is not None:
            lines.append("")
            lines.append(self.recovery.describe())
        return "\n".join(lines)

    def analyze(self):
        """EXPLAIN ANALYZE: estimated vs actual, operator by operator.

        For rank-join operators the comparison is between the
        estimated depths from Algorithm Propagate (at each operator's
        propagated k) and the tuples actually pulled; for other
        operators, between the plan's estimated full cardinality and
        the rows it produced (which a top-k execution intentionally
        truncates -- the report marks those with ``<=``).  Traced runs
        add a per-operator elapsed-time column, and any run whose root
        is a rank-join plan ends with the estimate-accuracy summary
        (see :func:`repro.observability.export.estimate_accuracy`).
        """
        estimates = {
            id(plan): (required, estimate)
            for plan, required, estimate
            in self.optimization.propagate_depths()
        }
        timed = self.timed
        lines = ["explain analyze:"]
        for snap in self.operators:
            plan = snap.plan
            if plan is None:
                line = "  %-46s actual rows=%d" % (snap.description,
                                                   snap.rows_out)
            elif (id(plan) in estimates
                    and estimates[id(plan)][1] is not None):
                required, estimate = estimates[id(plan)]
                line = (
                    "  %-46s k=%d est depth=%.0f (%.0f, %.0f) "
                    "actual depth=%d pulled=%s"
                    % (snap.description, round(required),
                       max(estimate.d_left, estimate.d_right),
                       estimate.d_left, estimate.d_right,
                       snap.depth, list(snap.pulled))
                )
            else:
                line = (
                    "  %-46s est rows<=%.0f actual rows=%d"
                    % (snap.description, plan.cardinality, snap.rows_out)
                )
            if timed:
                line += self._time_column(snap)
            lines.append(line)
        if estimates:
            lines.append("")
            lines.append(self.accuracy_summary())
        return "\n".join(lines)

    def estimate_accuracy(self):
        """Estimated-vs-measured rows per plan-bound operator.

        See :func:`repro.observability.export.estimate_accuracy` for
        the row schema; estimated depths are exactly the
        ``propagate_depths`` output the plan was costed with.
        """
        from repro.observability.export import estimate_accuracy

        return estimate_accuracy(self)

    def accuracy_summary(self):
        """Readable table over :meth:`estimate_accuracy`."""
        from repro.observability.export import format_accuracy

        return format_accuracy(self.estimate_accuracy())

    def __repr__(self):
        return "ExecutionReport(%d rows)" % (len(self.rows),)


def _checkpoint_policy(checkpoint):
    """Normalise a ``checkpoint`` argument to a policy or None."""
    if checkpoint is None or isinstance(checkpoint, CheckpointPolicy):
        return checkpoint
    return CheckpointPolicy(every_rows=int(checkpoint))


def _durable_persist(store, query_id, query, policy):
    """The manager persist hook writing checkpoints to ``store``."""
    if store is None:
        return None
    if query_id is None:
        query_id = default_query_id(query)

    def persist(checkpoint, pre_open=False):
        store.save_checkpoint(query_id, query, checkpoint,
                              policy=policy, pre_open=pre_open)

    return persist


class _Run:
    """One execution's state, shared by the drive loop and recovery.

    ``root`` and ``result`` always name the tree actually running and
    the plan it was built from: a selectivity correction swaps
    ``result`` for the run's own corrected copy, and a fallback swaps
    ``root`` for the sort plan's tree.
    """

    __slots__ = ("executor", "query", "result", "root", "telemetry",
                 "tracer", "guard", "policy", "recovery", "manager",
                 "rows", "reestimates", "migrated")

    def __init__(self, executor, query, root=None, telemetry=None):
        self.executor = executor
        self.query = query
        self.result = None
        self.root = root
        self.telemetry = telemetry
        self.tracer = NULL_TRACER if telemetry is None else telemetry.tracer
        self.guard = self.policy = self.recovery = self.manager = None
        self.rows = []
        self.reestimates = 0
        self.migrated = False


class Executor:
    """Optimize-build-run pipeline over one catalog.

    One pipeline serves every execution: plan -> build -> [inject
    faults] -> instrument -> [guard + Propagate depth limits] ->
    [checkpoint manager + durable persistence] -> one drive loop ->
    [sort-plan fallback through the same loop] -> snapshots -> report
    -> [retire durable snapshots].  Each bracketed stage
    is a no-op unless its :meth:`run` argument is given, so a plain run
    is a guarded run with null policies.

    ``metrics`` optionally names a persistent
    :class:`~repro.observability.metrics.MetricsRegistry` (the serving
    database's registry) fed with the fused columnar counters of
    untraced runs; per-run telemetry stays separate and opt-in.
    The executor holds no per-run state, so one instance serves
    concurrent callers.
    """

    def __init__(self, catalog, cost_model, config=None, metrics=None,
                 shard_pool=None):
        self.catalog = catalog
        self.optimizer = Optimizer(catalog, cost_model, config)
        self.builder = PlanBuilder(catalog, shard_pool=shard_pool)
        self.metrics = NULL_METRICS if metrics is None else metrics

    def run(self, query, budget=None, policy=None, telemetry=None,
            checkpoint=None, faults=None, result=None, store=None,
            query_id=None):
        """Optimize ``query``, execute it, and return the report.

        ``budget`` -- a :class:`~repro.robustness.budget.ResourceBudget`
        enforced by an execution guard: a breach raises
        :class:`~repro.common.errors.BudgetExceededError` carrying the
        partial operator snapshots (or suspends, see ``checkpoint``).

        ``policy`` -- a
        :class:`~repro.robustness.recovery.RecoveryPolicy` makes the
        run *guarded*: every rank join gets a Propagate depth limit and
        an overrun is recovered from (re-estimate, migrate, or
        fall back to the sort plan).  The report's ``recovery`` records
        the path taken; it is ``None`` for unguarded runs.

        ``telemetry`` -- a :class:`~repro.observability.Telemetry`
        traces the run end to end: an ``execute`` span
        (``execute_guarded`` under a policy) covering ``optimize`` ->
        ``build`` -> ``open`` -> ``next`` -> ``close`` (-> ``fallback``)
        with per-operator spans nested, optimizer and Propagate events,
        recovery decisions, and per-operator counters recorded after
        the drain.  The report's ``telemetry`` carries the bundle.

        ``checkpoint`` -- a
        :class:`~repro.robustness.checkpoint.CheckpointPolicy` or an
        ``int`` shorthand (checkpoint every N delivered rows) turns on
        state-preserving recovery and implies the default recovery
        policy: a transient fault restores the last checkpoint instead
        of failing, a budget breach yields ``report.suspension``
        (resumable via :meth:`resume`) instead of raising, and a
        fallback decision migrates the live rank-join state instead of
        rebuilding from scratch.

        ``faults`` injects a :class:`~repro.robustness.faults.FaultPlan`
        into the built tree -- the entry point for chaos testing.

        ``result`` short-circuits plan choice with an
        :class:`~repro.optimizer.enumerator.OptimizationResult` (a
        plan-cache hit, or the plan admission chose), or a zero-argument
        callable producing one inside the ``optimize`` span (a
        plan-cache miss); the caller is responsible for its freshness.

        ``store`` (a
        :class:`~repro.robustness.durability.CheckpointStore`) makes
        every checkpoint durable under ``query_id`` (derived from the
        query fingerprint when omitted), so a killed process can
        continue the query; a run that completes retires them.

        The root is drained by batches (see :meth:`_drain`); every
        operator's counters are those of a row-at-a-time drain.
        """
        return self._execute(query, result, budget, policy, telemetry,
                             checkpoint, faults, store, query_id)

    def resume(self, suspended, budget=None, policy=None, telemetry=None,
               checkpoint=None, store=None, query_id=None):
        """Continue a :class:`SuspendedQuery` from its checkpoint.

        :meth:`run` seeded with the checkpoint: the plan is rebuilt from
        the suspended optimization result (operator names are a
        function of the plan, so the rebuilt tree matches the
        checkpoint), the checkpoint is restored into it, and the drain
        continues under a *fresh* guard -- accounting restarts from
        zero.  ``budget``, ``policy`` and ``checkpoint`` default to the
        ones the query was suspended under.  The returned report's rows
        include everything the suspended run already delivered.

        A *pre-open* suspension (``suspended.pre_open``) carries no
        checkpoint -- the breach fired inside an atomic ``open()`` --
        so the rebuilt tree simply starts from scratch.
        """
        if checkpoint is None:
            checkpoint = suspended.policy or CheckpointPolicy()
        return self._execute(
            suspended.query, suspended.result,
            suspended.budget if budget is None else budget,
            policy or suspended.recovery_policy or RecoveryPolicy(),
            telemetry, checkpoint, None, store, query_id, suspended,
        )

    def run_plan(self, query, plan, k=None, result=None):
        """Execute a specific plan (bypassing plan choice).

        Used by experiments that compare alternatives the optimizer
        would have pruned.  ``k`` truncates ranked output.  Callers
        that already optimized can pass their ``result`` to reuse it;
        otherwise the report optimizes lazily, only if its estimate
        side (``optimization`` / ``analyze``) is actually consulted --
        forced-plan experiments never pay for plan choice twice.
        """
        root = self.builder.build(plan)
        if k is not None:
            root = Limit(root, k)
        run = _Run(self, query, root)
        self._drain(run, None)
        operators = [OperatorSnapshot(op) for op in root.walk()]
        if result is None:
            def result(_optimizer=self.optimizer, _query=query):
                return _optimizer.optimize(_query)
        return ExecutionReport(query, result, run.rows, operators)

    def _execute(self, query, result, budget, policy, telemetry, checkpoint,
                 faults, store, query_id, suspended=None):
        """The one pipeline behind :meth:`run` and :meth:`resume`."""
        checkpoint = _checkpoint_policy(checkpoint)
        if checkpoint is not None and policy is None:
            policy = RecoveryPolicy()
        run = _Run(self, query, telemetry=telemetry)
        tracer = run.tracer
        metrics = events = None
        if telemetry is not None:
            metrics, events = telemetry.metrics, telemetry.events
        with tracer.span("execute" if policy is None else "execute_guarded",
                         tables=",".join(sorted(query.tables)),
                         k=query.k if query.is_ranking else None):
            run.result = result = self._plan(run, result)
            with tracer.span("build"):
                root = self.builder.build_query(result)
            if faults is not None:
                root = inject_faults(root, faults, metrics=metrics)
            if telemetry is not None:
                self._record_propagate(telemetry, result)
                telemetry.instrument(root)
            run.root = root
            if budget is not None or policy is not None:
                run.guard = ExecutionGuard(budget,
                                           metrics=metrics).attach(root)
            try:
                if policy is not None:
                    run.policy = policy
                    run.recovery = RecoveryLog(event_log=events,
                                               metrics=metrics)
                    install_depth_limits(run)
                if checkpoint is not None:
                    run.manager = CheckpointManager(
                        root, checkpoint, guard=run.guard, events=events,
                        metrics=metrics, persist=_durable_persist(
                            store, query_id, query, checkpoint))
                if suspended is not None:
                    resume_from(run, suspended)
                if run.guard is not None:
                    run.guard.start()
                suspension = self._drain(run, run.manager)
                if run.recovery is not None:
                    run.recovery.record_shard_recoveries(run.root)
                    if run.recovery.path == "fallback":
                        with tracer.span("fallback"):
                            self._fall_back(run)
            finally:
                if run.guard is not None:
                    run.guard.detach()
        return self._report(run, suspension, store, query_id)

    def _plan(self, run, result):
        """The optimize stage: plan, or take the plan handed in."""
        if result is not None and not callable(result):
            with run.tracer.span("optimize", cached=True):
                return result
        with run.tracer.span("optimize"):
            if result is None:
                return self.optimizer.optimize(run.query,
                                               telemetry=run.telemetry)
            return result()

    def _drain(self, run, manager):
        """The drive loop: open, pull to exhaustion, close.

        The only place the tree is pulled: by batches of
        :data:`DRAIN_BATCH` rows, or of one row under a guard -- a trip
        snapshots the live tree (a breach into its error, a recovery
        into the state it continues from), so a row produced inside an
        unfinished batch would be lost.  A depth overrun goes
        to :func:`~repro.robustness.recovery.on_overrun`; with a
        checkpoint ``manager`` a transient fault rewinds to the last
        checkpoint and a budget breach suspends; anything else
        propagates.  Returns the :class:`SuspendedQuery` of a suspended
        run, else ``None``.
        """
        rows = run.rows
        tracer = run.tracer
        size = DRAIN_BATCH if run.guard is None else 1
        try:
            while True:
                root = run.root
                try:
                    # An overrun can fire while *opening* (an operator
                    # materialising input up front); a failed open
                    # unwinds cleanly, so recovery simply re-opens.
                    if not root._opened:
                        with tracer.span("open"):
                            root.open()
                    with tracer.span("next"):
                        while True:
                            batch = root.next_batch(size)
                            rows.extend(batch)
                            if len(batch) < size:
                                return None
                            if manager is not None:
                                manager.maybe_checkpoint(rows)
                except DepthOverrunError as overrun:
                    if not on_overrun(run, overrun):
                        return None
                except TransientFaultError:
                    if manager is None or not manager.can_resume():
                        raise
                    restore_checkpoint(run)
                except BudgetExceededError as breach:
                    if manager is None or not manager.policy.suspend_on_budget:
                        raise
                    return suspend(run, breach)
        finally:
            with tracer.span("close"):
                run.root.close()

    def _fall_back(self, run):
        """Drain the blocking sort plan from scratch.

        The guard keeps its clock and pull counters, so the fallback
        still answers to the original deadline and pull budget; it runs
        without checkpoints, so a breach or fault here raises.
        """
        result = run.result
        fallback = OptimizationResult(
            result.query, result.memo, self.optimizer.fallback_plan(result),
            result.required_order)
        run.root = self.builder.build_query(fallback)
        run.rows = []
        run.guard.depth_limits.clear()
        run.guard.attach(run.root)
        if run.telemetry is not None:
            run.telemetry.instrument(run.root)
        self._drain(run, None)

    def _report(self, run, suspension, store, query_id):
        """Snapshots -> report -> retire durable snapshots."""
        root = run.root
        operators = [OperatorSnapshot(op) for op in root.walk()]
        recovery = run.recovery
        if recovery is not None:
            recovery.stats["pulled_total"] = run.guard.total_pulled
            if run.manager is not None:
                recovery.stats["checkpoints"] = run.manager.checkpoints_taken
                recovery.stats["resumes"] = run.manager.resumes
        telemetry = run.telemetry
        if telemetry is not None:
            telemetry.record_operators(operators)
            self._record_parallel(telemetry, root)
        self._record_columnar(
            self.metrics if telemetry is None else telemetry.metrics, root)
        report = ExecutionReport(run.query, run.result, run.rows, operators,
                                 recovery=recovery, telemetry=telemetry,
                                 suspension=suspension)
        if store is not None and suspension is None:
            # A completed run leaves nothing to recover, and a stale
            # snapshot would wrongly re-run the query on the next resume
            # over the state directory.  A suspended run keeps its own:
            # that snapshot *is* the recovery state.
            store.discard(query_id or default_query_id(run.query))
        return report

    @staticmethod
    def _record_columnar(metrics, root):
        """Feed fused-fast-path counters into the run's registry."""
        from repro.operators.filters import Filter, Project

        for op in root.walk():
            if isinstance(op, (Filter, Project)) and op.fused_batches:
                metrics.counter("columnar_fused_batches_total").inc(
                    op.fused_batches, operator=op.name)
                metrics.counter("columnar_fused_rows_total").inc(
                    op.fused_rows, operator=op.name)

    @staticmethod
    def _record_parallel(telemetry, root):
        """Feed shard/merge counters for sharded parallel executions."""
        from repro.executor.shard_pool import ShardStream
        from repro.operators.merge import ScoreMerge

        metrics = telemetry.metrics
        for op in root.walk():
            if isinstance(op, ScoreMerge):
                metrics.counter("merge_rows_total").inc(
                    op.stats.rows_out, merge=op.name)
                metrics.gauge("merge_fanin").set(len(op.children),
                                                 merge=op.name)
                for index, pulled in enumerate(op.stats.pulled):
                    metrics.counter("shard_rows_merged_total").inc(
                        pulled, merge=op.name, shard=index)
            elif isinstance(op, ShardStream):
                metrics.counter("shard_tasks_total").inc(op.tasks,
                                                         shard=op.name)
                if op.retries:
                    metrics.counter("shard_retries_total").inc(
                        op.retries, shard=op.name)
                depth_gauge = metrics.gauge("shard_depth")
                for index, pulled in enumerate(op.stats.pulled):
                    depth_gauge.set(pulled, shard=op.name, input=index)

    @staticmethod
    def _record_propagate(telemetry, result):
        """Log Algorithm Propagate's depth assignments as events."""
        records = result.propagate_depths()
        if not records:
            return
        depth_gauge = telemetry.metrics.gauge("propagate_estimated_depth")
        for node, required, estimate in records:
            if estimate is None:
                telemetry.events.emit(
                    "propagate_depth", plan=node.describe(),
                    required=round(float(required), 2),
                )
                continue
            telemetry.events.emit(
                "propagate_depth", plan=node.describe(),
                required=round(float(required), 2),
                d_left=round(estimate.d_left, 2),
                d_right=round(estimate.d_right, 2),
            )
            depth_gauge.set(estimate.d_left, plan=node.describe(),
                            input=0)
            depth_gauge.set(estimate.d_right, plan=node.describe(),
                            input=1)
