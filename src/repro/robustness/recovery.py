"""Adaptive mid-query recovery from depth mis-estimation.

The Propagate estimates that size a rank-join plan (Section 4) are only
as good as the selectivity fed to them;
``tests/test_extensions.py::test_model_robustness`` shows estimated
depths drift by ``sqrt`` of the selectivity error.  A guarded
run (an :class:`~repro.executor.executor.Executor` run with a
:class:`RecoveryPolicy`) turns that weakness into a run-time contract:

1. before execution, every rank-join operator gets a *depth limit* --
   its Propagate estimate scaled by ``RecoveryPolicy.overrun_factor``
   (:func:`install_depth_limits`);
2. when an operator's actual pulled depth hits the limit, execution
   pauses (the guard raises the recoverable ``DepthOverrunError``
   *before* the offending pull, so the operator tree stays consistent);
3. the executor's drive loop hands the overrun to :func:`on_overrun`,
   which re-estimates the join selectivity from the observed join
   hits, re-runs Algorithm Propagate over the plan with the corrected
   selectivity, and compares the re-costed rank-join plan against the
   blocking sort alternative (the paper's ``k*`` crossover):

   * still cheaper -> **continue** the same in-flight execution with
     the updated depth limits;
   * no longer cheaper (or re-estimate budget exhausted) -> **fall
     back** to the sort plan retrieved via
     :meth:`Optimizer.fallback_plan`, which the executor drains from
     scratch under the same resource budget.

Corrections are per run: each one copies the plan nodes above the
leaves, so a plan shared with the plan cache (and every later query of
its shape) never sees one run's evidence, and no memoised cost of the
old selectivity is read back.

Every decision is recorded in a :class:`RecoveryLog` attached to the
:class:`~repro.executor.executor.ExecutionReport` as
``report.recovery``.
"""

import copy
import math
import numbers

from repro.common.errors import OptimizerError
from repro.observability.events import NULL_EVENTS
from repro.observability.metrics import NULL_METRICS
from repro.optimizer.enumerator import OptimizationResult
from repro.optimizer.plans import RankJoinPlan
from repro.robustness.checkpoint import SuspendedQuery

#: Floor for re-estimated selectivities (zero would blow up the model).
_MIN_SELECTIVITY = 1e-9


class RecoveryPolicy:
    """Tunables for depth-overrun monitoring and recovery.

    Parameters
    ----------
    overrun_factor:
        A rank-join may pull up to ``factor * estimated_depth`` tuples
        per input before recovery triggers.
    max_reestimates:
        Mid-query re-estimations allowed before the executor gives up
        on the rank-join plan and falls back to the sort plan.
    min_headroom:
        Depth limits never drop below ``pulled + min_headroom`` when
        updated, so a corrected estimate cannot immediately re-trip.
    monitor_depths:
        Master switch; off degrades a guarded run to plain budget
        enforcement.

    ``overrun_factor`` must be a finite number >= 1; ``max_reestimates``
    and ``min_headroom`` must be integers >= 0.  Anything else raises
    :class:`~repro.common.errors.OptimizerError` here rather than
    breaking the guarded run that uses it.
    """

    def __init__(self, overrun_factor=2.0, max_reestimates=2,
                 min_headroom=16, monitor_depths=True):
        if not (isinstance(overrun_factor, numbers.Real)
                and math.isfinite(overrun_factor)
                and overrun_factor >= 1.0):
            raise OptimizerError(
                "overrun_factor must be a finite number >= 1.0, got %r"
                % (overrun_factor,))
        for name, value in (("max_reestimates", max_reestimates),
                            ("min_headroom", min_headroom)):
            if (not isinstance(value, numbers.Integral)
                    or isinstance(value, bool) or value < 0):
                raise OptimizerError(
                    "%s must be an integer >= 0, got %r" % (name, value))
        self.overrun_factor = overrun_factor
        self.max_reestimates = max_reestimates
        self.min_headroom = min_headroom
        self.monitor_depths = monitor_depths

    def __repr__(self):
        return ("RecoveryPolicy(factor=%g, max_reestimates=%d)"
                % (self.overrun_factor, self.max_reestimates))


class RecoveryEvent:
    """One recovery decision taken mid-query.

    Selectivity fields are ``None`` for decisions that carry no
    selectivity evidence (checkpoint resume, suspension).
    """

    __slots__ = ("kind", "operator", "observed_selectivity",
                 "assumed_selectivity", "rows_emitted", "detail")

    def __init__(self, kind, operator, observed_selectivity,
                 assumed_selectivity, rows_emitted, detail=""):
        self.kind = kind
        self.operator = operator
        self.observed_selectivity = observed_selectivity
        self.assumed_selectivity = assumed_selectivity
        self.rows_emitted = rows_emitted
        self.detail = detail

    def describe(self):
        suffix = ": " + self.detail if self.detail else ""
        if self.observed_selectivity is None:
            return ("%s at %s after %d rows%s"
                    % (self.kind, self.operator, self.rows_emitted, suffix))
        return ("%s at %s after %d rows (selectivity %.2g -> %.2g)%s"
                % (self.kind, self.operator, self.rows_emitted,
                   self.assumed_selectivity, self.observed_selectivity,
                   suffix))

    def __repr__(self):
        return "RecoveryEvent(%s)" % (self.describe(),)


class RecoveryLog:
    """Which path a guarded execution took, and why.

    ``path`` is one of:

    * ``"direct"`` -- no depth limit tripped; the plan ran as costed;
    * ``"reestimated"`` -- one or more mid-query re-estimations, then
      the rank-join plan completed under its updated budgets;
    * ``"resumed"`` -- a transient fault was absorbed by restoring the
      last checkpoint;
    * ``"restarted"`` -- a durable snapshot was unusable (corrupt,
      format-mismatched, or structurally incompatible with the
      re-optimized plan) and the query reran from scratch instead;
    * ``"suspended"`` -- a budget breach was turned into a
      :class:`~repro.robustness.checkpoint.SuspendedQuery`;
    * ``"shed"`` -- the serving layer degraded the query under load
      (reduced ``k`` or forced sort-fallback planning) before running
      it;
    * ``"migrated"`` -- a fallback decision kept the live rank-join
      state instead of rebuilding the sort plan;
    * ``"fallback"`` -- execution switched to the blocking sort plan
      from scratch;
    * ``"deadline"`` -- the query's deadline expired mid-flight and
      the scheduler cancelled it with partial results.

    When several apply the most drastic wins (the order above).

    ``event_log`` optionally forwards every recorded decision into an
    observability :class:`~repro.observability.events.EventLog` as
    ``recovery`` events; ``metrics`` counts them into
    ``robustness_recovery_actions_total{action}``.  ``stats`` carries
    executor-filled run totals (``pulled_total``, ``pulled_at_resume``,
    ``checkpoints``, ``resumes``) for reports and tests.
    """

    #: Ascending drasticness; record() keeps the highest seen.
    _PRECEDENCE = ("direct", "reestimated", "resumed", "restarted",
                   "suspended", "shed", "migrated", "fallback",
                   "deadline")
    _PATH_OF = {"reestimate": "reestimated", "resume": "resumed",
                "restart": "restarted", "suspend": "suspended",
                "migrate": "migrated", "fallback": "fallback",
                "shard_retry": "direct", "shard_pool_degraded": "direct",
                "shed": "shed", "deadline_cancel": "deadline"}

    def __init__(self, event_log=None, metrics=None):
        self.path = "direct"
        self.events = []
        self.event_log = NULL_EVENTS if event_log is None else event_log
        self.metrics = NULL_METRICS if metrics is None else metrics
        self.stats = {}

    def record(self, event):
        self.events.append(event)
        candidate = self._PATH_OF.get(event.kind, "reestimated")
        if (self._PRECEDENCE.index(candidate)
                > self._PRECEDENCE.index(self.path)):
            self.path = candidate
        self.metrics.counter("robustness_recovery_actions_total").inc(
            action=event.kind)
        self.event_log.emit(
            "recovery", action=event.kind, operator=event.operator,
            observed_selectivity=event.observed_selectivity,
            assumed_selectivity=event.assumed_selectivity,
            rows_emitted=event.rows_emitted, detail=event.detail,
        )

    def record_shard_recoveries(self, root):
        """Record which shard streams of ``root`` absorbed worker faults.

        A :class:`~repro.executor.shard_pool.ShardStream` retries failed
        pool tasks itself (the PR 1 transient-fault policy applied per
        shard); the merge above it never notices.  The report still owes
        the operator a paper trail, so each recovered shard lands here
        as a ``shard_retry`` (or ``shard_pool_degraded``) event -- which
        maps to the ``direct`` path, never escalating it.
        """
        from repro.executor.shard_pool import ShardStream

        for operator in root.walk():
            if not isinstance(operator, ShardStream):
                continue
            if operator.retries:
                self.record(RecoveryEvent(
                    "shard_retry", operator.name, None, None,
                    operator.stats.rows_out,
                    "absorbed %d transient shard fault(s) over %d task(s)"
                    % (operator.retries, operator.tasks),
                ))
            if operator.degraded:
                self.record(RecoveryEvent(
                    "shard_pool_degraded", operator.name, None, None,
                    operator.stats.rows_out,
                    "worker pool died (%d rebuild(s)); degraded to "
                    "inline shard execution" % (operator.pool_rebuilds,),
                ))

    def describe(self):
        lines = ["recovery: path=%s" % (self.path,)]
        for event in self.events:
            lines.append("  " + event.describe())
        if self.stats.get("checkpoints"):
            lines.append("  checkpoints: taken=%d resumes=%d"
                         % (self.stats["checkpoints"],
                            self.stats.get("resumes", 0)))
        return "\n".join(lines)

    def __repr__(self):
        return "RecoveryLog(path=%s, %d events)" % (
            self.path, len(self.events),
        )


def restart_event(rows_emitted):
    """The ``restart`` decision: a durable snapshot was unusable, so the
    query reran from scratch (recorded on the report completing it)."""
    return RecoveryEvent(
        "restart", "durability", None, None, rows_emitted,
        "durable snapshot unusable; restarted from scratch",
    )


# ----------------------------------------------------------------------
# Checkpoints: seeding a resumed run, transient faults, suspension
# ----------------------------------------------------------------------
def resume_from(run, suspended):
    """Seed a resumed ``run`` with ``suspended``'s checkpoint.

    A *pre-open* suspension carries no checkpoint -- the breach fired
    inside an atomic ``open()`` -- so the rebuilt tree simply starts
    from scratch under the new budget.
    """
    manager = run.manager
    if suspended.checkpoint is None:
        run.recovery.record(RecoveryEvent(
            "resume", run.root.name, None, None, 0,
            "restarting pre-open suspension (was: %s)"
            % (suspended.reason,),
        ))
        manager.metrics.counter("robustness_resumes_total").inc(
            kind="pre_open_restart")
        return
    manager.adopt(suspended.checkpoint)
    run.rows = manager.restore(root=run.root, kind="suspended")
    run.recovery.record(RecoveryEvent(
        "resume", run.root.name, None, None, len(run.rows),
        "resumed suspended query (was: %s)" % (suspended.reason,),
    ))


def restore_checkpoint(run):
    """Rewind ``run`` to its last checkpoint after a transient fault."""
    manager = run.manager
    pulled_at = run.guard.total_pulled
    run.rows[:] = manager.restore()
    run.recovery.stats["pulled_at_resume"] = pulled_at
    run.recovery.record(RecoveryEvent(
        "resume", run.root.name, None, None, len(run.rows),
        "restored checkpoint #%d after a transient fault"
        % (manager.latest.sequence,),
    ))


def suspend(run, breach):
    """Turn a budget breach into a resumable :class:`SuspendedQuery`."""
    manager = run.manager
    root = run.root
    carried = {"reason": str(breach), "policy": manager.policy,
               "budget": run.guard.budget, "recovery_policy": run.policy}
    if not root._opened:
        # The breach fired inside open() -- an operator performing one
        # atomic step up front (NRJN materialises its whole inner
        # there).  The failed open unwound the tree, but operator
        # *stats* kept the aborted open's pulls, so a state snapshot
        # now would be inconsistent and a restore would double-count
        # depth accounting.  Suspend without a checkpoint: resuming
        # restarts the query under the new (larger) budget.
        run.recovery.record(RecoveryEvent(
            "suspend", root.name, None, None, 0,
            "%s (pre-open: no state to checkpoint)" % (breach,),
        ))
        if manager.persist is not None:
            # No checkpoint exists, but the suspension must still
            # survive a crash: persist a pre-open snapshot that restarts
            # the query on recovery.
            manager.persist(None, pre_open=True)
        return SuspendedQuery(run.query, run.result, None, pre_open=True,
                              **carried)
    # Breaches are raised before the offending pull, so the tree is
    # consistent right now: checkpoint it and hand back a resumable
    # handle instead of losing the work.
    taken = manager.checkpoint(run.rows, reason="suspend")
    run.recovery.record(RecoveryEvent(
        "suspend", root.name, None, None, len(run.rows), str(breach),
    ))
    return SuspendedQuery(run.query, run.result, taken, **carried)


# ----------------------------------------------------------------------
# Depth limits from Algorithm Propagate
# ----------------------------------------------------------------------
def _propagated_limits(result):
    """``{id(plan): (d_left, d_right)}`` for every rank-join node.

    NRJN materialises its inner in full on open, regardless of k: only
    its ranked outer depth is model-bounded (``d_right`` is ``None``).
    """
    limits = {}
    for node, _required, estimate in result.propagate_depths():
        if estimate is not None:
            limits[id(node)] = (
                estimate.d_left,
                None if node.operator == "nrjn" else estimate.d_right)
    return limits


def install_depth_limits(run):
    """Bound every rank join of ``run.root`` by its scaled estimate."""
    policy = run.policy
    if not policy.monitor_depths:
        return
    estimates = _propagated_limits(run.result)
    if not estimates:
        return
    for operator in run.root.walk():
        if operator.plan is not None and id(operator.plan) in estimates:
            run.guard.set_depth_limit(operator, tuple(
                None if depth is None else _scaled(depth, policy)
                for depth in estimates[id(operator.plan)]))


def _scaled(depth, policy):
    return int(math.ceil(depth * policy.overrun_factor)) \
        + policy.min_headroom


def _update_depth_limits(run):
    """Re-propagate and raise every guarded operator's limits.

    New limits are floored at the depth already pulled plus headroom,
    so a limit that re-estimation would *shrink* cannot trip again on
    the very next pull.
    """
    policy = run.policy
    estimates = _propagated_limits(run.result)
    for operator in run.root.walk():
        if operator.plan is None:
            continue
        estimate = estimates.get(id(operator.plan))
        if estimate is None:
            continue
        limits = []
        for child_index, depth in enumerate(estimate):
            if depth is None:
                limits.append(None)
                continue
            floor = operator.stats.pulled[child_index] + policy.min_headroom
            limits.append(max(_scaled(depth, policy), floor))
        run.guard.set_depth_limit(operator, limits)


def _correct(run, operator, observed):
    """Write the ``observed`` selectivity into a copy of the run's plan.

    The result a run starts from may be shared -- the plan cache serves
    it to every later query of the shape, and admission costs it -- and
    every plan node memoises its ``cost(k)``.  So each correction copies
    the plan's interior nodes (a copy starts with an empty cost memo),
    re-points the live operators at the copies, swaps the run's result
    for one over them, and only then writes the selectivity: no cost
    computed under the old selectivity survives above the corrected
    node.  The report, a suspension and later corrections see the
    corrected plan; the cache never does.
    """
    copies = {}
    result = run.result
    run.result = OptimizationResult(
        result.query, result.memo,
        _copy_interior(result.best_plan, copies), result.required_order)
    for node in run.root.walk():
        node.plan = copies.get(id(node.plan), node.plan)
    operator.plan.selectivity = min(1.0, observed)


def _copy_interior(plan, copies):
    """Copy ``plan`` down to (not including) its leaves."""
    if not plan.children:
        return plan
    node = copy.copy(plan)
    node.children = tuple(_copy_interior(child, copies)
                          for child in plan.children)
    copies[id(plan)] = node
    return node


# ----------------------------------------------------------------------
# Depth overruns
# ----------------------------------------------------------------------
def on_overrun(run, overrun):
    """Decide what a depth overrun does to ``run``.

    The executor's drive loop calls this on every
    :class:`~repro.common.errors.DepthOverrunError`.  Returns True to
    keep draining -- the limits were re-estimated or the live rank-join
    state migrates -- and False to fall back to the sort plan from
    scratch.
    """
    manager = run.manager
    allow_migrate = (manager is not None
                     and manager.policy.migrate_on_fallback
                     and not run.migrated)
    decision = _recover(run, overrun, allow_migrate)
    if decision == "migrate":
        # The live tree keeps every tuple it consumed; with depth limits
        # lifted, draining it to completion is the sort plan's answer
        # without a single reread (the stream is already ranked).
        run.migrated = True
        run.guard.depth_limits.clear()
        return True
    if decision == "fallback":
        return False
    run.reestimates += 1
    return True


def _observed_selectivity(operator):
    observe = getattr(operator, "observed_selectivity", None)
    if observe is not None:
        observed = observe()
    else:
        pairs = 1.0
        for pulled in operator.stats.pulled:
            pairs *= max(1, pulled)
        observed = operator.stats.rows_out / pairs
    if observed is None:
        return None
    return max(observed, _MIN_SELECTIVITY)


def _recover(run, overrun, allow_migrate):
    """Handle one depth overrun.

    Returns ``"continue"`` (re-estimated limits installed),
    ``"fallback"`` (rebuild the sort plan from scratch), or -- when
    ``allow_migrate`` and a fallback would otherwise fire --
    ``"migrate"`` (keep the live rank-join state and drain it).
    """
    operator = overrun.operator
    plan = operator.plan
    observed = _observed_selectivity(operator)
    assumed = getattr(plan, "selectivity", float("nan"))
    recovery = run.recovery
    rows_emitted = len(run.rows)
    if observed is None or not isinstance(plan, RankJoinPlan):
        # Nothing to re-estimate from: treat as a fallback trigger.
        return _fall_back(recovery, overrun, observed or 0.0, assumed,
                          rows_emitted,
                          "no observation to re-estimate from",
                          allow_migrate)
    optimizer = run.executor.optimizer
    if run.reestimates >= run.policy.max_reestimates:
        if _can_fall_back(optimizer, run.result):
            return _fall_back(recovery, overrun, observed, assumed,
                              rows_emitted, "re-estimate budget exhausted",
                              allow_migrate)
        # No blocking alternative retained: the rank-join plan is all
        # there is, so widen its limits and press on.
        _correct(run, operator, observed)
        _update_depth_limits(run)
        return "continue"
    # Replace the wrong estimate with the observed evidence, then re-run
    # Algorithm Propagate over the whole plan.
    _correct(run, operator, observed)
    k = run.result.k
    rank_cost = run.result.best_plan.cost(k)
    fallback_cost = None
    try:
        fallback_cost = optimizer.fallback_plan(run.result).cost(k)
    except OptimizerError:
        pass  # No blocking alternative retained: must continue.
    if fallback_cost is not None and rank_cost > fallback_cost:
        return _fall_back(
            recovery, overrun, observed, assumed, rows_emitted,
            "re-costed rank join %.1f > sort plan %.1f"
            % (rank_cost, fallback_cost), allow_migrate)
    _update_depth_limits(run)
    recovery.record(RecoveryEvent(
        "reestimate", operator.name, observed, assumed, rows_emitted,
        "continuing with re-propagated depth limits",
    ))
    return "continue"


def _can_fall_back(optimizer, result):
    try:
        optimizer.fallback_plan(result)
    except OptimizerError:
        return False
    return True


def _fall_back(recovery, overrun, observed, assumed, rows_emitted, detail,
               allow_migrate):
    if allow_migrate:
        recovery.record(RecoveryEvent(
            "migrate", overrun.operator.name, observed, assumed,
            rows_emitted, detail + "; migrating live rank-join state",
        ))
        return "migrate"
    recovery.record(RecoveryEvent(
        "fallback", overrun.operator.name, observed, assumed,
        rows_emitted, detail,
    ))
    return "fallback"
