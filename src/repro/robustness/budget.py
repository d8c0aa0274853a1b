"""Per-query resource budgets and the execution guard enforcing them.

The depth/cost model (Section 4) is built on optimistic assumptions --
uniform scores and a known join selectivity -- and the robustness
experiment in ``tests/test_extensions.py`` shows how quickly its
estimates drift when either is violated.  A production engine cannot
run an arbitrarily wrong plan to completion: this module bounds a query's
resource consumption with a :class:`ResourceBudget` (tuples pulled,
buffer occupancy, wall-clock deadline) enforced by an
:class:`ExecutionGuard` hooked into :meth:`Operator._pull` and
:meth:`OperatorStats.note_buffer`.

The guard also tracks *depth limits* on rank-join operators -- the
Propagate estimates scaled by a safety factor.  Exceeding a depth
limit raises the recoverable
:class:`~repro.common.errors.DepthOverrunError` (caught by a guarded
executor run for mid-query re-estimation), while exceeding a hard
budget raises :class:`~repro.common.errors.BudgetExceededError`
carrying partial operator snapshots.
"""

import time

from repro.common.errors import (
    BudgetExceededError,
    DepthOverrunError,
    ExecutionError,
)
from repro.observability.metrics import NULL_METRICS


class ResourceBudget:
    """Hard resource limits for one query execution.

    Parameters
    ----------
    max_pulls:
        Total tuples pulled across *all* operators (``None`` =
        unlimited).  This bounds work even when every per-operator
        estimate is wrong.
    max_buffer:
        Cap on any single operator's buffer occupancy in tuples
        (priority queues, hash tables).
    deadline_seconds:
        Wall-clock limit from the start of execution.
    """

    __slots__ = ("max_pulls", "max_buffer", "deadline_seconds")

    def __init__(self, max_pulls=None, max_buffer=None,
                 deadline_seconds=None):
        for label, value in (("max_pulls", max_pulls),
                             ("max_buffer", max_buffer),
                             ("deadline_seconds", deadline_seconds)):
            if value is not None and value < 0:
                raise ExecutionError(
                    "%s must be >= 0, got %r" % (label, value)
                )
        self.max_pulls = max_pulls
        self.max_buffer = max_buffer
        self.deadline_seconds = deadline_seconds

    @property
    def unlimited(self):
        """True when no limit is set (the guard is monitoring only)."""
        return (self.max_pulls is None and self.max_buffer is None
                and self.deadline_seconds is None)

    def describe(self):
        parts = []
        if self.max_pulls is not None:
            parts.append("max_pulls=%d" % (self.max_pulls,))
        if self.max_buffer is not None:
            parts.append("max_buffer=%d" % (self.max_buffer,))
        if self.deadline_seconds is not None:
            parts.append("deadline=%gs" % (self.deadline_seconds,))
        return "ResourceBudget(%s)" % (", ".join(parts) or "unlimited",)

    def __repr__(self):
        return self.describe()


class TenantBudget:
    """Aggregate resource accounting for one serving tenant.

    The scheduler charges every instalment's consumption (guard pulls
    and wall-clock seconds) here, and picks the next runnable query by
    *weighted virtual time*: the tenant with the smallest
    ``charged / weight`` runs first, so a tenant with weight 2 receives
    twice the engine share of a weight-1 tenant, and a tenant that has
    consumed nothing is always preferred (classic weighted fair
    queueing over pull counts rather than bytes).

    Parameters
    ----------
    name:
        The tenant identifier used at :meth:`repro.server.Server.submit`.
    weight:
        Relative share of engine capacity (> 0).
    cap:
        Optional :class:`ResourceBudget` acting as an *aggregate* cap
        across all of the tenant's queries (``max_pulls`` /
        ``deadline_seconds`` are lifetime totals); exceeding it makes
        :meth:`over_cap` true and the admission layer rejects further
        queries from the tenant.
    """

    __slots__ = ("name", "weight", "cap", "pulls", "seconds", "queries")

    def __init__(self, name, weight=1.0, cap=None):
        if weight <= 0:
            raise ExecutionError("tenant weight must be > 0, got %r"
                                 % (weight,))
        self.name = name
        self.weight = weight
        self.cap = cap
        self.pulls = 0
        self.seconds = 0.0
        self.queries = 0

    def charge(self, pulls, seconds):
        """Account one instalment's consumption to this tenant."""
        self.pulls += pulls
        self.seconds += seconds

    @property
    def virtual_time(self):
        """Weighted consumption -- the fair scheduler's sort key."""
        return self.pulls / self.weight

    def over_cap(self):
        """True when the tenant's aggregate cap is exhausted."""
        if self.cap is None:
            return False
        if (self.cap.max_pulls is not None
                and self.pulls >= self.cap.max_pulls):
            return True
        if (self.cap.deadline_seconds is not None
                and self.seconds >= self.cap.deadline_seconds):
            return True
        return False

    def __repr__(self):
        return ("TenantBudget(%r, weight=%g, pulls=%d, %.3fs)"
                % (self.name, self.weight, self.pulls, self.seconds))


class ExecutionGuard:
    """Runtime enforcing a :class:`ResourceBudget` over an operator tree.

    Attach with :meth:`attach` before opening the tree; the hooks in
    :meth:`Operator._pull` and :meth:`OperatorStats.note_buffer` then
    consult the guard on every pull and buffer update.

    Parameters
    ----------
    budget:
        The :class:`ResourceBudget` to enforce (``None`` = unlimited,
        useful when only depth limits are wanted).
    clock:
        Monotonic-time source (overridable for deterministic tests).
    metrics:
        Optional :class:`~repro.observability.metrics.MetricsRegistry`;
        breaches are counted into
        ``robustness_budget_breaches_total{kind}``.
    """

    def __init__(self, budget=None, clock=time.monotonic, metrics=None):
        self.budget = budget or ResourceBudget()
        self.clock = clock
        self.metrics = NULL_METRICS if metrics is None else metrics
        self.total_pulled = 0
        self.started_at = None
        #: ``id(operator) -> [per-child depth limit or None]``.
        self.depth_limits = {}
        self._root = None

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def attach(self, root):
        """Install this guard on every operator of ``root``'s tree."""
        if self._root is not None:
            self.detach()
        self._root = root
        for operator in root.walk():
            operator._guard = self
            operator.stats.guard = self
            operator.stats.owner = operator
        return self

    def detach(self):
        """Remove the guard hooks (counters are kept)."""
        if self._root is None:
            return
        for operator in self._root.walk():
            operator._guard = None
            operator.stats.guard = None
            operator.stats.owner = None
        self._root = None

    def start(self):
        """Start the wall clock (first pull starts it lazily otherwise)."""
        self.started_at = self.clock()
        return self

    def set_depth_limit(self, operator, limits):
        """Limit how deep ``operator`` may pull into each child.

        ``limits`` has one entry per child; ``None`` entries are
        unlimited.  Exceeding a limit raises the *recoverable*
        :class:`~repro.common.errors.DepthOverrunError`.
        """
        self.depth_limits[id(operator)] = list(limits)

    # ------------------------------------------------------------------
    # Instrumentation for errors
    # ------------------------------------------------------------------
    def snapshots(self):
        """Partial per-operator instrumentation at this moment."""
        from repro.executor.executor import OperatorSnapshot

        if self._root is None:
            return []
        return [OperatorSnapshot(op) for op in self._root.walk()]

    def elapsed(self):
        """Seconds since :meth:`start` (0.0 before the clock started)."""
        if self.started_at is None:
            return 0.0
        return self.clock() - self.started_at

    def pressure(self):
        """Fraction of the tightest budget consumed so far (0.0 - 1.0+).

        The max over the pull-budget fraction and the deadline
        fraction; 0.0 when neither limit is set.  The checkpoint
        cadence uses this as its budget-pressure signal: crossing the
        policy threshold means a breach (and possible suspension) is
        imminent, so preserving the work now is cheap insurance.
        Buffer occupancy is excluded -- it is not cumulative, so it
        does not predict a breach.
        """
        fractions = [0.0]
        budget = self.budget
        if budget.max_pulls is not None:
            if budget.max_pulls <= 0:
                return 1.0
            fractions.append(self.total_pulled / budget.max_pulls)
        if budget.deadline_seconds is not None:
            if budget.deadline_seconds <= 0:
                return 1.0
            fractions.append(self.elapsed() / budget.deadline_seconds)
        return max(fractions)

    def _exceeded(self, reason, kind):
        self.metrics.counter("robustness_budget_breaches_total").inc(
            kind=kind or "unknown")
        return BudgetExceededError(
            reason, budget=self.budget, snapshots=self.snapshots(),
            kind=kind,
        )

    # ------------------------------------------------------------------
    # Hooks (called from Operator._pull / OperatorStats.note_buffer)
    # ------------------------------------------------------------------
    def before_pull(self, operator, child_index):
        """Check budgets *before* a pull so no produced tuple is lost."""
        budget = self.budget
        if budget.deadline_seconds is not None:
            if self.started_at is None:
                self.started_at = self.clock()
            elapsed = self.clock() - self.started_at
            if elapsed > budget.deadline_seconds:
                raise self._exceeded(
                    "deadline of %gs exceeded after %.3fs"
                    % (budget.deadline_seconds, elapsed),
                    kind="deadline",
                )
        if (budget.max_pulls is not None
                and self.total_pulled + 1 > budget.max_pulls):
            raise self._exceeded(
                "pull budget of %d tuples exhausted" % (budget.max_pulls,),
                kind="pulls",
            )
        limits = self.depth_limits.get(id(operator))
        if limits is not None:
            limit = limits[child_index]
            if (limit is not None
                    and operator.stats.pulled[child_index] + 1 > limit):
                raise DepthOverrunError(
                    "%s depth into input %d would exceed the estimated "
                    "limit of %d tuples"
                    % (operator.name, child_index, limit),
                    operator=operator, child_index=child_index,
                    limit=limit,
                )

    def admit(self, operator, child_index, n):
        """How many of ``n`` pulls may proceed before the next trip.

        :meth:`before_pull` for a leaf batch read from a scan, which
        charges nothing while it is read -- so the cap trips at exactly
        the pull :meth:`before_pull` would.  The deadline is checked
        once per call.  Raises what :meth:`before_pull` raises when no
        pull may proceed; the caller charges with :meth:`on_pulled`.
        """
        budget = self.budget
        allowed = n
        if budget.max_pulls is not None:
            allowed = min(allowed, budget.max_pulls - self.total_pulled)
        limits = self.depth_limits.get(id(operator))
        if limits is not None and limits[child_index] is not None:
            allowed = min(allowed, limits[child_index]
                          - operator.stats.pulled[child_index])
        if allowed <= 0 or budget.deadline_seconds is not None:
            self.before_pull(operator, child_index)
        return allowed

    def on_pulled(self, operator, child_index, count=1):
        """Charge ``count`` delivered tuples against the pull budget."""
        self.total_pulled += count

    def note_buffer(self, operator, size):
        """Check an operator's buffer occupancy against the budget."""
        if (self.budget.max_buffer is not None
                and size > self.budget.max_buffer):
            name = operator.name if operator is not None else "?"
            raise self._exceeded(
                "operator %s buffer occupancy %d exceeds the budget of %d"
                % (name, size, self.budget.max_buffer),
                kind="buffer",
            )

    def __repr__(self):
        return "ExecutionGuard(%s, pulled=%d)" % (
            self.budget.describe(), self.total_pulled,
        )
