"""Exception hierarchy for the reproduction.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while
still being able to distinguish the layer that failed.
"""


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class SchemaError(ReproError):
    """A schema was malformed or two schemas were incompatible."""


class CatalogError(ReproError):
    """A table, index, or statistic was missing from the catalog."""


class ParseError(ReproError):
    """The SQL front end could not parse the query text."""

    def __init__(self, message, position=None):
        if position is not None:
            message = "%s (at position %d)" % (message, position)
        super().__init__(message)
        self.position = position


class OptimizerError(ReproError):
    """Plan enumeration or pruning reached an inconsistent state."""


class EstimationError(ReproError):
    """The depth/cost estimation model was given invalid parameters."""


class ExecutionError(ReproError):
    """A physical operator failed while producing tuples."""


class TransientFaultError(ExecutionError):
    """A recoverable operator fault (e.g. a flaky scan).

    Raised by fault injection and by any operator whose failure is
    worth retrying; :class:`~repro.robustness.faults.RetryingOperator`
    absorbs these up to its retry budget.
    """


class DataError(ExecutionError):
    """Input data violated an operator's contract (e.g. a NaN score).

    Rank-join thresholds assume totally ordered, finite scores: a NaN
    or infinite score silently corrupts the threshold instead of
    failing the query, so score boundaries
    (:class:`~repro.operators.rank_kernel.RankedInput`,
    :meth:`~repro.operators.base.ScoreSpec.checked`) reject such values
    with this error at the first offending row.
    """


class CheckpointError(ExecutionError):
    """A checkpoint could not be taken, or did not fit the target plan.

    Raised by :meth:`~repro.operators.base.Operator.load_state_dict`
    when a serialized state is restored into an operator tree with a
    different shape (operator class, name, or child count mismatch),
    and by :class:`~repro.robustness.checkpoint.CheckpointManager` when
    asked to restore without any checkpoint taken.
    """


class CheckpointCorruptionError(CheckpointError):
    """A durable snapshot failed validation and cannot be restored.

    Raised by :class:`~repro.robustness.durability.CheckpointStore`
    when a snapshot file has a bad magic number, an unsupported format
    version, a truncated header or payload, a CRC32 mismatch, or an
    undeserializable payload.  Callers degrade gracefully: the snapshot
    is discarded and the query restarts from scratch (recovery path
    ``"restarted"``) instead of crashing the server.

    Attributes
    ----------
    path:
        The snapshot file that failed validation, when known.
    kind:
        What failed: ``"magic"`` / ``"version"`` / ``"truncated"`` /
        ``"checksum"`` / ``"payload"``.
    query:
        The snapshot's query when only the format version is wrong and
        the envelope is otherwise intact (``None`` otherwise): enough
        to restart the query even though its state is unusable.
    """

    def __init__(self, message, path=None, kind="payload", query=None):
        super().__init__(message)
        self.path = path
        self.kind = kind
        self.query = query


class BudgetExceededError(ReproError):
    """A query ran past its :class:`~repro.robustness.budget.ResourceBudget`.

    Attributes
    ----------
    budget:
        The violated :class:`~repro.robustness.budget.ResourceBudget`.
    snapshots:
        Partial per-operator instrumentation
        (:class:`~repro.executor.executor.OperatorSnapshot` list) taken
        at the moment the budget tripped.
    kind:
        Which limit tripped: ``"pulls"``, ``"buffer"`` or
        ``"deadline"`` (``None`` when raised outside the guard).
    """

    def __init__(self, message, budget=None, snapshots=(), kind=None):
        super().__init__(message)
        self.budget = budget
        self.snapshots = list(snapshots)
        self.kind = kind


class OverloadError(ReproError):
    """The serving layer refused a query because the system is saturated.

    Raised by :meth:`repro.server.Server.submit` when admission control
    finds the scheduler's queue past its high-water mark (and the
    degradation ladder -- reduced ``k``, sort-fallback planning -- is
    already exhausted or inapplicable).  Rejecting at admission keeps
    queue wait times bounded for everything already admitted.

    Attributes
    ----------
    queue_depth:
        Queued-plus-running queries at the moment of rejection.
    high_water:
        The admission policy's queue-depth limit that was hit.
    tenant:
        The submitting tenant, when known.
    """

    def __init__(self, message, queue_depth=None, high_water=None,
                 tenant=None):
        super().__init__(message)
        self.queue_depth = queue_depth
        self.high_water = high_water
        self.tenant = tenant


class DepthOverrunError(ExecutionError):
    """A rank-join pulled past its estimated depth safety limit.

    This is a recoverable control signal: a guarded
    :class:`~repro.executor.executor.Executor` run catches it
    mid-query, re-estimates selectivity from observed join hits, and
    either continues with updated budgets or falls back to the blocking
    sort plan.  It is raised *before* the offending pull so no tuple is
    lost and the operator tree stays consistent for continuation.

    Attributes
    ----------
    operator:
        The rank-join operator that hit its limit.
    child_index:
        Which input (0 = left/outer, 1 = right/inner) overran.
    limit:
        The depth limit that would have been exceeded.
    """

    def __init__(self, message, operator=None, child_index=None,
                 limit=None):
        super().__init__(message)
        self.operator = operator
        self.child_index = child_index
        self.limit = limit
