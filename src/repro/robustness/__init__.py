"""Resource governance and fault tolerance for query execution.

Three layers on top of the iterator executor:

* :mod:`repro.robustness.budget` -- per-query
  :class:`~repro.robustness.budget.ResourceBudget` limits (tuples
  pulled, buffer occupancy, wall-clock deadline) enforced by an
  :class:`~repro.robustness.budget.ExecutionGuard`;
* :mod:`repro.robustness.faults` -- fault injection
  (:class:`~repro.robustness.faults.FaultyOperator`,
  :class:`~repro.robustness.faults.FaultPlan`) and retry-with-backoff
  (:class:`~repro.robustness.faults.RetryingOperator`) for transient
  faults;
* :mod:`repro.robustness.checkpoint` -- operator-state checkpointing
  (:class:`~repro.robustness.checkpoint.CheckpointManager`,
  :class:`~repro.robustness.checkpoint.CheckpointPolicy`) and
  :class:`~repro.robustness.checkpoint.SuspendedQuery` handles for
  budget-paused queries;
* :mod:`repro.robustness.recovery` -- the decisions a guarded
  :class:`~repro.executor.executor.Executor` run takes: it recovers
  mid-query from rank-join depth mis-estimation by re-estimating
  selectivity from observed join hits and either continuing with
  updated budgets or falling back to the blocking sort plan (migrating
  live rank-join state when checkpointing is on);
* :mod:`repro.robustness.durability` -- crash-safe checkpoint
  persistence: a :class:`~repro.robustness.durability.CheckpointStore`
  writes validated, checksummed snapshots atomically so a killed
  process can continue a query byte-identically from its last durable
  checkpoint (corrupt snapshots degrade to a restart, never a crash).

See ``docs/robustness.md`` for the full policy description.
"""

from repro.robustness.budget import ExecutionGuard, ResourceBudget
from repro.robustness.checkpoint import (
    Checkpoint,
    CheckpointManager,
    CheckpointPolicy,
    SuspendedQuery,
)
from repro.robustness.durability import (
    CheckpointStore,
    default_query_id,
    rehydrate,
)
from repro.robustness.faults import (
    FaultPlan,
    FaultSpec,
    FaultyOperator,
    RetryingOperator,
    inject_faults,
)
from repro.robustness.recovery import (
    RecoveryEvent,
    RecoveryLog,
    RecoveryPolicy,
)

__all__ = [
    "Checkpoint",
    "CheckpointManager",
    "CheckpointPolicy",
    "CheckpointStore",
    "ExecutionGuard",
    "FaultPlan",
    "FaultSpec",
    "FaultyOperator",
    "RecoveryEvent",
    "RecoveryLog",
    "RecoveryPolicy",
    "ResourceBudget",
    "RetryingOperator",
    "SuspendedQuery",
    "default_query_id",
    "inject_faults",
    "rehydrate",
]
