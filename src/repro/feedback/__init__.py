"""Adaptive feedback: learned statistics and mid-flight re-planning.

The optimizer's depth estimates (Section 4) are only as good as the
join selectivities fed into them, and the engine already *measures*
how wrong they were on every run (``estimate_accuracy``) and even
*corrects* them mid-query on a depth overrun -- then forgot both the
moment the query finished.  This package closes the loop:

* :class:`~repro.feedback.store.FeedbackStore` records observed join
  selectivities, depths, and buffer sizes from every
  :class:`~repro.executor.executor.ExecutionReport`, keyed by the
  plan-cache query fingerprint, with EWMA smoothing and optional JSONL
  persistence;
* the store doubles as the :class:`~repro.storage.catalog.Catalog`'s
  *learned statistics* overlay: once a join selectivity has enough
  observations behind it, the next optimization of any query touching
  that join plans with the observed value instead of the System R
  guess -- with epoch-scoped plan-cache invalidation, so a learned
  update evicts exactly the fingerprints whose predicates it touches;
* a guarded :class:`~repro.executor.executor.Executor` run uses the
  store on a depth overrun to *re-plan mid-flight*: checkpoint the
  running tree, re-run the enumerator with corrected statistics, and
  migrate the live operator state into the new plan without rereading
  a single consumed tuple.

See ``docs/adaptivity.md`` for the store schema, the EWMA policy, and
the re-plan decision matrix.
"""

from repro.feedback.store import (
    FeedbackPolicy,
    FeedbackStore,
    fingerprint_key,
)

__all__ = [
    "FeedbackPolicy",
    "FeedbackStore",
    "fingerprint_key",
]
