"""The learned-statistics store: fingerprint-keyed runtime feedback.

A :class:`FeedbackStore` ingests finished (or suspended)
:class:`~repro.executor.executor.ExecutionReport` instances and keeps
two EWMA-smoothed views of what execution actually observed:

* **per join predicate** (keyed ``frozenset({left_col, right_col})``,
  the same key the catalog's selectivity overrides use): the observed
  join selectivity ``rows_out / (dL * dR)`` of every rank-join that
  pulled enough pairs to be informative;
* **per query fingerprint** (the plan cache's
  :func:`~repro.executor.plan_cache.query_fingerprint`): observation
  counts, the smoothed relative depth-estimate error, and the peak
  rank-join buffer.

Once a join's EWMA has ``FeedbackPolicy.min_observations`` behind it,
the store *applies* it: the catalog overlay
(:meth:`FeedbackStore.learned_join_selectivity`) starts answering with
the learned value, and the join's **epoch counter** advances.  A query
fingerprint's plan-cache epoch (:meth:`FeedbackStore.plan_epoch`) is
the sum of the epoch counters of the joins its predicates touch, so a
learned update evicts exactly the cached plans it invalidates --
fingerprints over untouched joins keep their entries.

Thread safety: the serving layer observes reports from interleaved
scheduler steps, so all state is guarded by one re-entrant lock (every
operation is dict-sized).  Persistence is optional: with ``path`` each
observation appends one JSON line, and construction replays the file,
so a restarted process plans with everything its predecessor learned.
"""

import hashlib
import json
import os
import threading

from repro.common.errors import CatalogError
from repro.observability.metrics import NULL_METRICS

#: Floor for learned selectivities (zero would blow up the model).
_MIN_SELECTIVITY = 1e-9


def fingerprint_key(fingerprint):
    """Stable 12-hex-digit key for a query fingerprint.

    Fingerprints are nested tuples of primitives, so their ``repr`` is
    deterministic across processes -- which makes the digest usable as
    a JSONL persistence key and a metrics label.
    """
    digest = hashlib.sha1(repr(fingerprint).encode("utf-8")).hexdigest()
    return digest[:12]


def join_key(predicate_or_columns):
    """Normalise a join predicate (or column pair) to the overlay key."""
    left = getattr(predicate_or_columns, "left_column", None)
    if left is not None:
        return frozenset((left, predicate_or_columns.right_column))
    return frozenset(predicate_or_columns)


def _ewma(previous, value, alpha):
    if previous is None:
        return value
    return alpha * value + (1.0 - alpha) * previous


class FeedbackPolicy:
    """Tunables for smoothing and applying learned statistics.

    Parameters
    ----------
    alpha:
        EWMA weight of the newest observation (``1.0`` trusts only the
        latest run; small values smooth heavily).
    min_observations:
        Observations a join needs before its EWMA is applied to the
        catalog overlay (forced corrections from the re-planning path
        bypass this -- an overrun is already hard evidence).
    min_pairs:
        A rank-join observation only counts when the operator examined
        at least this many left x right pairs; tiny prefixes make the
        ``rows_out / (dL * dR)`` estimator pure noise.
    apply_threshold:
        Relative change the EWMA must accumulate before it is
        *re*-applied to the overlay.  Each application bumps the
        affected fingerprints' plan-cache epoch, so this is the knob
        that stops a converged workload from thrashing its own cache.
    """

    def __init__(self, alpha=0.5, min_observations=1, min_pairs=4,
                 apply_threshold=0.05):
        if not 0.0 < alpha <= 1.0:
            raise CatalogError("alpha must be in (0, 1], got %r" % (alpha,))
        if min_observations < 1:
            raise CatalogError("min_observations must be >= 1")
        if min_pairs < 1:
            raise CatalogError("min_pairs must be >= 1")
        if apply_threshold < 0.0:
            raise CatalogError("apply_threshold must be >= 0")
        self.alpha = alpha
        self.min_observations = min_observations
        self.min_pairs = min_pairs
        self.apply_threshold = apply_threshold

    def __repr__(self):
        return ("FeedbackPolicy(alpha=%g, min_observations=%d)"
                % (self.alpha, self.min_observations))


class _JoinStat:
    """Learned state of one join predicate."""

    __slots__ = ("selectivity", "observations", "applied", "epoch")

    def __init__(self):
        self.selectivity = None   # EWMA of observed selectivities
        self.observations = 0
        self.applied = None       # value currently served by the overlay
        self.epoch = 0            # bumped on every (re)application

    def as_dict(self):
        return {
            "selectivity": self.selectivity,
            "observations": self.observations,
            "applied": self.applied,
            "epoch": self.epoch,
        }


class _QueryStat:
    """Observed state of one query fingerprint."""

    __slots__ = ("observations", "depth_error", "max_buffer", "joins",
                 "label")

    def __init__(self, label=""):
        self.observations = 0
        self.depth_error = None   # EWMA of mean relative depth error
        self.max_buffer = 0
        self.joins = set()        # join keys this fingerprint touches
        self.label = label

    def as_dict(self):
        return {
            "observations": self.observations,
            "depth_error": self.depth_error,
            "max_buffer": self.max_buffer,
            "joins": sorted("=".join(sorted(key)) for key in self.joins),
            "label": self.label,
        }


class FeedbackStore:
    """Thread-safe learned-statistics store; see the module docstring.

    Parameters
    ----------
    policy:
        A :class:`FeedbackPolicy` (defaults apply when ``None``).
    path:
        Optional JSONL persistence file.  Existing contents are
        replayed on construction; every subsequent observation appends
        one line.
    metrics:
        Optional :class:`~repro.observability.metrics.MetricsRegistry`
        receiving the ``feedback_*`` metric family (see
        ``docs/observability.md``).
    """

    def __init__(self, policy=None, path=None, metrics=None, fsync=False):
        self.policy = policy or FeedbackPolicy()
        self.path = os.fspath(path) if path is not None else None
        self.fsync = fsync
        self.metrics = NULL_METRICS if metrics is None else metrics
        self._lock = threading.RLock()
        self._joins = {}       # join key -> _JoinStat
        self._queries = {}     # fingerprint hex key -> _QueryStat
        self.replans = 0
        self.skipped_lines = 0
        if self.path is not None and os.path.exists(self.path):
            self._replay(self.path)

    # ------------------------------------------------------------------
    # Observation ingestion
    # ------------------------------------------------------------------
    def observe_report(self, query, report, fingerprint=None):
        """Absorb one execution report; returns a summary dict.

        Extracts the observed selectivity of every HRJN snapshot that
        examined enough pairs (NRJN materialises its inner in full, so
        its pair count says nothing about selectivity), folds the
        report's mean rank-join depth error into the fingerprint's
        EWMA, and applies any join whose evidence crossed the policy
        thresholds.  The summary is what
        :meth:`~repro.executor.executor.ExecutionReport.analyze`
        renders as the ``feedback:`` section.
        """
        from repro.executor.plan_cache import query_fingerprint
        from repro.optimizer.plans import RankJoinPlan

        if fingerprint is None:
            fingerprint = query_fingerprint(query)
        key = fingerprint_key(fingerprint)
        observed_joins = []
        max_buffer = 0
        for snap in report.operators:
            plan = snap.plan
            if not isinstance(plan, RankJoinPlan):
                continue
            max_buffer = max(max_buffer, snap.max_buffer)
            if plan.operator != "hrjn" or len(plan.predicates) != 1:
                continue
            pairs = 1
            for pulled in snap.pulled:
                pairs *= max(1, pulled)
            if pairs < self.policy.min_pairs:
                continue
            selectivity = max(snap.rows_out / pairs, _MIN_SELECTIVITY)
            observed_joins.append(
                (join_key(plan.predicates[0]), min(1.0, selectivity))
            )
        depth_error = self._mean_depth_error(report)
        with self._lock:
            stat = self._queries.get(key)
            if stat is None:
                stat = self._queries[key] = _QueryStat(
                    label=self._query_label(query))
            stat.observations += 1
            stat.max_buffer = max(stat.max_buffer, max_buffer)
            if depth_error is not None:
                stat.depth_error = _ewma(stat.depth_error, depth_error,
                                         self.policy.alpha)
            applied = 0
            joins = {}
            for columns, selectivity in observed_joins:
                stat.joins.add(columns)
                applied += self._observe_join(columns, selectivity)
                joins["=".join(sorted(columns))] = \
                    self._joins[columns].selectivity
            summary = {
                "fingerprint": key,
                "observations": stat.observations,
                "depth_error": stat.depth_error,
                "joins": joins,
                "applied": applied,
            }
        self.metrics.counter("feedback_observations_total").inc(kind="report")
        if stat.depth_error is not None:
            self.metrics.gauge("feedback_depth_error_ewma").set(
                stat.depth_error, fingerprint=key)
        self._persist({
            "kind": "report",
            "fingerprint": key,
            "label": stat.label,
            "joins": [[sorted(columns), selectivity]
                      for columns, selectivity in observed_joins],
            "depth_error": depth_error,
            "max_buffer": max_buffer,
        })
        return summary

    def learn_join(self, predicates, observed, source="overrun",
                   force=False):
        """Fold one directly observed join selectivity into the store.

        The robustness layer calls this on every depth overrun with the
        selectivity it re-estimated from the live operator -- evidence
        that previously died with the query.  ``force`` applies the
        value to the overlay immediately regardless of
        ``min_observations`` (the re-planning path needs the enumerator
        to see the correction *now*).  Only single-predicate joins are
        learnable: a multi-predicate observation measures the product
        of its selectivities, which cannot be attributed to one key.
        Returns True when the overlay changed (callers use that to know
        whether cached plans went stale).
        """
        predicates = tuple(predicates)
        if len(predicates) != 1:
            return False
        observed = min(1.0, max(observed, _MIN_SELECTIVITY))
        with self._lock:
            applied = self._observe_join(join_key(predicates[0]), observed,
                                         force=force)
        self.metrics.counter("feedback_observations_total").inc(kind=source)
        self._persist({
            "kind": "join",
            "columns": sorted(join_key(predicates[0])),
            "selectivity": observed,
            "source": source,
            "force": bool(force),
        })
        return bool(applied)

    def _observe_join(self, columns, selectivity, force=False):
        """Update one join's EWMA; apply it when warranted.

        Returns 1 when the overlay (re)applied, else 0.  Caller holds
        the lock.
        """
        stat = self._joins.get(columns)
        if stat is None:
            stat = self._joins[columns] = _JoinStat()
        stat.observations += 1
        stat.selectivity = _ewma(stat.selectivity, selectivity,
                                 self.policy.alpha)
        if not force:
            if stat.observations < self.policy.min_observations:
                return 0
            if stat.applied is not None:
                drift = (abs(stat.selectivity - stat.applied)
                         / max(stat.applied, _MIN_SELECTIVITY))
                if drift < self.policy.apply_threshold:
                    return 0
        value = stat.selectivity if not force else selectivity
        if force:
            # A forced correction becomes the new smoothed belief too:
            # the overrun proved the old EWMA wrong, not just stale.
            stat.selectivity = value
        if stat.applied == value:
            return 0
        stat.applied = value
        stat.epoch += 1
        self.metrics.counter("feedback_overrides_total").inc(
            join="=".join(sorted(columns)))
        return 1

    def note_replan(self, outcome):
        """Record one mid-flight re-plan attempt by ``outcome``."""
        if outcome == "migrated":
            with self._lock:
                self.replans += 1
        self.metrics.counter("feedback_replans_total").inc(outcome=outcome)

    # ------------------------------------------------------------------
    # Catalog overlay protocol
    # ------------------------------------------------------------------
    def learned_join_selectivity(self, columns):
        """Overlay hook: the applied learned selectivity, or ``None``.

        :meth:`~repro.storage.catalog.Catalog.join_selectivity`
        consults this *before* explicit overrides: a value observed
        from actual executions outranks a pinned assumption.
        """
        with self._lock:
            stat = self._joins.get(frozenset(columns))
            if stat is None:
                return None
            return stat.applied

    @property
    def stats_epoch(self):
        """Total learned-override applications across all joins."""
        with self._lock:
            return sum(stat.epoch for stat in self._joins.values())

    def plan_epoch(self, query):
        """Plan-cache epoch of ``query``: sum of its joins' epochs.

        Fingerprints whose predicates touch an updated join see a new
        epoch (their cached plans stop matching); every other
        fingerprint's epoch -- and cache entries -- are untouched.
        """
        with self._lock:
            total = 0
            for predicate in query.predicates:
                stat = self._joins.get(join_key(predicate))
                if stat is not None:
                    total += stat.epoch
            return total

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def join_stats(self):
        """``{"left=right": {...}}`` snapshot of the learned joins."""
        with self._lock:
            return {"=".join(sorted(columns)): stat.as_dict()
                    for columns, stat in self._joins.items()}

    def query_stats(self):
        """``{fingerprint_key: {...}}`` snapshot of observed queries."""
        with self._lock:
            return {key: stat.as_dict()
                    for key, stat in self._queries.items()}

    def depth_error(self, query):
        """Smoothed depth-estimate error of ``query``'s fingerprint."""
        from repro.executor.plan_cache import query_fingerprint

        key = fingerprint_key(query_fingerprint(query))
        with self._lock:
            stat = self._queries.get(key)
            return stat.depth_error if stat is not None else None

    def accuracy_by_fingerprint(self):
        """Estimate-accuracy rows grouped per query fingerprint.

        One dict per observed fingerprint -- the aggregation the JSONL
        exporter emits as ``"type": "feedback"`` lines and ``analyze``
        summarises, complementing the per-run ``estimate_accuracy``
        table with the cross-run convergence trend.
        """
        with self._lock:
            rows = []
            for key in sorted(self._queries):
                stat = self._queries[key]
                rows.append({
                    "fingerprint": key,
                    "label": stat.label,
                    "observations": stat.observations,
                    "depth_error_ewma": stat.depth_error,
                    "max_buffer": stat.max_buffer,
                    "joins": {
                        "=".join(sorted(columns)):
                            self._joins[columns].as_dict()
                        for columns in sorted(
                            stat.joins,
                            key=lambda c: "=".join(sorted(c)))
                        if columns in self._joins
                    },
                })
            return rows

    def describe(self):
        """Human-readable summary of everything learned so far."""
        lines = ["feedback store:"]
        for row in self.accuracy_by_fingerprint():
            error = ("%.0f%%" % (100.0 * row["depth_error_ewma"],)
                     if row["depth_error_ewma"] is not None else "n/a")
            lines.append(
                "  %s (%s): observations=%d depth_error_ewma=%s"
                % (row["fingerprint"], row["label"] or "?",
                   row["observations"], error)
            )
            for join, stat in row["joins"].items():
                applied = ("%.2g" % (stat["applied"],)
                           if stat["applied"] is not None else "unapplied")
                lines.append(
                    "    %s: s_ewma=%.2g applied=%s epoch=%d obs=%d"
                    % (join, stat["selectivity"], applied,
                       stat["epoch"], stat["observations"])
                )
        if len(lines) == 1:
            lines.append("  (no observations)")
        return "\n".join(lines)

    @staticmethod
    def _query_label(query):
        """Short human hint for a fingerprint (tables + predicates)."""
        joins = ",".join(sorted(
            "%s=%s" % (p.left_column, p.right_column)
            for p in query.predicates
        ))
        return "%s[%s]" % ("*".join(sorted(query.tables)), joins)

    @staticmethod
    def _mean_depth_error(report):
        """Mean relative depth error over the report's rank joins."""
        try:
            rows = report.estimate_accuracy()
        except Exception:
            return None  # forced plans may lack a propagatable root
        errors = [row["depth_error"] for row in rows
                  if row.get("kind") == "rank_join"]
        if not errors:
            return None
        return sum(errors) / len(errors)

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def _persist(self, record):
        """Append one JSONL record durably.

        The line is written in a single ``write`` call and flushed
        before the handle closes, so a crash can tear at most the line
        being written -- which :meth:`_replay` tolerates.  With
        ``fsync=True`` the append is also fsynced, trading latency for
        zero lost observations on power failure.
        """
        if self.path is None:
            return
        line = json.dumps(record, sort_keys=True) + "\n"
        with self._lock:
            with open(self.path, "a") as handle:
                handle.write(line)
                handle.flush()
                if self.fsync:
                    os.fsync(handle.fileno())

    def _replay(self, path):
        """Rebuild state from a JSONL file written by :meth:`_persist`.

        A truncated or corrupt line (torn write from a crashed
        predecessor) is skipped and counted -- one bad line must not
        discard everything the process learned before it.
        """
        with open(path) as handle:
            for number, line in enumerate(handle, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                    if not isinstance(record, dict):
                        raise ValueError("record is not an object")
                    self._replay_record(record)
                except (ValueError, KeyError, TypeError) as exc:
                    self.skipped_lines += 1
                    self.metrics.counter("feedback_replay_skipped_total").inc()
                    import warnings

                    warnings.warn(
                        "feedback store %s: skipping corrupt line %d (%s)"
                        % (path, number, exc),
                        RuntimeWarning, stacklevel=2,
                    )
                    continue
                self.metrics.counter("feedback_observations_total").inc(
                    kind="replay")

    def _replay_record(self, record):
        """Apply one persisted record; raises on malformed content."""
        with self._lock:
            if record["kind"] == "join":
                self._observe_join(
                    frozenset(record["columns"]),
                    float(record["selectivity"]),
                    force=record.get("force", False),
                )
            elif record["kind"] == "report":
                key = record["fingerprint"]
                stat = self._queries.get(key)
                if stat is None:
                    stat = self._queries[key] = _QueryStat(
                        label=record.get("label", ""))
                stat.observations += 1
                stat.max_buffer = max(
                    stat.max_buffer,
                    record.get("max_buffer", 0))
                if record.get("depth_error") is not None:
                    stat.depth_error = _ewma(
                        stat.depth_error, record["depth_error"],
                        self.policy.alpha)
                for columns, selectivity in record.get("joins", []):
                    columns = frozenset(columns)
                    stat.joins.add(columns)
                    self._observe_join(columns, float(selectivity))

    def __repr__(self):
        with self._lock:
            return "FeedbackStore(%d joins, %d fingerprints, %d replans)" % (
                len(self._joins), len(self._queries), self.replans,
            )
