"""Labelled counter / gauge / histogram registry.

A deliberately small metrics model in the Prometheus style: metrics are
named, typed, and carry free-form string labels; one metric holds one
value (or histogram) *per distinct label set*.  The registry is the
unit of export -- see :mod:`repro.observability.export` for the
JSON-lines and Prometheus-text serialisations.

Every metric the engine emits is declared once, in :data:`METRICS`
(labels and meaning are in ``docs/observability.md``): a component
names the metric and the registry supplies its help text.  Components
that may run unwired hold :data:`NULL_METRICS` instead of ``None``.

Registries and metrics are thread-safe: the serving layer updates them
from interleaved sessions, so get-or-create holds a registry-wide lock
and every increment / set / observe holds the metric's own lock (reads
used by exporters take the same lock to see consistent samples).
"""

import threading

from repro.common.errors import ExecutionError

#: Default histogram buckets, in the unit of the observed values.
#: Chosen for per-operator timings in microseconds: 1us .. 10s.
DEFAULT_BUCKETS = (1.0, 10.0, 100.0, 1e3, 1e4, 1e5, 1e6, 1e7)

#: Buckets of every declared histogram: seconds-scale latencies (the
#: default buckets would collapse them into one).
SECONDS_BUCKETS = (0.001, 0.005, 0.01, 0.05, 0.1, 0.25, 0.5, 1.0,
                   2.5, 5.0, 10.0, 30.0)

#: Every engine metric: ``name -> (kind, help)``.
METRICS = {
    # Per-operator counters of a traced run (Telemetry.record_operators).
    "operator_rows_out": ("counter", "tuples produced per operator"),
    "operator_pulls": ("counter", "tuples pulled per operator input"),
    "operator_next_calls": ("counter", "next() invocations per operator"),
    "operator_max_buffer": ("gauge", "buffer high-water mark per operator"),
    "operator_time_ns": ("gauge", "inclusive wall-clock per operator phase"),
    # Enumeration and Propagate.
    "optimizer_plans_generated": ("counter", "plans offered to the MEMO"),
    "optimizer_plans_retained": ("counter",
                                 "plans inserted into a MEMO entry"),
    "optimizer_plans_pruned": (
        "counter", "plans rejected or evicted by the dominance test"),
    "memo_entries": ("gauge", "enumerated table subsets"),
    "memo_order_classes": (
        "gauge", "retained order-property classes across the MEMO"),
    "propagate_estimated_depth": (
        "gauge", "Propagate depth estimate per rank-join input"),
    # Robustness.
    "robustness_faults_injected_total": (
        "counter", "Faults fired by fault injection wrappers"),
    "robustness_retries_total": ("counter",
                                 "Transient-fault retries by outcome"),
    "robustness_budget_breaches_total": (
        "counter", "Resource budget breaches by limit kind"),
    "robustness_recovery_actions_total": ("counter",
                                          "Mid-query recovery decisions"),
    "robustness_checkpoints_total": (
        "counter", "Checkpoints taken by trigger reason"),
    "robustness_resumes_total": ("counter",
                                 "Checkpoint restores by resume kind"),
    # Sharded execution.
    "merge_rows_total": (
        "counter", "Rows emitted by rank-aware ScoreMerge operators"),
    "merge_fanin": ("gauge", "Ranked shard streams under each ScoreMerge"),
    "shard_rows_merged_total": (
        "counter", "Rows each shard contributed to its merge"),
    "shard_tasks_total": (
        "counter", "Worker-pool task windows dispatched per shard"),
    "shard_retries_total": ("counter",
                            "Transient shard faults absorbed by retry"),
    "shard_depth": ("gauge", "Worker-kernel depth per shard input"),
    # Plan cache, columnar data plane, shared-memory transport.
    "plan_cache_hits_total": ("counter", "plan cache lookups served"),
    "plan_cache_misses_total": ("counter", "plan cache lookups missed"),
    "plan_cache_evictions_total": ("counter", "plans evicted (LRU)"),
    "plan_cache_size": ("gauge", "currently cached plans"),
    "columnar_fused_batches_total": (
        "counter", "Batches served by the fused columnar fast path"),
    "columnar_fused_rows_total": (
        "counter", "Rows produced by the fused columnar fast path"),
    "shm_segments_created_total": (
        "counter", "Shared-memory shard segments created (pool generations)"),
    "shm_segments_freed_total": (
        "counter", "Shared-memory shard segments freed (rebuild/shutdown)"),
    "shm_segment_bytes": ("gauge",
                          "Size of the live shard transport segment"),
    # Serving.
    "server_queries_total": ("counter", "Served queries by outcome"),
    "server_queue_depth": ("gauge", "Queued-plus-running queries"),
    "server_preemptions_total": (
        "counter", "Instalment expiries that suspended a running query"),
    "server_instalments_total": ("counter", "Budget instalments granted"),
    "server_sheds_total": ("counter", "Load-shedding degradations applied"),
    "server_retries_total": (
        "counter", "Transient failures retried by the scheduler"),
    "server_wait_seconds": ("histogram", "Queue wait in seconds"),
    "server_latency_seconds": ("histogram", "Submit-to-completion latency"),
    # Durability.
    "durability_writes_total": ("counter",
                                "Durable checkpoint snapshots written"),
    "durability_bytes_total": (
        "counter", "Bytes written to durable checkpoint snapshots"),
    "durability_fsyncs_total": (
        "counter", "fsync calls issued by the durability layer"),
    "durability_write_seconds": ("histogram",
                                 "Durable checkpoint write latency"),
    "durability_recoveries_total": (
        "counter", "Queries recovered from durable state, by outcome"),
    "durability_corruptions_total": (
        "counter", "Durable snapshots rejected by validation, by failed check"),
}


def _label_key(labels):
    """Canonical hashable identity of a label set."""
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Metric:
    """Base class: one named metric holding per-label-set values."""

    kind = "untyped"

    def __init__(self, name, help=""):  # noqa: A002 - prometheus idiom
        self.name = name
        self.help = help
        self._values = {}
        self._lock = threading.Lock()

    def samples(self):
        """Return ``[(labels_dict, value), ...]``, label-sorted."""
        with self._lock:
            return [(dict(key), value)
                    for key, value in sorted(self._values.items())]

    def labelsets(self):
        with self._lock:
            return [dict(key) for key in sorted(self._values)]

    def __repr__(self):
        return "%s(%s, %d labelsets)" % (
            type(self).__name__, self.name, len(self._values),
        )


class Counter(Metric):
    """Monotonically increasing count."""

    kind = "counter"

    def inc(self, amount=1, **labels):
        if amount < 0:
            raise ExecutionError(
                "counter %s cannot decrease (inc %r)" % (self.name, amount)
            )
        key = _label_key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0) + amount

    def value(self, **labels):
        """Current count for ``labels`` (0 when never incremented)."""
        with self._lock:
            return self._values.get(_label_key(labels), 0)

    def total(self):
        """Sum over every label set."""
        with self._lock:
            return sum(self._values.values())


class Gauge(Metric):
    """A value that can go up and down (set to the latest observation)."""

    kind = "gauge"

    def set(self, value, **labels):
        with self._lock:
            self._values[_label_key(labels)] = value

    def inc(self, amount=1, **labels):
        key = _label_key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0) + amount

    def value(self, **labels):
        with self._lock:
            return self._values.get(_label_key(labels), 0)


class Histogram(Metric):
    """Cumulative-bucket histogram (Prometheus semantics).

    Each label set keeps ``count``, ``sum`` and one cumulative counter
    per upper bound in ``buckets`` (plus the implicit ``+Inf``).
    """

    kind = "histogram"

    def __init__(self, name, help="", buckets=DEFAULT_BUCKETS):  # noqa: A002
        super().__init__(name, help)
        self.buckets = tuple(sorted(buckets))

    def observe(self, value, **labels):
        key = _label_key(labels)
        with self._lock:
            state = self._values.get(key)
            if state is None:
                state = {"count": 0, "sum": 0.0,
                         "buckets": [0] * (len(self.buckets) + 1)}
                self._values[key] = state
            state["count"] += 1
            state["sum"] += value
            for i, upper in enumerate(self.buckets):
                if value <= upper:
                    state["buckets"][i] += 1
            state["buckets"][-1] += 1  # +Inf

    def value(self, **labels):
        """``(count, sum)`` for one label set."""
        with self._lock:
            state = self._values.get(_label_key(labels))
            if state is None:
                return (0, 0.0)
            return (state["count"], state["sum"])


class MetricsRegistry:
    """Named metrics, created on first use.

    ``counter`` / ``gauge`` / ``histogram`` are get-or-create:
    re-requesting an existing name returns the same instance (and
    raises if the requested type differs -- a name is one metric).  A
    name declared in :data:`METRICS` takes its kind and help text from
    there (and, for a histogram, :data:`SECONDS_BUCKETS`); any other
    name is an ad-hoc metric with the ``help`` given.
    """

    def __init__(self):
        self._metrics = {}
        self._lock = threading.Lock()

    def _get(self, cls, name, help, **kwargs):  # noqa: A002
        kind, help = METRICS.get(name, (cls.kind, help))
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None and kind == cls.kind:
                metric = self._metrics[name] = cls(name, help, **kwargs)
        if metric is not None:
            kind = metric.kind
        if kind != cls.kind:
            raise ExecutionError(
                "metric %r is a %s, requested %s" % (name, kind, cls.kind)
            )
        return metric

    def counter(self, name, help=""):  # noqa: A002
        return self._get(Counter, name, help)

    def gauge(self, name, help=""):  # noqa: A002
        return self._get(Gauge, name, help)

    def histogram(self, name, help="", buckets=None):  # noqa: A002
        if buckets is None:
            buckets = SECONDS_BUCKETS if name in METRICS else DEFAULT_BUCKETS
        return self._get(Histogram, name, help, buckets=buckets)

    def get(self, name):
        """Look up an existing metric by name (``None`` when absent)."""
        with self._lock:
            return self._metrics.get(name)

    def collect(self):
        """All metrics, name-sorted."""
        with self._lock:
            return [self._metrics[name] for name in sorted(self._metrics)]

    def as_dicts(self):
        """Plain-dict form, one entry per (metric, label set)."""
        out = []
        for metric in self.collect():
            for labels, value in metric.samples():
                out.append({
                    "name": metric.name,
                    "kind": metric.kind,
                    "labels": labels,
                    "value": value,
                })
        return out

    def describe(self):
        """Readable one-line-per-sample dump."""
        lines = []
        for entry in self.as_dicts():
            label_text = ",".join(
                "%s=%s" % (k, v) for k, v in sorted(entry["labels"].items())
            )
            lines.append("%s{%s} = %s" % (entry["name"], label_text,
                                          entry["value"]))
        return "\n".join(lines)

    def __repr__(self):
        return "MetricsRegistry(%d metrics)" % (len(self._metrics),)


class _NullMetric:
    """Shared no-op counter / gauge / histogram."""

    __slots__ = ()

    def inc(self, amount=1, **labels):
        return None

    def set(self, value, **labels):
        return None

    def observe(self, value, **labels):
        return None


_NULL_METRIC = _NullMetric()


class NullMetricsRegistry(MetricsRegistry):
    """An always-empty registry: every metric is one shared no-op."""

    def _get(self, cls, name, help, **kwargs):  # noqa: A002
        return _NULL_METRIC

    def __repr__(self):
        return "NullMetricsRegistry()"


#: Shared no-op registry for unwired components (safe: it holds no state).
NULL_METRICS = NullMetricsRegistry()
