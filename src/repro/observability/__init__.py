"""Observability: tracing, metrics, events, and accuracy telemetry.

The paper's evaluation is all about *measured vs estimated* quantities
-- rank-join depths, buffer bounds, plan-cost crossovers.  This package
gives the engine the means to measure them on every query:

* :mod:`~repro.observability.tracer` -- hierarchical wall-clock spans
  (optimize -> open -> next -> close) with a zero-cost no-op mode;
* :mod:`~repro.observability.metrics` -- labelled counters, gauges and
  histograms (per-operator pulls, rows, buffer high-water marks,
  optimizer plan counts per interesting order);
* :mod:`~repro.observability.events` -- a structured log of discrete
  decisions (MEMO inserts, prunings, pipelining exemptions, Propagate
  depth assignments, recovery actions);
* :mod:`~repro.observability.export` -- JSON-lines and Prometheus-text
  exporters plus the ``estimate_accuracy`` report joining Algorithm
  Propagate's estimates against measured ``OperatorStats``.

A :class:`Telemetry` object bundles one tracer, one metrics registry
and one event log for a query (or a batch of queries).  All
instrumentation is opt-in: pass ``trace=True`` (or a ``Telemetry``) to
:meth:`repro.executor.database.Database.execute`; with no telemetry
attached every hook is a single ``is None`` check.
"""

from repro.observability.events import NULL_EVENTS, EventLog
from repro.observability.metrics import NULL_METRICS, MetricsRegistry
from repro.observability.tracer import NULL_TRACER, NullTracer, Span, Tracer

__all__ = [
    "EventLog",
    "MetricsRegistry",
    "NULL_EVENTS",
    "NULL_METRICS",
    "NULL_TRACER",
    "NullTracer",
    "Span",
    "Telemetry",
    "Tracer",
]


class Telemetry:
    """One tracer + metrics registry + event log, wired together.

    Parameters
    ----------
    enabled:
        With ``False`` the tracer is the shared no-op
        :data:`~repro.observability.tracer.NULL_TRACER` (metrics and
        events stay real but nothing in the engine feeds them unless
        explicitly asked to).
    """

    def __init__(self, enabled=True):
        self.enabled = enabled
        self.tracer = Tracer() if enabled else NULL_TRACER
        self.metrics = MetricsRegistry()
        self.events = EventLog()

    # ------------------------------------------------------------------
    # Operator-tree wiring
    # ------------------------------------------------------------------
    def instrument(self, root):
        """Attach the tracer to every operator in ``root``'s tree.

        Instrumented operators time ``open``/``next``/``close`` and
        per-child pulls into their :class:`OperatorStats` and emit
        per-operator ``open``/``close`` spans.
        """
        if not self.enabled:
            return root
        for operator in root.walk():
            operator._tracer = self.tracer
        return root

    def release(self, root):
        """Detach the tracer from ``root``'s tree."""
        for operator in root.walk():
            operator._tracer = None
        return root

    # ------------------------------------------------------------------
    # Post-execution collection
    # ------------------------------------------------------------------
    def record_operators(self, snapshots):
        """Feed per-operator snapshot counters into the registry.

        Populates ``operator_rows_out``, ``operator_pulls``,
        ``operator_next_calls`` (counters), ``operator_max_buffer`` and
        ``operator_time_ns`` (gauges; the timing gauges only when the
        operator tree was traced).
        """
        rows_out = self.metrics.counter("operator_rows_out")
        pulls = self.metrics.counter("operator_pulls")
        next_calls = self.metrics.counter("operator_next_calls")
        max_buffer = self.metrics.gauge("operator_max_buffer")
        time_ns = self.metrics.gauge("operator_time_ns")
        for snap in snapshots:
            label = snap.description
            rows_out.inc(snap.rows_out, operator=label)
            for index, pulled in enumerate(snap.pulled):
                pulls.inc(pulled, operator=label, input=index)
            max_buffer.set(snap.max_buffer, operator=label)
            if snap.next_calls:
                next_calls.inc(snap.next_calls, operator=label)
            for phase, value in (("open", snap.time_open_ns),
                                 ("next", snap.time_next_ns),
                                 ("close", snap.time_close_ns)):
                if value:
                    time_ns.set(value, operator=label, phase=phase)

    # ------------------------------------------------------------------
    def describe(self):
        """Readable dump: span trees, then metrics, then events."""
        sections = []
        spans = self.tracer.describe()
        if spans:
            sections.append("spans:\n" + spans)
        metrics = self.metrics.describe()
        if metrics:
            sections.append("metrics:\n" + metrics)
        if len(self.events):
            sections.append("events:\n" + self.events.describe())
        return "\n\n".join(sections)

    def __repr__(self):
        return "Telemetry(%r, %d events)" % (
            self.tracer, len(self.events),
        )
