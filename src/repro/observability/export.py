"""Exporters and the estimate-accuracy report.

Two machine formats:

* :func:`to_jsonl` -- one JSON object per line, ``type`` tagged
  (``span`` / ``metric`` / ``event``), suitable for log shipping and
  offline analysis;
* :func:`to_prometheus` -- the Prometheus text exposition format for a
  :class:`~repro.observability.metrics.MetricsRegistry`.

And the quantitative heart of the package: :func:`estimate_accuracy`
joins Algorithm Propagate's estimated depths and the ``dL * dR * s``
buffer bound against the measured :class:`OperatorStats` of one
executed query, operator by operator -- the same estimated-vs-actual
comparison the paper's Section 5 (Figures 13-15) makes, available on
every query.
"""

import json

from repro.cost.buffer import buffer_upper_bound


# ----------------------------------------------------------------------
# JSON lines
# ----------------------------------------------------------------------
def to_jsonl(telemetry):
    """Serialise a Telemetry bundle as JSON lines.

    Every line is a standalone JSON object tagged with ``type``:
    ``span`` (one per root span, children nested), ``metric`` (one per
    metric/label-set sample), ``event`` (one per logged event).
    """
    lines = []
    for span in telemetry.tracer.as_dicts():
        lines.append(json.dumps({"type": "span", **span}, default=str))
    for sample in telemetry.metrics.as_dicts():
        lines.append(json.dumps({"type": "metric", **sample}, default=str))
    for event in telemetry.events.as_dicts():
        lines.append(json.dumps({"type": "event", **event}, default=str))
    return "\n".join(lines) + ("\n" if lines else "")


# ----------------------------------------------------------------------
# Prometheus text format
# ----------------------------------------------------------------------
def _escape_label(value):
    return (str(value).replace("\\", r"\\").replace("\n", r"\n")
            .replace('"', r'\"'))


def _format_labels(labels, extra=None):
    items = dict(labels)
    if extra:
        items.update(extra)
    if not items:
        return ""
    body = ",".join('%s="%s"' % (key, _escape_label(value))
                    for key, value in sorted(items.items()))
    return "{%s}" % (body,)


def to_prometheus(metrics):
    """Render a MetricsRegistry in Prometheus text exposition format."""
    lines = []
    for metric in metrics.collect():
        if metric.help:
            lines.append("# HELP %s %s" % (metric.name, metric.help))
        lines.append("# TYPE %s %s" % (metric.name, metric.kind))
        for labels, value in metric.samples():
            if metric.kind == "histogram":
                bounds = list(metric.buckets) + ["+Inf"]
                for upper, count in zip(bounds, value["buckets"]):
                    lines.append("%s_bucket%s %s" % (
                        metric.name,
                        _format_labels(labels, {"le": upper}),
                        count,
                    ))
                lines.append("%s_sum%s %s" % (
                    metric.name, _format_labels(labels), value["sum"]))
                lines.append("%s_count%s %s" % (
                    metric.name, _format_labels(labels), value["count"]))
            else:
                lines.append("%s%s %s" % (
                    metric.name, _format_labels(labels), value))
    return "\n".join(lines) + ("\n" if lines else "")


# ----------------------------------------------------------------------
# Estimate accuracy
# ----------------------------------------------------------------------
def _relative_error(actual, estimated):
    """|actual - estimated| relative to the actual (floored at 1)."""
    return abs(actual - estimated) / max(float(actual), 1.0)


def estimate_accuracy(report):
    """Estimated vs measured quantities for one executed query.

    Returns a list of dicts, pre-order over the plan tree.  Rank-join
    nodes carry depth and buffer comparisons::

        {"operator": ..., "kind": "rank_join", "required_k": ...,
         "est_d_left": ..., "est_d_right": ...,
         "actual_d_left": ..., "actual_d_right": ...,
         "depth_error": ...,     # relative, on max(dL, dR)
         "est_buffer": ...,      # dL * dR * s upper bound
         "actual_buffer": ...}

    Ranked inputs below a rank-join carry the propagated required
    depth vs the rows they actually produced (``kind": "input"``);
    any other plan-bound operator compares estimated full cardinality
    against (top-k truncated) actual rows (``kind": "plan"``).

    Estimated depths are exactly ``propagate_depths`` output: the same
    estimates the optimizer costed the plan with and the robustness
    layer derives its depth limits from.  A sharded root reports the
    rank joins of every shard.
    """
    estimates = {
        id(plan): (required, estimate)
        for plan, required, estimate
        in report.optimization.propagate_depths()
    }
    rows = []
    for snap in report.operators:
        plan = snap.plan
        if plan is None:
            continue
        required, estimate = estimates.get(id(plan), (None, None))
        if estimate is not None:
            actual_depth = max(snap.depth, 1)
            est_depth = max(estimate.d_left, estimate.d_right)
            selectivity = getattr(plan, "selectivity", 1.0)
            rows.append({
                "operator": snap.description,
                "kind": "rank_join",
                "required_k": required,
                "est_d_left": estimate.d_left,
                "est_d_right": estimate.d_right,
                "actual_d_left": snap.pulled[0] if snap.pulled else 0,
                "actual_d_right": (snap.pulled[1]
                                   if len(snap.pulled) > 1 else 0),
                "depth_error": _relative_error(actual_depth, est_depth),
                "est_buffer": buffer_upper_bound(
                    estimate.d_left, estimate.d_right, selectivity),
                "actual_buffer": snap.max_buffer,
            })
        elif required is not None:
            rows.append({
                "operator": snap.description,
                "kind": "input",
                "required_k": required,
                "est_depth": required,
                "actual_depth": snap.rows_out,
                "depth_error": _relative_error(
                    max(snap.rows_out, 1), required),
            })
        else:
            rows.append({
                "operator": snap.description,
                "kind": "plan",
                "est_rows": plan.cardinality,
                "actual_rows": snap.rows_out,
            })
    return rows


def format_accuracy(rows):
    """Readable table for :func:`estimate_accuracy` output."""
    lines = ["estimate accuracy:"]
    if not rows:
        lines.append("  (no plan-bound operators)")
        return "\n".join(lines)
    for row in rows:
        if row["kind"] == "rank_join":
            lines.append(
                "  %-46s k=%-5.0f est depth=(%.0f, %.0f) "
                "actual=(%d, %d) err=%.0f%% est buffer<=%.0f actual=%d"
                % (row["operator"], row["required_k"],
                   row["est_d_left"], row["est_d_right"],
                   row["actual_d_left"], row["actual_d_right"],
                   100.0 * row["depth_error"],
                   row["est_buffer"], row["actual_buffer"])
            )
        elif row["kind"] == "input":
            lines.append(
                "  %-46s required depth=%.0f actual=%d err=%.0f%%"
                % (row["operator"], row["est_depth"],
                   row["actual_depth"], 100.0 * row["depth_error"])
            )
        else:
            lines.append(
                "  %-46s est rows<=%.0f actual rows=%d"
                % (row["operator"], row["est_rows"], row["actual_rows"])
            )
    return "\n".join(lines)
