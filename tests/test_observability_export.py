"""Exporters and end-to-end telemetry for a traced 3-way rank join."""

import json

import pytest

from repro.common.rng import make_rng
from repro.executor.database import Database
from repro.observability import Telemetry
from repro.observability.export import (
    estimate_accuracy,
    format_accuracy,
    to_jsonl,
    to_prometheus,
)
from repro.optimizer.enumerator import OptimizerConfig
from repro.optimizer.plans import RankJoinPlan, ScoreMergePlan

THREE_WAY_SQL = """
WITH R AS (
  SELECT A.c1 AS x, rank() OVER (ORDER BY (A.c1 + B.c1 + C.c1)) AS rank
  FROM A, B, C WHERE A.c2 = B.c2 AND B.c2 = C.c2)
SELECT x, rank FROM R WHERE rank <= 5
"""

TWO_WAY_SQL = """
WITH R AS (
  SELECT A.c1 AS x, rank() OVER (ORDER BY (A.c1 + B.c1)) AS rank
  FROM A, B WHERE A.c2 = B.c2)
SELECT x, rank FROM R WHERE rank <= 20
"""


def make_three_way_db(rows=400, domain=15, seed=7):
    rng = make_rng(seed)
    db = Database(config=OptimizerConfig(enable_nrjn=False))
    for name in ("A", "B", "C"):
        db.create_table(
            name, [("c1", "float"), ("c2", "int")],
            rows=[[float(rng.uniform(0, 1)), int(rng.integers(0, domain))]
                  for _ in range(rows)],
        )
    db.analyze()
    return db


@pytest.fixture(scope="module")
def traced_report():
    return make_three_way_db().execute(THREE_WAY_SQL, trace=True)


class TestTracedExecution:
    def test_rows_and_plan_shape(self, traced_report):
        assert len(traced_report.rows) == 5
        assert isinstance(traced_report.best_plan, RankJoinPlan)

    def test_span_tree_covers_lifecycle(self, traced_report):
        tracer = traced_report.telemetry.tracer
        (execute,) = tracer.spans
        assert execute.name == "execute"
        phases = [child.name for child in execute.children]
        assert phases == ["optimize", "build", "open", "next", "close"]
        # Per-operator spans nest under the executor open/close phases.
        open_phase = execute.find("open")
        assert any(span.attributes.get("operator")
                   for span in open_phase.walk() if span is not open_phase)

    def test_metrics_match_snapshots(self, traced_report):
        metrics = traced_report.telemetry.metrics
        pulls = metrics.counter("operator_pulls")
        rows_out = metrics.counter("operator_rows_out")
        for snap in traced_report.operators:
            assert rows_out.value(operator=snap.description) == snap.rows_out
            for index, pulled in enumerate(snap.pulled):
                assert pulls.value(
                    operator=snap.description, input=index) == pulled

    def test_per_operator_timing_collected(self, traced_report):
        assert traced_report.timed
        for snap in traced_report.operators:
            assert snap.total_time_ns > 0

    def test_optimizer_events_recorded(self, traced_report):
        events = traced_report.telemetry.events
        assert events.count("memo_insert") > 0
        assert events.count("plan_pruned") > 0
        assert events.count("propagate_depth") > 0
        retained = traced_report.telemetry.metrics.counter(
            "optimizer_plans_retained")
        assert retained.total() == events.count("memo_insert")

    def test_pipelining_exemption_events(self, traced_report):
        events = traced_report.telemetry.events
        exemptions = events.events("pipelining_exemption")
        assert exemptions  # Rank-join plans survive cheaper sort plans.
        for event in exemptions:
            assert "kept" in event.attributes
            assert "against" in event.attributes

    def test_memo_gauges(self, traced_report):
        metrics = traced_report.telemetry.metrics
        assert metrics.gauge("memo_entries").value() == 6  # A,B,C,AB,BC,ABC
        assert metrics.gauge("memo_order_classes").value() > 0


class TestEstimateAccuracy:
    def test_depths_match_propagate_output(self, traced_report):
        """Acceptance: estimated depths == propagate_depths output."""
        rows = traced_report.estimate_accuracy()
        root_plan = traced_report.best_plan
        expected = {
            id(plan): estimate
            for plan, _required, estimate in root_plan.propagate_depths(5)
            if estimate is not None
        }
        plan_of = {snap.description: snap.plan
                   for snap in traced_report.operators}
        rank_rows = [row for row in rows if row["kind"] == "rank_join"]
        assert len(rank_rows) == len(expected) == 2  # 3-way: two joins
        for row in rank_rows:
            estimate = expected[id(plan_of[row["operator"]])]
            assert row["est_d_left"] == estimate.d_left
            assert row["est_d_right"] == estimate.d_right

    def test_actuals_match_snapshots(self, traced_report):
        by_operator = {row["operator"]: row
                       for row in traced_report.estimate_accuracy()}
        for snap in traced_report.operators:
            row = by_operator.get(snap.description)
            if row is None or row["kind"] != "rank_join":
                continue
            assert row["actual_d_left"] == snap.pulled[0]
            assert row["actual_d_right"] == snap.pulled[1]
            assert row["actual_buffer"] == snap.max_buffer

    def test_input_rows_carry_required_depths(self, traced_report):
        rows = traced_report.estimate_accuracy()
        inputs = [row for row in rows if row["kind"] == "input"]
        assert len(inputs) == 3  # Three ranked base inputs.
        for row in inputs:
            assert row["est_depth"] > 0
            assert row["actual_depth"] > 0

    def test_format_accuracy_text(self, traced_report):
        text = format_accuracy(traced_report.estimate_accuracy())
        assert text.startswith("estimate accuracy:")
        assert "est depth=" in text
        assert "est buffer<=" in text

    def test_format_accuracy_empty(self):
        assert "no plan-bound operators" in format_accuracy([])

    def test_sharded_root_reports_shard_depths(self):
        """A ScoreMerge root reports each shard's rank join against the
        Propagate records ``analyze()`` and recovery read."""
        report = make_three_way_db().execute(
            TWO_WAY_SQL, shards=2, parallel="inline")
        assert isinstance(report.best_plan, ScoreMergePlan)
        expected = [estimate.as_tuple() for _plan, _required, estimate
                    in report.best_plan.propagate_depths(20)
                    if estimate is not None]
        rows = [(row["est_d_left"], row["est_d_right"])
                for row in report.estimate_accuracy()
                if row["kind"] == "rank_join"]
        assert rows == expected and len(rows) == 2  # One per shard.
        assert "est depth=(" in report.accuracy_summary()

    def test_non_rank_join_report_has_plan_rows(self):
        db = make_three_way_db()
        report = db.execute(
            "SELECT A.c1, B.c1 FROM A, B WHERE A.c2 = B.c2")
        rows = estimate_accuracy(report)
        assert rows
        assert all(row["kind"] == "plan" for row in rows)


class TestExporters:
    def test_jsonl_every_line_parses(self, traced_report):
        payload = to_jsonl(traced_report.telemetry)
        lines = payload.strip().splitlines()
        assert lines
        parsed = [json.loads(line) for line in lines]
        types = {entry["type"] for entry in parsed}
        assert types == {"span", "metric", "event"}

    def test_jsonl_empty_telemetry(self):
        assert to_jsonl(Telemetry()) == ""

    def test_prometheus_format(self, traced_report):
        text = to_prometheus(traced_report.telemetry.metrics)
        assert "# TYPE operator_pulls counter" in text
        assert "# TYPE memo_entries gauge" in text
        # Sample lines are name{labels} value.
        for line in text.strip().splitlines():
            if line.startswith("#"):
                continue
            name_part, value = line.rsplit(" ", 1)
            assert name_part
            float(value)  # Parses as a number.

    def test_prometheus_histogram_rendering(self):
        from repro.observability.metrics import MetricsRegistry

        registry = MetricsRegistry()
        histogram = registry.histogram("lat", buckets=(1.0, 10.0))
        histogram.observe(0.5, op="x")
        histogram.observe(5.0, op="x")
        text = to_prometheus(registry)
        assert 'lat_bucket{le="1.0",op="x"} 1' in text
        assert 'lat_bucket{le="10.0",op="x"} 2' in text
        assert 'lat_bucket{le="+Inf",op="x"} 2' in text
        assert 'lat_count{op="x"} 2' in text

    def test_prometheus_label_escaping(self):
        from repro.observability.metrics import MetricsRegistry

        registry = MetricsRegistry()
        registry.counter("c").inc(op='say "hi"\nthere')
        text = to_prometheus(registry)
        assert r'\"hi\"' in text
        assert r"\n" in text
