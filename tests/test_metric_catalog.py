"""The declared metric table: docs agreement, golden values, emitters.

:data:`repro.observability.metrics.METRICS` is the one list of engine
metrics.  These tests hold it to the tables of ``docs/observability.md``
in both directions, and replay a fixed scenario set -- a traced guarded
run with faults and checkpoints, a durable suspend/resume, a served run
with shedding, rejection and a retry, and an inline sharded run --
whose every counter and gauge sample must equal
``fixtures/metric_golden.json``.

Regenerate the golden file only when a metric change is intended::

    PYTHONPATH=src python -m tests.test_metric_catalog
"""

import asyncio
import json
import os
import re
import tempfile

import pytest

from repro.common.errors import (
    CheckpointCorruptionError,
    ExecutionError,
    OverloadError,
)
from repro.common.rng import make_rng
from repro.cost.model import PAPER_2004, CostModel
from repro.executor.database import Database
from repro.observability.events import NULL_EVENTS, EventLog
from repro.observability.metrics import (
    DEFAULT_BUCKETS,
    METRICS,
    NULL_METRICS,
    SECONDS_BUCKETS,
    MetricsRegistry,
)
from repro.operators.scan import TableScan
from repro.optimizer.enumerator import OptimizerConfig
from repro.robustness.budget import ResourceBudget
from repro.robustness.durability import CheckpointStore
from repro.robustness.faults import (
    FaultPlan,
    FaultSpec,
    FaultyOperator,
    RetryingOperator,
)
from repro.server import AdmissionPolicy, SchedulerConfig, Server

HERE = os.path.dirname(__file__)
GOLDEN = os.path.join(HERE, "fixtures", "metric_golden.json")
DOCS = os.path.join(HERE, os.pardir, "docs", "observability.md")

SQL = """
WITH Ranked AS (
  SELECT A.c1 AS x, B.c2 AS y,
         rank() OVER (ORDER BY (0.3*A.c1 + 0.7*B.c2)) AS rank
  FROM A, B WHERE A.c2 = B.c1)
SELECT x, y, rank FROM Ranked WHERE rank <= 5
"""

BIG_SQL = SQL.replace("rank <= 5", "rank <= 40")

SELECTION_SQL = "SELECT A.c1 FROM A WHERE A.c1 >= 0.5"

#: Wall-clock gauges: their values differ on every run.
TIMED = {"operator_time_ns"}

KINDS = ("counter", "gauge", "histogram")


def make_db(hrjn_only=False, rows=400, seed=3, domain=15, cost_model=None):
    rng = make_rng(seed)
    config = OptimizerConfig(enable_nrjn=False) if hrjn_only else None
    db = Database(cost_model=cost_model, config=config)
    db.create_table("A", [("c1", "float"), ("c2", "int")], rows=[
        [float(rng.uniform(0, 1)), int(rng.integers(0, domain))]
        for _ in range(rows)
    ])
    db.create_table("B", [("c1", "int"), ("c2", "float")], rows=[
        [int(rng.integers(0, domain)), float(rng.uniform(0, 1))]
        for _ in range(rows)
    ])
    db.analyze()
    return db


def rank_join_faults(**kwargs):
    return FaultPlan([FaultSpec(
        target=lambda op: op.name.startswith(("HRJN", "NRJN")), **kwargs)])


# ----------------------------------------------------------------------
# The scenarios: each returns {source: registry}
# ----------------------------------------------------------------------
def guarded_scenario(_workdir):
    # The breach needs a plan that reads past 100 pulls: the paper's
    # cost profile plans NRJN here (IN_MEMORY's HRJN reads 36).
    db = make_db(cost_model=CostModel(PAPER_2004))
    faulted = db.execute_guarded(
        SQL, trace=True, checkpoint=2,
        faults=rank_join_faults(on="next", at=4, transient=True))
    breached = db.execute_guarded(
        SQL, trace=True, budget=ResourceBudget(max_pulls=100),
        checkpoint=2)
    db.execute(SELECTION_SQL)
    wrappers = MetricsRegistry()
    retry = RetryingOperator(FaultyOperator(
        TableScan(db.catalog.table("A")),
        [FaultSpec("Scan(A)", on="next", at=2, times=2, transient=True)],
        metrics=wrappers), max_retries=3, metrics=wrappers)
    list(retry)
    return {"db": db.metrics, "faulted": faulted.telemetry.metrics,
            "breached": breached.telemetry.metrics, "wrappers": wrappers}


def durable_scenario(workdir):
    state_dir = os.path.join(workdir, "durable")
    first = make_db(hrjn_only=True)
    suspended = first.execute_guarded(
        BIG_SQL, budget=ResourceBudget(max_pulls=150), checkpoint=4,
        state_dir=state_dir)
    assert suspended.suspended
    resumed = make_db(hrjn_only=True)
    resumed.resume(state_dir)
    # A second suspension whose snapshots claim another format
    # version: recovery restarts the query they still name.
    stale_dir = os.path.join(workdir, "stale")
    first.execute_guarded(
        BIG_SQL, budget=ResourceBudget(max_pulls=150), checkpoint=4,
        state_dir=stale_dir)
    store = CheckpointStore(stale_dir, fsync=False)
    for path in store.snapshots(store.query_ids()[0]):
        with open(path, "r+b") as handle:
            handle.seek(4)  # the u16 format version after the magic
            handle.write(b"\x00\x01")
    restarted = make_db(hrjn_only=True)
    restarted.resume(stale_dir)
    return {"first": first.metrics, "resumed": resumed.metrics,
            "restarted": restarted.metrics}


def served_scenario(_workdir):
    db = make_db(hrjn_only=True)
    policy = AdmissionPolicy(high_water=3, shed_water=1, shed_k=5)
    config = SchedulerConfig(instalment_pulls=30, retry_backoff=0.0)
    faults = FaultPlan([FaultSpec(
        target=lambda op: op.name.startswith("HRJN"),
        on="open", at=1, times=1, transient=True)])

    async def main():
        async with Server(db, admission=policy, scheduler=config) as server:
            # No await yields between submissions, so admission sees
            # queue depths 0, 1, 2, 3: admit, reduce k, force the
            # fallback plan, reject.
            sessions = [
                await server.submit(SQL, tenant="alice", faults=faults),
                await server.submit(BIG_SQL, tenant="bob"),
                await server.submit(SQL, tenant="bob"),
            ]
            with pytest.raises(OverloadError):
                await server.submit(SQL, tenant="carol")
            for session in sessions:
                await session.result()

    asyncio.run(main())
    return {"db": db.metrics}


def sharded_scenario(_workdir):
    db = make_db()
    try:
        report = db.execute(SQL, parallel="inline", shards=4, trace=True)
    finally:
        db.shard_pool.shutdown()
    return {"db": db.metrics, "traced": report.telemetry.metrics}


SCENARIOS = {
    "guarded": guarded_scenario,
    "durable": durable_scenario,
    "served": served_scenario,
    "sharded": sharded_scenario,
}


def scenario_registries():
    """``{(scenario, source): registry}`` over every scenario."""
    out = {}
    with tempfile.TemporaryDirectory() as workdir:
        for name, scenario in SCENARIOS.items():
            scratch = os.path.join(workdir, name)
            os.makedirs(scratch)
            for source, registry in scenario(scratch).items():
                out[(name, source)] = registry
    return out


def samples(registries):
    """Sorted ``[scenario, source, name, kind, labels, value]`` rows of
    every counter and gauge (histograms time things; skipped)."""
    rows = []
    for (scenario, source), registry in registries.items():
        for entry in registry.as_dicts():
            if entry["kind"] == "histogram" or entry["name"] in TIMED:
                continue
            rows.append([scenario, source, entry["name"], entry["kind"],
                         entry["labels"], entry["value"]])
    return sorted(rows, key=lambda row: json.dumps(row, sort_keys=True))


def write_golden():
    rows = samples(scenario_registries())
    with open(GOLDEN, "w") as handle:
        handle.write("[\n%s\n]\n" % (",\n".join(
            json.dumps(row, sort_keys=True) for row in rows),))
    return len(rows)


def documented_metrics():
    """``{name: kind}`` from every metric table in the observability doc."""
    documented = {}
    with open(DOCS) as handle:
        for line in handle:
            cells = [cell.strip() for cell in line.split("|")]
            if len(cells) < 4 or cells[2] not in KINDS:
                continue
            for name in re.findall(r"`(\w+)`", cells[1]):
                documented[name] = cells[2]
    return documented


# ----------------------------------------------------------------------
# The tests
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def registries():
    return scenario_registries()


class TestCatalogMatchesDocs:
    def test_every_declared_metric_is_documented_with_its_kind(self):
        documented = documented_metrics()
        for name, (kind, _help) in METRICS.items():
            assert documented.get(name) == kind, name

    def test_every_documented_metric_is_declared(self):
        for name, kind in documented_metrics().items():
            assert name in METRICS, name
            assert METRICS[name][0] == kind, name

    def test_every_declared_metric_has_help(self):
        for name, (_kind, help_text) in METRICS.items():
            assert help_text, name


class TestGoldenValues:
    def test_samples_equal_the_golden_file(self, registries):
        with open(GOLDEN) as handle:
            golden = json.load(handle)
        assert samples(registries) == golden

    def test_every_emitted_metric_is_declared(self, registries):
        for registry in registries.values():
            for metric in registry.collect():
                assert metric.name in METRICS, metric.name
                assert METRICS[metric.name][0] == metric.kind, metric.name
                assert metric.help == METRICS[metric.name][1]


class TestEmitters:
    def test_declared_name_rejects_another_kind(self):
        with pytest.raises(ExecutionError):
            MetricsRegistry().gauge("plan_cache_hits_total")

    def test_buckets_and_help_of_declared_and_adhoc_metrics(self):
        registry = MetricsRegistry()
        assert (registry.histogram("server_wait_seconds").buckets
                == SECONDS_BUCKETS)
        assert registry.histogram("adhoc_us").buckets == DEFAULT_BUCKETS
        assert registry.counter("adhoc_total", "mine").help == "mine"

    def test_null_objects_record_nothing(self):
        NULL_METRICS.counter("plan_cache_hits_total").inc(3)
        NULL_METRICS.gauge("plan_cache_size").set(1)
        NULL_METRICS.histogram("server_wait_seconds").observe(0.5)
        assert NULL_METRICS.collect() == []
        assert NULL_EVENTS.emit("admit", tenant="t") is None
        assert len(NULL_EVENTS) == 0

    def test_an_event_attribute_may_be_named_kind(self, tmp_path):
        log = EventLog()
        store = CheckpointStore(tmp_path, fsync=False, events=log)
        path = tmp_path / "q1-00000001.ckpt"
        path.write_bytes(b"garbage")
        with pytest.raises(CheckpointCorruptionError):
            store.read_snapshot(str(path))
        (event,) = log.events("durable_corruption")
        assert event.attributes["kind"] == "truncated"


if __name__ == "__main__":
    print("wrote %d samples to %s" % (write_golden(), GOLDEN))
