"""Admission control, the degradation ladder, and thread safety.

Covers cost-based queue classing, the shed ladder (reduced ``k`` ->
forced sort fallback -> :class:`OverloadError`), tenant aggregate
caps, and the concurrency contracts the server relies on: a
thread-safe :class:`PlanCache`, :class:`MetricsRegistry` and
:class:`EventLog`.
"""

import asyncio
import sys
import threading

import pytest

from repro.common.errors import OverloadError
from repro.common.rng import make_rng
from repro.cost.model import PAPER_2004, CostModel
from repro.executor.database import Database
from repro.executor.plan_cache import PlanCache
from repro.observability.events import EventLog
from repro.observability.metrics import MetricsRegistry
from repro.optimizer.enumerator import OptimizerConfig
from repro.robustness.budget import ResourceBudget, TenantBudget
from repro.server import AdmissionController, AdmissionPolicy, Server
from repro.server.admission import BATCH, INTERACTIVE
from repro.sql.parser import parse_query

SQL = """
WITH Ranked AS (
  SELECT A.c1 AS x, B.c2 AS y,
         rank() OVER (ORDER BY (0.3*A.c1 + 0.7*B.c2)) AS rank
  FROM A, B WHERE A.c2 = B.c1)
SELECT x, y, rank FROM Ranked WHERE rank <= 5
"""

BIG_SQL = SQL.replace("rank <= 5", "rank <= 40")


def make_db(rows=400, seed=3, domain=15, cost_model=None):
    rng = make_rng(seed)
    db = Database(cost_model=cost_model,
                  config=OptimizerConfig(enable_nrjn=False))
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


class TestQueueClassing:
    def test_cost_threshold_splits_interactive_from_batch(self):
        db = make_db(cost_model=CostModel(PAPER_2004))
        # In PAPER_2004 units the k=5 plan costs ~102, the k=40 plan
        # ~282: a threshold between them classes one per queue.
        controller = AdmissionController(
            db, AdmissionPolicy(interactive_cost=150.0))
        cheap = controller.admit(parse_query(SQL), "t", queue_depth=0)
        big = controller.admit(parse_query(BIG_SQL), "t", queue_depth=0)
        assert cheap.queue_class == INTERACTIVE
        assert big.queue_class == BATCH
        assert cheap.estimated_cost < big.estimated_cost
        assert not cheap.shed and not big.shed

    def test_admission_planning_hits_the_plan_cache(self):
        db = make_db()
        controller = AdmissionController(db)
        controller.admit(parse_query(SQL), "t", queue_depth=0)
        before = db.plan_cache.stats()["hits"]
        controller.admit(parse_query(SQL), "t", queue_depth=0)
        assert db.plan_cache.stats()["hits"] == before + 1

    def test_policy_validation(self):
        with pytest.raises(OverloadError):
            AdmissionPolicy(high_water=0)
        # shed_water defaults to half the high-water mark.
        assert AdmissionPolicy(high_water=10).shed_water == 5


class TestDegradationLadder:
    def test_reduced_k_above_shed_water(self):
        db = make_db()
        controller = AdmissionController(
            db, AdmissionPolicy(high_water=8, shed_water=2, shed_k=5))
        decision = controller.admit(parse_query(BIG_SQL), "t",
                                    queue_depth=4)
        assert decision.shed_action == "reduced_k"
        assert decision.query.k == 5
        assert decision.original_k == 40

    def test_fallback_plan_when_k_cannot_shrink(self):
        db = make_db()
        controller = AdmissionController(
            db, AdmissionPolicy(high_water=8, shed_water=2, shed_k=5))
        # k=5 is already at the shed target -> rung 2 forces the
        # blocking sort-fallback plan instead.
        decision = controller.admit(parse_query(SQL), "t",
                                    queue_depth=4)
        assert decision.shed_action == "fallback_plan"
        assert decision.query.k == 5

    def test_reject_at_high_water(self):
        db = make_db()
        controller = AdmissionController(
            db, AdmissionPolicy(high_water=3))
        with pytest.raises(OverloadError) as info:
            controller.admit(parse_query(SQL), "alice", queue_depth=3)
        assert info.value.queue_depth == 3
        assert info.value.high_water == 3
        assert info.value.tenant == "alice"

    def test_shed_run_returns_reduced_topk_with_shed_path(self):
        db = make_db()
        serial = db.execute(SQL).rows  # k=5: the reduced answer
        policy = AdmissionPolicy(high_water=8, shed_water=0, shed_k=5)

        async def main():
            async with Server(db, admission=policy) as server:
                session = await server.submit(BIG_SQL)
                report = await session.result()
            return report

        report = asyncio.run(main())
        # The shed run served the top-5 prefix of the requested
        # top-40, and recorded the degradation on the recovery path.
        assert report.rows == serial
        assert report.recovery.path == "shed"
        assert db.metrics.counter(
            "server_sheds_total").total() == 1

    def test_forced_fallback_run_matches_serial_answer(self):
        db = make_db()
        serial = db.execute(SQL).rows
        policy = AdmissionPolicy(high_water=8, shed_water=0, shed_k=5)

        async def main():
            async with Server(db, admission=policy) as server:
                session = await server.submit(SQL)
                report = await session.result()
            return session, report

        session, report = asyncio.run(main())
        # Same answer through the blocking sort plan.
        assert report.rows == serial
        assert report.recovery.path == "shed"

    def test_server_rejects_past_high_water(self):
        db = make_db()
        policy = AdmissionPolicy(high_water=1, shed_water=None)

        async def main():
            async with Server(db, admission=policy) as server:
                first = await server.submit(BIG_SQL)
                with pytest.raises(OverloadError):
                    await server.submit(SQL)
                await first.result()
            return first

        first = asyncio.run(main())
        assert first.state == "completed"
        counter = db.metrics.counter("server_queries_total")
        rejected = sum(
            value for labels, value in counter.samples()
            if labels.get("outcome") == "rejected"
        )
        assert rejected == 1


class TestTenantBudgets:
    def test_validation_and_virtual_time(self):
        with pytest.raises(Exception):
            TenantBudget("t", weight=0.0)
        budget = TenantBudget("t", weight=2.0)
        budget.charge(100, 0.5)
        assert budget.pulls == 100
        assert budget.virtual_time == 50.0
        assert not budget.over_cap()

    def test_over_cap_against_aggregate_budget(self):
        budget = TenantBudget("t", cap=ResourceBudget(max_pulls=10))
        budget.charge(9, 0.0)
        assert not budget.over_cap()
        budget.charge(1, 0.0)  # the cap itself counts as exhausted
        assert budget.over_cap()

    def test_server_rejects_tenant_over_cap(self):
        db = make_db()

        async def main():
            async with Server(db) as server:
                server.register_tenant(
                    "metered", cap=ResourceBudget(max_pulls=10))
                first = await server.submit(SQL, tenant="metered")
                await first.result()  # charges ~45 pulls
                with pytest.raises(OverloadError) as info:
                    await server.submit(SQL, tenant="metered")
                # Other tenants are unaffected.
                other = await server.submit(SQL, tenant="free")
                await other.result()
            return first, other, info.value

        first, other, error = asyncio.run(main())
        assert first.state == "completed"
        assert other.state == "completed"
        assert error.tenant == "metered"


class TestPlanCacheThreadSafety:
    def test_concurrent_lookups_keep_counters_consistent(self):
        db = make_db()
        queries = [parse_query(SQL), parse_query(BIG_SQL)]
        workers, per_worker = 8, 50
        errors = []
        barrier = threading.Barrier(workers)

        def hammer(seed):
            rng = make_rng(seed)
            barrier.wait()
            try:
                for _ in range(per_worker):
                    query = queries[int(rng.integers(0, len(queries)))]
                    executor = db._executor_for(query)
                    result = db._cached_optimization(executor, query)
                    assert result.best_plan is not None
                    if int(rng.integers(0, 10)) == 0:
                        db.plan_cache.invalidate()
            except Exception as error:  # noqa: BLE001
                errors.append(error)

        threads = [threading.Thread(target=hammer, args=(i,))
                   for i in range(workers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        stats = db.plan_cache.stats()
        # Every lookup was either a hit or a miss -- no updates lost
        # under concurrency.
        assert stats["hits"] + stats["misses"] >= workers * per_worker
        assert stats["size"] <= stats["capacity"]

    def test_concurrent_put_and_invalidate(self):
        cache = PlanCache(capacity=4)
        errors = []

        def writer(base):
            try:
                for i in range(200):
                    cache.put("fp-%d" % ((base + i) % 16), 5, 1,
                              object())
                    cache.get("fp-%d" % (i % 16,), 5, 1)
                    if i % 50 == 0:
                        cache.invalidate()
            except Exception as error:  # noqa: BLE001
                errors.append(error)

        threads = [threading.Thread(target=writer, args=(i,))
                   for i in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        assert cache.stats()["size"] <= 4


class TestMetricsRegistryThreadSafety:
    def test_concurrent_counter_increments_are_exact(self):
        registry = MetricsRegistry()
        workers, per_worker = 8, 2000

        def hammer(index):
            counter = registry.counter("hits")
            labelled = registry.counter("by_worker")
            gauge = registry.gauge("depth")
            histogram = registry.histogram(
                "latency", buckets=(0.1, 1.0, 10.0))
            for i in range(per_worker):
                counter.inc()
                labelled.inc(worker=str(index % 2))
                gauge.set(float(i))
                histogram.observe(0.5)

        threads = [threading.Thread(target=hammer, args=(i,))
                   for i in range(workers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        total = workers * per_worker
        # Exact totals: no increment was lost to a race.
        assert registry.counter("hits").total() == total
        assert registry.counter("by_worker").total() == total
        histogram = registry.histogram(
            "latency", buckets=(0.1, 1.0, 10.0))
        count, observed_sum = histogram.value()
        assert count == total
        assert observed_sum == pytest.approx(0.5 * total)


class TestEventLogThreadSafety:
    def test_concurrent_emits_get_distinct_sequences(self):
        # A server shares one log between its event loop and the
        # instalment worker thread.
        log = EventLog()
        workers, per_worker = 8, 2000

        def hammer(index):
            for i in range(per_worker):
                log.emit("tick", worker=index, i=i)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=hammer, args=(i,))
                       for i in range(workers)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        # Sequences are exactly 0..N-1, in log order: none lost or shared.
        total = workers * per_worker
        assert [event.sequence for event in log] == list(range(total))
