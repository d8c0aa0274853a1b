"""Instalment scheduling: preemption, fairness, deadlines, drain.

Pins the concurrent-serving acceptance scenario: under a mixed
workload an expensive batch-class query is observably preempted
(suspend/resume through PR 3's checkpoint machinery) while interactive
queries complete first, and every query's results are byte-identical
to its serial run.  All tests drive the asyncio server through
``asyncio.run`` from plain synchronous tests (pytest-asyncio is not a
dependency); the ``timeout`` markers are live only where CI installs
pytest-timeout.
"""

import asyncio

import pytest

from repro.common.errors import ExecutionError, TransientFaultError
from repro.common.rng import make_rng
from repro.cost.model import PAPER_2004, CostModel
from repro.executor.database import Database
from repro.optimizer.enumerator import OptimizerConfig
from repro.robustness.faults import FaultPlan, FaultSpec
from repro.server import AdmissionPolicy, SchedulerConfig, Server
from repro.server.session import (
    CANCELLED,
    COMPLETED,
    DRAINED,
    FAILED,
)

SQL = """
WITH Ranked AS (
  SELECT A.c1 AS x, B.c2 AS y,
         rank() OVER (ORDER BY (0.3*A.c1 + 0.7*B.c2)) AS rank
  FROM A, B WHERE A.c2 = B.c1)
SELECT x, y, rank FROM Ranked WHERE rank <= 5
"""

#: Same shape at k=40 -- expensive enough to need many instalments.
BIG_SQL = SQL.replace("rank <= 5", "rank <= 40")

FILTER_SQL = """
WITH Ranked AS (
  SELECT A.c1 AS x, B.c2 AS y,
         rank() OVER (ORDER BY (0.5*A.c1 + 0.5*B.c2)) AS rank
  FROM A, B WHERE A.c2 = B.c1 AND A.c1 > 0.4)
SELECT x, y, rank FROM Ranked WHERE rank <= 6
"""

THREE_WAY_SQL = """
WITH Ranked AS (
  SELECT A.c1 AS x, C.c1 AS z,
         rank() OVER (ORDER BY (0.4*A.c1 + 0.6*C.c1)) AS rank
  FROM A, B, C
  WHERE A.c2 = B.c1 AND B.c1 = C.c2)
SELECT x, z, rank FROM Ranked WHERE rank <= 8
"""


def make_db(rows=400, seed=3, domain=15, config=None, three_way=False,
            cost_model=None):
    rng = make_rng(seed)
    db = Database(cost_model=cost_model, config=config)
    db.create_table("A", [("c1", "float"), ("c2", "int")], rows=[
        [float(rng.uniform(0, 1)), int(rng.integers(0, domain))]
        for _ in range(rows)
    ])
    db.create_table("B", [("c1", "int"), ("c2", "float")], rows=[
        [int(rng.integers(0, domain)), float(rng.uniform(0, 1))]
        for _ in range(rows)
    ])
    if three_way:
        db.create_table("C", [("c1", "float"), ("c2", "int")], rows=[
            [float(rng.uniform(0, 1)), int(rng.integers(0, domain))]
            for _ in range(rows)
        ])
    db.analyze()
    return db


def hrjn_db(**kwargs):
    # NRJN materialises its inner inside open() -- one atomic step no
    # instalment can split -- so tests that need incremental progress
    # per instalment pin the fully pipelined HRJN.
    return make_db(config=OptimizerConfig(enable_nrjn=False), **kwargs)


class FakeClock:
    """A manually advanced monotonic clock for deterministic deadlines."""

    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


class TestConfigValidation:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ExecutionError):
            SchedulerConfig(instalment_pulls=0)
        with pytest.raises(ExecutionError):
            SchedulerConfig(escalation_factor=0.5)

    def test_submit_requires_started_server(self):
        db = hrjn_db()
        server = Server(db)

        async def main():
            with pytest.raises(ExecutionError):
                await server.submit(SQL)

        asyncio.run(main())

    def test_submit_rejects_bad_arguments(self):
        db = hrjn_db()

        async def main():
            async with Server(db) as server:
                with pytest.raises(TypeError):
                    await server.submit(12345)
                with pytest.raises(ExecutionError):
                    await server.submit(SQL, deadline=0)

        asyncio.run(main())


@pytest.mark.timeout(120)
class TestMixedWorkloadPreemption:
    """The acceptance scenario: 8 concurrent sessions, observable
    preemption, interactive-first completion, byte-identical results."""

    def test_expensive_query_preempted_interactive_first(self):
        db = hrjn_db(cost_model=CostModel(PAPER_2004))
        serial_cheap = db.execute(SQL).rows
        serial_big = db.execute(BIG_SQL).rows
        # In PAPER_2004 units the expensive query (est. cost ~282) lands
        # in the batch class, the cheap ones (~102) stay interactive.
        policy = AdmissionPolicy(interactive_cost=150.0, high_water=64)
        config = SchedulerConfig(instalment_pulls=30)

        async def main():
            order = []

            async def watch(session):
                await session.result()
                order.append(session)

            async with Server(db, admission=policy,
                              scheduler=config) as server:
                big = await server.submit(BIG_SQL, tenant="analytics")
                # One yield lets the worker start the expensive
                # query's first instalment; the cheap submissions
                # below land before that instalment's suspension is
                # processed, so the suspension counts as a preemption.
                await asyncio.sleep(0)
                cheap = [
                    await server.submit(SQL, tenant="dash-%d" % i)
                    for i in range(7)
                ]
                await asyncio.gather(
                    *(watch(s) for s in [big] + cheap))
            return big, cheap, order

        big, cheap, order = asyncio.run(main())

        assert big.queue_class == "batch"
        assert all(s.queue_class == "interactive" for s in cheap)
        assert all(s.state == COMPLETED for s in [big] + cheap)

        # The expensive query was observably preempted: suspended at
        # an instalment boundary while other work was ready, and the
        # preemption surfaced in the metrics registry.
        assert big.stats["preemptions"] >= 1
        assert big.stats["instalments"] >= 2
        preempted = db.metrics.counter("server_preemptions_total")
        assert preempted.total() >= 1

        # Every interactive session completed before the batch one.
        assert order[-1] is big
        assert set(order[:-1]) == set(cheap)

        # Results are byte-identical to the serial runs.
        assert big.report.rows == serial_big
        for session in cheap:
            assert session.report.rows == serial_cheap

    def test_streamed_batches_concatenate_to_final_rows(self):
        db = hrjn_db()
        serial = db.execute(BIG_SQL).rows
        config = SchedulerConfig(instalment_pulls=30)

        async def main():
            async with Server(db, scheduler=config) as server:
                session = await server.submit(BIG_SQL)
                streamed = []
                batches = 0
                async for batch in session.batches():
                    streamed.extend(batch)
                    batches += 1
                report = await session.result()
            return streamed, batches, report

        streamed, batches, report = asyncio.run(main())
        # Rows arrive incrementally (rank order, head first), and the
        # concatenation is exactly the serial answer.
        assert batches >= 2
        assert streamed == serial
        assert report.rows == serial


@pytest.mark.timeout(120)
class TestWeightedFairness:
    def test_light_tenant_not_starved_by_heavy_tenant(self):
        db = hrjn_db()
        # Everything batch-class: fairness alone must interleave them.
        policy = AdmissionPolicy(interactive_cost=0.0, high_water=64)
        config = SchedulerConfig(instalment_pulls=30)

        async def main():
            order = []

            async def watch(session):
                await session.result()
                order.append(session)

            async with Server(db, admission=policy,
                              scheduler=config) as server:
                heavy = [
                    await server.submit(BIG_SQL, tenant="heavy")
                    for _ in range(3)
                ]
                await asyncio.sleep(0)
                light = await server.submit(SQL, tenant="light")
                await asyncio.gather(
                    *(watch(s) for s in heavy + [light]))
            return heavy, light, order

        heavy, light, order = asyncio.run(main())
        assert all(s.state == COMPLETED for s in heavy + [light])
        # The light tenant's cheap query (least weighted virtual
        # time) overtakes the heavy tenant's backlog instead of
        # waiting behind all three expensive queries.
        assert order.index(light) < order.index(order[-1])
        assert order[-1] in heavy

    def test_higher_weight_finishes_first_at_equal_cost(self):
        db = hrjn_db()
        policy = AdmissionPolicy(interactive_cost=0.0, high_water=64)
        config = SchedulerConfig(instalment_pulls=30)

        async def main():
            order = []

            async def watch(session):
                await session.result()
                order.append(session)

            async with Server(db, admission=policy,
                              scheduler=config) as server:
                server.register_tenant("gold", weight=2.0)
                server.register_tenant("bronze", weight=1.0)
                gold = await server.submit(BIG_SQL, tenant="gold")
                bronze = await server.submit(BIG_SQL, tenant="bronze")
                await asyncio.gather(watch(gold), watch(bronze))
            return gold, bronze, order

        gold, bronze, order = asyncio.run(main())
        assert [s.state for s in order] == [COMPLETED, COMPLETED]
        # Identical queries, but the weight-2 tenant accrues virtual
        # time at half the rate, wins more instalments, and completes
        # first.
        assert order[0] is gold


@pytest.mark.timeout(120)
class TestDeadlines:
    def test_deadline_cancels_with_partial_results(self):
        db = hrjn_db()
        serial = db.execute(BIG_SQL).rows
        clock = FakeClock()
        config = SchedulerConfig(instalment_pulls=30)

        async def main():
            async with Server(db, scheduler=config,
                              clock=clock) as server:
                session = await server.submit(BIG_SQL, deadline=5.0)
                streamed = []
                async for batch in session.batches():
                    streamed.extend(batch)
                    # The first delivered batch proves progress; now
                    # the deadline expires before the next re-pick.
                    clock.advance(10.0)
                report = await session.result()
            return session, streamed, report

        session, streamed, report = asyncio.run(main())
        assert session.state == CANCELLED
        # The partial answer is a correct prefix of the serial run --
        # the rank-aware plan delivered the head of the ranking before
        # the deadline hit.
        assert 0 < len(streamed) < len(serial)
        assert streamed == serial[:len(streamed)]
        assert report is not None
        assert report.recovery.path == "deadline"

    def test_cancel_requested_before_first_instalment(self):
        db = hrjn_db()

        async def main():
            async with Server(db) as server:
                session = await server.submit(BIG_SQL)
                session.cancel()
                report = await session.result()
            return session, report

        session, report = asyncio.run(main())
        assert session.state == CANCELLED
        assert report is None
        assert session.stats["instalments"] == 0


@pytest.mark.timeout(120)
class TestRetriesAndFailures:
    def test_transient_fault_retried_to_completion(self):
        db = hrjn_db()
        serial = db.execute(SQL).rows
        faults = FaultPlan([FaultSpec(
            target=lambda op: op.name.startswith("HRJN"),
            on="open", at=1, times=1, transient=True,
        )])

        async def main():
            async with Server(db) as server:
                session = await server.submit(SQL, faults=faults)
                report = await session.result()
            return session, report

        session, report = asyncio.run(main())
        assert session.state == COMPLETED
        assert session.stats["retries"] == 1
        assert report.rows == serial
        assert db.metrics.counter("server_retries_total").total() == 1

    def test_permanent_fault_fails_the_session(self):
        db = hrjn_db()
        faults = FaultPlan([FaultSpec(
            target=lambda op: op.name.startswith("HRJN"),
            on="next", at=3, transient=False,
        )])

        async def main():
            async with Server(db) as server:
                session = await server.submit(SQL, faults=faults)
                with pytest.raises(ExecutionError):
                    await session.result()
            return session

        session = asyncio.run(main())
        assert session.state == FAILED
        assert session.error is not None

    def test_retries_exhausted_fails_with_transient_error(self):
        # Faults only hit the first execution attempt (the scheduler's
        # chaos hook), so exhaustion means a zero-retry budget.
        db = hrjn_db()
        faults = FaultPlan([FaultSpec(
            target=lambda op: op.name.startswith("HRJN"),
            on="open", at=1, times=50, transient=True,
        )])
        config = SchedulerConfig(max_retries=0, retry_backoff=0.0)

        async def main():
            async with Server(db, scheduler=config) as server:
                session = await server.submit(SQL, faults=faults)
                with pytest.raises(TransientFaultError):
                    await session.result()
            return session

        session = asyncio.run(main())
        assert session.state == FAILED


@pytest.mark.timeout(120)
class TestDrain:
    def test_drain_suspends_to_resumable_checkpoint(self):
        db = hrjn_db()
        serial = db.execute(BIG_SQL).rows
        config = SchedulerConfig(instalment_pulls=30)

        async def main():
            server = Server(db, scheduler=config)
            async with server:
                session = await server.submit(BIG_SQL)
                while session.stats["instalments"] < 1:
                    await asyncio.sleep(0.001)
            return session

        session = asyncio.run(main())
        assert session.state == DRAINED
        assert session.suspension is not None
        # The drained handle resumes *offline* -- outside the server,
        # on the bare database -- to the exact serial answer.
        resumed = db.resume(session.suspension)
        assert resumed.rows == serial

    def test_drain_before_any_instalment_leaves_no_suspension(self):
        db = hrjn_db()

        async def main():
            server = Server(db)
            server.start()
            session = await server.submit(SQL)
            # Drain without yielding: the worker never ran.
            await server.drain()
            return session

        session = asyncio.run(main())
        assert session.state == DRAINED
        assert session.suspension is None

    def test_submit_while_draining_is_rejected(self):
        db = hrjn_db()

        async def main():
            server = Server(db)
            server.start()
            server.scheduler._draining = True
            with pytest.raises(ExecutionError):
                await server.submit(SQL)
            server.scheduler._draining = False
            await server.drain()

        asyncio.run(main())


@pytest.mark.timeout(180)
class TestSuspendResumeEquivalence:
    """Byte-identical suspend/resume across distinct plan shapes.

    Each query runs under instalments small enough to force at least
    one suspension, and its served answer must equal the serial run
    exactly.  The shapes cover the pipelined HRJN, the atomic-open
    NRJN (pre-open suspension + geometric escalation), a three-way
    join, a filtered join, and a deep top-k.
    """

    CASES = [
        ("hrjn_two_way", SQL, 20,
         dict(config=OptimizerConfig(enable_nrjn=False))),
        ("hrjn_deep_k", BIG_SQL, 60,
         dict(config=OptimizerConfig(enable_nrjn=False))),
        ("hrjn_filtered", FILTER_SQL, 25,
         dict(config=OptimizerConfig(enable_nrjn=False))),
        ("three_way", THREE_WAY_SQL, 60,
         dict(rows=120, three_way=True,
              config=OptimizerConfig(enable_nrjn=False))),
        ("nrjn_atomic_open", SQL, 120,
         dict(config=OptimizerConfig(enable_hrjn=False))),
    ]

    @pytest.mark.parametrize(
        "name,sql,instalment,db_kwargs",
        CASES, ids=[case[0] for case in CASES])
    def test_served_rows_match_serial(self, name, sql, instalment,
                                      db_kwargs):
        db = make_db(**db_kwargs)
        serial = db.execute(sql).rows
        config = SchedulerConfig(instalment_pulls=instalment)

        async def main():
            async with Server(db, scheduler=config) as server:
                session = await server.submit(sql)
                report = await session.result()
            return session, report

        session, report = asyncio.run(main())
        assert session.state == COMPLETED
        # At least one suspend/resume hop actually happened.
        assert session.stats["instalments"] >= 2
        assert report.rows == serial

    def test_pre_open_escalation_reaches_completion(self):
        # NRJN's inner materialisation (~400 pulls) exceeds the first
        # instalment; the scheduler escalates geometrically until the
        # atomic open clears instead of livelocking.
        db = make_db(config=OptimizerConfig(enable_hrjn=False))
        serial = db.execute(SQL).rows
        config = SchedulerConfig(instalment_pulls=120,
                                 escalation_factor=4.0)

        async def main():
            async with Server(db, scheduler=config) as server:
                session = await server.submit(SQL)
                report = await session.result()
            return session, report

        session, report = asyncio.run(main())
        assert session.state == COMPLETED
        assert session.stats["instalments"] >= 2
        assert report.rows == serial
