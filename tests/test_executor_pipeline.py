"""What the one-executor pipeline must not change, and what it fixes.

Operator names are a function of the built plan (not of the history of
the database that built it), the plan builder keeps no per-plan state,
``resume`` without a budget reuses the suspended one, a format-v2
durable snapshot written before the executors were merged still
resumes, and guarded runs -- direct or served -- plan through the plan
cache without writing their mid-query corrections into it, nor reading
back a cost memoised before a correction.
"""

import asyncio
import os
import shutil

import pytest

from repro.common.rng import make_rng
from repro.cost.model import PAPER_2004, CostModel
from repro.executor.database import Database
from repro.optimizer.enumerator import OptimizerConfig
from repro.optimizer.plans import RankJoinPlan
from repro.robustness.budget import ResourceBudget
from repro.robustness.recovery import RecoveryPolicy

from tests.test_parallel_equivalence import SHAPES, make_db, topk_sql

#: ``[op.name for op in root.walk()]`` of a fresh guarded run of each
#: shape, captured before ``GuardedExecutor`` was folded into
#: ``Executor``.
GOLDEN_NAMES = {
    "base_k5": ["Project", "Limit(5)", "HRJN1", "IndexScan(A.A_c1_idx)",
                "IndexScan(B.B_c2_idx)"],
    "bc_join": ["Project", "Limit(5)", "HRJN1", "IndexScan(B.B_c2_idx)",
                "IndexScan(C.C_c1_idx)"],
    "even_weights": ["Project", "Limit(5)", "HRJN1",
                     "IndexScan(A.A_c1_idx)", "IndexScan(B.B_c2_idx)"],
    "k1": ["Project", "Limit(1)", "HRJN1", "IndexScan(A.A_c1_idx)",
           "IndexScan(B.B_c2_idx)"],
    "k20": ["Project", "Limit(20)", "HRJN1", "IndexScan(A.A_c1_idx)",
            "IndexScan(B.B_c2_idx)"],
    "k_large": ["Project", "Limit(400)", "HRJN1", "IndexScan(A.A_c1_idx)",
                "IndexScan(B.B_c2_idx)"],
    "more_skew": ["Project", "Limit(7)", "HRJN1", "IndexScan(A.A_c1_idx)",
                  "IndexScan(B.B_c2_idx)"],
    "no_rank_in_select": ["Project", "Limit(5)", "HRJN1",
                          "IndexScan(A.A_c1_idx)", "IndexScan(B.B_c2_idx)"],
    "reordered_select": ["Project", "Limit(5)", "HRJN1",
                         "IndexScan(A.A_c1_idx)", "IndexScan(B.B_c2_idx)"],
    "selection_left": ["Project", "Limit(10)", "HRJN1", "Filter",
                       "IndexScan(A.A_c1_idx)", "IndexScan(B.B_c2_idx)"],
    "selection_right": ["Project", "Limit(10)", "HRJN1",
                        "IndexScan(A.A_c1_idx)", "Filter",
                        "IndexScan(B.B_c2_idx)"],
    "single_table": ["Project", "Limit(10)", "IndexScan(A.A_c1_idx)"],
    "skewed_weights": ["Project", "Limit(5)", "HRJN1",
                       "IndexScan(A.A_c1_idx)", "IndexScan(B.B_c2_idx)"],
    "swapped_predicate": ["Project", "Limit(5)", "HRJN1",
                          "IndexScan(A.A_c1_idx)", "IndexScan(B.B_c2_idx)"],
    "swapped_tables": ["Project", "Limit(5)", "HRJN1",
                       "IndexScan(A.A_c1_idx)", "IndexScan(B.B_c2_idx)"],
    "three_way": ["Project", "Limit(5)", "HRJN2", "IndexScan(A.A_c1_idx)",
                  "HRJN1", "IndexScan(B.B_c2_idx)", "IndexScan(C.C_c1_idx)"],
}

#: The same capture for two-shard inline runs of two shapes, planned
#: with the paper's cost profile (IN_MEMORY shards another join order).
GOLDEN_SHARDED = {
    "base_k5": ["Project", "Limit(5)", "ScoreMerge(HRJN1)", "HRJN1[s0]",
                "ShardedScan(A[0/2])", "ShardedScan(B[0/2])", "HRJN1[s1]",
                "ShardedScan(A[1/2])", "ShardedScan(B[1/2])"],
    "three_way": ["Project", "Limit(5)", "HRJN2", "ScoreMerge(HRJN1)",
                  "HRJN1[s0]", "ShardedScan(A[0/2])", "ShardedScan(B[0/2])",
                  "HRJN1[s1]", "ShardedScan(A[1/2])", "ShardedScan(B[1/2])",
                  "IndexScan(C.C_c1_idx)"],
}

#: Twenty shapes none of SHAPES uses, to give a database a history.
OTHER_SHAPES = (
    [topk_sql(k=3 + index, weights=(0.05 * index + 0.01,
                                    0.99 - 0.05 * index))
     for index in range(14)]
    + [topk_sql(k=4 + index, tables="B, C", where="B.c1 = C.c2",
                left="B.c2", right="C.c1", weights=(0.4, 0.6 - index / 20))
       for index in range(6)]
)


def names(report):
    return [snap.name for snap in report.operators]


class TestOperatorNames:
    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_fresh_database_names(self, shape):
        assert names(make_db().execute(SHAPES[shape])) == \
            GOLDEN_NAMES[shape]
        assert names(make_db().execute_guarded(SHAPES[shape])) == \
            GOLDEN_NAMES[shape]

    def test_names_do_not_drift_with_history(self):
        db = make_db()
        assert len(OTHER_SHAPES) == 20
        for sql in OTHER_SHAPES:
            db.execute(sql)
        for shape in sorted(SHAPES):
            assert names(db.execute(SHAPES[shape])) == GOLDEN_NAMES[shape]
            assert names(db.execute_guarded(SHAPES[shape])) == \
                GOLDEN_NAMES[shape]

    @pytest.mark.parametrize("shape", sorted(GOLDEN_SHARDED))
    def test_sharded_group_names(self, shape):
        db = make_db(cost_model=CostModel(PAPER_2004))
        for sql in OTHER_SHAPES[:3]:
            db.execute(sql)
        report = db.execute_guarded(SHAPES[shape], parallel="inline",
                                    shards=2)
        assert names(report) == GOLDEN_SHARDED[shape]

    def test_builder_holds_no_per_plan_state(self):
        rng = make_rng(9)
        db = Database(config=OptimizerConfig(enable_nrjn=False))
        for name in ("A", "B"):
            db.create_table(name, [("c1", "float"), ("c2", "int")], rows=[
                [float(rng.uniform(0, 1)), int(rng.integers(0, 10))]
                for _ in range(40)
            ])
        db.analyze()
        for index in range(300):
            weight = 0.001 + index / 301.0
            db.execute(topk_sql(k=3, where="A.c2 = B.c2", right="B.c1",
                                weights=(weight, 1.0 - weight)))
        builder = db.executor().builder
        for attribute, value in vars(builder).items():
            if isinstance(value, (dict, list, set, tuple)):
                assert not value, "builder.%s keeps %d entries" % (
                    attribute, len(value))


DURABLE_SQL = """
WITH Ranked AS (
  SELECT A.c1 AS x, B.c2 AS y,
         rank() OVER (ORDER BY (0.3*A.c1 + 0.7*B.c2)) AS rank
  FROM A, B WHERE A.c2 = B.c1)
SELECT x, y, rank FROM Ranked WHERE rank <= 5
"""

FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures",
                       "pipeline-00000002.ckpt")


def make_fixture_db():
    """The tables the v2 fixture snapshot was checkpointed against."""
    rng = make_rng(11)
    db = Database(config=OptimizerConfig(enable_nrjn=False))
    db.create_table("A", [("c1", "float"), ("c2", "int")], rows=[
        [float(rng.uniform(0, 1)), int(rng.integers(0, 8))]
        for _ in range(60)
    ])
    db.create_table("B", [("c1", "int"), ("c2", "float")], rows=[
        [int(rng.integers(0, 8)), float(rng.uniform(0, 1))]
        for _ in range(60)
    ])
    db.analyze()
    return db


class TestSuspendedQueries:
    def test_resume_without_budget_reuses_suspended_budget(self):
        db = make_fixture_db()
        full = db.execute_guarded(DURABLE_SQL)
        budget = ResourceBudget(max_pulls=8)
        first = db.execute_guarded(DURABLE_SQL, budget=budget,
                                   checkpoint=2)
        assert first.suspended
        again = db.resume(first.suspension)
        assert again.suspended, "resume() ran without the suspended budget"
        assert again.recovery.stats["pulled_total"] <= budget.max_pulls
        done = db.resume(again.suspension, budget=ResourceBudget())
        assert not done.suspended
        assert done.rows == full.rows

    def test_v2_fixture_resumes(self, tmp_path):
        assert os.path.getsize(FIXTURE) < 4096
        state = tmp_path / "state"
        state.mkdir()
        shutil.copy(FIXTURE, state)
        full = make_fixture_db().execute_guarded(DURABLE_SQL)
        report = make_fixture_db().resume(str(state))
        assert report.recovery.path == "resumed"
        assert report.rows == full.rows


def cache_signature(result):
    """Selectivities of every rank join and the root cost at k."""
    def walk(plan):
        yield plan
        for child in plan.children:
            yield from walk(child)

    plan = result.best_plan
    return ([node.selectivity for node in walk(plan)
             if isinstance(node, RankJoinPlan)],
            plan.cost(float(result.query.k)))


def rebuilt(plan):
    """``plan`` constructed afresh, every rank join with the selectivity
    it carries now (the leaves are shared and never corrected)."""
    if not isinstance(plan, RankJoinPlan):
        return plan
    left, right = (rebuilt(child) for child in plan.children)
    return RankJoinPlan(
        plan.model, plan.operator, left, right, plan.predicates,
        plan.selectivity, plan.left_expression, plan.right_expression,
        plan.combined_expression, estimation_mode=plan.estimation_mode,
    )


def depths(records):
    return [(node.describe(), required,
             None if estimate is None else (estimate.d_left,
                                            estimate.d_right))
            for node, required, estimate in records]


def assert_costs_its_selectivities(report):
    """The run's (possibly corrected) plan costs what a fresh plan with
    the same selectivities costs: no cost memoised under an assumed
    selectivity survived the correction.  (A correction writes the
    selectivity only, so the two differ in cardinality; at these k,
    below every cardinality, that does not enter the cost.)"""
    plan = report.best_plan
    fresh = rebuilt(plan)
    k = float(report.query.k)
    assert plan.cost(k) == fresh.cost(k)
    assert depths(plan.propagate_depths(k)) == \
        depths(fresh.propagate_depths(k))


def pairs(rows):
    return [(row["A.c1"], row["B.c2"]) for row in rows]


def cached(db, sql):
    """The plan-cache entry ``execute`` would serve for ``sql``."""
    return db.prepare(sql).explain()


#: Aggressive limits so a 4x selectivity mis-estimate overruns early.
POLICY = RecoveryPolicy(overrun_factor=1.1, min_headroom=4,
                        max_reestimates=0)

WEIGHTED = """
WITH Ranked AS (
  SELECT rank() OVER (ORDER BY (0.3*A.c1 + 0.7*B.c2)) AS rank
  FROM A, B WHERE A.c2 = B.c1)
SELECT rank FROM Ranked WHERE rank <= 5
"""


def make_recovery_db(rows=400, seed=3, domain=15):
    rng = make_rng(seed)
    db = Database()
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


def mis_estimate(db, factor=4.0):
    """Pin the join estimate ``factor``x too high (tight depth limits)."""
    real = db.catalog.join_selectivity("A", "A.c2", "B", "B.c1")
    db.set_join_selectivity("A.c2", "B.c1", min(1.0, real * factor))


class TestGuardedRunsAndThePlanCache:
    @pytest.mark.parametrize("path, policy", [
        ("reestimated",
         RecoveryPolicy(overrun_factor=1.1, min_headroom=4,
                        max_reestimates=2)),
        ("fallback", POLICY),
    ])
    def test_direct_recovery_leaves_cached_plan_intact(self, path, policy):
        sql = WEIGHTED
        reference = make_recovery_db().execute(sql)
        db = make_recovery_db()
        mis_estimate(db)
        entry = cached(db, sql)
        before = cache_signature(entry)
        report = db.execute_guarded(sql, policy=policy)
        assert report.recovery.path == path
        assert cache_signature(entry) == before
        assert pairs(report.rows) == pairs(reference.rows)
        assert_costs_its_selectivities(report)
        if path == "reestimated":
            # The next run is a cache hit on the very same entry and
            # recovers exactly as the first one did.
            hits = db.plan_cache.hits
            second = db.execute_guarded(sql, policy=policy)
            assert db.plan_cache.hits == hits + 1
            assert second.recovery.path == path
            assert second.rows == report.rows
            assert cache_signature(entry) == before
            assert_costs_its_selectivities(second)

    def test_served_recovery_leaves_cached_plan_intact(self):
        from repro.server import Server

        rng = make_rng(21)
        db = Database(config=OptimizerConfig(enable_nrjn=False))
        db.create_table("A", [("c1", "float"), ("c2", "int")], rows=[
            [float(rng.uniform(0, 1)), int(rng.integers(0, 400))]
            for _ in range(4000)
        ])
        db.create_table("B", [("c1", "int"), ("c2", "float")], rows=[
            [int(rng.integers(0, 400)), float(rng.uniform(0, 1))]
            for _ in range(4000)
        ])
        db.analyze()
        real = db.catalog.join_selectivity("A", "A.c2", "B", "B.c1")
        db.set_join_selectivity("A.c2", "B.c1", real * 8)
        sql = topk_sql(k=50)
        reference = db.execute(sql).rows
        entry = cached(db, sql)
        before = cache_signature(entry)

        async def serve():
            async with Server(db) as server:
                session = await server.submit(sql)
                return await session.result()

        report = asyncio.run(serve())
        assert report.recovery.path != "direct"
        assert report.rows == reference
        assert_costs_its_selectivities(report)
        assert cache_signature(entry) == before
        assert cache_signature(cached(db, sql)) == before
