"""Execution guards: resource budgets, depth limits, adaptive recovery.

Covers the robustness layer's contract: budget breaches raise
``BudgetExceededError`` carrying partial operator snapshots, and a
query whose selectivity estimate is wrong by 4x (the largest factor
``test_extensions.py::test_model_robustness`` sweeps) either completes
under re-estimated budgets or falls back to the blocking sort plan --
with the path recorded in the report.
"""

import pytest

from repro.common.errors import (
    BudgetExceededError,
    DepthOverrunError,
    ExecutionError,
)
from repro.common.rng import make_rng
from repro.executor.database import Database
from repro.operators.hrjn import HRJN
from repro.operators.scan import IndexScan
from repro.operators.topk import Limit
from repro.optimizer.plans import RankJoinPlan
from repro.robustness.budget import ExecutionGuard, ResourceBudget
from repro.robustness.recovery import RecoveryPolicy

SQL = """
WITH Ranked AS (
  SELECT A.c1 AS x, B.c2 AS y,
         rank() OVER (ORDER BY (0.3*A.c1 + 0.7*B.c2)) AS rank
  FROM A, B WHERE A.c2 = B.c1)
SELECT x, y, rank FROM Ranked WHERE rank <= 5
"""


def make_db(rows=400, seed=3, domain=15):
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


def ranking_scores(report):
    return [round(0.3 * r["A.c1"] + 0.7 * r["B.c2"], 9)
            for r in report.rows]


def hand_built_rank_join(db, strategy="alternate"):
    a = db.catalog.table("A")
    b = db.catalog.table("B")
    return HRJN(
        IndexScan(a, a.find_index_on("A.c1")),
        IndexScan(b, b.find_index_on("B.c2")),
        "A.c2", "B.c1", "A.c1", "B.c2", strategy=strategy,
    )


class FakeClock:
    """Deterministic monotonic clock advancing ``step`` per reading."""

    def __init__(self, step=0.0):
        self.now = 0.0
        self.step = step

    def __call__(self):
        self.now += self.step
        return self.now


class TestResourceBudget:
    def test_rejects_negative_limits(self):
        with pytest.raises(ExecutionError):
            ResourceBudget(max_pulls=-1)
        with pytest.raises(ExecutionError):
            ResourceBudget(deadline_seconds=-0.5)

    def test_unlimited_and_describe(self):
        assert ResourceBudget().unlimited
        budget = ResourceBudget(max_pulls=10, deadline_seconds=1.5)
        assert not budget.unlimited
        assert "max_pulls=10" in budget.describe()
        assert "deadline=1.5s" in budget.describe()


class TestBudgetEnforcement:
    def test_pull_budget_breach_raises_with_snapshots(self):
        db = make_db()
        with pytest.raises(BudgetExceededError) as info:
            db.execute(SQL, budget=ResourceBudget(max_pulls=5))
        error = info.value
        assert error.budget.max_pulls == 5
        assert error.snapshots, "partial instrumentation missing"
        # The partial snapshots reflect work done up to the breach.
        assert sum(sum(s.pulled) for s in error.snapshots) <= 5 + 5

    def test_buffer_budget_breach(self):
        db = make_db()
        with pytest.raises(BudgetExceededError, match="buffer occupancy"):
            db.execute(SQL, budget=ResourceBudget(max_buffer=1))

    def test_deadline_breach_with_fake_clock(self, small_table):
        scan = IndexScan(small_table, small_table.get_index("T_score_idx"))
        root = Limit(scan, 5)
        clock = FakeClock(step=1.0)
        guard = ExecutionGuard(
            ResourceBudget(deadline_seconds=2.0), clock=clock,
        ).attach(root)
        guard.start()
        with pytest.raises(BudgetExceededError, match="deadline"):
            list(root)

    def test_deadline_error_carries_partial_snapshots(self):
        db = make_db()
        with pytest.raises(BudgetExceededError) as info:
            db.execute(SQL, budget=ResourceBudget(deadline_seconds=0.0))
        assert isinstance(info.value.snapshots, list)

    def test_operators_closed_after_budget_breach(self, small_table):
        scan = IndexScan(small_table, small_table.get_index("T_score_idx"))
        root = Limit(scan, 100)
        ExecutionGuard(ResourceBudget(max_pulls=3)).attach(root).start()
        with pytest.raises(BudgetExceededError):
            list(root)
        assert all(not op._opened for op in root.walk())

    def test_budget_within_limits_is_transparent(self):
        db = make_db()
        unguarded = db.execute(SQL)
        guarded = db.execute(
            SQL, budget=ResourceBudget(max_pulls=100000, max_buffer=100000,
                                       deadline_seconds=600),
        )
        assert ranking_scores(guarded) == ranking_scores(unguarded)


class TestExecutionGuard:
    def test_attach_detach_round_trip(self, small_table):
        scan = IndexScan(small_table, small_table.get_index("T_score_idx"))
        guard = ExecutionGuard(ResourceBudget(max_pulls=100)).attach(scan)
        assert scan._guard is guard
        assert scan.stats.guard is guard
        guard.detach()
        assert scan._guard is None
        assert scan.stats.guard is None

    def test_depth_limit_raises_recoverable_overrun(self, small_table):
        db = make_db(rows=50)
        join = hand_built_rank_join(db)
        guard = ExecutionGuard().attach(join)
        guard.set_depth_limit(join, (3, None))
        with pytest.raises(DepthOverrunError) as info:
            list(join)
        assert info.value.operator is join
        assert info.value.child_index == 0
        assert info.value.limit == 3
        # The overrun fired *before* the fourth pull: no tuple lost.
        assert join.stats.pulled[0] == 3

    def test_overrun_is_resumable_mid_query(self):
        """Raising before the pull keeps the tree consistent, so the
        very same in-flight execution can continue after the limit is
        raised -- the property adaptive recovery is built on."""
        db = make_db(rows=80)
        reference = [r[join_score_column] for r in
                     _drain(hand_built_rank_join(db), 10)]
        join = hand_built_rank_join(db)
        guard = ExecutionGuard().attach(join)
        guard.set_depth_limit(join, (4, 4))
        rows = []
        join.open()
        try:
            while len(rows) < 10:
                try:
                    row = join.next()
                except DepthOverrunError:
                    limits = guard.depth_limits[id(join)]
                    guard.set_depth_limit(
                        join, [lim * 4 for lim in limits],
                    )
                    continue
                if row is None:
                    break
                rows.append(row[join_score_column])
        finally:
            join.close()
        assert rows == reference


#: Output score column of the hand-built HRJN (default naming).
join_score_column = "_score_HRJN"


def _drain(join, k):
    return list(Limit(join, k))


class TestAdaptiveRecovery:
    def _wrong_selectivity_db(self, factor=4.0):
        """Assumed selectivity off by 4x, the largest factor
        ``test_extensions.py::test_model_robustness`` sweeps."""
        db = make_db()
        real = db.catalog.join_selectivity("A", "A.c2", "B", "B.c1")
        db.set_join_selectivity("A.c2", "B.c1", min(1.0, real * factor))
        return db

    def test_direct_path_recorded_when_estimates_hold(self):
        db = make_db()
        report = db.execute_guarded(SQL)
        assert report.recovery is not None
        assert report.recovery.path == "direct"
        assert report.recovery.events == []

    def test_4x_misestimate_recovers_and_matches_reference(self):
        reference = ranking_scores(make_db().execute(SQL))
        db = self._wrong_selectivity_db(4.0)
        report = db.execute_guarded(
            SQL, policy=RecoveryPolicy(overrun_factor=1.1, min_headroom=4),
        )
        # Acceptance: either completes within the re-estimated budget
        # or falls back to the sort plan -- and the report records
        # which path was taken.
        assert report.recovery.path in ("reestimated", "fallback")
        assert report.recovery.events
        assert ranking_scores(report) == reference

    def test_reestimate_event_reports_observed_selectivity(self):
        db = self._wrong_selectivity_db(4.0)
        report = db.execute_guarded(
            SQL, policy=RecoveryPolicy(overrun_factor=1.1, min_headroom=4),
        )
        event = report.recovery.events[0]
        assert event.kind in ("reestimate", "fallback")
        # The observation should land near the true selectivity and
        # far from the 4x-wrong assumption.
        assert event.observed_selectivity < event.assumed_selectivity / 2

    def test_forced_fallback_path_matches_reference(self):
        reference = ranking_scores(make_db().execute(SQL))
        db = self._wrong_selectivity_db(4.0)
        report = db.execute_guarded(
            SQL, policy=RecoveryPolicy(overrun_factor=1.1, min_headroom=4,
                                       max_reestimates=0),
        )
        assert report.recovery.path == "fallback"
        assert ranking_scores(report) == reference
        # The fallback rebuilt the tree: snapshots are from the sort
        # plan execution, not the abandoned rank join.
        assert report.operators

    def test_recovery_log_in_explain_output(self):
        db = self._wrong_selectivity_db(4.0)
        report = db.execute_guarded(
            SQL, policy=RecoveryPolicy(overrun_factor=1.1, min_headroom=4),
        )
        text = report.explain()
        assert "recovery: path=" in text

    def test_monitoring_disabled_runs_straight_through(self):
        db = self._wrong_selectivity_db(4.0)
        report = db.execute_guarded(
            SQL, policy=RecoveryPolicy(monitor_depths=False),
        )
        assert report.recovery.path == "direct"

    def test_guarded_executor_budget_still_enforced(self):
        db = self._wrong_selectivity_db(4.0)
        with pytest.raises(BudgetExceededError):
            db.execute_guarded(SQL, budget=ResourceBudget(max_pulls=3))

    def test_policy_validation(self):
        from repro.common.errors import OptimizerError

        with pytest.raises(OptimizerError):
            RecoveryPolicy(overrun_factor=0.5)
        with pytest.raises(OptimizerError):
            RecoveryPolicy(max_reestimates=-1)

    @pytest.mark.parametrize("options", [
        {"overrun_factor": float("nan")},
        {"overrun_factor": float("inf")},
        {"min_headroom": -1000},
        {"min_headroom": 2.5},
        {"max_reestimates": float("nan")},
        {"max_reestimates": True},
    ], ids=["factor-nan", "factor-inf", "headroom-negative",
            "headroom-float", "reestimates-nan", "reestimates-bool"])
    def test_policy_rejects_values_that_break_a_guarded_run(self, options):
        """A NaN or infinite factor cannot size a depth limit, a
        negative headroom puts limits below the depth already pulled,
        and a NaN re-estimate budget never runs out: each is rejected
        when the policy is built, not in the middle of a run."""
        from repro.common.errors import OptimizerError

        with pytest.raises(OptimizerError):
            RecoveryPolicy(**options)


class TestFallbackPlanRetrieval:
    def test_fallback_plan_is_rank_free_and_ordered(self):
        db = make_db()
        query = db.parse(SQL)
        executor = db.executor()
        result = executor.optimizer.optimize(query)
        fallback = executor.optimizer.fallback_plan(result)

        def nodes(plan):
            yield plan
            for child in plan.children:
                yield from nodes(child)

        assert not any(isinstance(n, RankJoinPlan) for n in nodes(fallback))
        assert fallback.order.covers(result.required_order)

    def test_guarded_executor_is_executor_drop_in(self):
        db = make_db()
        query = db.parse(SQL)
        assert ranking_scores(db.execute_guarded(query)) == ranking_scores(
            db.execute(query))
