"""State-preserving recovery: resume, suspend, and migrate paths.

Exercises the checkpoint-aware ``GuardedExecutor`` on the Figure 6
workload (``0.3*A.c1 + 0.7*B.c2``, ``rank <= 5``): a transient fault
resumes from the last checkpoint instead of rerunning, a budget breach
suspends into a resumable handle, and a fallback decision migrates the
live rank-join state instead of rebuilding the sort plan.
"""

import pytest

from repro.common.errors import (
    BudgetExceededError,
    CheckpointError,
    TransientFaultError,
)
from repro.common.rng import make_rng
from repro.cost.model import PAPER_2004, CostModel
from repro.executor.database import Database
from repro.optimizer.enumerator import OptimizerConfig
from repro.robustness.budget import ResourceBudget
from repro.robustness.checkpoint import (
    CheckpointManager,
    CheckpointPolicy,
)
from repro.robustness.faults import FaultPlan, FaultSpec
from repro.robustness.recovery import RecoveryPolicy

SQL = """
WITH Ranked AS (
  SELECT A.c1 AS x, B.c2 AS y,
         rank() OVER (ORDER BY (0.3*A.c1 + 0.7*B.c2)) AS rank
  FROM A, B WHERE A.c2 = B.c1)
SELECT x, y, rank FROM Ranked WHERE rank <= 5
"""


def make_db(rows=400, seed=3, domain=15, hrjn_only=False):
    rng = make_rng(seed)
    # NRJN materialises its whole inner inside open() -- one atomic
    # step no budget can split -- so tests that need incremental
    # progress per budget instalment pin the fully pipelined HRJN.
    config = (OptimizerConfig(enable_nrjn=False) if hrjn_only else None)
    # The suspension scenarios need a plan that reads past 100 pulls:
    # pin the paper's cost profile, whose plan here is NRJN (428
    # pulls; IN_MEMORY's HRJN reads 36).
    db = Database(cost_model=CostModel(PAPER_2004), config=config)
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
    """A fault plan targeting whichever rank join the optimizer picked."""
    return FaultPlan([FaultSpec(
        target=lambda op: op.name.startswith(("HRJN", "NRJN")),
        **kwargs,
    )])


class TestPolicyValidation:
    def test_rejects_bad_parameters(self):
        from repro.common.errors import ExecutionError

        with pytest.raises(ExecutionError):
            CheckpointPolicy(every_rows=0)
        with pytest.raises(ExecutionError):
            CheckpointPolicy(pressure_threshold=1.5)
        with pytest.raises(ExecutionError):
            CheckpointPolicy(max_resumes=-1)

    def test_restore_without_checkpoint_raises(self):
        manager = CheckpointManager(root=None)
        with pytest.raises(CheckpointError):
            manager.restore()


class TestTransientFaultResume:
    def test_resume_matches_fault_free_run(self):
        clean = make_db().execute_guarded(SQL)
        db = make_db()
        report = db.execute_guarded(
            SQL, checkpoint=2,
            faults=rank_join_faults(on="next", at=4, transient=True),
        )
        assert report.rows == clean.rows
        assert report.recovery.path == "resumed"
        assert report.recovery.stats["resumes"] == 1

    def test_resume_pulls_strictly_fewer_than_rerun(self):
        """The acceptance bar: continuing from the checkpoint costs
        strictly fewer pulls than starting the query over."""
        clean = make_db().execute_guarded(SQL)
        clean_pulls = clean.recovery.stats["pulled_total"]
        db = make_db()
        report = db.execute_guarded(
            SQL, checkpoint=2,
            faults=rank_join_faults(on="next", at=4, transient=True),
        )
        stats = report.recovery.stats
        continuation = stats["pulled_total"] - stats["pulled_at_resume"]
        assert continuation < clean_pulls
        assert report.rows == clean.rows

    def test_without_checkpoint_transient_fault_propagates(self):
        db = make_db()
        with pytest.raises(TransientFaultError):
            db.execute_guarded(
                SQL, faults=rank_join_faults(on="next", at=4,
                                             transient=True),
            )

    def test_resume_budget_exhaustion_reraises(self):
        db = make_db()
        with pytest.raises(TransientFaultError):
            db.execute_guarded(
                SQL,
                checkpoint=CheckpointPolicy(every_rows=2, max_resumes=2),
                faults=rank_join_faults(on="next", at=4, times=500,
                                        transient=True),
            )


class TestSuspendResume:
    def test_budget_breach_suspends_instead_of_raising(self):
        db = make_db()
        report = db.execute_guarded(
            SQL, budget=ResourceBudget(max_pulls=100), checkpoint=2,
        )
        assert report.suspended
        assert report.recovery.path == "suspended"
        assert "pull budget" in report.suspension.reason
        if report.suspension.pre_open:
            # The breach fired inside an atomic open() (NRJN inner
            # materialisation): nothing was delivered and nothing is
            # checkpointed -- resume restarts from scratch.
            assert report.suspension.checkpoint is None
            assert report.rows == []
        else:
            assert report.rows == report.suspension.checkpoint.rows

    def test_resume_completes_the_query_exactly(self):
        clean = make_db().execute_guarded(SQL)
        db = make_db()
        first = db.execute_guarded(
            SQL, budget=ResourceBudget(max_pulls=100), checkpoint=2,
        )
        assert first.suspended
        # The delivered prefix is already correct.
        assert first.rows == clean.rows[:len(first.rows)]
        resumed = db.resume(first.suspension, budget=ResourceBudget())
        assert resumed.rows == clean.rows
        assert not resumed.suspended
        assert resumed.recovery.path == "resumed"

    def test_resume_can_suspend_again_under_a_tight_budget(self):
        """An HRJN query finishes in budget instalments, each hop
        resuming the previous hop's checkpoint."""
        clean = make_db(hrjn_only=True).execute_guarded(SQL)
        db = make_db(hrjn_only=True)
        report = db.execute_guarded(
            SQL, budget=ResourceBudget(max_pulls=15), checkpoint=2,
        )
        assert report.suspended
        hops = 1
        while report.suspended:
            report = db.resume(report.suspension,
                               budget=ResourceBudget(max_pulls=15))
            hops += 1
            assert hops < 20, "query never finished"
        assert hops > 1
        assert report.rows == clean.rows

    def test_suspend_disabled_still_raises(self):
        db = make_db()
        with pytest.raises(BudgetExceededError):
            db.execute_guarded(
                SQL, budget=ResourceBudget(max_pulls=100),
                checkpoint=CheckpointPolicy(every_rows=2,
                                            suspend_on_budget=False),
            )

    def test_breach_kind_recorded(self):
        db = make_db()
        with pytest.raises(BudgetExceededError) as info:
            db.execute_guarded(SQL, budget=ResourceBudget(max_pulls=5))
        assert info.value.kind == "pulls"


class TestPreOpenSuspension:
    """NRJN's atomic open: suspension must be safe, not half-broken.

    NRJN materialises its whole inner inside ``open()``.  A budget
    breach mid-open used to checkpoint the unopened tree (whose stats
    already carried the aborted open's pulls) -- a restore from that
    snapshot double-counted depth accounting.  The fix rejects
    checkpointing pre-open: the suspension carries no checkpoint and a
    resume restarts the query cleanly under the new budget.
    """

    def _nrjn_db(self, **kwargs):
        rng = make_rng(3)
        db = Database(config=OptimizerConfig(enable_hrjn=False))
        db.create_table("A", [("c1", "float"), ("c2", "int")], rows=[
            [float(rng.uniform(0, 1)), int(rng.integers(0, 15))]
            for _ in range(400)
        ])
        db.create_table("B", [("c1", "int"), ("c2", "float")], rows=[
            [int(rng.integers(0, 15)), float(rng.uniform(0, 1))]
            for _ in range(400)
        ])
        db.analyze()
        return db

    def test_breach_during_open_suspends_without_checkpoint(self):
        db = self._nrjn_db()
        report = db.execute_guarded(
            SQL, budget=ResourceBudget(max_pulls=50), checkpoint=2,
        )
        assert report.suspended
        suspension = report.suspension
        assert suspension.pre_open
        assert suspension.checkpoint is None
        assert suspension.rows_delivered == 0
        assert report.rows == []
        assert "pre-open" in report.recovery.events[0].detail

    def test_pre_open_resume_restarts_and_matches_clean_run(self):
        clean = self._nrjn_db().execute_guarded(SQL)
        db = self._nrjn_db()
        first = db.execute_guarded(
            SQL, budget=ResourceBudget(max_pulls=50), checkpoint=2,
        )
        assert first.suspension.pre_open
        resumed = db.resume(first.suspension, budget=ResourceBudget())
        assert not resumed.suspended
        assert resumed.rows == clean.rows

    def test_too_small_instalments_do_not_livelock_forever(self):
        """Escalating budgets clear the atomic open; identical tiny
        budgets would livelock, which callers detect via ``pre_open``
        never flipping off."""
        db = self._nrjn_db()
        report = db.execute_guarded(
            SQL, budget=ResourceBudget(max_pulls=50), checkpoint=2,
        )
        budget = 50
        hops = 0
        while report.suspended:
            budget *= 4
            report = db.resume(report.suspension,
                               budget=ResourceBudget(max_pulls=budget))
            hops += 1
            assert hops < 10, "escalating budgets never cleared the open"
        clean = self._nrjn_db().execute_guarded(SQL)
        assert report.rows == clean.rows


class TestMigration:
    def _wrong_selectivity_db(self, factor=4.0):
        db = make_db()
        real = db.catalog.join_selectivity("A", "A.c2", "B", "B.c1")
        db.set_join_selectivity("A.c2", "B.c1", min(1.0, real * factor))
        return db

    _POLICY = RecoveryPolicy(overrun_factor=1.1, min_headroom=4,
                             max_reestimates=0)

    def test_fallback_decision_migrates_live_state(self):
        reference = make_db().execute_guarded(SQL)
        db = self._wrong_selectivity_db()
        report = db.execute_guarded(SQL, policy=self._POLICY, checkpoint=2)
        assert report.recovery.path == "migrated"
        assert report.rows == reference.rows

    def test_migration_cheaper_than_fallback_rerun(self):
        """Migrating never rereads consumed tuples, so it pulls fewer
        than the abandon-and-rerun fallback on the same workload."""
        db = self._wrong_selectivity_db()
        fallback = db.execute_guarded(SQL, policy=self._POLICY)
        assert fallback.recovery.path == "fallback"
        db = self._wrong_selectivity_db()
        migrated = db.execute_guarded(SQL, policy=self._POLICY,
                                      checkpoint=2)
        assert migrated.recovery.path == "migrated"
        assert (migrated.recovery.stats["pulled_total"]
                < fallback.recovery.stats["pulled_total"])
        assert migrated.rows == fallback.rows

    def test_migration_disabled_falls_back(self):
        db = self._wrong_selectivity_db()
        report = db.execute_guarded(
            SQL, policy=self._POLICY,
            checkpoint=CheckpointPolicy(every_rows=2,
                                        migrate_on_fallback=False),
        )
        assert report.recovery.path == "fallback"


class TestMetricsWiring:
    def test_checkpoint_and_resume_counters(self):
        db = make_db()
        report = db.execute_guarded(
            SQL, trace=True, checkpoint=2,
            faults=rank_join_faults(on="next", at=4, transient=True),
        )
        metrics = report.telemetry.metrics
        assert metrics.counter("robustness_checkpoints_total").total() >= 1
        assert metrics.counter("robustness_resumes_total").value(
            kind="in_place") == 1
        assert metrics.counter("robustness_recovery_actions_total").value(
            action="resume") == 1
        assert metrics.counter(
            "robustness_faults_injected_total").total() >= 1

    def test_budget_breach_counter(self):
        db = make_db()
        report = db.execute_guarded(
            SQL, trace=True, budget=ResourceBudget(max_pulls=100),
            checkpoint=2,
        )
        assert report.suspended
        metrics = report.telemetry.metrics
        assert metrics.counter("robustness_budget_breaches_total").value(
            kind="pulls") == 1
        assert metrics.counter("robustness_recovery_actions_total").value(
            action="suspend") == 1

    def test_retry_counters(self):
        from repro.observability.metrics import MetricsRegistry
        from repro.operators.scan import TableScan
        from repro.robustness.faults import (
            FaultyOperator,
            RetryingOperator,
        )

        registry = MetricsRegistry()
        db = make_db(rows=20)
        scan = TableScan(db.catalog.table("A"))
        faulty = FaultyOperator(
            scan, [FaultSpec("Scan(A)", on="next", at=2, times=2,
                             transient=True)],
            metrics=registry,
        )
        retry = RetryingOperator(faulty, max_retries=3, metrics=registry)
        rows = list(retry)
        assert len(rows) == 20
        assert registry.counter("robustness_retries_total").value(
            outcome="attempted", operator="Faulty(Scan(A))") == 2
        assert registry.counter("robustness_retries_total").value(
            outcome="absorbed", operator="Faulty(Scan(A))") == 1
        assert registry.counter("robustness_faults_injected_total").value(
            kind="transient", operator="Scan(A)") == 2


class TestCheckpointEvents:
    def test_events_emitted_into_telemetry(self):
        db = make_db()
        report = db.execute_guarded(
            SQL, trace=True, checkpoint=2,
            faults=rank_join_faults(on="next", at=4, transient=True),
        )
        kinds = report.telemetry.events.kinds()
        assert kinds.get("checkpoint", 0) >= 1
        assert kinds.get("checkpoint_restore", 0) == 1
        assert kinds.get("recovery", 0) >= 1

    def test_recovery_describe_mentions_checkpoints(self):
        db = make_db()
        report = db.execute_guarded(SQL, checkpoint=2)
        text = report.recovery.describe()
        assert "checkpoints: taken=" in text


class TestPressureTrigger:
    def test_budget_pressure_checkpoints_before_breach(self):
        # HRJN only: an NRJN plan would breach inside its atomic open,
        # where there are no delivered rows for pressure to checkpoint.
        db = make_db(hrjn_only=True)
        report = db.execute_guarded(
            SQL, budget=ResourceBudget(max_pulls=60),
            checkpoint=CheckpointPolicy(every_rows=None,
                                        pressure_threshold=0.5),
        )
        # Whether or not the run finishes under the budget, crossing
        # 50% pressure must have produced at least the suspend
        # checkpoint -- and any pressure checkpoints record the reason.
        assert report.recovery.stats["checkpoints"] >= 1
