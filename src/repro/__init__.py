"""repro: Rank-aware Query Optimization (Ilyas et al., SIGMOD 2004).

A from-scratch Python reproduction of the paper's system: rank-join
query operators (HRJN / NRJN), a rank-aware System R dynamic-programming
optimizer with interesting order *expressions*, the probabilistic
input-cardinality (depth) estimation model, the ``k*`` cost crossover
analysis, and the buffer-size bound -- all on top of a self-contained
in-memory relational engine.

Quickstart::

    from repro import Database

    db = Database()
    db.create_table("A", [("c1", "float"), ("c2", "int")], rows=...)
    db.create_table("B", [("c1", "int"), ("c2", "float")], rows=...)
    report = db.execute('''
        WITH Ranked AS (
            SELECT A.c1 AS x, B.c2 AS y,
                   rank() OVER (ORDER BY (0.3*A.c1 + 0.7*B.c2)) AS rank
            FROM A, B WHERE A.c2 = B.c1)
        SELECT x, y, rank FROM Ranked WHERE rank <= 5''')
    for row in report.rows:
        print(row)

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-vs-measured record of every reproduced table and figure.
"""

from repro.common.errors import (
    BudgetExceededError,
    CheckpointError,
    DataError,
    DepthOverrunError,
    ExecutionError,
    OverloadError,
    ReproError,
    TransientFaultError,
)
from repro.common.scoring import (
    AverageScore,
    MaxScore,
    MinScore,
    MonotoneScore,
    SumScore,
    WeightedSum,
)
from repro.common.types import Column, Row, Schema
from repro.cost.buffer import buffer_upper_bound
from repro.cost.crossover import find_k_star
from repro.cost.model import IN_MEMORY, PAPER_2004, CostModel, CostProfile
from repro.estimation.depths import (
    any_k_depths,
    any_k_depths_uniform,
    top_k_depths,
    top_k_depths_average,
    top_k_depths_average_streams,
    top_k_depths_streams,
    top_k_depths_uniform,
)
from repro.executor.database import Database
from repro.executor.executor import ExecutionReport, Executor
from repro.operators import (
    AnyK,
    HRJN,
    NRJN,
    Filter,
    HashJoin,
    IndexNestedLoopsJoin,
    IndexScan,
    Limit,
    NestedLoopsJoin,
    Project,
    Sort,
    TableScan,
)
from repro.observability import (
    EventLog,
    MetricsRegistry,
    Telemetry,
    Tracer,
)
from repro.observability.export import (
    estimate_accuracy,
    format_accuracy,
    to_jsonl,
    to_prometheus,
)
from repro.robustness import (
    Checkpoint,
    CheckpointManager,
    CheckpointPolicy,
    ExecutionGuard,
    FaultPlan,
    FaultSpec,
    FaultyOperator,
    RecoveryLog,
    RecoveryPolicy,
    ResourceBudget,
    RetryingOperator,
    SuspendedQuery,
    inject_faults,
)
from repro.robustness.budget import TenantBudget
from repro.server import (
    AdmissionController,
    AdmissionDecision,
    AdmissionPolicy,
    InstalmentScheduler,
    QuerySession,
    SchedulerConfig,
    Server,
)
from repro.optimizer.enumerator import Optimizer, OptimizerConfig
from repro.optimizer.expressions import ScoreExpression
from repro.optimizer.interesting import collect_interesting_orders
from repro.optimizer.query import FilterPredicate, JoinPredicate, RankQuery
from repro.sql.parser import parse_query
from repro.sql.unparse import to_sql
from repro.storage.catalog import Catalog
from repro.storage.histogram import EquiWidthHistogram
from repro.storage.index import SortedIndex
from repro.storage.table import Table

__version__ = "1.0.0"

__all__ = [
    "AdmissionController",
    "AdmissionDecision",
    "AdmissionPolicy",
    "AnyK",
    "AverageScore",
    "BudgetExceededError",
    "Catalog",
    "Checkpoint",
    "CheckpointError",
    "CheckpointManager",
    "CheckpointPolicy",
    "Column",
    "CostModel",
    "CostProfile",
    "DataError",
    "Database",
    "DepthOverrunError",
    "EquiWidthHistogram",
    "EventLog",
    "ExecutionError",
    "ExecutionGuard",
    "ExecutionReport",
    "Executor",
    "FaultPlan",
    "FaultSpec",
    "FaultyOperator",
    "Filter",
    "FilterPredicate",
    "HRJN",
    "HashJoin",
    "IN_MEMORY",
    "IndexNestedLoopsJoin",
    "IndexScan",
    "InstalmentScheduler",
    "JoinPredicate",
    "Limit",
    "MaxScore",
    "MetricsRegistry",
    "MinScore",
    "MonotoneScore",
    "NRJN",
    "NestedLoopsJoin",
    "Optimizer",
    "OptimizerConfig",
    "OverloadError",
    "PAPER_2004",
    "Project",
    "QuerySession",
    "RankQuery",
    "RecoveryLog",
    "RecoveryPolicy",
    "ReproError",
    "ResourceBudget",
    "RetryingOperator",
    "Row",
    "SchedulerConfig",
    "Schema",
    "ScoreExpression",
    "Server",
    "Sort",
    "SortedIndex",
    "SumScore",
    "SuspendedQuery",
    "Table",
    "TableScan",
    "Telemetry",
    "TenantBudget",
    "Tracer",
    "TransientFaultError",
    "WeightedSum",
    "any_k_depths",
    "any_k_depths_uniform",
    "buffer_upper_bound",
    "collect_interesting_orders",
    "estimate_accuracy",
    "format_accuracy",
    "find_k_star",
    "inject_faults",
    "parse_query",
    "to_jsonl",
    "to_prometheus",
    "to_sql",
    "top_k_depths",
    "top_k_depths_average",
    "top_k_depths_average_streams",
    "top_k_depths_streams",
    "top_k_depths_uniform",
]
