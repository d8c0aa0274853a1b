"""Physical query operators (iterator model).

Every operator implements the classic ``open / next / close`` pull
protocol and carries instrumentation counters
(:class:`repro.operators.base.OperatorStats`).  The counters are what
the paper's experiments read off: the *depth* of a rank-join operator is
the number of tuples it pulled from each input before the top-k results
were reported, and the *buffer size* is the high-water mark of its
priority queue.

Operators:

* access paths: :class:`TableScan`, :class:`IndexScan`
* tuple-at-a-time: :class:`Filter`, :class:`Project`
* blocking: :class:`Sort`, :class:`HashJoin`
* pipelined joins: :class:`NestedLoopsJoin`, :class:`IndexNestedLoopsJoin`
* rank-aware joins: :class:`HRJN`, :class:`NRJN`
* any-k enumeration: :class:`AnyK` (DP over an acyclic join tree)
* top-k: :class:`Limit` (over a rank join, or over a :class:`Sort`)
* parallel: :class:`ShardedScan`, :class:`ScoreMerge`
"""

from repro.operators.anyk import AnyK, AnyKNode
from repro.operators.base import Operator, OperatorStats, ScoreSpec
from repro.operators.filters import Filter, Project
from repro.operators.hrjn import HRJN
from repro.operators.joins import (
    HashJoin,
    IndexNestedLoopsJoin,
    NestedLoopsJoin,
)
from repro.operators.merge import ScoreMerge
from repro.operators.nrjn import NRJN
from repro.operators.scan import IndexScan, ShardedScan, TableScan
from repro.operators.sort import Sort
from repro.operators.topk import Limit

__all__ = [
    "AnyK",
    "AnyKNode",
    "Filter",
    "HRJN",
    "HashJoin",
    "IndexNestedLoopsJoin",
    "IndexScan",
    "Limit",
    "NRJN",
    "NestedLoopsJoin",
    "Operator",
    "OperatorStats",
    "Project",
    "ScoreMerge",
    "ScoreSpec",
    "ShardedScan",
    "Sort",
    "TableScan",
]
