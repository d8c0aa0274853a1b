"""Translate optimizer plans into executable operator trees.

The builder closes the loop: the winning
:class:`~repro.optimizer.plans.Plan` becomes a tree of
:mod:`repro.operators` instances bound to catalog tables, topped with a
:class:`~repro.operators.topk.Limit` for ranking queries.
"""

import itertools

from repro.common.errors import OptimizerError
from repro.common.scoring import SumScore
from repro.common.types import Column, Schema
from repro.operators.base import ScoreSpec
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
from repro.optimizer.plans import (
    AccessPlan,
    AnyKPlan,
    FilterPlan,
    JoinPlan,
    RankJoinPlan,
    ScoreMergePlan,
    ShardAccessPlan,
    SortPlan,
)


#: Polling strategy of every HRJN the optimizer plans, serial or per
#: shard: poll the input whose unseen-tuple term of the threshold is
#: larger (HRJN* of Ilyas, Aref and Elmagarmid, VLDB 2003).  Under a
#: weighted ranking it reads the heavily weighted input less deeply
#: than round-robin and reports the same results.
POLLING = "threshold"


def _key(columns):
    """Join key over ``columns``: the name, or a tuple when composite."""
    return columns[0] if len(columns) == 1 else tuple(columns)


class _Call:
    """State of one top-level build: the query's ``k`` and the counter
    numbering its rank-join, any-k and score-merge groups from 1."""

    __slots__ = ("k", "_numbers")

    def __init__(self, k=None):
        self.k = k
        self._numbers = itertools.count(1)

    def name(self, prefix):
        return "%s%d" % (prefix, next(self._numbers))


class PlanBuilder:
    """Builds operator trees from optimizer plans.

    Operator names are a function of the plan: each :meth:`build_query`
    / :meth:`build` call numbers its rank-join, any-k and score-merge
    groups from 1 in post-order, so rebuilding a plan -- a checkpoint
    resume, a recovering process --
    reproduces every name and ``_score_<name>`` column, and the builder
    keeps no state between calls.
    """

    def __init__(self, catalog, shard_pool=None):
        self.catalog = catalog
        self.shard_pool = shard_pool

    # ------------------------------------------------------------------
    def build_query(self, result):
        """Build the full executable tree for an OptimizationResult.

        Adds the final Limit for ranking queries and the projection for
        an explicit select list.  ScoreMergePlan nodes resolve their
        execution vehicle and per-shard budgets at the query's ``k``.
        """
        query = result.query
        k = float(query.k) if query.is_ranking else None
        root = self._build(result.best_plan, _Call(k))
        if query.is_ranking:
            root = Limit(root, query.k)
        if query.select is not None:
            root = Project(root, query.select)
        return root

    def build(self, plan):
        """Build the operator tree for one plan node.

        Each built operator keeps a reference to its plan node
        (``operator.plan``) so EXPLAIN ANALYZE can pair estimated and
        actual cardinalities after execution.
        """
        return self._build(plan, _Call())

    def _build(self, plan, call):
        if isinstance(plan, AccessPlan):
            operator = self._build_access(plan)
        elif isinstance(plan, FilterPlan):
            operator = self._build_filter(plan, call)
        elif isinstance(plan, SortPlan):
            operator = self._build_sort(plan, call)
        elif isinstance(plan, RankJoinPlan):
            operator = self._build_rank_join(plan, call)
        elif isinstance(plan, AnyKPlan):
            operator = self._build_anyk(plan, call)
        elif isinstance(plan, ScoreMergePlan):
            operator = self._build_score_merge(plan, call)
        elif isinstance(plan, JoinPlan):
            operator = self._build_join(plan, call)
        else:
            raise OptimizerError("cannot build plan node %r" % (plan,))
        operator.plan = plan
        return operator

    # ------------------------------------------------------------------
    def _build_access(self, plan):
        table = self.catalog.table(plan.table_name)
        if isinstance(plan, ShardAccessPlan):
            index = (table.get_index(plan.index_name)
                     if plan.index_name is not None else None)
            return ShardedScan(table, plan.shard_index,
                               plan.shard_count, index=index)
        if plan.index_name is None:
            return TableScan(table)
        index = table.get_index(plan.index_name)
        return IndexScan(table, index)

    def _build_filter(self, plan, call):
        child = self._build(plan.children[0], call)
        predicates = plan.predicates

        def accept(row, _predicates=predicates):
            return all(p.matches(row) for p in _predicates)

        return Filter(
            child, accept,
            description=" and ".join(p.describe() for p in predicates),
            predicates=predicates,
        )

    def _build_sort(self, plan, call):
        child = self._build(plan.children[0], call)
        expression = plan.order.expression
        return Sort(
            child, expression.accessor(), descending=True,
            description=expression.description(),
        )

    def _join_keys(self, plan):
        """Return (left_key, right_key) for the plan's predicates.

        Keys are column names, which lets a rank join over a scan read
        them by position; multiple predicates become composite (tuple)
        keys.  Each predicate's columns are attributed to the side
        that provides them.
        """
        left_tables = plan.children[0].tables
        left_columns = []
        right_columns = []
        for predicate in plan.predicates:
            if predicate.left_table in left_tables:
                left_columns.append(predicate.left_column)
                right_columns.append(predicate.right_column)
            else:
                left_columns.append(predicate.right_column)
                right_columns.append(predicate.left_column)

        return _key(left_columns), _key(right_columns)

    def _build_join(self, plan, call):
        left = self._build(plan.children[0], call)
        right = self._build(plan.children[1], call)
        left_key, right_key = self._join_keys(plan)
        if plan.method == "hash":
            return HashJoin(left, right, left_key, right_key)
        if plan.method == "inl":
            return IndexNestedLoopsJoin(left, right, left_key, right_key)
        if plan.method == "nl":
            return NestedLoopsJoin(left, right, left_key, right_key)
        if plan.method == "sort_merge":
            # The engine runs sort-merge as a hash join (identical
            # output); the distinction only matters to the cost model.
            return HashJoin(left, right, left_key, right_key)
        raise OptimizerError("unknown join method %r" % (plan.method,))

    def _build_rank_join(self, plan, call, name=None,
                         output_score_column=None):
        left = self._build(plan.children[0], call)
        right = self._build(plan.children[1], call)
        left_key, right_key = self._join_keys(plan)
        left_spec = ScoreSpec.weighted(plan.left_expression)
        right_spec = ScoreSpec.weighted(plan.right_expression)
        if name is None:
            name = call.name(plan.operator.upper())
        score_column = output_score_column or "_score_%s" % (name,)
        if plan.operator == "hrjn":
            return HRJN(
                left, right, left_key, right_key, left_spec, right_spec,
                combiner=SumScore(), name=name,
                output_score_column=score_column, strategy=POLLING,
            )
        return NRJN(
            left, right, left_key, right_key, left_spec, right_spec,
            combiner=SumScore(), name=name,
            output_score_column=score_column,
        )

    def _build_anyk(self, plan, call):
        """Build the any-k DP operator for an :class:`AnyKPlan`.

        Node scores are passed as ordered weight lists, routing the
        operator's scoring through the columnar
        ``compile_score_closure`` path.
        """
        from repro.operators.anyk import AnyK, AnyKNode

        name = call.name("ANYK")
        children = [self._build(child, call) for child in plan.children]
        nodes = []
        for position, expression in enumerate(plan.node_expressions):
            weights = (list(expression.weights.items())
                       if expression is not None else None)
            if position == 0:
                nodes.append(AnyKNode(0, None, score_weights=weights))
                continue
            parent, column_pairs = plan.edges[position]
            nodes.append(AnyKNode(
                position, parent,
                key=_key([pair[0] for pair in column_pairs]),
                parent_key=_key([pair[1] for pair in column_pairs]),
                score_weights=weights,
            ))
        return AnyK(children, nodes, name=name,
                    output_score_column="_score_%s" % (name,))

    # ------------------------------------------------------------------
    # Parallel (sharded) rank joins
    # ------------------------------------------------------------------
    def _pool(self):
        """The shard pool, created lazily for builders without one."""
        if self.shard_pool is None:
            from repro.executor.shard_pool import ShardPool

            self.shard_pool = ShardPool(self.catalog)
        return self.shard_pool

    def _build_score_merge(self, plan, call):
        """Build ScoreMerge over per-shard rank-join pipelines.

        One group name is drawn from the rank-join counter and shared:
        every shard pipeline writes the *same* combined-score column
        ``_score_<group>`` the serial rank join would have written, so
        parallel output rows are byte-identical to serial ones.
        """
        group = call.name("HRJN")
        score_column = "_score_%s" % (group,)
        k = call.k if call.k is not None else float(plan.cardinality
                                                    or 1.0)
        mode = plan.resolved_mode(k)
        budgets = plan.child_budgets(k)
        shard_count = len(plan.children)
        use_pool = (mode == "pool" and plan.pool_supported
                    and self._pool().available)
        children = []
        for index, (child_plan, budget) in enumerate(
                zip(plan.children, budgets)):
            if use_pool:
                child = self._build_shard_stream(
                    child_plan, index, shard_count, score_column,
                    budget, group,
                )
            else:
                child = self._build_rank_join(
                    child_plan, call, name="%s[s%d]" % (group, index),
                    output_score_column=score_column,
                )
            child.plan = child_plan
            children.append(child)
        return ScoreMerge(
            children, score_spec=ScoreSpec.column(score_column),
            name="ScoreMerge(%s)" % (group,),
        )

    def _build_shard_stream(self, plan, index, count, score_column,
                            budget, group):
        """Build the pool-backed leaf for one shard's rank join."""
        from repro.executor.shard_pool import ShardStream, shard_budget

        left_node, right_node = plan.children
        left_column, right_column = self._join_keys(plan)
        spec = {
            "left": {
                "table": left_node.table_name,
                "index": left_node.index_name,
                "key": left_column,
                "expression": plan.left_expression,
            },
            "right": {
                "table": right_node.table_name,
                "index": right_node.index_name,
                "key": right_column,
                "expression": plan.right_expression,
            },
            "score_column": score_column,
            "strategy": POLLING,
        }
        left_schema = self.catalog.table(left_node.table_name).schema
        right_schema = self.catalog.table(right_node.table_name).schema
        merged = left_schema.merge(right_schema)
        schema = Schema(
            tuple(merged.columns)
            + (Column(score_column, table=None, type_name="float"),)
        )
        return ShardStream(
            self._pool(), spec, schema, index, count,
            shard_budget(budget), name="%s[s%d]" % (group, index),
        )
