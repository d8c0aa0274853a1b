"""Parallel (sharded) rank-join plan generation.

Eligibility (the parallel analogue of the Section 3.2 rank-join rules):
a :class:`~repro.optimizer.plans.RankJoinPlan` has a sharded
alternative when

* it is an HRJN over a single equi-join predicate,
* each input is a base-table access (optionally under a filter), and
* the catalog holds a *fresh* hash partitioning of each base table on
  its join column, with equal shard counts on both sides.

Hash co-location then guarantees shard ``i`` of the left joins only
shard ``i`` of the right, so ``ScoreMerge(HRJN_i(L_i, R_i))`` computes
exactly the serial join in the same score order.  Round-robin
partitionings never qualify (no co-location).

The generated :class:`~repro.optimizer.plans.ScoreMergePlan` competes
in the MEMO against its serial source on cost alone -- the ``k*``-style
crossover decides serial vs parallel per query.
"""

from repro.optimizer.plans import (
    AccessPlan,
    FilterPlan,
    RankJoinPlan,
    ScoreMergePlan,
    ShardAccessPlan,
)


def sharding_eligible(plan):
    """True when ``plan`` is the kind of root a sharded alternative covers.

    The explicit form of the eligibility rule above: only a *binary*
    HRJN :class:`~repro.optimizer.plans.RankJoinPlan` over a single
    equi-join predicate can be co-partitioned into per-shard pipelines.
    Every other root -- NRJN rank joins, traditional joins, and in
    particular the multi-way :class:`~repro.optimizer.plans.AnyKPlan`
    (whose join tree spans several keys, so no single hash partitioning
    co-locates it) -- is skipped cleanly rather than mis-sharded.
    """
    return (isinstance(plan, RankJoinPlan)
            and plan.operator == "hrjn"
            and len(plan.predicates) == 1)


def _access_of(plan):
    """Return ``(access, filter-or-None)`` for shardable inputs."""
    if isinstance(plan, FilterPlan) and isinstance(plan.children[0],
                                                   AccessPlan):
        return plan.children[0], plan
    if isinstance(plan, AccessPlan):
        return plan, None
    return None, None


def _join_columns(plan):
    """Attribute the predicate's columns to (left, right) children."""
    predicate = plan.predicates[0]
    if predicate.left_table in plan.children[0].tables:
        return predicate.left_column, predicate.right_column
    return predicate.right_column, predicate.left_column


def _shard_side(catalog, model, side_plan, join_column):
    """Per-shard plans for one join input, or ``None`` if ineligible."""
    access, filter_plan = _access_of(side_plan)
    if access is None or isinstance(access, ShardAccessPlan):
        return None
    base_table = access.table_name
    partitioning = catalog.partitioning(base_table, join_column)
    if partitioning is None or partitioning.strategy != "hash":
        return None
    shard_plans = []
    for index, alias in enumerate(partitioning.shard_names):
        cardinality = catalog.stats(alias).cardinality
        shard = ShardAccessPlan(
            model, alias, cardinality, base_table, index,
            partitioning.shard_count, order=access.order,
            index_name=access.index_name,
        )
        if filter_plan is not None:
            shard = FilterPlan(model, shard, filter_plan.predicates,
                               filter_plan.selectivity)
        shard_plans.append(shard)
    return shard_plans


def parallel_alternative(catalog, model, plan, mode="auto"):
    """The sharded ScoreMerge alternative for ``plan``, or ``None``."""
    if not sharding_eligible(plan):
        return None
    left_column, right_column = _join_columns(plan)
    left_shards = _shard_side(catalog, model, plan.children[0],
                              left_column)
    right_shards = _shard_side(catalog, model, plan.children[1],
                               right_column)
    if left_shards is None or right_shards is None:
        return None
    if len(left_shards) != len(right_shards):
        return None
    shard_count = len(left_shards)
    # Within one shard pair the join predicate is ~p times denser: the
    # pair holds 1/p of each side but the full 1/p slice of the output.
    local_selectivity = min(1.0, plan.selectivity * shard_count)
    children = [
        RankJoinPlan(
            model, "hrjn", left, right, plan.predicates,
            local_selectivity, plan.left_expression,
            plan.right_expression, plan.combined_expression,
            estimation_mode=plan.estimation_mode,
        )
        for left, right in zip(left_shards, right_shards)
    ]
    # Pool workers run a specialised kernel over indexed shard tables;
    # filtered or heap-ordered inputs stay on the inline vehicle.
    pool_supported = all(
        isinstance(node, ShardAccessPlan) and node.index_name is not None
        for child in children for node in child.children
    )
    return ScoreMergePlan(
        model, children, plan.combined_expression, plan, mode=mode,
        pool_supported=pool_supported,
    )


def apply_parallel_mode(catalog, model, plan, mode):
    """Force a parallel mode onto an optimized plan.

    ``"off"`` replaces every :class:`ScoreMergePlan` with its serial
    source; ``"inline"`` / ``"pool"`` pin existing merge nodes to that
    vehicle and parallelise eligible serial rank-joins that the cost
    model had left serial.  Returns ``(plan, changed_count)``; nodes
    are rebuilt, never mutated, so cached plans stay intact.  The walk
    covers rank-join/merge towers (the only place parallel plans
    arise); other node types pass through unchanged.
    """
    if isinstance(plan, ScoreMergePlan):
        if mode == "off":
            return plan.source, 1
        return plan.with_mode(mode), 1
    if isinstance(plan, RankJoinPlan):
        if mode != "off":
            alternative = parallel_alternative(catalog, model, plan,
                                               mode=mode)
            if alternative is not None:
                return alternative, 1
        new_children = []
        changed = 0
        for child in plan.children:
            new_child, count = apply_parallel_mode(catalog, model,
                                                   child, mode)
            new_children.append(new_child)
            changed += count
        if not changed:
            return plan, 0
        rebuilt = RankJoinPlan(
            plan.model, plan.operator, new_children[0], new_children[1],
            plan.predicates, plan.selectivity, plan.left_expression,
            plan.right_expression, plan.combined_expression,
            estimation_mode=plan.estimation_mode,
        )
        return rebuilt, changed
    return plan, 0
