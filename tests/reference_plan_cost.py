"""The uncached plan costing, kept as the differential oracle.

``cost``, ``depth_estimate`` and ``_mean_leaf_cardinality`` as they
stood before plan nodes memoised ``cost(k)``: every call re-costs the
whole subtree, re-estimates every rank join's depths on the way, and
re-walks the leaves for the mean leaf cardinality.  Only the form
changed: the methods became functions of the plan dispatching on its
type (``reference_cost(plan, k)``), and ``child.cost(k)`` became
``reference_cost(child, k)``.  ``tests/test_memo_costing.py`` requires
every plan the MEMO retains, and the MEMO itself, to match them bit for
bit.  Nothing here reads a plan's cost memo.
"""

import math

from repro.optimizer.plans import (
    AccessPlan,
    AnyKPlan,
    FilterPlan,
    JoinPlan,
    RankJoinPlan,
    ScoreMergePlan,
    SortPlan,
)


def reference_cost(plan, k):
    """``plan.cost(k)`` recomputed without any memo."""
    if isinstance(plan, RankJoinPlan):
        return _rank_join_cost(plan, k)
    if isinstance(plan, ScoreMergePlan):
        return _score_merge_cost(plan, k)
    if isinstance(plan, AnyKPlan):
        return _anyk_cost(plan, k)
    if isinstance(plan, JoinPlan):
        return _join_cost(plan, k)
    if isinstance(plan, SortPlan):
        return _sort_cost(plan, k)
    if isinstance(plan, FilterPlan):
        return _filter_cost(plan, k)
    if isinstance(plan, AccessPlan):
        return _access_cost(plan, k)
    raise TypeError("no reference cost for %r" % (plan,))


def _access_cost(self, k):
    depth = min(max(0.0, k), self.cardinality)
    if self.index_name is None:
        return self.model.table_scan_cost(depth)
    return self.model.index_sorted_access_cost(depth)


def _filter_cost(self, k):
    child = self.children[0]
    needed = min(child.cardinality,
                 max(1.0, k) / self.selectivity)
    return reference_cost(child, needed) + self.model.cpu(needed)


def _sort_cost(self, k):
    child = self.children[0]
    return (reference_cost(child, child.cardinality)
            + self.model.external_sort_cost(child.cardinality))


def _join_cost(self, k):
    left, right = self.children
    left_cost = reference_cost(left, left.cardinality)
    right_cost = reference_cost(right, right.cardinality)
    if self.method == "hash":
        method_cost = self.model.hash_join_cost(
            left.cardinality, right.cardinality,
        )
    elif self.method == "inl":
        # Inner accessed through its index: no inner scan charged.
        right_cost = 0.0
        method_cost = self.model.index_nl_join_cost(
            left.cardinality, right.cardinality, self.selectivity,
        )
    elif self.method == "nl":
        method_cost = self.model.nl_join_cost(
            left.cardinality, right.cardinality,
        )
    else:  # sort_merge
        method_cost = self.model.sort_merge_join_cost(
            left.cardinality, right.cardinality,
            left_sorted=not left.order.is_none,
            right_sorted=not right.order.is_none,
        )
    return left_cost + right_cost + method_cost


def reference_mean_leaf_cardinality(self):
    logs = []

    def visit(plan):
        if not plan.children:
            logs.append(math.log(max(1.0, plan.cardinality)))
            return
        for child in plan.children:
            visit(child)

    visit(self)
    return math.exp(sum(logs) / len(logs))


def reference_depth_estimate(self, k):
    """``RankJoinPlan.depth_estimate(k)`` with the subtree walk."""
    from repro.estimation.depths import (
        top_k_depths_average_streams,
        top_k_depths_streams,
    )

    left, right = self.children
    k = min(max(1.0, k), max(1.0, self.cardinality))
    n = reference_mean_leaf_cardinality(self)
    l = left.leaf_count
    r = right.leaf_count
    m_left = max(1.0, left.cardinality)
    m_right = max(1.0, right.cardinality)
    if self.estimation_mode == "worst":
        estimate = top_k_depths_streams(
            k, self.selectivity, n, l=l, r=r,
            m_left=m_left, m_right=m_right,
        )
    else:
        estimate = top_k_depths_average_streams(
            k, self.selectivity, n, l=l, r=r,
            m_left=m_left, m_right=m_right,
        )
    return estimate.clamp(
        max_left=left.cardinality, max_right=right.cardinality,
    )


def _rank_join_cost(self, k):
    left, right = self.children
    estimate = reference_depth_estimate(self, k)
    d_left, d_right = estimate.d_left, estimate.d_right
    if self.operator == "hrjn":
        return (reference_cost(left, d_left) + reference_cost(right, d_right)
                + self.model.hrjn_cost(d_left, d_right,
                                       self.selectivity))
    # NRJN consumes the inner fully regardless of k.
    return (reference_cost(left, d_left)
            + reference_cost(right, right.cardinality)
            + self.model.nrjn_cost(d_left, right.cardinality,
                                   self.selectivity))


def _anyk_cost(self, k):
    input_cost = sum(reference_cost(child, child.cardinality)
                     for child in self.children)
    tuples = sum(child.cardinality for child in self.children)
    k = min(max(1.0, k), max(1.0, self.cardinality))
    return (input_cost
            + self.model.anyk_preprocess_cost(tuples)
            + self.model.anyk_enumerate_cost(k, len(self.children)))


def _inline_cost(self, k):
    """Shards run serially in-process: costs add up."""
    budgets = self.child_budgets(k)
    shard_cost = sum(reference_cost(child, budget)
                     for child, budget in zip(self.children, budgets))
    return (shard_cost
            + self.model.score_merge_cost(k, self.shard_count)
            + self.shard_count
            * self.model.shard_startup_cost("inline"))


def _pool_cost(self, k):
    """Shards run concurrently: the slowest shard gates the merge."""
    budgets = self.child_budgets(k)
    shard_cost = max(reference_cost(child, budget)
                     for child, budget in zip(self.children, budgets))
    return (shard_cost
            + self.model.score_merge_cost(k, self.shard_count)
            + self.shard_count
            * self.model.shard_startup_cost("pool"))


def _score_merge_cost(self, k):
    if self.mode == "inline":
        return _inline_cost(self, k)
    if self.mode == "pool" and self.pool_supported:
        return _pool_cost(self, k)
    if self.pool_supported:
        return min(_inline_cost(self, k), _pool_cost(self, k))
    return _inline_cost(self, k)
