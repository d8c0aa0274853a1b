"""The ``k*`` crossover between two ranking plans (Section 3.3).

The sort plan's cost is flat in ``k``; the rank-join plan's cost grows
with ``k``.  ``k*`` is the value where they meet (Figure 6 shows
``k* = 176`` for the paper's example parameters).  Both plans are the
optimizer's own plan nodes, so ``k*`` is read off the very
``cost(k)`` the MEMO's dominance test compares; that test
(:class:`~repro.optimizer.memo.Memo`) is where the paper's pruning
decision table lives.
"""


def find_k_star(rank_plan, sort_plan):
    """Return ``k*``: the smallest integer ``k`` in ``1..n_a`` where
    ``rank_plan.cost(k) >= sort_plan.cost(k)``.

    ``n_a`` is the rank-join plan's output cardinality.  Returns ``0``
    when the rank-join plan already costs at least as much at ``k = 1``,
    and ``None`` when it stays cheaper over the whole feasible range
    (``k* > n_a``).  Costs are assumed monotone in ``k``.
    """
    n_a = max(1, int(rank_plan.cardinality))

    def rank_cheaper(k):
        return rank_plan.cost(k) < sort_plan.cost(k)

    if not rank_cheaper(1):
        return 0
    if rank_cheaper(n_a):
        return None
    low, high = 1, n_a  # rank_cheaper(low) and not rank_cheaper(high)
    while high - low > 1:
        mid = (low + high) // 2
        if rank_cheaper(mid):
            low = mid
        else:
            high = mid
    return high
