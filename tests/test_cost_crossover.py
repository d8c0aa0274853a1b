"""The ``k*`` crossover and the MEMO's pruning decision table.

``find_k_star`` reads ``k*`` off the optimizer's plan nodes; the
Section 3.3 decision table (prune the sort plan, prune the rank-join
plan, or keep both) is the MEMO's dominance test over the same nodes.
"""

import copy

import pytest

from repro.common.errors import OptimizerError
from repro.cost.crossover import find_k_star
from repro.experiments.figures import two_way_plans
from repro.optimizer.memo import Memo


def retained(s, k_min, pipelined=True):
    """Plan classes the MEMO keeps of the two Figure 5 plans."""
    sort_plan, rank_plan = two_way_plans(10000, s)
    # The enumerator projects pipelining before a plan enters the MEMO.
    rank_plan = copy.copy(rank_plan)
    rank_plan.pipelined = pipelined
    memo = Memo(k_min=k_min)
    memo.add(sort_plan)
    memo.add(rank_plan)
    return {type(plan).__name__ for plan in memo.entry(rank_plan.tables)}


class TestKStar:
    def test_crossover_exists(self):
        sort_plan, rank_plan = two_way_plans(10000, 1e-3)
        k_star = find_k_star(rank_plan, sort_plan)
        assert k_star is not None and k_star > 0
        assert rank_plan.cost(k_star) >= sort_plan.cost(k_star)
        assert rank_plan.cost(k_star - 1) < sort_plan.cost(k_star - 1)

    def test_rank_always_cheaper(self):
        # Very high selectivity: tiny depths, sorting is massive.
        sort_plan, rank_plan = two_way_plans(10000, 0.5)
        assert find_k_star(rank_plan, sort_plan) is None

    def test_rank_never_cheaper(self):
        # Very low selectivity: depths clamp to full inputs with
        # expensive random I/O while the sort plan is trivial.
        sort_plan, rank_plan = two_way_plans(10000, 1e-6)
        assert find_k_star(rank_plan, sort_plan) == 0

    def test_paper_figure6_magnitude(self):
        """The paper reports k* = 176 for its example; our model's
        parameters land in the same order of magnitude."""
        sort_plan, rank_plan = two_way_plans(10000, 1e-3)
        assert 50 <= find_k_star(rank_plan, sort_plan) <= 500


class TestPruneDecision:
    def test_prune_sort_case(self):
        """k* > n_a: the rank-join plan prunes the sort plan."""
        assert retained(0.5, k_min=10) == {"RankJoinPlan"}

    def test_keep_both_crossover_case(self):
        sort_plan, rank_plan = two_way_plans(10000, 1e-3)
        assert find_k_star(rank_plan, sort_plan) >= 10
        assert retained(1e-3, k_min=10) == {"SortPlan",
                                                   "RankJoinPlan"}

    def test_prune_rank_join_when_blocking(self):
        """k* < k_min and the rank-join plan is blocking: pruned."""
        assert retained(1e-6, k_min=10, pipelined=False) \
            == {"SortPlan"}

    def test_pipelining_protects_rank_join(self):
        """Section 3.3: a pipelined plan survives a cheaper blocking
        plan."""
        assert retained(1e-6, k_min=10, pipelined=True) \
            == {"SortPlan", "RankJoinPlan"}

    def test_invalid_k_min(self):
        with pytest.raises(OptimizerError):
            Memo(k_min=0)
