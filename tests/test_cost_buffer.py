"""Unit tests for the rank-join buffer-size bound (Section 5.3)."""

import pytest

from repro.common.errors import EstimationError
from repro.cost.buffer import buffer_upper_bound
from repro.experiments.figures import two_way_plans
from repro.optimizer.plans import RankJoinPlan


def estimated_bound(k, s=0.01, n=10000):
    """The bound over a worst-case rank-join plan's estimated depths."""
    plan = two_way_plans(n, s)[1]
    left, right = plan.children
    worst = RankJoinPlan(plan.model, "hrjn", left, right, plan.predicates,
                         s, plan.left_expression, plan.right_expression,
                         plan.combined_expression, estimation_mode="worst")
    return buffer_upper_bound(*worst.depth_estimate(k).as_tuple(), s)


class TestBufferBound:
    def test_formula(self):
        assert buffer_upper_bound(100, 50, 0.01) == pytest.approx(50.0)

    def test_zero_selectivity(self):
        assert buffer_upper_bound(100, 100, 0.0) == 0.0

    def test_invalid_depths(self):
        with pytest.raises(EstimationError):
            buffer_upper_bound(-1, 10, 0.1)

    def test_invalid_selectivity(self):
        with pytest.raises(EstimationError):
            buffer_upper_bound(10, 10, 1.5)

    def test_estimated_bound_monotone_in_k(self):
        bounds = [estimated_bound(k) for k in (1, 10, 100)]
        assert bounds == sorted(bounds)

    def test_estimated_bound_at_least_k(self):
        """At least k join results must be buffered-or-reported; the
        worst-case bound therefore dominates k."""
        for k in (1, 10, 100):
            assert estimated_bound(k) >= k
