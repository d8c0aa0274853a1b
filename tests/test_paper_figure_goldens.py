"""Goldens for the analytic paper figures, read off the optimizer's nodes.

Figures 1 and 6 cost the two competing plans of Figure 5 with the same
``AccessPlan`` / ``JoinPlan`` / ``SortPlan`` / ``RankJoinPlan`` nodes the
MEMO compares, and Figure 4 propagates ``k`` with the optimizer's own
``propagate_depths``.  The numbers below were produced by the former
standalone cost model and estimation tree; the plan-node path must
reproduce them (Figures 1 and 6 to ``rel=1e-12``, Figure 4 exactly).
"""

import pytest

from repro.cost.crossover import find_k_star
from repro.experiments.figures import two_way_plans
from repro.experiments.harness import measure_pipeline_depths

#: Figure 1 (n=10000, k=100): (selectivity, sort plan, rank-join plan).
FIGURE1 = (
    (1e-06, 640.1, 80044.76438561898),
    (1e-05, 661.0, 35800.70495505456),
    (1e-04, 1050.0, 11325.094124472207),
    (1e-03, 4740.0, 3585.2263896196187),
    (1e-02, 61640.0, 1137.6653065613798),
    (1e-01, 610640.0, 363.6785330761212),
)

#: Figure 6 (n=10000, s=1e-3): (k, sort plan, rank-join plan).
FIGURE6 = (
    (1, 4740.0, 361.95376183816626),
    (25, 4740.0, 1794.0810020003207),
    (50, 4740.0, 2535.8514248177466),
    (100, 4740.0, 3585.2263896196187),
    (150, 4740.0, 4390.739995878497),
    (200, 4740.0, 5070.031620873448),
    (400, 4740.0, 7171.510321715142),
    (800, 4740.0, 10146.978326698718),
)

#: Figure 4 (n=4000, s=0.01, k=100, seed 42, worst case), bottom-up:
#: (operator, required k, est dL, est dR, actual depths).
FIGURE4 = (
    ("HRJN1", 283.46190279222395, 336.1367149676273, 336.1367149676273,
     (166, 166)),
    ("HRJN2", 100.0, 283.46190279222395, 237.6845505593788, (164, 163)),
)


@pytest.mark.parametrize("selectivity, sort_cost, rank_cost", FIGURE1)
def test_figure1_costs(selectivity, sort_cost, rank_cost):
    sort_plan, rank_plan = two_way_plans(10000, selectivity)
    assert sort_plan.cost(100) == pytest.approx(sort_cost, rel=1e-12)
    assert rank_plan.cost(100) == pytest.approx(rank_cost, rel=1e-12)


def test_figure6_costs_and_k_star():
    sort_plan, rank_plan = two_way_plans(10000, 1e-3)
    for k, sort_cost, rank_cost in FIGURE6:
        assert sort_plan.cost(k) == pytest.approx(sort_cost, rel=1e-12)
        assert rank_plan.cost(k) == pytest.approx(rank_cost, rel=1e-12)
    assert find_k_star(rank_plan, sort_plan) == 175


def test_figure4_propagated_depths():
    records = measure_pipeline_depths(4000, 0.01, 100, inputs=3, seed=42)
    assert [(name, required, estimate.d_left, estimate.d_right, actual)
            for name, actual, estimate, required in records] \
        == list(FIGURE4)
