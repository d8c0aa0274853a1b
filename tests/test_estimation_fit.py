"""Catalog-driven depth estimation through the optimizer.

The analyzed cardinalities and the join selectivity feed the optimizer,
whose chosen rank-join plan carries the depth estimate its cost was
built on.
"""

import pytest

from repro.common.errors import OptimizerError
from repro.cost.model import CostModel
from repro.data.generators import generate_ranked_table
from repro.experiments.harness import realized_selectivity
from repro.operators.hrjn import HRJN
from repro.operators.scan import IndexScan
from repro.operators.topk import Limit
from repro.optimizer.enumerator import Optimizer
from repro.optimizer.expressions import ScoreExpression
from repro.optimizer.plans import RankJoinPlan
from repro.optimizer.query import JoinPredicate, RankQuery
from repro.storage.catalog import Catalog


def make_catalog(n=4000, selectivity=0.01, seed=31):
    catalog = Catalog()
    left = generate_ranked_table("L", n, selectivity=selectivity,
                                 seed=seed)
    right = generate_ranked_table("R", n, selectivity=selectivity,
                                  seed=seed + 1)
    catalog.register(left)
    catalog.register(right)
    catalog.analyze()
    # Pin the true selectivity, as the paper assumes.
    catalog.set_join_selectivity(
        "L.key", "R.key",
        realized_selectivity(left, right, "L.key", "R.key"),
    )
    return catalog


def ranked_query(k):
    return RankQuery(
        tables="LR", predicates=[JoinPredicate("L.key", "R.key")],
        ranking=ScoreExpression({"L.score": 1.0, "R.score": 1.0}), k=k,
    )


def chosen_rank_join(catalog, k=50):
    plan = Optimizer(catalog, CostModel()).optimize(
        ranked_query(k)).best_plan
    assert isinstance(plan, RankJoinPlan)
    return plan


class TestCatalogEstimation:
    def test_tracks_measured_depth(self):
        catalog = make_catalog()
        k = 50
        estimate = chosen_rank_join(catalog, k).depth_estimate(k)
        left = catalog.table("L")
        right = catalog.table("R")
        rank_join = HRJN(
            IndexScan(left, left.get_index("L_score_idx")),
            IndexScan(right, right.get_index("R_score_idx")),
            "L.key", "R.key", "L.score", "R.score", name="RJ",
        )
        list(Limit(rank_join, k))
        actual = sum(rank_join.depths) / 2.0
        # The plan's estimate tracks the measurement within the usual
        # factor-of-two band.
        assert actual * 0.5 <= estimate.d_left <= actual * 2.5

    def test_clamped_at_cardinality(self):
        plan = chosen_rank_join(make_catalog(n=200), k=5)
        assert plan.depth_estimate(10 ** 6).d_left <= 200

    def test_invalid_k(self):
        with pytest.raises(OptimizerError):
            ranked_query(0)
