"""Expression indexes: sorted access paths over score *expressions*.

A single-table ranking over several columns (e.g. ``0.5*A.c1 +
0.5*A.c3``) can be served by an index keyed on the expression; the
optimizer matches such indexes through the expression's canonical
description.
"""

import pytest

from repro.common.rng import make_rng
from repro.cost.model import CostModel
from repro.optimizer.builder import PlanBuilder
from repro.optimizer.enumerator import Optimizer, OptimizerConfig
from repro.optimizer.expressions import ScoreExpression
from repro.optimizer.plans import AccessPlan
from repro.optimizer.query import RankQuery
from repro.storage.catalog import Catalog
from repro.storage.index import SortedIndex
from repro.storage.table import Table

from tests.reference_answers import assert_query_top_k


def make_catalog(with_expression_index, rows=120, seed=13):
    rng = make_rng(seed)
    table = Table.from_columns(
        "A", [("c1", "float"), ("c3", "float")],
    )
    for _ in range(rows):
        table.insert([float(rng.uniform(0, 1)), float(rng.uniform(0, 1))])
    expression = ScoreExpression({"A.c1": 0.5, "A.c3": 0.5})
    if with_expression_index:
        table.create_index(SortedIndex(
            "A_expr_idx",
            expression.accessor(),
            key_description=expression.description(),
        ))
    catalog = Catalog()
    catalog.register(table)
    catalog.analyze()
    return catalog, expression


def single_table_query(expression, k=5):
    return RankQuery(tables="A", ranking=expression, k=k)


class TestExpressionIndexes:
    def test_optimizer_uses_expression_index(self):
        catalog, expression = make_catalog(with_expression_index=True)
        optimizer = Optimizer(catalog, CostModel(), OptimizerConfig())
        result = optimizer.optimize(single_table_query(expression))
        assert isinstance(result.best_plan, AccessPlan)
        assert result.best_plan.index_name == "A_expr_idx"

    def test_without_index_falls_back_to_sort(self):
        catalog, expression = make_catalog(with_expression_index=False)
        optimizer = Optimizer(catalog, CostModel(), OptimizerConfig())
        result = optimizer.optimize(single_table_query(expression))
        assert "Sort" in result.best_plan.describe()

    @pytest.mark.parametrize("with_index", [True, False],
                             ids=["indexed", "sorted"])
    def test_results_identical_either_way(self, with_index):
        catalog, expression = make_catalog(with_index)
        optimizer = Optimizer(catalog, CostModel(), OptimizerConfig())
        query = single_table_query(expression, k=4)
        root = PlanBuilder(catalog).build_query(optimizer.optimize(query))
        assert_query_top_k(root, catalog, query)

    def test_index_scan_streams_expression_order(self):
        catalog, expression = make_catalog(with_expression_index=True)
        table = catalog.table("A")
        index = table.get_index("A_expr_idx")
        scores = [score for score, _row in index.sorted_access()]
        assert scores == sorted(scores, reverse=True)
