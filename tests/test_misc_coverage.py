"""Breadth tests for small surfaces: reprs, describe strings, and edge
paths not covered elsewhere."""

from repro.common.errors import ParseError, ReproError
from repro.common.rng import make_rng
from repro.common.scoring import SumScore
from repro.common.types import Row
from repro.data.video import make_video_workload
from repro.estimation.depths import DepthEstimate
from repro.estimation.distributions import sum_uniform_cdf
from repro.experiments.report import format_table
from repro.operators.base import OperatorStats, ScoreSpec
from repro.optimizer.memo import Memo
from repro.optimizer.properties import OrderProperty
from repro.sql.unparse import to_sql


class TestReprsAndDescribe:
    def test_error_hierarchy(self):
        assert issubclass(ParseError, ReproError)
        error = ParseError("boom", position=7)
        assert "position 7" in str(error)
        assert error.position == 7

    def test_operator_stats_repr(self):
        stats = OperatorStats(2)
        stats.note_buffer(3)
        assert "max_buffer=3" in repr(stats)

    def test_score_spec_repr(self):
        assert "A.c1" in repr(ScoreSpec.column("A.c1"))

    def test_row_repr_sorted(self):
        assert repr(Row({"b": 2, "a": 1})) == "Row(a=1, b=2)"

    def test_sum_score_repr(self):
        assert repr(SumScore()) == "SumScore()"

    def test_depth_estimate_repr(self):
        estimate = DepthEstimate(1.0, 2.0, 3.0, 4.0, clamped=True)
        assert "clamped" in repr(estimate)

    def test_video_workload_repr(self):
        workload = make_video_workload(10, features=("F",), seed=1)
        assert "n=10" in repr(workload)

    def test_order_property_reprs(self):
        assert "DC" in repr(OrderProperty.none())
        assert "A.c1" in repr(OrderProperty.on("A.c1"))


class TestMemoDescribe:
    def test_describe_lists_entries(self):
        from repro.cost.model import CostModel
        from repro.optimizer.plans import AccessPlan

        memo = Memo(k_min=2)
        memo.add(AccessPlan(CostModel(), "A", 100))
        text = memo.describe()
        assert text.startswith("A:")
        assert "cost(k_min)" in text
        assert "Memo(1 entries" in repr(memo)


class TestDistributionEdges:
    def test_cdf_clamped_to_one(self):
        # Outside the exact top slab the tail expression is clamped.
        assert sum_uniform_cdf(3, 1.0, 0.1) <= 1.0

    def test_cdf_monotone_sample(self):
        values = [sum_uniform_cdf(2, 1.0, t) for t in
                  (0.0, 0.5, 1.0, 1.5, 2.0)]
        assert values == sorted(values, reverse=True)


class TestFormatTable:
    def test_handles_mixed_types(self):
        text = format_table(["a", "b"], [["x", 1], [2.5, "y"]])
        assert "2.5" in text
        assert "|" in text

    def test_no_title(self):
        text = format_table(["h"], [[1]])
        assert text.splitlines()[0].startswith("h")


class TestUnparseEdges:
    def test_default_select_from_ranking(self):
        from repro.optimizer.expressions import ScoreExpression
        from repro.optimizer.query import JoinPredicate, RankQuery

        query = RankQuery(
            tables="AB", predicates=[JoinPredicate("A.c2", "B.c2")],
            ranking=ScoreExpression({"A.c1": 1.0, "B.c1": 1.0}), k=2,
        )
        sql = to_sql(query)
        assert "A.c1 AS col0" in sql

    def test_select_star_plain(self):
        from repro.optimizer.query import RankQuery

        assert to_sql(RankQuery(tables="A")) == "SELECT * FROM A"


class TestRngHelper:
    def test_generator_passthrough(self):
        rng = make_rng(1)
        assert make_rng(rng) is rng

    def test_seed_determinism(self):
        assert make_rng(5).integers(0, 100) == make_rng(5).integers(0, 100)
