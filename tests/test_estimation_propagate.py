"""Algorithm Propagate (Figure 8) on the optimizer's plan nodes.

``Plan.propagate_depths(k)`` asks the root for ``k`` and every child for
the depth its parent's cost charges it; over a left-deep rank-join
pipeline (:func:`repro.experiments.harness.pipeline_plan`) that is the
paper's recursion.
"""

import pytest

from repro.common.errors import EstimationError
from repro.cost.model import CostModel
from repro.estimation.depths import top_k_depths
from repro.experiments.harness import pipeline_plan
from repro.optimizer.plans import AccessPlan, RankJoinPlan


def two_level_tree(n=1000, s1=0.01, s2=0.01):
    """((T0 join T1) join T2) with selectivities s1 (inner), s2 (outer)."""
    return pipeline_plan(n, [s1, s2])


def average_mode(plan):
    """``plan``'s top rank join re-estimated in average-case mode."""
    left, right = plan.children
    return RankJoinPlan(plan.model, plan.operator, left, right,
                        plan.predicates, plan.selectivity,
                        plan.left_expression, plan.right_expression,
                        plan.combined_expression, estimation_mode="average")


def records_of(tree, k):
    """``{tables: (required_k, estimate)}`` from ``propagate_depths``."""
    return {"".join(sorted(plan.tables)): (required, estimate)
            for plan, required, estimate in tree.propagate_depths(k)}


class TestTreeStructure:
    def test_leaf_counts(self):
        tree = two_level_tree()
        assert tree.leaf_count == 3
        assert tree.children[0].leaf_count == 2

    def test_output_cardinality(self):
        tree = two_level_tree(n=100, s1=0.1, s2=0.01)
        assert tree.children[0].cardinality == pytest.approx(1000.0)
        assert tree.cardinality == pytest.approx(1000.0)

    def test_leaves_enumeration(self):
        leaves = [plan.table_name
                  for plan, _k, _e in two_level_tree().propagate_depths(10)
                  if not plan.children]
        assert leaves == ["T0", "T1", "T2"]

    def test_invalid_selectivity(self):
        """A zero selectivity cannot be costed."""
        with pytest.raises(EstimationError):
            two_level_tree(s1=0.0).cost(10)

    def test_invalid_leaf(self):
        """An empty input is never read: depths clamp to zero."""
        records = records_of(two_level_tree(n=0), 5)
        assert records["T0"][0] == 0
        assert records["T0T1T2"][1].d_right == 0


class TestPropagation:
    def test_root_required_k(self):
        assert records_of(two_level_tree(), 100)["T0T1T2"][0] == 100

    def test_child_k_equals_parent_depth(self):
        """Figure 4 semantics: the child's k is the parent's depth."""
        records = records_of(two_level_tree(), 100)
        assert records["T0T1"][0] == records["T0T1T2"][1].d_left

    def test_leaf_required_k_set(self):
        records = records_of(two_level_tree(), 50)
        assert records["T0"][0] is not None
        assert records["T2"][0] == records["T0T1T2"][1].d_right

    def test_depths_grow_down_the_pipeline(self):
        """Deeper operators need more input than the root k (Figure 4:
        100 -> 580 -> 783)."""
        records = records_of(two_level_tree(), 100)
        assert records["T0T1T2"][1].d_left > 100
        required, inner = records["T0T1"]
        assert inner.d_left > required

    def test_clamping_at_output_cardinality(self):
        tree = two_level_tree(n=50, s1=0.02, s2=0.02)
        records = records_of(tree, 10 ** 6)
        assert records["T0T1T2"][0] <= tree.cardinality
        assert records["T0T1T2"][1].d_left <= tree.children[0].cardinality

    def test_modes_ordering(self):
        tree = two_level_tree()
        worst = records_of(tree, 100)["T0T1T2"][1]
        average = records_of(average_mode(tree), 100)["T0T1T2"][1]
        assert average.c_left <= average.d_left <= worst.d_left + 1e-9

    def test_leaf_only_tree(self):
        leaf = AccessPlan(CostModel(), "T", 100)
        assert leaf.propagate_depths(5) == [(leaf, 5, None)]

    def test_invalid_inputs(self):
        """A k below one asks the root for a single row."""
        assert records_of(two_level_tree(), 0)["T0T1T2"][0] == 1


class TestCollect:
    def test_preorder_records(self):
        records = two_level_tree().propagate_depths(25)
        names = ["".join(sorted(plan.tables)) for plan, _k, _e in records]
        assert names == ["T0T1T2", "T0T1", "T0", "T1", "T2"]
        assert records[0][2] is not None
        assert records[2][2] is None  # Leaves carry no estimate.

    def test_stream_cardinalities_differ_from_paper_formulas(self):
        """With non-key-join selectivity the intermediate stream is
        denser than n, so the plan's estimates diverge from the paper's
        original formulas (which assume every input carries n)."""
        estimate = records_of(two_level_tree(s1=0.05, s2=0.05),
                              50)["T0T1T2"][1]
        paper = top_k_depths(50, 0.05, n=1000, l=2, r=1)
        assert estimate.d_left != pytest.approx(paper.d_left)

    def test_key_join_modes_agree(self):
        """For s = 1/n every intermediate stream has n tuples and the
        paper formulas are exact: the plan reproduces them."""
        n = 1000
        estimate = records_of(two_level_tree(n=n, s1=1 / n, s2=1 / n),
                              50)["T0T1T2"][1]
        paper = top_k_depths(50, 1 / n, n=n, l=2, r=1)
        assert estimate.d_left == pytest.approx(paper.d_left)
