"""Unit tests for the cost model primitives."""

from dataclasses import replace

import pytest

from repro.common.errors import EstimationError
from repro.cost.model import PAPER_2004, CostModel


def model_with(**constants):
    """A PAPER_2004 model with ``constants`` replaced."""
    return CostModel(replace(PAPER_2004, **constants))


class TestPrimitives:
    def test_pages(self):
        model = model_with(tuples_per_page=100)
        assert model.pages(0) == 0
        assert model.pages(1) == 1
        assert model.pages(100) == 1
        assert model.pages(101) == 2

    def test_cpu_weight(self):
        model = model_with(cpu_tuple_weight=0.01)
        assert model.cpu(100) == pytest.approx(1.0)
        assert model.cpu(-5) == 0.0

    def test_invalid_parameters(self):
        with pytest.raises(EstimationError):
            model_with(tuples_per_page=0)
        with pytest.raises(EstimationError):
            model_with(buffer_pages=2)


class TestAccessPaths:
    def test_scan_cost_scales(self):
        model = CostModel()
        assert model.table_scan_cost(1000) < model.table_scan_cost(10000)

    def test_unclustered_index_random_io(self):
        model = model_with(random_io_weight=4.0, clustered_index=False)
        cost = model.index_sorted_access_cost(10)
        assert cost >= 10 * 4.0  # One random page per tuple.

    def test_clustered_index_sequential(self):
        model = model_with(clustered_index=True, tuples_per_page=100)
        clustered = model.index_sorted_access_cost(1000)
        unclustered = model_with(
            clustered_index=False,
        ).index_sorted_access_cost(1000)
        assert clustered < unclustered

    def test_zero_depth_free(self):
        assert CostModel().index_sorted_access_cost(0) == 0.0

    def test_probe_cost(self):
        model = model_with(index_probe_pages=2)
        assert model.index_probe_cost(0) >= 2


class TestSort:
    def test_in_memory_sort_cpu_only(self):
        model = model_with(tuples_per_page=1000)
        assert model.external_sort_cost(500) == model.cpu(500)

    def test_single_pass(self):
        model = model_with(tuples_per_page=100, buffer_pages=64)
        # 10 pages fit in 64 buffers: one read+write pass.
        assert model.external_sort_cost(1000) == pytest.approx(
            2 * 10 + model.cpu(1000),
        )

    def test_multi_pass_growth(self):
        model = model_with(tuples_per_page=10, buffer_pages=4)
        small = model.external_sort_cost(1000)
        large = model.external_sort_cost(100000)
        assert large > small
        # 100000 tuples = 10000 pages, runs = 2500, fan-in 3:
        # passes = 1 + ceil(log3(2500)) = 9.
        assert large == pytest.approx(2 * 10000 * 9 + model.cpu(100000))


class TestJoins:
    def test_hash_join_in_memory(self):
        model = model_with(tuples_per_page=100, buffer_pages=64)
        cost = model.hash_join_cost(1000, 1000)
        assert cost == pytest.approx(model.cpu(2000))

    def test_hash_join_grace_spill(self):
        model = model_with(tuples_per_page=10, buffer_pages=4)
        cost = model.hash_join_cost(10000, 10000)
        assert cost >= 2 * (1000 + 1000)

    def test_inl_scales_with_outer(self):
        model = CostModel()
        assert (model.index_nl_join_cost(100, 10000, 0.01)
                < model.index_nl_join_cost(1000, 10000, 0.01))

    def test_nl_quadratic_pages(self):
        model = model_with(tuples_per_page=100)
        cost = model.nl_join_cost(1000, 1000)
        assert cost >= 10 * 10

    def test_sort_merge_skips_sorted_inputs(self):
        model = CostModel()
        both_sorted = model.sort_merge_join_cost(
            10000, 10000, left_sorted=True, right_sorted=True,
        )
        unsorted = model.sort_merge_join_cost(10000, 10000)
        assert both_sorted < unsorted


class TestRankJoinCosts:
    def test_hrjn_cpu_only(self):
        model = CostModel()
        cost = model.hrjn_cost(100, 100, 0.01)
        assert cost > 0
        assert cost < model.table_scan_cost(100000)

    def test_hrjn_monotone_in_depth(self):
        model = CostModel()
        assert model.hrjn_cost(10, 10, 0.1) < model.hrjn_cost(
            1000, 1000, 0.1,
        )

    def test_nrjn_charges_inner_scan(self):
        model = CostModel()
        cost = model.nrjn_cost(10, 10000, 0.01)
        assert cost >= model.table_scan_cost(10000)
