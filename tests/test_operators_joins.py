"""Unit tests for traditional join operators."""

import pytest

from repro.common.errors import ExecutionError
from repro.common.rng import make_rng
from repro.operators.joins import (
    HashJoin,
    IndexNestedLoopsJoin,
    NestedLoopsJoin,
)
from repro.operators.base import ScoreSpec
from repro.operators.rank_kernel import RankedInput
from repro.operators.scan import TableScan
from repro.common.types import Row
from repro.storage.table import Table

from tests.reference_answers import answers


def make_pair(left_keys, right_keys):
    left = Table.from_columns("L", [("id", "int"), ("k", "int")])
    for i, key in enumerate(left_keys):
        left.insert([i, key])
    right = Table.from_columns("R", [("id", "int"), ("k", "int")])
    for i, key in enumerate(right_keys):
        right.insert([i, key])
    return left, right


def expected_pairs(left, right):
    return sorted((answer.row["L.id"], answer.row["R.id"])
                  for answer in answers([left, right], [("L.k", "R.k")]))


def result_pairs(operator):
    return sorted((r["L.id"], r["R.id"]) for r in operator)


JOIN_FACTORIES = [
    lambda l, r: NestedLoopsJoin(TableScan(l), TableScan(r), "L.k", "R.k"),
    lambda l, r: IndexNestedLoopsJoin(
        TableScan(l), TableScan(r), "L.k", "R.k"),
    lambda l, r: HashJoin(TableScan(l), TableScan(r), "L.k", "R.k"),
]

JOIN_IDS = ["nl", "inl", "hash"]


@pytest.mark.parametrize("factory", JOIN_FACTORIES, ids=JOIN_IDS)
class TestJoinCorrectness:
    def test_simple_equi_join(self, factory):
        left_keys = [1, 2, 3, 2]
        right_keys = [2, 2, 4]
        left, right = make_pair(left_keys, right_keys)
        assert result_pairs(factory(left, right)) == expected_pairs(
            left, right)

    def test_empty_left(self, factory):
        left, right = make_pair([], [1, 2])
        assert result_pairs(factory(left, right)) == []

    def test_empty_right(self, factory):
        left, right = make_pair([1, 2], [])
        assert result_pairs(factory(left, right)) == []

    def test_no_matches(self, factory):
        left, right = make_pair([1, 2], [3, 4])
        assert result_pairs(factory(left, right)) == []

    def test_random_agreement(self, factory):
        rng = make_rng(77)
        left_keys = [int(k) for k in rng.integers(0, 7, 40)]
        right_keys = [int(k) for k in rng.integers(0, 7, 35)]
        left, right = make_pair(left_keys, right_keys)
        assert result_pairs(factory(left, right)) == expected_pairs(
            left, right)


class TestJoinDetails:
    def test_merged_row_contents(self):
        left, right = make_pair([5], [5])
        row = next(iter(HashJoin(
            TableScan(left), TableScan(right), "L.k", "R.k",
        )))
        assert row["L.k"] == 5 and row["R.k"] == 5

    def test_callable_keys(self):
        left, right = make_pair([2], [4])
        join = HashJoin(
            TableScan(left), TableScan(right),
            lambda r: r["L.k"] * 2, lambda r: r["R.k"],
        )
        assert len(list(join)) == 1

    def test_invalid_key_spec(self):
        left, right = make_pair([1], [1])
        with pytest.raises(ExecutionError):
            HashJoin(TableScan(left), TableScan(right), 42, "R.k")

    def test_nl_inner_pull_count(self):
        left, right = make_pair([1, 1], [1, 2, 3])
        join = NestedLoopsJoin(
            TableScan(left), TableScan(right), "L.k", "R.k",
        )
        list(join)
        assert join.stats.pulled[1] == 3  # Inner materialised once.


class TestRankedInput:
    def test_observes_descending(self):
        ranked = RankedInput(0, ScoreSpec.column("s"))
        ranked.observe(Row({"s": 0.9}))
        ranked.observe(Row({"s": 0.5}))
        assert ranked.top_score == 0.9
        assert ranked.last_score == 0.5

    def test_rejects_ascending(self):
        ranked = RankedInput(0, ScoreSpec.column("s"))
        ranked.observe(Row({"s": 0.5}))
        with pytest.raises(ExecutionError, match="not sorted"):
            ranked.observe(Row({"s": 0.9}))

    def test_requires_score_spec(self):
        with pytest.raises(ExecutionError):
            RankedInput(0, "s")
