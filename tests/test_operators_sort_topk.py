"""Unit tests for Sort and Limit."""

import pytest

from repro.common.errors import ExecutionError
from repro.operators.scan import TableScan
from repro.operators.sort import Sort
from repro.operators.topk import Limit


class TestSort:
    def test_descending_default(self, small_table):
        op = Sort(TableScan(small_table), "T.score")
        scores = [r["T.score"] for r in op]
        assert scores == sorted(scores, reverse=True)

    def test_ascending(self, small_table):
        op = Sort(TableScan(small_table), "T.score", descending=False)
        scores = [r["T.score"] for r in op]
        assert scores == sorted(scores)

    def test_callable_key(self, small_table):
        op = Sort(TableScan(small_table), lambda r: -r["T.id"],
                  description="-T.id")
        assert [r["T.id"] for r in op] == list(range(10))

    def test_blocking_buffers_everything(self, small_table):
        op = Sort(TableScan(small_table), "T.score")
        op.open()
        assert op.stats.max_buffer == 10  # All rows buffered at open.
        op.close()

    def test_not_pipelined(self, small_table):
        assert Sort(TableScan(small_table), "T.score").pipelined is False

    def test_empty_input(self, small_table):
        op = Sort(TableScan(small_table), "T.score")
        op2 = Limit(op, 0)
        assert list(op2) == []


class TestLimit:
    def test_truncates(self, small_table):
        assert len(list(Limit(TableScan(small_table), 3))) == 3

    def test_stops_pulling_early(self, small_table):
        limit = Limit(TableScan(small_table), 3)
        list(limit)
        assert limit.stats.pulled[0] == 3

    def test_k_larger_than_input(self, small_table):
        assert len(list(Limit(TableScan(small_table), 99))) == 10

    def test_k_zero(self, small_table):
        assert list(Limit(TableScan(small_table), 0)) == []

    def test_negative_k_rejected(self, small_table):
        with pytest.raises(ExecutionError):
            Limit(TableScan(small_table), -1)
