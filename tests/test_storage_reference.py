"""Set-up in column passes equals set-up value by value.

ANALYZE, the equi-width histogram and the score-index sort read a typed
column in numpy passes.  Every statistic field, histogram count and
index order must equal what the value-by-value loops of
``tests/reference_storage.py`` compute -- with Python types and the
sign of a zero -- or plans, answers and pull counts could move.

The numpy passes read a *copy* of a column's live ``array`` buffer:
a view would hold the buffer exported, and the next append to the
table would raise ``BufferError``.
"""

import math

import pytest

from repro import Database
from repro.common.rng import make_rng
from repro.storage.columns import numpy_copy
from repro.storage.histogram import EquiWidthHistogram
from repro.storage.index import SortedIndex
from repro.storage.stats import TableStats
from repro.storage.table import Table

from tests.reference_storage import (
    reference_column_stats,
    reference_histogram,
    reference_order,
)

_rng = make_rng(17)

#: ``name -> (schema type, column values)``.
CASES = {
    "uniform": ("float", [float(v) for v in _rng.uniform(-1, 1, 400)]),
    "heavy_ties": ("float", [float(int(v)) / 4
                             for v in _rng.integers(0, 3, 400)]),
    "int_ties": ("int", [int(v) for v in _rng.integers(-5, 5, 400)]),
    # The first zero and the last differ in sign: Python's min and max
    # keep the first, numpy's reductions may return another.
    "signed_zeros_low": ("float", [0.0, -0.0, 3.0, 1.5, -0.0]),
    "signed_zeros_high": ("float", [-0.0, 0.0, -3.0, 0.0]),
    "only_zeros": ("float", [-0.0, 0.0, 0.0, -0.0, 0.0]),
    "infinities": ("float", [math.inf, 1.0, -math.inf, 2.5, math.inf,
                             -2.5]),
    "nan": ("float", [math.nan, 0.5, math.nan, -1.0, math.inf, 0.5]),
    "only_nan": ("float", [math.nan, math.nan]),
    "wide_ints": ("int", [2 ** 62, -(2 ** 62), 0, 7, 2 ** 62,
                          2 ** 63 - 1, -(2 ** 63), 2 ** 53 + 1]),
    "degraded_bool": ("int", [3, True, 1, False]),
    "degraded_wide": ("int", [1, 2 ** 70, None, -4, 2 ** 70]),
    "degraded_none": ("float", [0.5, None, 2.5, 0.5]),
    "degraded_mixed": ("float", [0.5, 2, -0.0, 7, 1.5]),
    "empty": ("float", []),
    "one_row": ("float", [0.75]),
    "all_equal": ("int", [5] * 40),
}


def loaded(kind, values):
    return Table.from_columns("T", [("v", kind)],
                              rows=[[value] for value in values])


def typed(value):
    """``value`` with its type: ``-0.0`` and ``0.0``, ``1`` and ``1.0``
    differ."""
    if isinstance(value, (list, tuple)):
        return [typed(item) for item in value]
    return (type(value).__name__, repr(value))


@pytest.mark.parametrize("case", sorted(CASES))
def test_column_passes_equal_the_reference(case):
    kind, values = CASES[case]
    table = loaded(kind, values)
    buffer = table.column("T.v")
    stats = TableStats.analyze(table).column("T.v")
    histogram = stats.histogram
    if histogram is not None:
        histogram = (histogram.total, histogram.buckets, histogram.low,
                     histogram.high, histogram.width, histogram.counts)
    got = (stats.count, stats.distinct, stats.minimum, stats.maximum,
           histogram)
    assert typed(got) == typed(reference_column_stats(buffer))

    numeric = [v for v in buffer if isinstance(v, (int, float))
               and not isinstance(v, bool)
               and not (isinstance(v, float) and not math.isfinite(v))]
    direct = EquiWidthHistogram(numeric, buckets=8)
    assert typed((direct.total, direct.buckets, direct.low, direct.high,
                  direct.width, direct.counts)) == typed(
        reference_histogram(numeric, buckets=8))

    for descending in (True, False):
        index = SortedIndex("idx_%s" % (descending,), "T.v",
                            descending=descending)
        table.create_index(index)
        try:
            expected = reference_order(buffer, descending)
        except TypeError:  # None against a number: neither can sort
            with pytest.raises(TypeError):
                index.order()
            continue
        order = index.order()
        assert order == expected
        assert all(type(position) is int for position in order)


def test_numpy_order_keeps_ties_in_heap_order_at_scale():
    """20 000 scores over 7 values plus signed zeros: every tie run
    keeps heap order in both directions."""
    rng = make_rng(5)
    values = [(float(v) / 2 if v else (0.0 if rng.uniform() < 0.5
                                       else -0.0))
              for v in rng.integers(-3, 4, 20000)]
    table = loaded("float", values)
    for descending in (True, False):
        index = SortedIndex("idx_%s" % (descending,), "T.v",
                            descending=descending)
        table.create_index(index)
        assert index.order() == reference_order(table.column("T.v"),
                                                descending)


SQL = """
WITH Ranked AS (
  SELECT A.c1 AS x, B.c1 AS y,
         rank() OVER (ORDER BY (0.5*A.c1 + 0.5*B.c1)) AS rank
  FROM A, B WHERE A.c2 = B.c2)
SELECT x, y, rank FROM Ranked WHERE rank <= 5"""


def test_tables_take_appends_after_column_passes():
    """ANALYZE, an index build and a top-k query leave no live buffer
    exported: ``insert`` and ``extend`` still succeed."""
    rng = make_rng(9)
    db = Database()
    for name in "AB":
        db.create_table(name, [("c1", "float"), ("c2", "int")], rows=[
            [float(rng.uniform(0, 1)), int(rng.integers(0, 20))]
            for _ in range(500)
        ])
    db.analyze()
    for table in db.catalog.tables().values():
        for index in table.indexes().values():
            index.order()
    assert len(db.execute(SQL).rows) == 5
    for table in db.catalog.tables().values():
        table.insert([0.5, 3])
        table.extend([[0.25, 4], (0.75, 5)])
        assert len(table) == 503
        assert list(table.column(table.name + ".c2"))[-3:] == [3, 4, 5]
    db.analyze()
    assert db.catalog.stats("A").cardinality == 503


def test_numpy_copy_is_not_a_view():
    """A numpy read held across an append neither blocks it nor sees it."""
    table = loaded("float", [0.5, 1.5, 2.5])
    read = numpy_copy(table.column("T.v"))
    tail = numpy_copy(table.column("T.v"), 1, 3)
    table.extend([[3.5], [4.5]])
    table.insert([5.5])
    assert read.tolist() == [0.5, 1.5, 2.5]
    assert tail.tolist() == [1.5, 2.5]
    assert len(table) == 6
