"""Table and column statistics.

The optimizer's cost model (Section 3.3) consumes input cardinalities
and join selectivities; filter selectivities read each numeric column's
value range and equi-width histogram.

Statistics are computed eagerly from the data, the way an ``ANALYZE``
pass would, and cached in the catalog.
"""

import math
from array import array

import numpy as np

from repro.common.errors import CatalogError
from repro.storage.columns import numpy_copy
from repro.storage.histogram import EquiWidthHistogram, extremes


def _histogram(finite, buckets):
    """The equi-width histogram of ``finite`` values (``None`` at 0)."""
    return EquiWidthHistogram(finite, buckets) if buckets else None


class ColumnStats:
    """Statistics for a single column.

    Attributes
    ----------
    count:
        Number of non-null values.
    distinct:
        Number of distinct values.
    minimum / maximum:
        Value range (``None`` for empty columns).  For numeric columns
        the range and the histogram cover the finite values only, so a
        NaN or ±inf neither hides the range nor breaks the histogram.
    """

    __slots__ = ("column", "count", "distinct", "minimum", "maximum",
                 "histogram")

    def __init__(self, column, count, distinct, minimum, maximum,
                 histogram=None):
        self.column = column
        self.count = count
        self.distinct = distinct
        self.minimum = minimum
        self.maximum = maximum
        self.histogram = histogram

    @classmethod
    def from_values(cls, column, values, histogram_buckets=32):
        """Compute stats for ``column`` from an iterable of values.

        Numeric columns additionally get an equi-width histogram (see
        :mod:`repro.storage.histogram`) used for refined filter
        selectivity; pass ``histogram_buckets=0`` to skip it.  A typed
        column buffer is read in numpy passes over a copy of it.
        """
        if isinstance(values, array):
            return cls._from_buffer(column, values, histogram_buckets)
        values = [v for v in values if v is not None]
        count = len(values)
        distinct = len(set(values))
        if count == 0:
            return cls(column, 0, 0, None, None)
        if not all(isinstance(v, (int, float)) and not isinstance(v, bool)
                   for v in values):
            return cls(column, count, distinct, min(values), max(values))
        finite = [v for v in values
                  if not isinstance(v, float) or math.isfinite(v)]
        if not finite:
            return cls(column, count, distinct, None, None)
        return cls(column, count, distinct, min(finite), max(finite),
                   histogram=_histogram(finite, histogram_buckets))

    @classmethod
    def _from_buffer(cls, column, buffer, histogram_buckets):
        """:meth:`from_values` of a typed ``array``: exact ints or
        floats, never None; ``distinct`` counts each NaN apart, as a
        set of the buffer's values does."""
        values = numpy_copy(buffer)
        count = len(values)
        if count == 0:
            return cls(column, 0, 0, None, None)
        if values.dtype.kind == "f":
            finite = values[np.isfinite(values)]
            nan = np.isnan(values)
            distinct = len(np.unique(values[~nan])) + int(nan.sum())
        else:
            finite = values
            distinct = len(np.unique(values))
        if not len(finite):
            return cls(column, count, distinct, None, None)
        minimum, maximum = extremes(finite)
        return cls(column, count, distinct, minimum, maximum,
                   histogram=_histogram(finite, histogram_buckets))

    def selectivity_of_equality(self):
        """Estimated selectivity of ``col = const`` (uniformity assumption)."""
        if self.distinct == 0:
            return 0.0
        return 1.0 / self.distinct

    def __repr__(self):
        return "ColumnStats(%s, count=%d, distinct=%d, range=[%r, %r])" % (
            self.column, self.count, self.distinct, self.minimum,
            self.maximum,
        )


class TableStats:
    """Statistics for a whole table: cardinality plus per-column stats."""

    def __init__(self, table_name, cardinality, column_stats):
        self.table_name = table_name
        self.cardinality = cardinality
        self._columns = dict(column_stats)

    @classmethod
    def analyze(cls, table):
        """Run an ``ANALYZE``-style pass over ``table``.

        Reads each column's raw buffer (the values its Rows would
        carry), so no Row is built.
        """
        column_stats = {}
        for qualified in table.schema.qualified_names():
            column_stats[qualified] = ColumnStats.from_values(
                qualified, table.column(qualified))
        return cls(table.name, table.cardinality, column_stats)

    def column(self, qualified_name):
        """Return :class:`ColumnStats` for ``qualified_name``."""
        try:
            return self._columns[qualified_name]
        except KeyError:
            raise CatalogError(
                "no statistics for column %r of table %r"
                % (qualified_name, self.table_name)
            ) from None

    def columns(self):
        """Return all column statistics as a dict copy."""
        return dict(self._columns)

    def __repr__(self):
        return "TableStats(%r, cardinality=%d)" % (
            self.table_name, self.cardinality,
        )


def estimate_join_selectivity(left_stats, right_stats, left_column,
                              right_column):
    """Classic System R equi-join selectivity: ``1 / max(V(L,a), V(R,b))``.

    ``V`` is the number of distinct values of the join column.  Returns a
    value in ``[0, 1]``; empty inputs yield selectivity 0.
    """
    left = left_stats.column(left_column)
    right = right_stats.column(right_column)
    distinct = max(left.distinct, right.distinct)
    if distinct == 0:
        return 0.0
    return 1.0 / distinct
