"""Access-path operators: heap scan and sorted index scan.

Scans are position-based: the cursor is an integer offset into the
table's row facade (heap order) or the index's sorted entries, so
``next_batch`` is a list slice rather than an iterator drain and a
checkpoint stores just the offset.

Scans also expose :meth:`fuse_columnar`, the hook positional consumers
-- the vectorized :class:`~repro.operators.filters.Filter` /
:class:`~repro.operators.filters.Project` and the rank-join kernel's
:class:`~repro.operators.rank_kernel.PositionalInput` -- use to read
the table's raw typed columns (see :mod:`repro.storage.columns`) by
position, touching Rows only for the positions they keep.
"""

from repro.operators.base import Operator, ScoreSpec


class ColumnarView:
    """Positional columnar access to one scan's stream.

    Attributes
    ----------
    columns:
        ``{name: raw column buffer}`` keyed by qualified names (plus
        unambiguous bare names), indexed by *heap* position.
    order:
        Heap position per cursor position for sorted streams, ``None``
        when the stream is in heap order (cursor == heap position).
    row_at:
        ``heap_position -> Row`` getter for the positions a consumer
        keeps.
    length:
        Stream length at fusion time.
    """

    __slots__ = ("columns", "order", "row_at", "length")

    def __init__(self, columns, order, row_at, length):
        self.columns = columns
        self.order = order
        self.row_at = row_at
        self.length = length


def _column_map(table):
    """Map qualified (and bare) column names to raw buffers.

    Bare names within one table are unique by construction (qualified
    = table name + bare), so both spellings resolve unambiguously.
    """
    store = table.column_store()
    columns = {}
    # store.names are the qualified names, in schema order.
    for column, qualified, typed in zip(table.schema, store.names,
                                        store.columns):
        columns[qualified] = typed.data
        columns.setdefault(column.name, typed.data)
    return columns


class _Scan(Operator):
    """Cursor over ``table``: heap order, or ``index`` order when given.

    With an index the stream is ranked and described by
    :attr:`score_spec`.
    """

    def __init__(self, table, index, name):
        super().__init__(children=(), name=name)
        self.table = table
        self.index = index
        if index is not None:
            self.score_spec = ScoreSpec(
                lambda row, _idx=index: _idx._key_fn(row),
                index.key_description,
            )
        self._source = None  # rows list (heap) or entries list (index).
        self._consumed = 0

    @property
    def schema(self):
        return self.table.schema

    def _source_list(self):
        # Snapshot semantics: table and index replace (never mutate in
        # place) what a reader may hold, so keeping the reference pins
        # the stream as of open under concurrent mutation.
        if self.index is None:
            return self.table.rows()
        return self.index.entries()

    def _open(self):
        self._source = self._source_list()
        self._consumed = 0

    def _next(self):
        source = self._source
        consumed = self._consumed
        if consumed >= len(source):
            return None
        self._consumed = consumed + 1
        if self.index is None:
            return source[consumed]
        return source[consumed][1]

    def _next_batch(self, n):
        start = self._consumed
        chunk = self._source[start:start + n]
        self._consumed = start + len(chunk)
        if self.index is None:
            return chunk
        return [row for _score, row in chunk]

    def _close(self):
        self._source = None

    def _state_dict(self):
        # The cursor is a position, not data: restore assumes the
        # underlying table is unchanged between snapshot and resume.
        return {"consumed": self._consumed}

    def _load_state_dict(self, state):
        self._consumed = state["consumed"]
        self._source = self._source_list()

    def fuse_columnar(self):
        """Return a :class:`ColumnarView` over this scan's stream."""
        table = self.table
        order = None if self.index is None else self.index.order()
        return ColumnarView(
            _column_map(table),
            order,
            table.rows().__getitem__,
            len(table) if order is None else len(order),
        )

    def advance(self, count):
        """Consume ``count`` positions on behalf of a positional consumer.

        Bookkeeping matches ``count`` rows flowing through
        :meth:`next_batch`: the cursor and ``rows_out`` advance
        identically, so checkpoints and stats cannot tell the rows were
        read by position.
        """
        self._consumed += count
        self.stats.rows_out += count


class TableScan(_Scan):
    """Heap scan over a :class:`~repro.storage.table.Table`."""

    def __init__(self, table, name=None):
        super().__init__(table, None, name or "Scan(%s)" % (table.name,))

    def describe(self):
        return "TableScan(%s)" % (self.table.name,)


class IndexScan(_Scan):
    """Sorted access over a :class:`~repro.storage.index.SortedIndex`.

    Emits rows in index order (descending score by default).  This is
    the ranked-stream access path rank-join operators consume; the
    emitted order is described by :attr:`score_spec`.
    """

    def __init__(self, table, index, name=None):
        super().__init__(
            table, index,
            name or "IndexScan(%s.%s)" % (table.name, index.name),
        )

    def describe(self):
        direction = "desc" if self.index.descending else "asc"
        return "IndexScan(%s on %s %s)" % (
            self.table.name, self.index.key_description, direction,
        )


class ShardedScan(_Scan):
    """Scan of one shard of a partitioned table.

    Behaves exactly like :class:`TableScan` (heap order) or
    :class:`IndexScan` (ranked order, with a :attr:`score_spec`) over
    the shard table, but knows *which* shard of *how many* it reads --
    the identity the per-shard spans/metrics and the demo's per-shard
    depth display report.
    """

    def __init__(self, table, shard_index, shard_count, index=None,
                 name=None):
        super().__init__(
            table, index,
            name or "ShardedScan(%s[%d/%d])" % (
                table.name, shard_index, shard_count,
            ),
        )
        self.shard_index = shard_index
        self.shard_count = shard_count

    def describe(self):
        access = ("heap" if self.index is None
                  else "%s desc" % (self.index.key_description,))
        return "ShardedScan(%s shard %d/%d on %s)" % (
            self.table.name, self.shard_index, self.shard_count, access,
        )
