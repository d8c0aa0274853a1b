"""Access-path operators: heap scan and sorted index scan.

Scans are position-based: the cursor is an integer offset into heap
order or the index's sort permutation, pinned with the stream's length
at open, so a checkpoint stores just the offset.  Rows come from the
table's row facade (:attr:`~repro.storage.table.Table.row_at`), which
builds each Row the first time its position is read.

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
        keeps: the table's row facade, which builds a Row on first
        read.
    length:
        Stream length: as of the scan's ``open()`` (as of fusion for a
        scan that is not open).
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
        # The stream as of open(): (index permutation or None for heap
        # order, length).  None while closed.
        self._snapshot = None
        self._consumed = 0

    @property
    def schema(self):
        return self.table.schema

    def _pin(self):
        """The stream as of now: ``(order, length)``.

        Snapshot semantics: a table only appends and an index replaces
        (never mutates) its permutation, so positions below the pinned
        length keep their rows under concurrent mutation.
        """
        if self.index is None:
            return None, len(self.table)
        order = self.index.order()
        return order, len(order)

    def _open(self):
        self._snapshot = self._pin()
        self._consumed = 0

    def _next(self):
        order, length = self._snapshot
        consumed = self._consumed
        if consumed >= length:
            return None
        self._consumed = consumed + 1
        return self.table.row_at(
            consumed if order is None else order[consumed])

    def _next_batch(self, n):
        order, length = self._snapshot
        start = self._consumed
        stop = min(start + n, length)
        self._consumed = stop
        return list(map(
            self.table.row_at,
            range(start, stop) if order is None else order[start:stop],
        ))

    def _close(self):
        self._snapshot = None

    def _state_dict(self):
        # The cursor is a position, not data: restore assumes the
        # underlying table is unchanged between snapshot and resume.
        return {"consumed": self._consumed}

    def _load_state_dict(self, state):
        self._consumed = state["consumed"]
        self._snapshot = self._pin()

    def fuse_columnar(self):
        """Return a :class:`ColumnarView` over this scan's stream.

        An open scan hands out the stream it pinned at open; a closed
        one the stream as of now.
        """
        order, length = self._snapshot or self._pin()
        table = self.table
        return ColumnarView(_column_map(table), order, table.row_at, length)

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
