"""Sorted access paths ("indexes").

The paper's prototype used high-dimensional indexes that return video
objects in descending order of a per-feature similarity score.  What the
query engine's rank joins consume from such an index is **sorted
access** (Section 2.1): rows retrieved in descending score order.

:class:`SortedIndex` provides it over an in-memory table, keyed by an
arbitrary expression over the row (usually a single score column).
"""

import operator
from array import array

from repro.common.errors import CatalogError
from repro.storage.columns import stable_order


class SortedIndex:
    """A sorted access path over one table.

    Parameters
    ----------
    name:
        Index name, unique per table.
    key:
        Either a qualified column name (``"A.c1"``) or a callable
        ``row -> score``.  When a callable is given, ``key_description``
        must be supplied so the optimizer can match the access path to an
        interesting order expression.
    descending:
        Sort direction.  Rank-joins consume descending score order, the
        default.
    key_description:
        Human/optimizer-readable description of the key expression.
    """

    def __init__(self, name, key, descending=True, key_description=None):
        self.name = name
        self.descending = descending
        if callable(key):
            if key_description is None:
                raise CatalogError(
                    "index %r with callable key needs key_description" % (name,)
                )
            self._key_fn = key
            self.key_description = key_description
            self.key_column = None
        else:
            self._key_fn = operator.itemgetter(key)
            self.key_description = key_description or key
            self.key_column = key  # qualified column name
        self._table = None
        # (heap positions in sorted order, heap position -> key value).
        self._sorted = None

    def attach(self, table):
        """Bind this index to ``table`` (called by ``Table.create_index``)."""
        if self._table is not None:
            raise CatalogError("index %r is already attached" % (self.name,))
        self._table = table
        self.mark_stale()

    def mark_stale(self):
        """Invalidate the sort permutation after a table mutation.

        The old permutation list is dropped, never mutated, so a reader
        holding it keeps the stream as of when it took it.
        """
        self._sorted = None

    def _keys_in_heap_order(self):
        """Return the key value per heap position.

        Column-keyed indexes read the raw typed column (no row
        materialisation); callable keys fall back to the row facade.
        """
        table = self._table
        if self.key_column is not None and self.key_column in table.schema:
            return table.column(self.key_column)
        return [self._key_fn(row) for row in table.rows()]

    def _sorted_state(self):
        """Return ``(order, score_at)``, rebuilding if stale."""
        state = self._sorted
        if state is None:
            state = self._sorted = self._build()
        return state

    def _build(self):
        if self._table is None:
            raise CatalogError("index %r is not attached to a table" % (self.name,))
        keys = self._keys_in_heap_order()
        # A stable sort of heap positions by key value: tied keys keep
        # heap order, rows are never compared.  A typed column sorts in
        # numpy; callable keys, object columns and NaN keys in Python.
        order = None
        if isinstance(keys, array):
            order = stable_order(keys, self.descending)
        if order is None:
            order = sorted(range(len(keys)), key=keys.__getitem__,
                           reverse=self.descending)
        return order, keys.__getitem__

    def order(self):
        """Return heap positions in index order (the sort permutation).

        The index's only sorted state: scans, the shared-memory shard
        transport and the vectorized worker kernel walk raw columns in
        sorted order through it, and the ``(score, row)`` views below
        derive from it, building Rows only for the positions they read.
        """
        return self._sorted_state()[0]

    def entries(self):
        """Return the sorted ``(score, row)`` list (builds every Row)."""
        return list(self.sorted_access())

    def __len__(self):
        return len(self.order())

    def sorted_access(self):
        """Yield ``(score, row)`` pairs in index order (sorted access).

        Snapshot semantics: the stream is the index as of this call
        even if the table is mutated while it is iterated; Rows are
        built as the iterator reaches them.
        """
        order, score_at = self._sorted_state()
        return zip(map(score_at, order), map(self._table.row_at, order))

    def top(self):
        """Return the best ``(score, row)`` or ``None`` for an empty table."""
        order, score_at = self._sorted_state()
        if not order:
            return None
        position = order[0]
        return score_at(position), self._table.row_at(position)

    def __repr__(self):
        size = "detached" if self._table is None else "%d entries" % (len(self),)
        return "SortedIndex(%r on %s, %s)" % (
            self.name, self.key_description, size,
        )
