"""Sorted access paths ("indexes").

The paper's prototype used high-dimensional indexes that return video
objects in descending order of a per-feature similarity score.  What the
query engine's rank joins consume from such an index is **sorted
access** (Section 2.1): rows retrieved in descending score order.

:class:`SortedIndex` provides it over an in-memory table, keyed by an
arbitrary expression over the row (usually a single score column).
"""

import operator

from repro.common.errors import CatalogError


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
        self._entries = None  # list of (score, row), sorted.
        self._order = None  # heap positions in sorted order.

    def attach(self, table):
        """Bind this index to ``table`` (called by ``Table.create_index``)."""
        if self._table is not None:
            raise CatalogError("index %r is already attached" % (self.name,))
        self._table = table
        self.mark_stale()

    def mark_stale(self):
        """Invalidate the sorted entries after a table mutation."""
        self._entries = None
        self._order = None

    def _keys_in_heap_order(self):
        """Return the key value per heap position.

        Column-keyed indexes read the raw typed column (no row
        materialisation); callable keys fall back to the row facade.
        """
        table = self._table
        if self.key_column is not None and self.key_column in table.schema:
            return list(table.column(self.key_column))
        return [self._key_fn(row) for row in table.rows()]

    def _build(self):
        if self._table is None:
            raise CatalogError("index %r is not attached to a table" % (self.name,))
        keys = self._keys_in_heap_order()
        # A stable sort of heap positions by key value yields the exact
        # ordering the old (key, row)-tuple sort produced: same keys,
        # same stability, rows never compared.
        order = sorted(
            range(len(keys)), key=keys.__getitem__, reverse=self.descending,
        )
        rows = self._table.rows()
        self._order = order
        self._entries = [(keys[position], rows[position]) for position in order]

    def entries(self):
        """Return the sorted ``(score, row)`` list, rebuilding if stale."""
        if self._entries is None:
            self._build()
        return self._entries

    def order(self):
        """Return heap positions in index order (the sort permutation).

        Columnar consumers -- the shared-memory shard transport and the
        vectorized worker kernel -- use this to walk raw columns in
        sorted order without materialising any rows.
        """
        if self._order is None:
            self._build()
        return self._order

    def __len__(self):
        return len(self.entries())

    def sorted_access(self):
        """Yield ``(score, row)`` pairs in index order (sorted access)."""
        # Snapshot semantics: iteration sees the entries as of the first
        # next() even if the table is mutated concurrently.
        return iter(list(self.entries()))

    def top(self):
        """Return the best ``(score, row)`` or ``None`` for an empty table."""
        entries = self.entries()
        if not entries:
            return None
        return entries[0]

    def __repr__(self):
        size = "detached" if self._table is None else "%d entries" % (len(self),)
        return "SortedIndex(%r on %s, %s)" % (
            self.name, self.key_description, size,
        )
