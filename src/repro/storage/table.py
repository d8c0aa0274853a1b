"""In-memory heap tables.

A :class:`Table` owns a schema and a column-major
:class:`~repro.storage.columns.ColumnStore`.  Rows are stored in
insertion (heap) order; ordered access goes through
:class:`repro.storage.index.SortedIndex` access paths registered with
the table.

Row-level callers are unaffected by the columnar layout: the row
facade is a position cache (:class:`RowCache`) that builds the
:class:`~repro.common.types.Row` at a heap position the first time it
is read (:attr:`Table.row_at`) and keeps it, so operators, checkpoints,
and the equivalence suites see exactly the dict-of-rows behaviour they
always did while a top-k query builds Rows only for the positions its
scans deliver.  Columnar callers (statistics, index builds, vectorized
operators, the shared-memory shard transport) reach the raw typed
buffers through :meth:`column` / :meth:`column_store` instead.
"""

from repro.common.errors import CatalogError, SchemaError
from repro.common.types import Row, Schema
from repro.storage.columns import ColumnStore


def group_positions(keys):
    """Map each key to the positions holding it: ``{key: [i, ...]}``.

    Keys keep first-seen order and positions ascend within a key.
    """
    groups = {}
    for position, key in enumerate(keys):
        group = groups.get(key)
        if group is None:
            groups[key] = [position]
        else:
            group.append(position)
    return groups


class RowCache(dict):
    """The row facade: ``{heap position: Row}``, filled on first read.

    A hit is a plain C-level dict lookup; a miss (``__missing__``)
    builds the Row from the column store.  ``setdefault`` makes the
    first writer win, so threads racing on one position share one Row
    object -- payloads are shared by identity (a join's queue and hash
    tables hold the same Row).
    """

    __slots__ = ("_store",)

    def __init__(self, store):
        super().__init__()
        self._store = store

    def __missing__(self, position):
        if not 0 <= position < len(self._store):
            raise IndexError("row position %r out of range" % (position,))
        return self.setdefault(position, self._store.row_at(position))


class Table:
    """A named heap relation.

    Parameters
    ----------
    name:
        Relation name (``"A"``); used to qualify column names.
    schema:
        The table's :class:`~repro.common.types.Schema`.  All columns
        must be qualified with the table name.
    rows:
        Optional initial rows (anything accepted by :meth:`insert`).
        Initial rows are bulk-loaded in one append pass with a single
        version bump.
    """

    def __init__(self, name, schema, rows=None):
        if not name:
            raise SchemaError("table name must be non-empty")
        for column in schema:
            if column.table != name:
                raise SchemaError(
                    "column %r does not belong to table %r"
                    % (column.qualified_name, name)
                )
        self.name = name
        self.schema = schema
        self._store = ColumnStore(schema)
        self._row_cache = RowCache(self._store)
        #: ``position -> Row``: the facade's getter (a C-level dict
        #: lookup on a hit); one Row object per position for the
        #: table's lifetime.
        self.row_at = self._row_cache.__getitem__
        self._rows = None  # the rows() list, once someone asked for it
        self._indexes = {}
        self._version = 0
        self._key_positions = {}  # column -> (version, groups)
        if rows is not None:
            self.extend(rows)

    @classmethod
    def from_columns(cls, name, column_specs, rows=None):
        """Build a table from ``[(column_name, type_name), ...]`` specs.

        This is the convenient constructor used by generators and tests::

            Table.from_columns("A", [("id", "int"), ("c1", "float")])
        """
        from repro.common.types import Column

        schema = Schema(
            [Column(col, table=name, type_name=type_name)
             for col, type_name in column_specs]
        )
        return cls(name, schema, rows=rows)

    def __len__(self):
        return len(self._store)

    @property
    def cardinality(self):
        """Number of rows currently stored."""
        return len(self._store)

    @property
    def version(self):
        """Monotone data/DDL version: bumped on insert and index changes.

        The catalog folds table versions into its own
        :attr:`~repro.storage.catalog.Catalog.version`, which plan and
        statistics caches use as an invalidation key.
        """
        return self._version

    def insert(self, row):
        """Insert one row.

        ``row`` may be a :class:`Row` keyed by qualified names, or a
        mapping/sequence of bare values that is qualified automatically.
        """
        rows = self._rows
        position = len(self._store)
        self._store.append(self._coerce(row))
        if rows is not None and len(rows) == position:
            # Keep a complete rows() list live for callers holding it.
            rows.append(self.row_at(position))
        self._version += 1
        for index in self._indexes.values():
            index.mark_stale()

    def extend(self, rows):
        """Bulk-insert ``rows`` in one append pass with one version bump.

        Each element may be anything :meth:`insert` accepts.  Columns
        are extended with one C-level append per column, which is what
        makes 20k-row benchmark table construction cheap.
        """
        coerced = [self._coerce(row) for row in rows]
        if not coerced:
            return
        self._store.extend(coerced)
        self._version += 1
        for index in self._indexes.values():
            index.mark_stale()

    def load_from(self, source, positions):
        """Bulk-append ``source``'s rows at heap ``positions``.

        A column-by-column copy (no Row materialisation) used by
        sharding and aliasing; schemas must align positionally.  One
        version bump for the whole load.
        """
        self._store.extend_from(source.column_store(), positions)
        self._version += 1
        for index in self._indexes.values():
            index.mark_stale()

    def _coerce(self, row):
        """Normalise one input row to a tuple of values in schema order."""
        names = self._store.names
        if isinstance(row, (Row, dict)):
            values = []
            for column in self.schema:
                if column.qualified_name in row:
                    values.append(row[column.qualified_name])
                elif column.name in row:
                    values.append(row[column.name])
                else:
                    raise SchemaError(
                        "row missing column %r" % (column.qualified_name,)
                    )
            return tuple(values)
        values = tuple(row)
        if len(values) != len(names):
            raise SchemaError(
                "expected %d values for table %r, got %d"
                % (len(names), self.name, len(values))
            )
        return values

    def scan(self):
        """Iterate rows in heap order."""
        return iter(self.rows())

    def rows(self):
        """Return the list of every row in heap order (shared, do not mutate).

        For the readers that need every row (the experiments harness,
        a callable-key index build): builds the Rows the facade cache
        lacks and reuses the ones it holds, so ``rows()[p] is
        row_at(p)``.  The list is extended in place on later calls and
        by :meth:`insert`.
        """
        rows = self._rows
        if rows is None:
            rows = self._rows = []
        start = len(rows)
        length = len(self._store)
        if start < length:
            rows.extend(map(
                self._row_cache.setdefault, range(start, length),
                self._store.build_rows(start, length),
            ))
        return rows

    # ------------------------------------------------------------------
    # Columnar access
    # ------------------------------------------------------------------
    def column(self, name):
        """Return the raw backing sequence for column ``name``.

        ``name`` may be bare or qualified; the returned ``array``/list
        is the live buffer -- read-only, valid for positions
        ``0 .. len(self)-1``.
        """
        return self._store.column(self.schema.resolve(name).qualified_name)

    def key_positions(self, column):
        """Group the heap positions by the values of ``column``.

        Returns :func:`group_positions` of the column: keys in
        first-seen heap order, positions ascending.  Built once and
        cached until :attr:`version` changes (the staleness rule of
        :class:`~repro.storage.index.SortedIndex`); shared, do not
        mutate.  ``column`` may be bare or qualified.
        """
        name = self.schema.resolve(column).qualified_name
        version = self._version
        cached = self._key_positions.get(name)
        if cached is not None and cached[0] == version:
            return cached[1]
        groups = group_positions(self._store.column(name))
        self._key_positions[name] = (version, groups)
        return groups

    def column_store(self):
        """Return the underlying :class:`ColumnStore` (read-only)."""
        return self._store

    def create_index(self, index):
        """Register a :class:`SortedIndex` access path on this table."""
        if index.name in self._indexes:
            raise CatalogError(
                "index %r already exists on table %r" % (index.name, self.name)
            )
        index.attach(self)
        self._indexes[index.name] = index
        self._version += 1

    def get_index(self, name):
        """Return a registered index by name."""
        try:
            return self._indexes[name]
        except KeyError:
            raise CatalogError(
                "no index %r on table %r" % (name, self.name)
            ) from None

    def indexes(self):
        """Return the registered indexes as a name->index dict (copy)."""
        return dict(self._indexes)

    def find_index_on(self, key):
        """Return the first index whose key expression equals ``key``.

        ``key`` is matched against the index's key description (a
        qualified column name or expression string).  Returns ``None``
        when no such index exists -- callers treat that as "no ordered
        access path".
        """
        for index in self._indexes.values():
            if index.key_description == key:
                return index
        return None

    def aliased(self, alias):
        """Return a copy of this table renamed to ``alias``.

        Supports self-joins: ``FROM A a1, A a2`` materialises two
        aliased copies whose qualified column names differ.  Columns are
        bulk-copied positionally (the alias only changes names, never
        values); column-keyed indexes are recreated under the alias
        (callable-keyed expression indexes cannot be renamed
        mechanically and are skipped).
        """
        from repro.common.types import Column
        from repro.storage.index import SortedIndex

        if alias == self.name:
            return self
        schema = Schema([
            Column(column.name, table=alias, type_name=column.type_name)
            for column in self.schema
        ])
        renamed = Table(alias, schema)
        renamed.load_from(self, range(len(self._store)))
        for index in self._indexes.values():
            old_prefix = "%s." % (self.name,)
            if not index.key_description.startswith(old_prefix):
                continue  # Expression index: cannot be renamed.
            column = index.key_description[len(old_prefix):]
            if "%s.%s" % (alias, column) not in schema:
                continue
            renamed.create_index(SortedIndex(
                "%s_%s_idx" % (alias, column),
                "%s.%s" % (alias, column),
                descending=index.descending,
            ))
        return renamed

    def __repr__(self):
        return "Table(%r, %d rows, %d indexes)" % (
            self.name, len(self._store), len(self._indexes),
        )
