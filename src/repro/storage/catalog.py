"""The system catalog.

A :class:`Catalog` is the single registry the optimizer consults for
tables, access paths, and statistics.  It also caches analyzed
statistics and lets experiments override selectivity estimates with
measured values (the paper assumes "the availability of an estimate of
the join selectivity", Section 3.3).
"""

from repro.common.errors import CatalogError
from repro.storage.stats import TableStats, estimate_join_selectivity


class Catalog:
    """Registry of tables, indexes, statistics, and selectivity overrides."""

    def __init__(self):
        self._tables = {}
        self._stats = {}
        self._selectivity_overrides = {}
        self._partitionings = {}
        self._version = 0

    # ------------------------------------------------------------------
    # Versioning
    # ------------------------------------------------------------------
    @property
    def version(self):
        """Monotone stats/DDL version of the whole catalog.

        Changes whenever anything that could alter plan choice changes:
        table registration, ``analyze()``, selectivity overrides, and
        -- through :attr:`~repro.storage.table.Table.version` -- every
        insert or index creation on a registered table.  Plan and
        statistics caches key their entries on this number, so stale
        entries become unreachable instead of needing explicit
        invalidation hooks at every mutation site.
        """
        return self._version + sum(
            table.version for table in self._tables.values()
        )

    # ------------------------------------------------------------------
    # Tables
    # ------------------------------------------------------------------
    def register(self, table, name=None):
        """Register ``table``; the name must be unused.

        ``name`` overrides the registration key: shard tables keep
        their base table's name (and therefore its qualified column
        names) but are registered under distinct alias keys.
        """
        name = name or table.name
        if name in self._tables:
            raise CatalogError("table %r already registered" % (name,))
        self._tables[name] = table
        self._version += 1

    def unregister(self, name):
        """Drop a registered table (used when re-partitioning).

        The removed table's version is folded into the catalog's base
        version so :attr:`version` stays monotone -- cache keys minted
        while the table was registered can never match again.
        """
        try:
            table = self._tables.pop(name)
        except KeyError:
            raise CatalogError("unknown table %r" % (name,)) from None
        self._stats.pop(name, None)
        self._version += 1 + table.version

    def table(self, name):
        """Return the table registered under ``name``."""
        try:
            return self._tables[name]
        except KeyError:
            raise CatalogError("unknown table %r" % (name,)) from None

    def tables(self):
        """Return the registered tables as a name->table dict (copy)."""
        return dict(self._tables)

    def __contains__(self, name):
        return name in self._tables

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    def analyze(self, name=None):
        """(Re)compute statistics for one table or for all tables."""
        self._version += 1
        if name is not None:
            self._stats[name] = TableStats.analyze(self.table(name))
            return self._stats[name]
        for table_name in self._tables:
            self._stats[table_name] = TableStats.analyze(
                self._tables[table_name]
            )
        return None

    def stats(self, name):
        """Return (computing lazily) :class:`TableStats` for ``name``."""
        if name not in self._stats:
            self._stats[name] = TableStats.analyze(self.table(name))
        return self._stats[name]

    # ------------------------------------------------------------------
    # Partitionings
    # ------------------------------------------------------------------
    def set_partitioning(self, partitioning):
        """Record a :class:`~repro.storage.partition.Partitioning`.

        Keyed by ``(table, column)`` so a table may be partitioned on
        several join columns at once.  Bumps :attr:`version`: shard
        metadata changes plan choice, so cached plans must invalidate.
        """
        key = (partitioning.table_name, partitioning.column)
        self._partitionings[key] = partitioning
        self._version += 1

    def partitioning(self, table_name, column=None, allow_stale=False):
        """Return the fresh partitioning of ``(table, column)`` or None.

        A partitioning is *stale* once the base table's version moved
        past the one the shards were built from; stale partitionings
        are invisible (``None``) unless ``allow_stale`` is set (the
        partitioner uses that to replace them).
        """
        partitioning = self._partitionings.get((table_name, column))
        if partitioning is None:
            return None
        if not allow_stale:
            base = self._tables.get(table_name)
            if base is None or base.version != partitioning.base_version:
                return None
        return partitioning

    def partitionings(self):
        """Return all recorded partitionings (fresh and stale)."""
        return list(self._partitionings.values())

    def drop_partitioning(self, table_name, column=None):
        """Forget the partitioning of ``(table, column)``."""
        self._partitionings.pop((table_name, column), None)
        self._version += 1

    # ------------------------------------------------------------------
    # Selectivity
    # ------------------------------------------------------------------
    def set_join_selectivity(self, left_column, right_column, selectivity):
        """Override the estimated selectivity of an equi-join predicate.

        Experiments use this to feed the *measured* selectivity into the
        model, matching the paper's assumption that ``s`` is known.
        """
        if not 0.0 <= selectivity <= 1.0:
            raise CatalogError(
                "selectivity must be in [0, 1], got %r" % (selectivity,)
            )
        key = frozenset((left_column, right_column))
        self._selectivity_overrides[key] = selectivity
        self._version += 1

    def join_selectivity(self, left_table, left_column, right_table,
                         right_column):
        """Return the selectivity of ``left_column = right_column``.

        Precedence: explicit overrides, then the System R
        distinct-value formula over the analyzed statistics.
        """
        key = frozenset((left_column, right_column))
        if key in self._selectivity_overrides:
            return self._selectivity_overrides[key]
        return estimate_join_selectivity(
            self.stats(left_table), self.stats(right_table),
            left_column, right_column,
        )

    def __repr__(self):
        return "Catalog(%d tables)" % (len(self._tables),)
