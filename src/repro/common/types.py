"""Core value objects: columns, schemas, and rows.

The engine is column-name based rather than positional: a :class:`Row`
maps fully qualified column names (``"A.c1"``) to Python values.  This
keeps join results trivially composable (a join result is the merge of
the two input rows) at the cost of a little memory, which is appropriate
for an optimizer-research engine.
"""

from repro.common.errors import SchemaError


class Column:
    """A named, typed column belonging to a relation.

    Parameters
    ----------
    name:
        Unqualified column name, e.g. ``"c1"``.
    table:
        Name of the owning relation, e.g. ``"A"``; may be ``None`` for
        computed columns.
    type_name:
        One of ``"int"``, ``"float"``, ``"str"``.  Types are advisory --
        the engine stores plain Python values -- but the catalog uses
        them to build statistics.
    """

    __slots__ = ("name", "table", "type_name")

    _VALID_TYPES = ("int", "float", "str")

    def __init__(self, name, table=None, type_name="float"):
        if not name:
            raise SchemaError("column name must be non-empty")
        if type_name not in self._VALID_TYPES:
            raise SchemaError("unknown column type %r" % (type_name,))
        self.name = name
        self.table = table
        self.type_name = type_name

    @property
    def qualified_name(self):
        """Return ``table.name`` when a table is known, else ``name``."""
        if self.table is None:
            return self.name
        return "%s.%s" % (self.table, self.name)

    def with_table(self, table):
        """Return a copy of this column bound to ``table``."""
        return Column(self.name, table=table, type_name=self.type_name)

    def __eq__(self, other):
        if not isinstance(other, Column):
            return NotImplemented
        return (
            self.name == other.name
            and self.table == other.table
            and self.type_name == other.type_name
        )

    def __hash__(self):
        return hash((self.name, self.table, self.type_name))

    def __repr__(self):
        return "Column(%r)" % (self.qualified_name,)


class Schema:
    """An ordered collection of :class:`Column` objects.

    Column lookup accepts either the qualified name (``"A.c1"``) or the
    bare name (``"c1"``) when the bare name is unambiguous.
    """

    __slots__ = ("columns", "_by_qualified", "_by_bare")

    def __init__(self, columns):
        self.columns = tuple(columns)
        self._by_qualified = {}
        self._by_bare = {}
        for column in self.columns:
            qualified = column.qualified_name
            if qualified in self._by_qualified:
                raise SchemaError("duplicate column %r in schema" % (qualified,))
            self._by_qualified[qualified] = column
            self._by_bare.setdefault(column.name, []).append(column)

    def __len__(self):
        return len(self.columns)

    def __iter__(self):
        return iter(self.columns)

    def __contains__(self, name):
        try:
            self.resolve(name)
        except SchemaError:
            return False
        return True

    def resolve(self, name):
        """Return the :class:`Column` matching ``name``.

        ``name`` may be qualified or bare; a bare name matching more than
        one column raises :class:`SchemaError`.
        """
        if name in self._by_qualified:
            return self._by_qualified[name]
        candidates = self._by_bare.get(name, [])
        if len(candidates) == 1:
            return candidates[0]
        if not candidates:
            raise SchemaError("unknown column %r" % (name,))
        raise SchemaError(
            "ambiguous column %r matches %s"
            % (name, sorted(c.qualified_name for c in candidates))
        )

    def qualified_names(self):
        """Return the tuple of qualified column names, in schema order."""
        return tuple(column.qualified_name for column in self.columns)

    def merge(self, other):
        """Return a new schema with the columns of ``self`` then ``other``.

        Used to build join output schemas; duplicate qualified names are
        rejected because a self-join must alias its inputs first.
        """
        return Schema(self.columns + other.columns)

    def project(self, names):
        """Return a schema restricted to ``names`` (resolved against self)."""
        return Schema([self.resolve(name) for name in names])

    def __eq__(self, other):
        if not isinstance(other, Schema):
            return NotImplemented
        return self.columns == other.columns

    def __hash__(self):
        return hash(self.columns)

    def __repr__(self):
        return "Schema(%s)" % (", ".join(self.qualified_names()),)


class Row:
    """An immutable tuple of named values flowing between operators.

    A row is a mapping from qualified column name to value.  Rows compare
    equal by content, hash by content, and support cheap merging for join
    results.
    """

    __slots__ = ("_values",)

    def __init__(self, values):
        self._values = dict(values)

    @classmethod
    def _adopt(cls, values):
        """Wrap ``values`` without copying it.

        For engine code that has just built the dict and keeps no other
        reference to it (row materialisation, join emit); everything
        else goes through the copying constructor.
        """
        row = cls.__new__(cls)
        row._values = values
        return row

    def __getitem__(self, name):
        try:
            return self._values[name]
        except KeyError:
            raise SchemaError("row has no column %r (has %s)"
                              % (name, sorted(self._values))) from None

    def get(self, name, default=None):
        """Return the value for ``name`` or ``default`` when absent."""
        return self._values.get(name, default)

    def __contains__(self, name):
        return name in self._values

    def keys(self):
        return self._values.keys()

    def items(self):
        return self._values.items()

    def as_dict(self):
        """Return a plain ``dict`` copy of the row's contents."""
        return dict(self._values)

    def merge(self, other):
        """Return a new row combining ``self`` and ``other``.

        A shared column name must carry the same value on both sides
        (which happens naturally for equi-join keys); conflicting values
        raise :class:`SchemaError` to surface aliasing bugs early.
        """
        merged = dict(self._values)
        for name, value in other.items():
            if name in merged and merged[name] != value:
                raise SchemaError(
                    "conflicting values for column %r during merge" % (name,)
                )
            merged[name] = value
        return Row._adopt(merged)

    def project(self, names):
        """Return a new row containing only ``names``."""
        values = self._values
        try:
            return Row._adopt({name: values[name] for name in names})
        except KeyError as missing:
            raise SchemaError("row has no column %r (has %s)"
                              % (missing.args[0], sorted(values))) from None

    def __eq__(self, other):
        if not isinstance(other, Row):
            return NotImplemented
        return self._values == other._values

    def __hash__(self):
        return hash(frozenset(self._values.items()))

    def __len__(self):
        return len(self._values)

    def __repr__(self):
        inner = ", ".join(
            "%s=%r" % (name, self._values[name]) for name in sorted(self._values)
        )
        return "Row(%s)" % (inner,)
