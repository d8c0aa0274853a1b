"""Typed column-major storage.

A :class:`ColumnStore` holds a table's data as one typed column per
schema column instead of a list of per-row dicts.  Numeric columns are
backed by compact ``array`` buffers (``"q"`` for ints, ``"d"`` for
floats) which makes three things cheap:

* bulk loads append straight into flat buffers,
* vectorized operators evaluate predicates and score expressions over
  raw column slices without touching row objects, and
* the shared-memory shard transport ships a column as one contiguous
  byte run that workers wrap in a ``memoryview`` -- zero-copy.

Rows remain the unit of exchange between operators: the store builds
:class:`~repro.common.types.Row` facades on demand and the owning
:class:`~repro.storage.table.Table` caches them, so every row-level
contract (checkpoints, equivalence suites, Row equality) is untouched.

Typing is *exact*, not coercive: a value whose concrete type does not
match the column's array code (a float in an ``int`` column, a numpy
scalar, an overflowing int) silently degrades that one column to a
plain Python list.  Degradation preserves every stored value bit for
bit -- the columnar representation is an optimisation, never a change
in semantics.
"""

from array import array
from operator import itemgetter

import numpy as _np

from repro.common.types import Row

#: Array type codes per advisory schema type.  ``str`` (and anything
#: else) stays an object column.
_ARRAY_CODES = {"int": "q", "float": "d"}

#: Exact Python types accepted by each typed kind.  ``bool`` is an
#: ``int`` subclass but round-trips as ``int`` through an array, so it
#: must degrade; the ``type(v) is t`` checks below handle that.
_EXACT_TYPES = {"int": int, "float": float}


class TypedColumn:
    """One column: an ``array``-backed buffer with object fallback.

    Attributes
    ----------
    kind:
        ``"int"``, ``"float"``, or ``"object"``.  Typed kinds store
        values in an ``array``; ``"object"`` is a plain list.
    data:
        The backing sequence (``array`` or ``list``).  Callers may read
        it directly (indexing, slicing, iteration) but must never
        mutate it.
    """

    __slots__ = ("kind", "data")

    def __init__(self, type_name):
        code = _ARRAY_CODES.get(type_name)
        if code is None:
            self.kind = "object"
            self.data = []
        else:
            self.kind = type_name
            self.data = array(code)

    def _degrade(self):
        """Fall back to an object list, preserving stored values."""
        self.data = list(self.data)
        self.kind = "object"

    def append(self, value):
        if self.kind == "object":
            self.data.append(value)
            return
        if type(value) is _EXACT_TYPES[self.kind]:
            try:
                self.data.append(value)
                return
            except OverflowError:
                pass  # int wider than 64 bits
        self._degrade()
        self.data.append(value)

    def extend(self, values):
        """Bulk append; one C-level type sweep then a C-level extend."""
        if not isinstance(values, (list, tuple, array)):
            values = list(values)
        if self.kind != "object":
            if set(map(type, values)) <= {_EXACT_TYPES[self.kind]}:
                before = len(self.data)
                try:
                    self.data.extend(values)
                    return
                except OverflowError:
                    # An int wider than 64 bits slipped past the type
                    # sweep; array extends are not atomic, so drop any
                    # partially appended tail before degrading.
                    del self.data[before:]
            self._degrade()
        self.data.extend(values)

    def extend_from(self, other, positions):
        """Append ``other``'s values at ``positions`` (a take + extend).

        Used by bulk table-to-table copies (sharding, aliasing).  The
        source column's kind is authoritative: copying from a degraded
        column degrades this one too, so values keep their exact types.
        """
        if other.kind != self.kind and self.kind != "object":
            self._degrade()
        data = other.data
        self.data.extend([data[i] for i in positions])

    def __len__(self):
        return len(self.data)


class ColumnStore:
    """Column-major storage for one table's rows.

    The store is append-only, mirroring :class:`Table`'s heap
    semantics: positions are stable row identifiers and the row at
    position ``i`` never changes once written.
    """

    __slots__ = ("names", "columns", "_length")

    def __init__(self, schema):
        self.names = tuple(schema.qualified_names())
        self.columns = [TypedColumn(col.type_name) for col in schema]
        self._length = 0

    def __len__(self):
        return self._length

    def append(self, values):
        """Append one row given as a sequence in schema order."""
        for column, value in zip(self.columns, values):
            column.append(value)
        self._length += 1

    def extend(self, value_tuples):
        """Append many rows (sequences in schema order), column by column.

        Each column is taken out of the rows by one C-level
        ``itemgetter`` pass and appended once.  ``zip(*rows)`` would
        allocate one iterator per row, which at 70 000 rows sets off
        full garbage collections over every loaded row.
        """
        if not isinstance(value_tuples, list):
            value_tuples = list(value_tuples)
        if not value_tuples:
            return
        for position, column in enumerate(self.columns):
            column.extend(list(map(itemgetter(position), value_tuples)))
        self._length += len(value_tuples)

    def extend_from(self, other, positions):
        """Append ``other``'s rows at ``positions`` column by column."""
        if not isinstance(positions, list):
            positions = list(positions)
        for column, source in zip(self.columns, other.columns):
            column.extend_from(source, positions)
        self._length += len(positions)

    # ------------------------------------------------------------------
    # Columnar access
    # ------------------------------------------------------------------
    def column(self, name):
        """Return the raw backing sequence for qualified ``name``.

        The returned ``array``/``list`` is the live buffer: read-only
        from the caller's perspective, valid for positions
        ``0 .. len(self)-1``.
        """
        return self.columns[self.names.index(name)].data

    def column_kinds(self):
        """Return ``{qualified_name: kind}`` for every column."""
        return {
            name: column.kind
            for name, column in zip(self.names, self.columns)
        }

    # ------------------------------------------------------------------
    # Row facade
    # ------------------------------------------------------------------
    def row_at(self, position):
        """Materialise the :class:`Row` at ``position``."""
        return Row._adopt({
            name: column.data[position]
            for name, column in zip(self.names, self.columns)
        })

    def build_rows(self, start, stop):
        """Materialise rows ``start .. stop`` as a list of Rows.

        One slice per column then a zip-transpose: the per-row work is
        a single dict construction, which is what makes the lazily
        extended row cache cheap to fill.
        """
        names = self.names
        slices = [column.data[start:stop] for column in self.columns]
        adopt = Row._adopt
        return [adopt(dict(zip(names, values))) for values in zip(*slices)]


# ----------------------------------------------------------------------
# Compiled evaluation over columns
# ----------------------------------------------------------------------
def compile_score_closure(weights, columns):
    """Compile a weighted-sum score expression into a position closure.

    ``weights`` is an ordered ``[(qualified_column, weight), ...]``
    list and ``columns`` maps qualified names to raw column sequences.
    The returned ``position -> float`` closure reproduces
    :meth:`~repro.optimizer.expressions.ScoreExpression.evaluate`
    bit for bit: same ``math.fsum``, same term order -- a single-term
    ``fsum`` is exactly that term, so the specialised single-column
    closure is identical too.
    """
    from math import fsum

    if len(weights) == 1:
        ((name, weight),) = weights
        column = columns[name]
        return lambda position, _w=weight, _c=column: _w * _c[position]
    terms = [(columns[name], weight) for name, weight in weights]
    return lambda position, _t=terms: fsum(
        weight * column[position] for column, weight in _t
    )


def score_values(weights, columns, positions):
    """Scores at ``positions`` in one pass, as a list.

    Equal, element for element, to mapping
    :func:`compile_score_closure` over ``positions``; the single-term
    case skips the per-position call.
    """
    if len(weights) == 1:
        ((name, weight),) = weights
        column = columns[name]
        return [weight * column[position] for position in positions]
    return list(map(compile_score_closure(weights, columns), positions))


def compile_predicate_closure(predicates, columns):
    """Compile filter predicates into one ``position -> bool`` closure.

    ``predicates`` are
    :class:`~repro.optimizer.query.FilterPredicate`-shaped objects
    (``column``/``op``/``value``).  Returns ``None`` when any referenced
    column is missing from ``columns`` -- callers fall back to the
    row-at-a-time path.
    """
    import operator as _operator

    ops = {
        "=": _operator.eq,
        "<": _operator.lt,
        "<=": _operator.le,
        ">": _operator.gt,
        ">=": _operator.ge,
    }
    compiled = []
    for predicate in predicates:
        column = columns.get(predicate.column)
        op = ops.get(predicate.op)
        if column is None or op is None:
            return None
        compiled.append((column, op, predicate.value))
    if len(compiled) == 1:
        ((column, op, value),) = compiled
        return lambda position, _c=column, _op=op, _v=value: (
            _op(_c[position], _v)
        )
    return lambda position, _compiled=compiled: all(
        op(column[position], value)
        for column, op, value in _compiled
    )


_NP_DTYPES = {"q": "int64", "d": "float64"}


def numpy_copy(buffer, start=0, stop=None):
    """A numpy array over a copy of ``buffer[start:stop]``.

    ``buffer`` is a typed column's ``array``.  The slice is a C-level
    copy, so the live buffer is never exported and an append racing
    the read never hits ``BufferError``: every numpy read of a column
    goes through here and never holds a view of the live ``array``.
    """
    return _np.frombuffer(buffer[start:stop],
                          dtype=_NP_DTYPES[buffer.typecode])


def stable_order(buffer, descending):
    """Positions of a typed ``buffer`` in stable key order, or ``None``.

    Equal to ``sorted(range(n), key=buffer.__getitem__,
    reverse=descending)`` as a list of Python ints: tied keys (``-0.0``
    and ``0.0`` among them) keep heap order in both directions.
    ``None`` when the buffer holds a NaN, which ``sorted`` orders by
    its comparisons' failures and numpy does not.
    """
    values = numpy_copy(buffer)
    if values.dtype.kind == "f" and _np.isnan(values).any():
        return None
    if not descending:
        return values.argsort(kind="stable").tolist()
    # What sorted(reverse=True) does: reverse, sort stably, reverse.
    last = len(values) - 1
    return (last - values[::-1].argsort(kind="stable"))[::-1].tolist()


def _numpy_comparable(column, value):
    """True when numpy comparison is *exact* for this column/value pair.

    numpy silently casts int64 against float (and huge Python ints) to
    float64, which can flip comparisons Python evaluates exactly; only
    the lossless pairings are eligible.
    """
    if not isinstance(column, array):
        return False
    if column.typecode == "d":
        return type(value) is float
    if column.typecode == "q":
        return (type(value) is int
                and -(2 ** 63) <= value < 2 ** 63)
    return False


def compile_mask_selector(predicates, columns):
    """Compile predicates into a heap-order batch selector, or ``None``.

    Returns ``select(start, stop) -> list of surviving heap positions``
    evaluated with numpy over the raw ``array`` buffers: one C-level
    chunk copy per column (keeping the live buffer un-exported, so
    concurrent appends never hit ``BufferError``), one vectorized
    compare, one ``nonzero``.  ``None`` when a column is degraded/object
    or a comparison would not be bit-exact under numpy's casting rules
    -- callers fall back to the position closure.
    """
    compiled = []
    for predicate in predicates:
        column = columns.get(predicate.column)
        if column is None or predicate.op not in _MASK_OPS:
            return None
        if not _numpy_comparable(column, predicate.value):
            return None
        compiled.append((column, predicate.op, predicate.value))

    def select(start, stop, _compiled=compiled, _np=_np):
        mask = None
        for column, op, value in _compiled:
            chunk = numpy_copy(column, start, stop)
            hits = _MASK_OPS[op](chunk, value)
            mask = hits if mask is None else (mask & hits)
        positions = _np.nonzero(mask)[0]
        if start:
            positions = positions + start
        return positions.tolist()

    return select


_MASK_OPS = {
    "=": lambda a, b: a == b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}
