"""Logical query description consumed by the optimizer.

A :class:`RankQuery` captures the paper's top-k join query shape
(queries Q1/Q2): a set of relations, conjunctive equi-join predicates,
an optional monotone ranking expression with a ``k``, an optional plain
ORDER BY column, and a select list.
"""

import numbers

from repro.common.errors import OptimizerError
from repro.optimizer.expressions import ScoreExpression, _table_of


def check_k(k):
    """Raise :class:`OptimizerError` unless ``k`` is an integer >= 1.

    ``bool`` is refused although it is an ``int``; NumPy integers pass.
    """
    if isinstance(k, bool) or not isinstance(k, numbers.Integral) or k < 1:
        raise OptimizerError(
            "a ranking query needs an integer k >= 1, got %r" % (k,)
        )


class JoinPredicate:
    """An equi-join predicate ``left_column = right_column``."""

    __slots__ = ("left_column", "right_column")

    def __init__(self, left_column, right_column):
        left_table = _table_of(left_column)
        right_table = _table_of(right_column)
        if left_table == right_table:
            raise OptimizerError(
                "join predicate must span two tables, got %r = %r"
                % (left_column, right_column)
            )
        self.left_column = left_column
        self.right_column = right_column

    @property
    def left_table(self):
        return _table_of(self.left_column)

    @property
    def right_table(self):
        return _table_of(self.right_column)

    @property
    def tables(self):
        return frozenset((self.left_table, self.right_table))

    def column_for(self, table):
        """Return this predicate's column belonging to ``table``."""
        if table == self.left_table:
            return self.left_column
        if table == self.right_table:
            return self.right_column
        raise OptimizerError(
            "predicate %r does not touch table %r" % (self, table)
        )

    def connects(self, left_tables, right_tables):
        """True when the predicate links the two disjoint table sets."""
        return (
            (self.left_table in left_tables
             and self.right_table in right_tables)
            or (self.left_table in right_tables
                and self.right_table in left_tables)
        )

    def __eq__(self, other):
        if not isinstance(other, JoinPredicate):
            return NotImplemented
        return frozenset((self.left_column, self.right_column)) == frozenset(
            (other.left_column, other.right_column)
        )

    def __hash__(self):
        return hash(frozenset((self.left_column, self.right_column)))

    def __repr__(self):
        return "JoinPredicate(%s = %s)" % (self.left_column, self.right_column)


class FilterPredicate:
    """A single-table selection ``column OP constant``.

    Supported operators: ``=``, ``<``, ``<=``, ``>``, ``>=``.  The
    paper motivates rank-aware optimization for queries mixing ranking
    with joins *and selections*; selections thin the ranked streams a
    rank-join consumes, which the stream-aware estimation handles
    through the reduced input cardinality.
    """

    _OPS = {
        "=": lambda a, b: a == b,
        "<": lambda a, b: a < b,
        "<=": lambda a, b: a <= b,
        ">": lambda a, b: a > b,
        ">=": lambda a, b: a >= b,
    }

    __slots__ = ("column", "op", "value")

    def __init__(self, column, op, value):
        _table_of(column)
        if op not in self._OPS:
            raise OptimizerError("unsupported filter operator %r" % (op,))
        self.column = column
        self.op = op
        self.value = value

    @property
    def table(self):
        return _table_of(self.column)

    def matches(self, row):
        """Evaluate the predicate against a row."""
        return self._OPS[self.op](row[self.column], self.value)

    def selectivity(self, column_stats):
        """Estimated pass fraction.

        Uses the column's equi-width histogram when one was analyzed
        (range predicates only -- histograms lack distinct counts, so
        equality keeps the ``1/distinct`` estimate); otherwise falls
        back to the uniform min/max assumption.
        """
        if self.op == "=":
            return column_stats.selectivity_of_equality()
        histogram = getattr(column_stats, "histogram", None)
        if histogram is not None and histogram.total > 0:
            return min(1.0, max(0.0, histogram.selectivity(
                self.op, self.value,
            )))
        low = column_stats.minimum
        high = column_stats.maximum
        if low is None or high is None or high <= low:
            return 1.0
        span = high - low
        if self.op in ("<", "<="):
            fraction = (self.value - low) / span
        else:
            fraction = (high - self.value) / span
        return min(1.0, max(0.0, fraction))

    def describe(self):
        return "%s %s %g" % (self.column, self.op, self.value)

    def __eq__(self, other):
        if not isinstance(other, FilterPredicate):
            return NotImplemented
        return (self.column, self.op, self.value) == (
            other.column, other.op, other.value,
        )

    def __hash__(self):
        return hash((self.column, self.op, self.value))

    def __repr__(self):
        return "FilterPredicate(%s)" % (self.describe(),)


class RankQuery:
    """A (possibly ranking) select-join query.

    Parameters
    ----------
    tables:
        Relation names in the FROM clause.
    predicates:
        Iterable of :class:`JoinPredicate`.
    ranking:
        Optional :class:`~repro.optimizer.expressions.ScoreExpression`;
        when present the query asks for the top ``k`` join results in
        descending expression order.
    k:
        Number of ranked results; required when ``ranking`` is given.
    order_by:
        Optional plain single-column ORDER BY (used by non-ranking
        queries like Figure 2(b)); mutually exclusive with ``ranking``.
    select:
        Output column names; defaults to all columns.
    filters:
        Iterable of :class:`FilterPredicate` single-table selections.
    aliases:
        Optional ``{alias: base_table}`` mapping (identity entries are
        fine).  ``tables``, predicates, ranking, and filters all speak
        alias names; the executor materialises aliased copies of the
        base tables so self-joins work.
    """

    def __init__(self, tables, predicates=(), ranking=None, k=None,
                 order_by=None, select=None, filters=(), aliases=None):
        self.tables = frozenset(tables)
        if not self.tables:
            raise OptimizerError("query needs at least one table")
        self.predicates = tuple(predicates)
        for predicate in self.predicates:
            missing = predicate.tables - self.tables
            if missing:
                raise OptimizerError(
                    "predicate %r references tables %s not in FROM"
                    % (predicate, sorted(missing))
                )
        if ranking is not None:
            if not isinstance(ranking, ScoreExpression):
                raise OptimizerError("ranking must be a ScoreExpression")
            missing = ranking.tables() - self.tables
            if missing:
                raise OptimizerError(
                    "ranking references tables %s not in FROM"
                    % (sorted(missing),)
                )
            check_k(k)
            if order_by is not None:
                raise OptimizerError(
                    "ranking and order_by are mutually exclusive"
                )
        elif k is not None:
            raise OptimizerError("k given without a ranking expression")
        if order_by is not None and _table_of(order_by) not in self.tables:
            raise OptimizerError(
                "order_by column %r not in FROM tables" % (order_by,)
            )
        self.ranking = ranking
        self.k = k
        self.order_by = order_by
        self.select = tuple(select) if select is not None else None
        self.filters = tuple(filters)
        for predicate in self.filters:
            if predicate.table not in self.tables:
                raise OptimizerError(
                    "filter %r references a table not in FROM"
                    % (predicate,)
                )
        if aliases is None:
            aliases = {name: name for name in self.tables}
        else:
            aliases = dict(aliases)
            missing = self.tables - set(aliases)
            if missing:
                raise OptimizerError(
                    "aliases missing entries for %s" % (sorted(missing),)
                )
        self.aliases = aliases

    @property
    def has_real_aliases(self):
        """True when some FROM entry is renamed (incl. self-joins)."""
        return any(alias != base for alias, base in self.aliases.items())

    # ------------------------------------------------------------------
    @property
    def is_ranking(self):
        """True for top-k queries."""
        return self.ranking is not None

    def predicates_between(self, left_tables, right_tables):
        """Predicates connecting the two disjoint table sets."""
        return [p for p in self.predicates
                if p.connects(left_tables, right_tables)]

    def predicates_within(self, tables):
        """Predicates entirely inside ``tables``."""
        tables = frozenset(tables)
        return [p for p in self.predicates if p.tables <= tables]

    def pending_join_columns(self, tables):
        """Columns of ``tables`` joined with tables *outside* the set.

        These are the single-column interesting orders still alive for
        the MEMO entry over ``tables``.
        """
        tables = frozenset(tables)
        columns = []
        for predicate in self.predicates:
            inside = predicate.tables & tables
            outside = predicate.tables - tables
            if inside and outside:
                columns.append(predicate.column_for(next(iter(inside))))
        return sorted(set(columns))

    def filters_for(self, table):
        """Selection predicates applying to ``table``."""
        return [f for f in self.filters if f.table == table]

    def is_connected(self, tables):
        """True when ``tables`` form a connected join subgraph."""
        tables = frozenset(tables)
        if len(tables) <= 1:
            return True
        remaining = set(tables)
        frontier = {next(iter(remaining))}
        remaining -= frontier
        while frontier and remaining:
            reachable = set()
            for predicate in self.predicates:
                touched = predicate.tables
                if touched & frontier:
                    reachable |= touched & remaining
            if not reachable:
                break
            frontier = reachable
            remaining -= reachable
        return not remaining

    def __repr__(self):
        parts = ["tables=%s" % (sorted(self.tables),)]
        if self.predicates:
            parts.append("predicates=%s" % (list(self.predicates),))
        if self.ranking is not None:
            parts.append("rank on %s, k=%d"
                         % (self.ranking.description(), self.k))
        if self.order_by:
            parts.append("order_by=%s" % (self.order_by,))
        return "RankQuery(%s)" % (", ".join(parts),)
