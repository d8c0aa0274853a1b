"""Materialized ranked views (related work: PREFER [22], ranked join
indices [29]).

The alternatives the paper positions itself against maintain
*materialized* ranked structures: precompute the join once, keep its
top-N results ordered by the scoring function, and answer top-k queries
by reading the prefix.  Queries are then trivially fast, but

* the view answers only scoring functions *compatible* with the
  materialized order (here: positive rescalings of the built
  function),
* ``k`` is capped by the materialized ``N``, and
* every base-table change invalidates the view (rebuild cost).

:class:`RankedJoinView` implements exactly this trade-off so the
extension experiments can contrast query-time-vs-maintenance against
rank-join plans, which pay per query but need no materialized state.
"""

from repro.common.errors import ExecutionError
from repro.optimizer.expressions import ScoreExpression


class RankedJoinView:
    """A materialized top-N view over a two-table equi-join.

    Parameters
    ----------
    left, right:
        The base :class:`~repro.storage.table.Table` objects.
    left_key / right_key:
        Qualified equi-join key columns.
    scoring:
        The :class:`~repro.optimizer.expressions.ScoreExpression` whose
        descending order the view materializes.
    capacity:
        The ``N`` of top-N; ``None`` materializes the full join.
    """

    def __init__(self, left, right, left_key, right_key, scoring,
                 capacity=None):
        if not isinstance(scoring, ScoreExpression):
            raise ExecutionError("scoring must be a ScoreExpression")
        if capacity is not None and capacity < 1:
            raise ExecutionError("capacity must be >= 1 or None")
        self._left = left
        self._right = right
        self._left_key = left_key
        self._right_key = right_key
        self.scoring = scoring
        self.capacity = capacity
        self._rows = None
        self._versions = None
        self.builds = 0

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def _table_versions(self):
        return (self._left.cardinality, self._right.cardinality)

    @property
    def is_fresh(self):
        """False when a base table changed since the last build.

        Cardinality is the staleness proxy -- the in-memory tables are
        append-only, so any change shows up as growth.
        """
        return (self._rows is not None
                and self._versions == self._table_versions())

    def build(self):
        """(Re)materialize the view; returns the materialized size."""
        lookup = {}
        for row in self._right.scan():
            lookup.setdefault(row[self._right_key], []).append(row)
        scored = []
        for left_row in self._left.scan():
            for right_row in lookup.get(left_row[self._left_key], ()):
                merged = left_row.merge(right_row)
                scored.append((self.scoring.evaluate(merged), merged))
        scored.sort(key=lambda item: -item[0])
        if self.capacity is not None:
            scored = scored[:self.capacity]
        self._rows = scored
        self._versions = self._table_versions()
        self.builds += 1
        return len(scored)

    def refresh_if_stale(self):
        """Rebuild when a base table changed; returns True if rebuilt."""
        if self.is_fresh:
            return False
        self.build()
        return True

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def supports(self, scoring):
        """True when the view's order answers ``scoring`` exactly."""
        return self.scoring.same_order(scoring)

    def top_k(self, k, scoring=None):
        """Return the top-``k`` ``(score, row)`` pairs.

        ``scoring`` defaults to the view's function; an incompatible
        function raises (the caller must fall back to a live plan).
        A stale view raises -- call :meth:`refresh_if_stale` first.
        ``k`` beyond the materialized capacity raises, since the view
        cannot prove it holds the k-th result.
        """
        if scoring is not None and not self.supports(scoring):
            raise ExecutionError(
                "view materializes order %r, cannot answer %r"
                % (self.scoring.description(), scoring.description())
            )
        if not self.is_fresh:
            raise ExecutionError(
                "view is stale; call refresh_if_stale() first"
            )
        if self.capacity is not None and k > self.capacity:
            raise ExecutionError(
                "k=%d exceeds the materialized capacity %d"
                % (k, self.capacity)
            )
        if scoring is None or scoring == self.scoring:
            return list(self._rows[:k])
        # Same order, different scale: re-evaluate the scores.
        return [(scoring.evaluate(row), row)
                for _score, row in self._rows[:k]]

    @property
    def materialized_size(self):
        """Rows currently materialized (0 before the first build)."""
        return 0 if self._rows is None else len(self._rows)

    def __repr__(self):
        return ("RankedJoinView(%s, N=%s, %d rows, fresh=%s)"
                % (self.scoring.description(), self.capacity,
                   self.materialized_size, self.is_fresh))
