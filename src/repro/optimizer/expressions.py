"""Linear score expressions.

The paper's ranking functions are weighted sums of per-relation score
columns (``0.3*A.c1 + 0.7*B.c2``).  :class:`ScoreExpression` models
exactly that: a mapping from qualified column name to a positive
weight.  Positive weights keep the expression monotone, which rank-join
correctness requires.

Two expressions induce the same *order* when their weights differ by a
positive scale factor; :meth:`ScoreExpression.order_key` canonicalises
for that equivalence so the optimizer can match plan properties.
"""

import math

from repro.common.errors import OptimizerError


def _table_of(qualified_name):
    """Return the table part of ``"A.c1"`` (raises without a dot)."""
    table, dot, _column = qualified_name.partition(".")
    if not dot:
        raise OptimizerError(
            "score expression columns must be qualified, got %r"
            % (qualified_name,)
        )
    return table


class ScoreExpression:
    """A positive-weighted sum of qualified score columns.

    Parameters
    ----------
    weights:
        Mapping ``{"A.c1": 0.3, "B.c2": 0.7}``; all weights must be
        positive (zero-weight terms should simply be omitted).
    """

    #: :meth:`order_key`, once computed (a class default, so expressions
    #: unpickled from snapshots that predate it work too).
    _order_key = None

    def __init__(self, weights):
        weights = dict(weights)
        if not weights:
            raise OptimizerError("score expression needs at least one term")
        for column, weight in weights.items():
            _table_of(column)
            if not (isinstance(weight, (int, float)) and weight > 0):
                raise OptimizerError(
                    "weight for %r must be a positive number, got %r"
                    % (column, weight)
                )
        self._weights = {col: float(w) for col, w in weights.items()}

    # ------------------------------------------------------------------
    @classmethod
    def single(cls, column, weight=1.0):
        """Expression over one column."""
        return cls({column: weight})

    @property
    def weights(self):
        """Return the ``{column: weight}`` mapping (copy)."""
        return dict(self._weights)

    def columns(self):
        """Return the sorted tuple of qualified columns."""
        return tuple(sorted(self._weights))

    def tables(self):
        """Return the frozenset of table names referenced."""
        return frozenset(_table_of(col) for col in self._weights)

    def is_single_column(self):
        """True when the expression is one (scaled) column."""
        return len(self._weights) == 1

    # ------------------------------------------------------------------
    def restrict(self, tables):
        """Return the sub-expression over columns of ``tables``.

        This is the per-subplan score expression ``S_L`` / ``S_R`` of
        Section 3.2.  Returns ``None`` when no term survives.
        """
        tables = frozenset(tables)
        surviving = {
            col: w for col, w in self._weights.items()
            if _table_of(col) in tables
        }
        if not surviving:
            return None
        return ScoreExpression(surviving)

    def evaluate(self, row):
        """Evaluate the expression against a row of qualified values."""
        return math.fsum(w * row[col] for col, w in self._weights.items())

    def accessor(self):
        """Return a ``row -> float`` callable (for operators)."""
        return self.evaluate

    # ------------------------------------------------------------------
    def order_key(self):
        """Canonical key identifying the *order* this expression induces.

        Orders are invariant under positive scaling, so weights are
        normalised by the largest weight.  Keys are hashable tuples of
        ``(column, rounded_weight)`` pairs, computed once per (immutable)
        expression.
        """
        key = self._order_key
        if key is None:
            top = max(self._weights.values())
            key = self._order_key = tuple(
                (col, round(w / top, 12))
                for col, w in sorted(self._weights.items())
            )
        return key

    def same_order(self, other):
        """True when ``other`` induces the same descending order."""
        if not isinstance(other, ScoreExpression):
            return False
        return self.order_key() == other.order_key()

    # ------------------------------------------------------------------
    def combine(self, other):
        """Return the sum of two expressions (disjoint column sets)."""
        merged = dict(self._weights)
        for col, w in other._weights.items():
            if col in merged:
                raise OptimizerError(
                    "cannot combine expressions sharing column %r" % (col,)
                )
            merged[col] = w
        return ScoreExpression(merged)

    def description(self):
        """Return the display string, e.g. ``"0.3*A.c1 + 0.7*B.c2"``.

        A unit-weight single column displays as the bare column name.
        """
        parts = []
        for col, w in sorted(self._weights.items()):
            if w == 1.0:
                parts.append(col)
            else:
                parts.append("%g*%s" % (w, col))
        return " + ".join(parts)

    def __eq__(self, other):
        if not isinstance(other, ScoreExpression):
            return NotImplemented
        return self._weights == other._weights

    def __hash__(self):
        return hash(tuple(sorted(self._weights.items())))

    def __repr__(self):
        return "ScoreExpression(%s)" % (self.description(),)
