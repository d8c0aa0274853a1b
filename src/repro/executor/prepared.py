"""Prepared queries: bind a query once, execute it at many ``k``.

A :class:`PreparedQuery` is the serving-layer handle returned by
:meth:`~repro.executor.database.Database.prepare`: it holds the
:class:`~repro.optimizer.query.RankQuery` template and the
:func:`~repro.executor.plan_cache.query_fingerprint` the database
resolved for it (through the plan cache's statement map, so repeated
SQL text already skips the parser without preparing); every
:meth:`PreparedQuery.execute` then goes straight to the plan cache -- a
warm execution pays neither parsing nor System-R enumeration, only
operator-tree construction and the (rank-aware, early-out) execution
itself.

``k`` is a bind parameter: ``prepared.execute(k=50)`` re-optimizes only
if that ``k`` has not been planned before (plan choice legitimately
depends on ``k`` -- the paper's ``k*`` crossover).  Bound query objects
are memoised per ``k`` so rebinding is allocation-free after first use.
"""

from repro.common.errors import OptimizerError
from repro.optimizer.query import RankQuery, check_k


class PreparedQuery:
    """A parsed, fingerprinted query bound to one database.

    Instances are created by
    :meth:`~repro.executor.database.Database.prepare`; they are
    lightweight and safe to keep for the lifetime of the database.
    Statistics/DDL changes do not stale a prepared query -- the plan
    cache keys on the catalog version, so the next execution after a
    change transparently re-optimizes.
    """

    def __init__(self, database, query, fingerprint, sql=None):
        self.database = database
        self.query = query
        self.sql = sql
        self.fingerprint = fingerprint
        self._bound = {query.k: query}

    def bind(self, k=None):
        """Return the query template with ``k`` bound.

        ``None`` keeps the ``k`` from the prepared text.  Rebinding is
        only meaningful for ranking queries.
        """
        if k is None:
            return self.query
        if not self.query.is_ranking:
            raise OptimizerError(
                "cannot bind k=%r: %r is not a ranking query"
                % (k, self.sql or self.query)
            )
        # Checked before the memo: ``True == 1`` and ``3.0 == 3`` would
        # find the query bound to the integer.
        check_k(k)
        bound = self._bound.get(k)
        if bound is None:
            template = self.query
            bound = RankQuery(
                tables=template.tables,
                predicates=template.predicates,
                ranking=template.ranking,
                k=k,
                order_by=template.order_by,
                select=template.select,
                filters=template.filters,
                aliases=template.aliases,
            )
            self._bound[k] = bound
        return bound

    def execute(self, k=None, budget=None, trace=False, telemetry=None,
                parallel=None):
        """Execute the prepared query; returns the
        :class:`~repro.executor.executor.ExecutionReport`.

        ``k`` rebinds the result count (ranking queries only); all
        other arguments behave as in
        :meth:`~repro.executor.database.Database.execute`.
        """
        return self.database._execute_fingerprinted(
            self.bind(k), self.fingerprint, budget=budget, trace=trace,
            telemetry=telemetry, parallel=parallel,
        )

    def explain(self, k=None):
        """Optimize (through the cache) without executing."""
        query = self.bind(k)
        executor = self.database._executor_for(query)
        return self.database._cached_optimization(
            executor, query, self.fingerprint,
        )

    def __repr__(self):
        return "PreparedQuery(%r)" % (
            self.sql.strip() if self.sql else self.query,
        )
