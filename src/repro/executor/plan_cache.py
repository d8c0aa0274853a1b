"""Plan caching for repeated-query (serving) workloads.

Rank-aware plans make top-k queries cheap to *execute*; in a serving
setting the remaining per-request cost is choosing the plan -- SQL
parsing plus System-R DP enumeration.  Both are pure functions of the
normalized query shape, the bound ``k``, and the catalog's statistics,
so their output is cacheable: :func:`query_fingerprint` canonicalises a
:class:`~repro.optimizer.query.RankQuery` into a hashable key (``k``
deliberately excluded -- it is a bind parameter), and :class:`PlanCache`
maps ``(fingerprint, k, catalog_version)`` to the finished
:class:`~repro.optimizer.enumerator.OptimizationResult`.

Parsing is cached one step earlier, by SQL text: the cache's statement
map holds each text's ``(RankQuery, fingerprint)``, so a repeated text
skips the parser and the fingerprint and goes straight to the plan
lookup.  Parsing never reads the catalog, so statements need no version
key; the map shares the plan map's capacity (with its own LRU order)
and lock, and the cached queries are shared by every execution of the
text, so nothing may mutate them.

Keying on the catalog's monotone version counter makes invalidation
implicit: an ``insert``/``analyze``/index change bumps the version, the
old entries stop matching, and LRU eviction reclaims them.  ``k`` stays
in the key (not the fingerprint) because plan choice genuinely depends
on it -- the paper's ``k*`` crossover flips the winner between the
rank-join and sort plans as ``k`` grows.
"""

import threading
from collections import OrderedDict

from repro.observability.metrics import NULL_METRICS

#: Default number of cached plans per database.
DEFAULT_CAPACITY = 128


def query_fingerprint(query):
    """Canonical hashable fingerprint of a query's *shape*.

    Two queries share a fingerprint exactly when the optimizer would
    walk the same search space for them at every ``k``: same table
    aliases over the same base tables, same join graph, same selection
    predicates, same ranking *order* (weight vectors are normalised by
    positive scale, matching plan-property semantics), same ORDER BY
    and select list.  ``k`` is excluded -- it parameterises the cache
    key, not the fingerprint -- which is what lets a
    :class:`PreparedQuery` rebind ``k`` per execution.
    """
    predicates = tuple(sorted(
        tuple(sorted((p.left_column, p.right_column)))
        for p in query.predicates
    ))
    filters = tuple(sorted(
        (f.column, f.op, f.value) for f in query.filters
    ))
    ranking = query.ranking.order_key() if query.ranking is not None else None
    return (
        tuple(sorted(query.aliases.items())),
        predicates,
        filters,
        ranking,
        query.order_by,
        query.select,
    )


class PlanCache:
    """LRU cache of optimization results keyed by query shape.

    All operations are thread-safe: the serving layer plans queries at
    admission from interleaved sessions, so lookups, inserts and the
    hit/miss/eviction tallies share one lock (operations are dict-sized,
    so contention is negligible next to optimization itself).

    Parameters
    ----------
    capacity:
        Maximum retained plans, and separately statements; 0 disables
        caching entirely (every lookup is a miss, every text is parsed
        and nothing is stored).
    metrics:
        Optional :class:`~repro.observability.metrics.MetricsRegistry`;
        when given, ``plan_cache_hits_total`` /
        ``plan_cache_misses_total`` / ``plan_cache_evictions_total``
        counters and the ``plan_cache_size`` gauge are kept current.
    """

    def __init__(self, capacity=DEFAULT_CAPACITY, metrics=None):
        if capacity < 0:
            raise ValueError(
                "plan cache capacity must be >= 0, got %r" % (capacity,)
            )
        self.capacity = capacity
        self._lock = threading.RLock()
        self._entries = OrderedDict()
        self._statements = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        metrics = NULL_METRICS if metrics is None else metrics
        self._hits = metrics.counter("plan_cache_hits_total")
        self._misses = metrics.counter("plan_cache_misses_total")
        self._evictions = metrics.counter("plan_cache_evictions_total")
        self._size = metrics.gauge("plan_cache_size")

    def __len__(self):
        return len(self._entries)

    def get(self, fingerprint, k, version):
        """Return the cached result or ``None``; counts the outcome."""
        key = (fingerprint, k, version)
        with self._lock:
            result = self._entries.get(key)
            if result is None:
                self.misses += 1
                self._misses.inc()
                return None
            self._entries.move_to_end(key)
            self.hits += 1
        self._hits.inc()
        return result

    def put(self, fingerprint, k, version, result):
        """Insert ``result``, evicting least-recently-used overflow."""
        if self.capacity == 0:
            return result
        key = (fingerprint, k, version)
        with self._lock:
            self._entries[key] = result
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.evictions += 1
                self._evictions.inc()
            self._size.set(len(self._entries))
        return result

    def statement(self, sql):
        """The cached ``(query, fingerprint)`` of ``sql``, or ``None``.

        Statement lookups touch no hit/miss tally or metric: those
        count plan lookups, which every execution still makes.
        """
        with self._lock:
            entry = self._statements.get(sql)
            if entry is not None:
                self._statements.move_to_end(sql)
            return entry

    def put_statement(self, sql, query, fingerprint):
        """Remember a parsed ``sql``; returns the entry to use.

        When two threads parsed the same text, the first stored entry
        is kept and returned to both.
        """
        entry = (query, fingerprint)
        if self.capacity == 0:
            return entry
        with self._lock:
            entry = self._statements.setdefault(sql, entry)
            self._statements.move_to_end(sql)
            if len(self._statements) > self.capacity:
                self._statements.popitem(last=False)
        return entry

    def invalidate(self):
        """Drop every cached plan and statement (explicit flush)."""
        with self._lock:
            self._entries.clear()
            self._statements.clear()
            self._size.set(0)

    def stats(self):
        """Return ``{hits, misses, evictions, size, statements,
        capacity}``."""
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "size": len(self._entries),
                "statements": len(self._statements),
                "capacity": self.capacity,
            }

    def __repr__(self):
        return "PlanCache(%d/%d entries, %d hits, %d misses)" % (
            len(self._entries), self.capacity, self.hits, self.misses,
        )
