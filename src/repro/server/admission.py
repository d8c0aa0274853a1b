"""Cost-model-based admission control for the query server.

Every submitted query is planned *at admission* (through the
database's :class:`~repro.executor.plan_cache.PlanCache`, so repeated
shapes pay nothing) and its estimated plan cost decides the queue
class: cheap plans go to the ``interactive`` class the scheduler
serves first, expensive ones to ``batch``.  The same estimate drives
overload protection as a ladder, gentlest rung first:

1. below ``shed_water`` queue depth -- admit as planned;
2. between ``shed_water`` and ``high_water`` -- *degrade*: re-plan
   ranking queries with a reduced ``k`` (top-k cost scales with ``k``,
   so a smaller answer is the cheapest way to keep serving), or force
   the blocking sort-fallback plan when ``k`` cannot shrink (its cost
   is flat in ``k``, trading latency for rank-join buffer memory);
   the degradation is recorded on the final report's recovery path as
   ``"shed"``;
3. at ``high_water`` -- reject with
   :class:`~repro.common.errors.OverloadError`, keeping queue waits
   bounded for everything already admitted.

Admission plans with the catalog's statistics, so a catalog change
(``analyze``, a selectivity override, an insert) moves the plan-cache
key and re-plans the affected shapes on their next admission.
"""

from repro.common.errors import OptimizerError, OverloadError
from repro.observability.events import NULL_EVENTS
from repro.optimizer.enumerator import OptimizationResult
from repro.optimizer.query import RankQuery

#: Queue classes, in strict scheduling priority order.
INTERACTIVE = "interactive"
BATCH = "batch"


class AdmissionPolicy:
    """Tunables for admission classification and overload protection.

    Parameters
    ----------
    interactive_cost:
        Estimated plan-cost threshold below which a query is classed
        ``interactive`` (scheduled strictly before ``batch`` work), in
        the units of the database's cost profile.
    high_water:
        Queue depth (queued + running queries) at which new
        submissions are rejected with :class:`OverloadError`.
    shed_water:
        Depth at which the degradation ladder starts (defaults to half
        of ``high_water``); ``None`` disables shedding so the only
        protection is rejection.
    shed_k:
        The reduced ``k`` target for rung 2: ranking queries with a
        larger ``k`` are re-planned at this value.  Queries already at
        or below it fall through to the sort-fallback rung.
    """

    def __init__(self, interactive_cost=50_000.0, high_water=32,
                 shed_water=None, shed_k=5):
        if high_water < 1:
            raise OverloadError("high_water must be >= 1")
        self.interactive_cost = interactive_cost
        self.high_water = high_water
        self.shed_water = (high_water // 2 if shed_water is None
                           else shed_water)
        self.shed_k = shed_k

    def __repr__(self):
        return ("AdmissionPolicy(interactive<%g, shed@%d, reject@%d)"
                % (self.interactive_cost, self.shed_water,
                   self.high_water))


class AdmissionDecision:
    """The outcome of admitting one query.

    Attributes
    ----------
    query:
        The query that will actually run -- the submitted one, or the
        reduced-``k`` rewrite under shedding.
    result:
        The admission-time
        :class:`~repro.optimizer.enumerator.OptimizationResult` the
        scheduler executes (possibly the forced sort-fallback plan).
    queue_class:
        ``"interactive"`` or ``"batch"``.
    estimated_cost:
        The cost-model estimate that classified the query.
    shed_action:
        ``None``, ``"reduced_k"`` or ``"fallback_plan"``.
    original_k:
        The submitted ``k`` when ``shed_action == "reduced_k"``.
    """

    __slots__ = ("query", "result", "queue_class", "estimated_cost",
                 "shed_action", "original_k")

    def __init__(self, query, result, queue_class, estimated_cost,
                 shed_action=None, original_k=None):
        self.query = query
        self.result = result
        self.queue_class = queue_class
        self.estimated_cost = estimated_cost
        self.shed_action = shed_action
        self.original_k = original_k

    @property
    def shed(self):
        """True when the degradation ladder touched this query."""
        return self.shed_action is not None

    def __repr__(self):
        extra = (", shed=%s" % (self.shed_action,)
                 if self.shed_action else "")
        return "AdmissionDecision(%s, cost=%.4g%s)" % (
            self.queue_class, self.estimated_cost, extra,
        )


class AdmissionController:
    """Plans, classifies, degrades, or rejects submitted queries.

    Parameters
    ----------
    database:
        The :class:`~repro.executor.database.Database` whose plan
        cache and optimizer serve admission-time planning.
    policy:
        An :class:`AdmissionPolicy` (defaults apply when ``None``).
    events:
        Optional :class:`~repro.observability.events.EventLog`
        receiving ``admit`` / ``shed`` / ``reject`` events.  Shed and
        reject counters land in ``database.metrics``.
    """

    def __init__(self, database, policy=None, events=None):
        self.database = database
        self.policy = policy or AdmissionPolicy()
        self.metrics = database.metrics
        self.events = NULL_EVENTS if events is None else events

    # ------------------------------------------------------------------
    def admit(self, query, tenant, queue_depth):
        """Admit ``query`` at the current ``queue_depth``.

        Returns an :class:`AdmissionDecision`; raises
        :class:`~repro.common.errors.OverloadError` past the
        high-water mark.  Planning goes through the database's plan
        cache, so admission of a repeated query shape is a dictionary
        lookup.
        """
        policy = self.policy
        if queue_depth >= policy.high_water:
            self.metrics.counter("server_queries_total").inc(
                tenant=tenant, queue_class="none", outcome="rejected")
            self.events.emit(
                "reject", tenant=tenant, queue_depth=queue_depth,
                high_water=policy.high_water,
            )
            raise OverloadError(
                "queue depth %d at the high-water mark of %d"
                % (queue_depth, policy.high_water),
                queue_depth=queue_depth, high_water=policy.high_water,
                tenant=tenant,
            )
        shed = (policy.shed_water is not None
                and queue_depth >= policy.shed_water)
        decision = self._plan(query, shed)
        self.events.emit(
            "admit", tenant=tenant, queue_class=decision.queue_class,
            estimated_cost=decision.estimated_cost,
            queue_depth=queue_depth, shed=decision.shed_action,
        )
        if decision.shed:
            self.metrics.counter("server_sheds_total").inc(
                action=decision.shed_action)
            self.events.emit(
                "shed", tenant=tenant, action=decision.shed_action,
                queue_depth=queue_depth,
            )
        return decision

    # ------------------------------------------------------------------
    def _plan(self, query, shed):
        """Plan ``query``, applying the degradation ladder if ``shed``."""
        original_k = query.k
        shed_action = None
        if shed and query.is_ranking and self.policy.shed_k is not None \
                and query.k > self.policy.shed_k:
            query = self._with_k(query, self.policy.shed_k)
            shed_action = "reduced_k"
        result = self._optimize(query)
        if shed and shed_action is None:
            forced = self._forced_fallback(result)
            if forced is not None:
                result = forced
                shed_action = "fallback_plan"
        cost = self._estimated_cost(result)
        queue_class = (INTERACTIVE
                       if cost <= self.policy.interactive_cost
                       else BATCH)
        return AdmissionDecision(
            query, result, queue_class, cost, shed_action=shed_action,
            original_k=(original_k if shed_action == "reduced_k"
                        else None),
        )

    def _optimize(self, query):
        db = self.database
        executor = db._executor_for(query)
        return db._cached_optimization(executor, query)

    def _forced_fallback(self, result):
        """The sort-fallback plan as a runnable result, or ``None``."""
        try:
            fallback = self._optimizer(result).fallback_plan(result)
        except OptimizerError:
            return None
        return OptimizationResult(result.query, result.memo, fallback,
                                  result.required_order)

    def _optimizer(self, result):
        return self.database._executor_for(result.query).optimizer

    def _estimated_cost(self, result):
        query = result.query
        k = float(query.k) if query.is_ranking else 1.0
        return result.best_plan.cost(k)

    @staticmethod
    def _with_k(query, k):
        """The query rewritten with a smaller ``k`` (shedding rung 2)."""
        return RankQuery(
            tables=query.tables,
            predicates=query.predicates,
            ranking=query.ranking,
            k=k,
            order_by=query.order_by,
            select=query.select,
            filters=query.filters,
            aliases=query.aliases,
        )

    def __repr__(self):
        return "AdmissionController(%r)" % (self.policy,)
