"""The top-level :class:`Database` facade.

Glues every layer into a three-line user experience::

    db = Database()
    db.create_table("A", [("c1", "float"), ("c2", "int")], rows=...)
    report = db.execute("SELECT ... WITH ... rank() OVER ...")

Tables automatically receive descending score indexes on their float
columns so ranked access paths exist (the paper's setting: every
feature has a high-dimensional index delivering ranked streams).
"""

import os

from repro.common.errors import OptimizerError
from repro.cost.model import IN_MEMORY, CostModel
from repro.executor.executor import Executor
from repro.executor.plan_cache import (
    DEFAULT_CAPACITY,
    PlanCache,
    query_fingerprint,
)
from repro.executor.prepared import PreparedQuery
from repro.executor.shard_pool import ShardPool
from repro.observability.metrics import MetricsRegistry
from repro.optimizer.enumerator import OptimizationResult, OptimizerConfig
from repro.optimizer.query import RankQuery
from repro.sql.parser import parse_query
from repro.storage.catalog import Catalog
from repro.storage.index import SortedIndex
from repro.storage.partition import Partitioner
from repro.storage.table import Table

#: Accepted values for the ``parallel`` execution argument.
PARALLEL_MODES = (None, "auto", "inline", "pool", "off")


def _durable_snapshot_query_id(path):
    """Query id encoded in a snapshot filename, or ``None``."""
    from repro.robustness.durability import _SNAPSHOT_RE

    match = _SNAPSHOT_RE.match(os.path.basename(path))
    return match.group("qid") if match is not None else None


def forced_parallel_result(catalog, cost_model, result, mode):
    """Rewrite an optimization result under a forced parallel mode.

    ``"off"`` strips every ScoreMerge back to its serial source;
    ``"inline"``/``"pool"`` pin merge nodes to that vehicle (and
    parallelise eligible serial rank joins the cost model had left
    serial).  When the winning plan has no eligible rank join at all
    (say, NRJN won the cost race), the MEMO's retained alternatives
    are searched for one that parallelises; the cheapest transformed
    candidate wins.  Returns ``result`` itself when nothing in the
    query can be parallelised -- a forced mode never breaks an
    ineligible query, it just runs serially.
    """
    from repro.optimizer.parallel import apply_parallel_mode

    plan, changed = apply_parallel_mode(catalog, cost_model,
                                        result.best_plan, mode)
    if not changed and mode in ("inline", "pool"):
        query = result.query
        k = float(query.k) if query.is_ranking else 1.0
        candidates = []
        for alternative in result.memo.entry(query.tables):
            if not alternative.order.covers(result.required_order):
                continue
            rewritten, count = apply_parallel_mode(
                catalog, cost_model, alternative, mode,
            )
            if count:
                candidates.append(rewritten)
        if candidates:
            plan = min(candidates, key=lambda p: p.cost(k))
            changed = 1
    if not changed:
        return result
    return OptimizationResult(result.query, result.memo, plan,
                              result.required_order)


class Database:
    """An in-memory rank-aware database instance.

    Parameters
    ----------
    cost_model:
        Optional :class:`~repro.cost.model.CostModel` override; the
        default prices plans with the ``IN_MEMORY`` cost profile
        (``CostModel(PAPER_2004)`` plans as the paper's disk model).
    config:
        Optional :class:`~repro.optimizer.enumerator.OptimizerConfig`.
    auto_index_scores:
        Create a descending index on every float column of new tables
        (on by default; pass False to control access paths manually).
    plan_cache_size:
        Capacity of the :class:`~repro.executor.plan_cache.PlanCache`
        amortising parsing (per SQL text) and enumeration (per query
        shape and ``k``) across repeated queries; it bounds the cached
        statements and plans separately (0 disables caching; every
        execution re-parses and re-optimizes).

    The database keeps a persistent ``metrics``
    :class:`~repro.observability.metrics.MetricsRegistry` accumulating
    serving-level counters (plan-cache hits/misses/evictions, the
    fused columnar counters of untraced runs) across every query it
    runs -- distinct from the per-run ``Telemetry`` bundles, which stay
    opt-in.
    """

    def __init__(self, cost_model=None, config=None,
                 auto_index_scores=True,
                 plan_cache_size=DEFAULT_CAPACITY):
        self.catalog = Catalog()
        self.cost_model = cost_model or CostModel(IN_MEMORY)
        self.config = config or OptimizerConfig()
        self.auto_index_scores = auto_index_scores
        self.metrics = MetricsRegistry()
        self.plan_cache = PlanCache(plan_cache_size, metrics=self.metrics)
        self.shard_pool = ShardPool(self.catalog, metrics=self.metrics)
        self._executor = Executor(self.catalog, self.cost_model,
                                  self.config, metrics=self.metrics,
                                  shard_pool=self.shard_pool)
        self._alias_executors = {}

    # ------------------------------------------------------------------
    # DDL / DML
    # ------------------------------------------------------------------
    def create_table(self, name, column_specs, rows=None):
        """Create and register a table; returns it.

        ``column_specs`` is ``[(column, type), ...]``; ``rows`` may be
        value sequences or dicts.
        """
        table = Table.from_columns(name, column_specs, rows=rows)
        if self.auto_index_scores:
            for column in table.schema:
                if column.type_name == "float":
                    table.create_index(SortedIndex(
                        "%s_%s_idx" % (name, column.name),
                        column.qualified_name,
                    ))
        self.catalog.register(table)
        return table

    def register_table(self, table):
        """Register an externally built table."""
        self.catalog.register(table)
        return table

    def insert(self, table_name, row):
        """Insert one row into ``table_name``."""
        self.catalog.table(table_name).insert(row)

    def analyze(self):
        """Recompute statistics for all tables."""
        self.catalog.analyze()

    def partition_table(self, name, shards, column=None, strategy=None):
        """Partition ``name`` into ``shards`` shard tables.

        With ``column`` (a qualified join-key column such as
        ``"A.c2"``) rows are hash-routed so equi-joins on that column
        are shard-co-located -- the prerequisite for the optimizer's
        parallel rank-join alternative.  Shards register in the catalog
        (bumping its version, so cached plans refresh) and are analyzed;
        the statistics of every other table are left as they are.
        Returns the :class:`~repro.storage.partition.Partitioning`.
        """
        before = self.catalog.partitioning(name, column)
        partitioning = Partitioner(self.catalog).partition(
            name, shards, column=column, strategy=strategy,
        )
        if partitioning is not before:
            for shard in partitioning.shard_names:
                self.catalog.analyze(shard)
        return partitioning

    def _ensure_partitionings(self, query, shards):
        """Hash-partition both sides of each join predicate of ``query``.

        Existing fresh partitionings with the requested shard count are
        kept as-is (partitioning is idempotent); aliased self-joins are
        skipped -- derived catalogs hold aliased copies that the base
        partitioner cannot see.
        """
        if query.has_real_aliases:
            return
        for predicate in query.predicates:
            for table_name, column in (
                    (predicate.left_table, predicate.left_column),
                    (predicate.right_table, predicate.right_column)):
                if table_name not in self.catalog:
                    continue
                existing = self.catalog.partitioning(table_name, column)
                if (existing is not None
                        and len(existing.shard_names) == shards):
                    continue
                self.partition_table(table_name, shards, column=column)

    def set_join_selectivity(self, left_column, right_column, selectivity):
        """Pin the selectivity estimate of an equi-join predicate."""
        self.catalog.set_join_selectivity(
            left_column, right_column, selectivity,
        )

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def parse(self, sql):
        """Parse SQL text to a :class:`RankQuery`.

        A repeated text returns the cached, shared query: do not
        mutate it.
        """
        return self._statement(sql, "parse")[0]

    def _statement(self, query, method):
        """``(RankQuery, fingerprint)`` of SQL text or a RankQuery.

        The one place SQL text is parsed: a text already in the plan
        cache's statement map skips the parser and the fingerprint;
        only text that parsed is stored, so a malformed one raises on
        every call.  Parsing runs outside the cache's lock.
        """
        if isinstance(query, str):
            entry = self.plan_cache.statement(query)
            if entry is None:
                parsed = parse_query(query)
                entry = self.plan_cache.put_statement(
                    query, parsed, query_fingerprint(parsed))
            return entry
        if not isinstance(query, RankQuery):
            raise TypeError("%s() takes SQL text or a RankQuery" % (method,))
        return query, query_fingerprint(query)

    def _executor_for(self, query):
        """Return the executor serving ``query``.

        Queries with real table aliases (``FROM A a1, A a2``) get an
        executor over a derived catalog holding aliased copies of the
        base tables, so self-joins see distinct qualified column names.
        Derived executors are memoised per alias-set and rebuilt only
        when the base catalog's version moves -- repeated aliased
        queries stop paying the copy-every-table tax per execution.
        """
        if not query.has_real_aliases:
            return self._executor
        key = tuple(sorted(query.aliases.items()))
        version = self.catalog.version
        cached = self._alias_executors.get(key)
        if cached is not None and cached[0] == version:
            return cached[1]
        derived = Catalog()
        for alias in sorted(query.tables):
            base = query.aliases[alias]
            derived.register(self.catalog.table(base).aliased(alias))
        derived.analyze()
        executor = Executor(derived, self.cost_model, self.config,
                            metrics=self.metrics)
        self._alias_executors[key] = (version, executor)
        return executor

    def _cached_optimization(self, executor, query, fingerprint=None):
        """Plan ``query`` through the cache; returns the result.

        The cache key is ``(fingerprint, k, catalog version)`` -- the
        *base* catalog version even for aliased queries, since derived
        executors are themselves rebuilt whenever the base version
        moves.  A miss optimizes eagerly and stores the result.
        """
        if fingerprint is None:
            fingerprint = query_fingerprint(query)
        version = self.catalog.version
        result = self.plan_cache.get(fingerprint, query.k, version)
        if result is None:
            result = executor.optimizer.optimize(query)
            self.plan_cache.put(fingerprint, query.k, version, result)
        return result

    @staticmethod
    def _telemetry_for(trace, telemetry):
        """Resolve the trace/telemetry arguments to one bundle or None."""
        if telemetry is not None:
            return telemetry
        if trace:
            from repro.observability import Telemetry

            return Telemetry()
        return None

    def prepare(self, query):
        """Bind ``query`` for repeated execution with a rebindable ``k``.

        Returns a :class:`~repro.executor.prepared.PreparedQuery` whose
        :meth:`~repro.executor.prepared.PreparedQuery.execute` serves
        plans from the database's
        :class:`~repro.executor.plan_cache.PlanCache` and takes ``k``
        per execution (``prepared.execute(k=50)``).  Repeated SQL text
        skips the parser through :meth:`execute` as well.
        """
        sql = query if isinstance(query, str) else None
        query, fingerprint = self._statement(query, "prepare")
        return PreparedQuery(self, query, fingerprint, sql=sql)

    def execute(self, query, budget=None, trace=False, telemetry=None,
                parallel=None, shards=None):
        """Run SQL text or a :class:`RankQuery`; returns the report.

        ``shards`` hash-partitions both sides of every join predicate
        into that many shards first (idempotent when fresh
        partitionings already exist), making the query eligible for
        sharded parallel rank-join execution.  ``parallel`` picks the
        vehicle: ``None``/``"auto"`` let the cost model decide serial
        vs parallel (and inline vs process pool), ``"inline"`` and
        ``"pool"`` force that vehicle onto every eligible rank join,
        ``"off"`` disables parallel plans for this execution.

        ``budget`` optionally bounds the execution with a
        :class:`~repro.robustness.budget.ResourceBudget`; breaching it
        raises :class:`~repro.common.errors.BudgetExceededError` with
        the partial operator snapshots attached.

        ``trace=True`` runs with full observability: the returned
        report's ``telemetry`` carries the span tree
        (optimize -> open -> next -> close), per-operator metrics and
        the optimizer/Propagate event log, and the report's
        ``explain()``/``analyze()`` grow per-operator timing columns.
        Pass an existing :class:`~repro.observability.Telemetry` as
        ``telemetry`` to aggregate several queries into one bundle.

        Plan choice goes through the database's plan cache: repeated
        executions of the same query shape (same join graph, score
        expression, predicates and ``k``) against an unchanged catalog
        skip enumeration entirely, and repeated SQL text skips parsing.
        """
        query, fingerprint = self._statement(query, "execute")
        if shards is not None:
            self._ensure_partitionings(query, shards)
        return self._execute_fingerprinted(
            query, fingerprint, trace=trace,
            telemetry=telemetry, parallel=parallel, budget=budget,
        )

    def _execute_fingerprinted(self, query, fingerprint, trace=False,
                               telemetry=None, parallel=None, **options):
        """The one plan-choice path of :meth:`execute`,
        :meth:`execute_guarded` and prepared queries: serve the plan
        from the cache, plan on a miss, run.

        On a miss the executor plans inside its ``optimize`` span (so a
        traced run's span tree and enumeration events are exactly an
        uncached run's), and the plan is cached *before* it runs: a
        guarded run corrects its own copy of the plan, never the cached
        one.  A forced ``parallel`` mode caches its rewritten plan under
        a mode-augmented fingerprint, so forced and auto executions of
        the same query shape never collide in the plan cache.
        ``options`` are :meth:`Executor.run`'s.
        """
        if parallel not in PARALLEL_MODES:
            raise OptimizerError(
                "parallel must be one of %r, got %r"
                % (PARALLEL_MODES[1:], parallel)
            )
        executor = self._executor_for(query)
        telemetry = self._telemetry_for(trace, telemetry)
        version = self.catalog.version
        forced = parallel not in (None, "auto")
        key = (fingerprint, "parallel", parallel) if forced else fingerprint
        result = self.plan_cache.get(key, query.k, version)
        if result is None:
            def result():
                if forced:
                    planned = forced_parallel_result(
                        executor.catalog, self.cost_model,
                        self._cached_optimization(executor, query,
                                                  fingerprint),
                        parallel,
                    )
                else:
                    planned = executor.optimizer.optimize(
                        query, telemetry=telemetry)
                return self.plan_cache.put(key, query.k, version, planned)
        return executor.run(query, telemetry=telemetry, result=result,
                            **options)

    def execute_guarded(self, query, budget=None, policy=None,
                        trace=False, telemetry=None, checkpoint=None,
                        faults=None, parallel=None, shards=None,
                        state_dir=None, query_id=None):
        """Run under the full robustness layer; returns the report.

        Like :meth:`execute` -- the same plan cache, the same executor
        -- plus a :class:`~repro.robustness.recovery.RecoveryPolicy`
        (``policy``, defaults apply when ``None``): resource budgets
        are enforced *and* rank-join depth overruns trigger adaptive
        recovery (mid-query selectivity re-estimation, then
        continue-with-updated-budgets or fall back to the blocking
        sort plan).  ``report.recovery`` records the path taken;
        ``trace``/``telemetry`` behave as in :meth:`execute`, with
        recovery decisions flowing into the telemetry event log.

        ``checkpoint`` (a
        :class:`~repro.robustness.checkpoint.CheckpointPolicy` or an
        ``int`` row cadence) turns on state-preserving recovery: a
        budget breach then suspends (``report.suspension``, resumable
        via :meth:`resume`) instead of raising, transient faults resume
        from the last checkpoint, and fallback decisions migrate live
        rank-join state.  ``faults`` optionally injects a
        :class:`~repro.robustness.faults.FaultPlan` for chaos testing.

        ``state_dir`` (a directory path or an existing
        :class:`~repro.robustness.durability.CheckpointStore`) makes
        every checkpoint durable: each snapshot is atomically written
        to disk under ``query_id`` (derived deterministically from the
        query when omitted), so a killed process can continue the query
        via :meth:`resume` with the same ``state_dir``.  A default
        checkpoint policy is supplied when ``checkpoint`` is omitted.
        """
        from repro.robustness.checkpoint import CheckpointPolicy
        from repro.robustness.recovery import RecoveryPolicy

        query, fingerprint = self._statement(query, "execute_guarded")
        if shards is not None:
            self._ensure_partitionings(query, shards)
        store = self._durable_store(state_dir)
        if store is not None and checkpoint is None:
            checkpoint = CheckpointPolicy()
        return self._execute_fingerprinted(
            query, fingerprint, trace=trace,
            telemetry=telemetry, parallel=parallel, budget=budget,
            policy=policy or RecoveryPolicy(), checkpoint=checkpoint,
            faults=faults, store=store, query_id=query_id,
        )

    def _durable_store(self, state_dir):
        """Resolve a ``state_dir`` argument to a CheckpointStore or None."""
        if state_dir is None:
            return None
        from repro.robustness.durability import CheckpointStore

        if isinstance(state_dir, CheckpointStore):
            return state_dir
        return CheckpointStore(state_dir, metrics=self.metrics)

    def load_suspended(self, source, query_id=None):
        """Rehydrate a resumable query from durable snapshot state.

        ``source`` is either one ``.ckpt`` snapshot file or a state
        directory written by a previous (possibly killed) process; in
        the directory case ``query_id`` picks the query, defaulting to
        the directory's only one.  Returns a
        :class:`~repro.robustness.checkpoint.SuspendedQuery` re-planned
        over this database's catalog -- hand it to :meth:`resume`.
        Raises
        :class:`~repro.common.errors.CheckpointCorruptionError` when
        the snapshot fails validation (the file is deleted first) and
        :class:`~repro.common.errors.ExecutionError` when no snapshot
        exists.
        """
        from repro.common.errors import ExecutionError
        from repro.robustness.durability import CheckpointStore, rehydrate

        source = os.fspath(source) if hasattr(source, "__fspath__") \
            else source
        if os.path.isdir(source):
            store = self._durable_store(source)
            if query_id is None:
                ids = store.query_ids()
                if len(ids) != 1:
                    raise ExecutionError(
                        "state dir %s holds %d queries; pass query_id "
                        "(one of %r)" % (source, len(ids), ids))
                query_id = ids[0]
            payload = store.load_latest(query_id)
            if payload is None:
                raise ExecutionError(
                    "no durable snapshot for query %r in %s"
                    % (query_id, source))
        else:
            store = CheckpointStore(os.path.dirname(source) or ".",
                                    metrics=self.metrics)
            payload = store.read_snapshot(source)
        suspended = rehydrate(payload, self._executor_for(payload["query"]))
        store.metrics.counter("durability_recoveries_total").inc(
            outcome="resumed")
        return suspended

    def resume(self, suspended, budget=None, policy=None, trace=False,
               telemetry=None, checkpoint=None, state_dir=None,
               query_id=None):
        """Continue a suspended guarded query from its checkpoint.

        ``suspended`` is the
        :class:`~repro.robustness.checkpoint.SuspendedQuery` from a
        prior report's ``suspension`` attribute -- or a durable state
        path (a ``.ckpt`` file or a state directory, as written by an
        ``execute_guarded(state_dir=...)`` run in this or an earlier
        process), which is rehydrated via :meth:`load_suspended`
        first.  ``budget`` defaults to the one the query was suspended
        under (unlimited for a rehydrated snapshot); pass a larger one
        to let it finish.  The resumed run starts its accounting from
        zero and re-emits nothing -- the returned report's rows extend
        exactly where the suspended run stopped.

        A durable resume degrades instead of failing: when the
        snapshot's checkpointed state no longer fits the re-optimized
        plan (the catalog changed underneath it), the unusable
        snapshots are discarded and the query reruns from scratch,
        recorded as the ``"restarted"`` recovery path on the returned
        report.

        ``state_dir`` keeps the *continued* run durable too: new
        checkpoints taken while draining the remainder are persisted
        there under ``query_id``.
        """
        from repro.robustness.recovery import restart_event

        telemetry = self._telemetry_for(trace, telemetry)
        options = {"budget": budget, "policy": policy,
                   "telemetry": telemetry, "checkpoint": checkpoint}
        if not (isinstance(suspended, (str, bytes))
                or hasattr(suspended, "__fspath__")):
            return self._executor_for(suspended.query).resume(
                suspended, store=self._durable_store(state_dir),
                query_id=query_id, **options)
        source = directory = os.fspath(suspended)
        if not os.path.isdir(source):
            if query_id is None:
                query_id = _durable_snapshot_query_id(source)
            directory = os.path.dirname(source) or "."
        store = self._durable_store(state_dir if state_dir is not None
                                    else directory)

        def restart(query):
            return self.execute_guarded(
                query, budget=budget, policy=policy, telemetry=telemetry,
                checkpoint=checkpoint, state_dir=store, query_id=query_id,
            )

        report, restarted = self._resume_or_restart(
            lambda: self.load_suspended(source, query_id=query_id),
            restart, store, query_id, **options)
        if restarted:
            report.recovery.record(restart_event(len(report.rows)))
        return report

    def _resume_or_restart(self, load, restart, store, query_id, **options):
        """Resume the durable suspension ``load()`` returns, or restart.

        The one rule for durable snapshots: a snapshot that cannot be
        used -- corrupt, of another format version, or no longer
        fitting the re-optimized plan -- is discarded, counted as a
        ``restarted`` recovery, and ``restart(query)`` reruns the query
        from scratch.  Returns ``(report, restarted)``; the caller
        records :func:`~repro.robustness.recovery.restart_event` on the
        report that completes the query.
        """
        from repro.common.errors import CheckpointError
        from repro.robustness.durability import default_query_id

        query = None
        try:
            suspended = load()
            query = suspended.query
            return self._executor_for(query).resume(
                suspended, store=store, query_id=query_id, **options), False
        except CheckpointError as error:
            # A snapshot of another format version still names its
            # query; one that failed any other validation does not.
            query = query or getattr(error, "query", None)
            if query is None:
                raise
        if store is not None:
            store.discard(query_id or default_query_id(query))
            store.metrics.counter("durability_recoveries_total").inc(
                outcome="restarted")
        return restart(query), True

    def explain(self, query):
        """Optimize (through the plan cache) without executing; returns
        the OptimizationResult."""
        query, fingerprint = self._statement(query, "explain")
        return self._cached_optimization(self._executor_for(query), query,
                                         fingerprint)

    def optimizer(self):
        """Expose the optimizer (for experiments over the MEMO)."""
        return self._executor.optimizer

    def executor(self):
        """Expose the executor (for running pinned plans)."""
        return self._executor

    def __repr__(self):
        return "Database(%d tables)" % (len(self.catalog.tables()),)
