"""Bottom-up dynamic-programming plan enumeration (Sections 2.3, 3.2).

The enumerator follows System R: it builds plans for single tables,
then for every connected table subset of growing size, combining every
connected split ``(L, R)`` with every eligible join implementation.
Rank-aware extensions:

* base-table access paths are generated for every interesting order
  *expression* (via an index when one exists, via a glued sort under
  the eager enforcement policy otherwise);
* rank-join choices (HRJN / NRJN) are added whenever the Section 3.2
  eligibility rules hold;
* pruning is delegated to :class:`~repro.optimizer.memo.Memo`, which
  implements the rank-aware dominance test; the enumerator only skips
  building the joins that test would reject on arrival, judged by what
  each join method's cost and properties read of its inputs
  (:meth:`Optimizer._join_choices`, ``docs/estimation_model.md`` §8).
"""

from itertools import combinations

from repro.common.errors import OptimizerError
from repro.optimizer.interesting import interesting_orders_for_tables
from repro.optimizer.memo import _COST_EPSILON, Memo
from repro.optimizer.plans import (
    JOIN_METHODS,
    RANK_JOIN_OPERATORS,
    AccessPlan,
    AnyKPlan,
    FilterPlan,
    JoinPlan,
    RankJoinPlan,
    ScoreMergePlan,
    SortPlan,
)
from repro.optimizer.properties import OrderProperty


def _walk_plan(plan):
    """Yield ``plan`` and all descendants, pre-order."""
    yield plan
    for child in plan.children:
        for descendant in _walk_plan(child):
            yield descendant


def _undercutting(candidates, cost, group=None):
    """The ``candidates`` cheaper than every earlier one of their group.

    ``cost`` is what a join's cost reads of the candidate inputs, and
    ``group`` what else it reads or derives its properties from.  The
    MEMO's tie rule applies: a later candidate counts only when cheaper
    by more than its tolerance.  Among same-group joins offered in
    ``candidates`` order, only these can be accepted on arrival.
    """
    best = {}
    kept = []
    for candidate in candidates:
        key = None if group is None else group(candidate)
        value = cost(candidate)
        if key not in best or value < best[key] - _COST_EPSILON:
            best[key] = value
            kept.append(candidate)
    return kept


def _holds_flat_plan_within(memo, tables, bound):
    """True when the MEMO entry of ``tables`` holds a k-independent plan
    costing at most ``bound``, within the MEMO's tolerance.

    Every plan's properties cover a DC blocking plan's, and a join costs
    at least its inputs, so :meth:`Memo.add` would then reject on
    arrival a ``hash`` / ``sort_merge`` join whose inputs cost ``bound``.
    """
    return any(not plan.k_dependent
               and plan.cost(memo.k_min) <= bound + _COST_EPSILON
               for plan in memo.entry(tables))


def _effective_order(interesting, order):
    """Project a plan's order onto the entry's ``interesting`` orders.

    A produced order that is not interesting for this MEMO entry
    carries no benefit and is compared as DC (System R semantics).
    """
    if order.is_none:
        return order
    for candidate in interesting:
        if candidate.order_property.covers(order):
            return order
    return OrderProperty.none()


class _MemoBuild:
    """State of one :meth:`Optimizer.build_memo` call: the query, its
    MEMO, and the interesting orders retained at each table subset,
    computed once per subset.  Local to the call, so one optimizer
    serves concurrent callers."""

    __slots__ = ("query", "memo", "rank_aware", "_interesting")

    def __init__(self, query, memo, rank_aware):
        self.query = query
        self.memo = memo
        self.rank_aware = rank_aware
        self._interesting = {}

    def interesting_at(self, tables):
        tables = frozenset(tables)
        orders = self._interesting.get(tables)
        if orders is None:
            orders = self._interesting[tables] = (
                interesting_orders_for_tables(
                    self.query, tables, rank_aware=self.rank_aware,
                ))
        return orders


class OptimizerConfig:
    """Feature switches for the enumerator (used by the ablations).

    Parameters
    ----------
    rank_aware:
        Master switch: track interesting order expressions and generate
        rank-join plans.  Off reproduces the traditional optimizer
        (Figures 2 / 3a).
    enable_hrjn / enable_nrjn:
        The paper's two rank-join implementations.
    enable_anyk:
        Enumerate an :class:`~repro.optimizer.plans.AnyKPlan` for every
        connected subset whose join predicates form a tree; it competes
        on cost with the binary rank-join trees.  Off by default: it
        extends the paper's operators rather than reproducing them.
    join_methods:
        Traditional join methods to enumerate, a subset of
        :data:`~repro.optimizer.plans.JOIN_METHODS`.
    eager_enforcement:
        Glue sorts to enforce interesting orders that no natural plan
        produces (the System R eager policy).
    respect_pipelining:
        Treat pipelining as a protected physical property
        (Section 3.3); off lets cheaper blocking plans prune pipelined
        ones.

    Every HRJN plan over hash-partitioned inputs also gets a
    :class:`~repro.optimizer.plans.ScoreMergePlan` alternative; with no
    partitioning registered there is none.  Sharding is turned off per
    execution, by ``Database.execute(parallel="off")``.

    A non-bool switch or an unknown join method raises
    :class:`~repro.common.errors.OptimizerError` here, not at the first
    query that would read it.
    """

    def __init__(self, rank_aware=True, enable_hrjn=True, enable_nrjn=True,
                 enable_anyk=False, join_methods=JOIN_METHODS,
                 eager_enforcement=True, respect_pipelining=True):
        switches = {
            "rank_aware": rank_aware, "enable_hrjn": enable_hrjn,
            "enable_nrjn": enable_nrjn, "enable_anyk": enable_anyk,
            "eager_enforcement": eager_enforcement,
            "respect_pipelining": respect_pipelining,
        }
        for name, value in switches.items():
            if not isinstance(value, bool):
                raise OptimizerError("%s must be a bool, got %r"
                                     % (name, value))
            setattr(self, name, value)
        self.join_methods = tuple(join_methods)
        unknown = [m for m in self.join_methods if m not in JOIN_METHODS]
        if unknown:
            raise OptimizerError("unknown join method(s) %r; expected %r"
                                 % (unknown, JOIN_METHODS))


class OptimizationResult:
    """Output of :meth:`Optimizer.optimize`."""

    def __init__(self, query, memo, best_plan, required_order):
        self.query = query
        self.memo = memo
        self.best_plan = best_plan
        self.required_order = required_order

    @property
    def k(self):
        """Rows the query asks of the chosen plan: its ``k``, else all."""
        if self.query.is_ranking:
            return self.query.k
        return max(1.0, self.best_plan.cardinality)

    def propagate_depths(self):
        """Algorithm ``Propagate`` over the chosen plan at :attr:`k`.

        The records of :meth:`~repro.optimizer.plans.Plan
        .propagate_depths` when the root is a rank join, serial or
        sharded; ``[]`` for any other root.
        """
        if not isinstance(self.best_plan, (RankJoinPlan, ScoreMergePlan)):
            return []
        return self.best_plan.propagate_depths(self.k)

    def explain(self):
        """Readable summary of the chosen plan."""
        k = self.query.k if self.query.is_ranking else None
        header = "best plan (k=%s): cost profile %s" % (
            k, self.best_plan.model.profile.name)
        return header + "\n" + self.best_plan.explain(k=k or 1)

    def __repr__(self):
        return "OptimizationResult(best=%r)" % (self.best_plan,)


class Optimizer:
    """Rank-aware System R optimizer.

    Parameters
    ----------
    catalog:
        :class:`~repro.storage.catalog.Catalog` with tables, indexes
        and statistics.
    cost_model:
        :class:`~repro.cost.model.CostModel`.
    config:
        Optional :class:`OptimizerConfig`.
    """

    def __init__(self, catalog, cost_model, config=None):
        self.catalog = catalog
        self.model = cost_model
        self.config = config or OptimizerConfig()

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def optimize(self, query, telemetry=None):
        """Enumerate, prune, and return an :class:`OptimizationResult`.

        With a :class:`~repro.observability.Telemetry`, enumeration
        decisions flow into its event log and metrics registry (see
        :class:`~repro.optimizer.memo.Memo`), and the resulting MEMO
        size is recorded as ``memo_entries`` / ``memo_order_classes``
        gauges.
        """
        memo = self.build_memo(query, telemetry=telemetry)
        if telemetry is not None:
            telemetry.metrics.gauge("memo_entries").set(len(memo.entries()))
            telemetry.metrics.gauge("memo_order_classes").set(
                memo.class_count())
        required_order = self._required_order(query)
        k = float(query.k) if query.is_ranking else None
        best = memo.best(query.tables, order=required_order, k=k)
        if best is None:
            # No plan satisfies the order naturally; this cannot happen
            # under eager enforcement, but guard for ablated configs.
            cheapest = memo.best(query.tables)
            if cheapest is None:
                raise OptimizerError("no plan found for %r" % (query,))
            best = SortPlan(self.model, cheapest, required_order)
        return OptimizationResult(query, memo, best, required_order)

    def fallback_plan(self, result):
        """Best blocking (non-rank-join) alternative for ``result``.

        The paper's ``k*`` crossover pits the pipelined rank-join plan
        against a blocking sort plan whose cost is flat in ``k``.  When
        a rank-join's actual depth overruns its estimate at run time,
        the guarded executor (:mod:`repro.robustness.recovery`) needs
        that alternative back: the cheapest retained root plan that is
        not rank-join based and delivers the required order -- or, when
        pruning removed them all, a sort glued over the cheapest
        non-rank-join plan (reconstructing what the System R eager
        policy would have kept).
        """
        query = result.query
        required = result.required_order
        retained = result.memo.entry(query.tables)

        def rank_free(plan):
            return not any(isinstance(node, (RankJoinPlan, AnyKPlan))
                           for node in _walk_plan(plan))

        candidates = [plan for plan in retained
                      if rank_free(plan) and plan.order.covers(required)]
        if candidates:
            return min(candidates, key=lambda p: p.total_cost())
        bases = [plan for plan in retained if rank_free(plan)]
        if not bases:
            raise OptimizerError(
                "no rank-join-free fallback plan retained for %r" % (query,)
            )
        cheapest = min(bases, key=lambda p: p.total_cost())
        if required.is_none:
            return cheapest
        return SortPlan(self.model, cheapest, required)

    def build_memo(self, query, telemetry=None):
        """Run the DP enumeration and return the populated MEMO."""
        k_min = query.k if query.is_ranking else 1
        build = _MemoBuild(query, Memo(k_min=k_min, telemetry=telemetry),
                           self.config.rank_aware)
        tables = sorted(query.tables)
        for table in tables:
            self._add_base_plans(build, table)
        for size in range(2, len(tables) + 1):
            for subset in combinations(tables, size):
                subset = frozenset(subset)
                if not query.is_connected(subset):
                    continue
                self._enumerate_subset(build, subset)
        return build.memo

    # ------------------------------------------------------------------
    # Required final order
    # ------------------------------------------------------------------
    def _required_order(self, query):
        if query.is_ranking:
            return OrderProperty(query.ranking)
        if query.order_by is not None:
            return OrderProperty.on(query.order_by)
        return OrderProperty.none()

    # ------------------------------------------------------------------
    # Base tables
    # ------------------------------------------------------------------
    def _add(self, build, plan):
        """Offer ``plan`` to the MEMO after projecting its properties.

        The projection is the only write into a plan after construction
        besides recovery's copies (see :mod:`repro.optimizer.plans`);
        nothing has costed the plan yet.
        """
        effective = _effective_order(build.interesting_at(plan.tables),
                                     plan.order)
        if effective.key() != plan.order.key():
            plan.order = effective
        if not self.config.respect_pipelining:
            plan.pipelined = False
        return build.memo.add(plan)

    def _filter_selectivity(self, query, table_name):
        """Combined selectivity of the table's selection predicates."""
        filters = query.filters_for(table_name)
        if not filters:
            return None, 1.0
        stats = self.catalog.stats(table_name)
        selectivity = 1.0
        for predicate in filters:
            selectivity *= predicate.selectivity(
                stats.column(predicate.column),
            )
        return filters, max(selectivity, 1e-9)

    def _with_filters(self, query, table_name, plan):
        """Wrap a base access plan with the table's selections."""
        filters, selectivity = self._filter_selectivity(query, table_name)
        if not filters:
            return plan
        return FilterPlan(self.model, plan, filters, selectivity)

    def _add_base_plans(self, build, table_name):
        query = build.query
        table = self.catalog.table(table_name)
        cardinality = self.catalog.stats(table_name).cardinality
        scan = self._with_filters(
            query, table_name,
            AccessPlan(self.model, table_name, cardinality),
        )
        self._add(build, scan)
        for interesting in build.interesting_at({table_name}):
            expression = interesting.expression
            if not expression.tables() <= {table_name}:
                continue
            order = OrderProperty(expression)
            index = self._find_index(table, expression)
            if index is not None:
                self._add(build, self._with_filters(
                    query, table_name,
                    AccessPlan(
                        self.model, table_name, cardinality, order=order,
                        index_name=index.name,
                    ),
                ))
            elif self.config.eager_enforcement:
                base = self._with_filters(
                    query, table_name,
                    AccessPlan(self.model, table_name, cardinality),
                )
                self._add(build, SortPlan(self.model, base, order))

    def _find_index(self, table, expression):
        """Find an index delivering descending order on ``expression``."""
        if expression.is_single_column():
            column = expression.columns()[0]
            index = table.find_index_on(column)
            if index is not None and index.descending:
                return index
            return None
        index = table.find_index_on(expression.description())
        if index is not None and index.descending:
            return index
        return None

    # ------------------------------------------------------------------
    # Joins
    # ------------------------------------------------------------------
    def _enumerate_subset(self, build, subset):
        query, memo = build.query, build.memo
        for left_tables, right_tables in self._splits(query, subset):
            predicates = query.predicates_between(left_tables, right_tables)
            if not predicates:
                continue
            self._join_choices(
                build, memo.entry(left_tables), memo.entry(right_tables),
                predicates, self._join_selectivity(predicates),
            )
        if (self.config.rank_aware and self.config.enable_anyk
                and query.is_ranking):
            self._anyk_choice(build, subset)
        if self.config.eager_enforcement:
            self._enforce_orders(build, subset)

    def _splits(self, query, subset):
        """Yield connected (L, R) splits; L gets the lexicographically
        first table so each unordered split appears once, and both
        orientations of each split are produced for join-order choice.
        """
        tables = sorted(subset)
        anchor = tables[0]
        rest = tables[1:]
        for size in range(0, len(rest)):
            for group in combinations(rest, size):
                left = frozenset((anchor,) + group)
                right = subset - left
                if not right:
                    continue
                if not query.is_connected(left):
                    continue
                if not query.is_connected(right):
                    continue
                yield left, right
                yield right, left

    def _join_selectivity(self, predicates):
        selectivity = 1.0
        for predicate in predicates:
            selectivity *= self.catalog.join_selectivity(
                predicate.left_table, predicate.left_column,
                predicate.right_table, predicate.right_column,
            )
        return selectivity

    def _join_choices(self, build, lefts, rights, predicates, selectivity):
        """Offer every join method over one split the inputs that can win.

        ``lefts`` / ``rights`` are the retained plans of the split's two
        sides.  Plans are offered in the order an exhaustive enumeration
        offers them -- pairs in MEMO order, methods in offer order -- but
        a method's plan is built only over the ``(left, right)`` pairs
        of :meth:`_join_inputs` / :meth:`_rank_join_inputs`: those that
        undercut every earlier pair of the method with the same output
        properties, judged by what its cost reads of the inputs -- less
        any ``hash`` / ``sort_merge`` pair a retained k-independent plan
        already undercuts (:func:`_holds_flat_plan_within`).  Any other
        pair would reach :meth:`Memo.add` after a plan covering its
        property vector at no higher cost at either abscissa, and be
        rejected on arrival: the MEMO, and the sequence of plans it
        accepts, are the exhaustive ones.
        """
        if not lefts or not rights:
            return
        full_costs = ([plan.cost(plan.cardinality) for plan in lefts],
                      [plan.cost(plan.cardinality) for plan in rights])
        inputs = self._join_inputs(lefts, rights, full_costs)
        ranked = None
        if self.config.rank_aware and build.query.is_ranking:
            ranked = self._rank_join_inputs(build, lefts, rights,
                                            full_costs[1], inputs)
        methods = list(inputs)
        memo = build.memo
        subset = lefts[0].tables | rights[0].tables
        for i, j, position in sorted(
                (i, j, position)
                for position, pairs in enumerate(inputs.values())
                for i, j in pairs):
            method, left, right = methods[position], lefts[i], rights[j]
            if method in ("hash", "sort_merge") and _holds_flat_plan_within(
                    memo, subset, full_costs[0][i] + full_costs[1][j]):
                continue
            if method in RANK_JOIN_OPERATORS:
                self._offer_rank_join(build, method, left, right,
                                      predicates, selectivity, ranked)
            else:
                self._add(build, JoinPlan(
                    self.model, method, left, right, predicates,
                    selectivity, order=(
                        left.order if method in ("nl", "inl")
                        else OrderProperty.none()),
                ))

    def _join_inputs(self, lefts, rights, full_costs):
        """``{method: [(left index, right index), ...]}``, traditional joins.

        A join's output is DC and blocking except for ``nl`` / ``inl``,
        which keep the left's order and pipelining.  Its cost reads the
        inputs' full-consumption costs (``full_costs``) and
        cardinalities, ``sort_merge`` also whether each is ordered, and
        ``inl`` only the inner's cardinality.  So ``hash`` pairs go by
        their summed cost, ``sort_merge`` ones too within each
        (ordered, ordered) class, ``nl`` pairs every left with the
        rights that undercut all earlier rights, and ``inl`` every left
        with the first access path on the right.
        """
        left_costs, right_costs = full_costs
        every_left = range(len(lefts))
        every_pair = [(i, j) for i in every_left
                      for j in range(len(rights))]

        def pair_cost(pair):
            return left_costs[pair[0]] + right_costs[pair[1]]

        inputs = {}
        for method in self.config.join_methods:
            if method == "hash":
                inputs[method] = _undercutting(every_pair, pair_cost)
            elif method == "sort_merge":
                inputs[method] = _undercutting(
                    every_pair, pair_cost,
                    group=lambda pair: (lefts[pair[0]].order.is_none,
                                        rights[pair[1]].order.is_none))
            elif method == "nl":
                cheaper = _undercutting(range(len(rights)),
                                        right_costs.__getitem__)
                inputs[method] = [(i, j) for i in every_left
                                  for j in cheaper]
            else:  # "inl"
                probed = [j for j, right in enumerate(rights)
                          if self._inl_eligible(right)][:1]
                inputs[method] = [(i, j) for i in every_left
                                  for j in probed]
        return inputs

    def _inl_eligible(self, right):
        """INL needs a single base table inner (probe-able)."""
        return isinstance(right, AccessPlan)

    def _rank_join_inputs(self, build, lefts, rights, right_costs, inputs):
        """Add the rank joins over one split to ``inputs``.

        Returns what every rank join over the split shares -- the
        ranking restricted to each side and their combination -- or
        ``None`` when no rank join applies.  HRJN reads ``cost(d)`` of
        both inputs and pipelines from both, so it pairs every sorted
        left with every sorted right.  NRJN reads the outer's
        ``cost(d)`` but only the inner's full-consumption cost
        (``right_costs``) and cardinality, and its leaf cardinalities (the
        model's ``n``): every sorted left meets the rights that undercut
        all earlier rights with the same leaves.
        """
        ranking = build.query.ranking
        left_expr = ranking.restrict(lefts[0].tables)
        right_expr = ranking.restrict(rights[0].tables)
        if left_expr is None or right_expr is None:
            # Rank-join needs score contributions on both sides
            # (f = f(f1(SL), f2(SR), f3(SO)) with non-empty SL, SR).
            return None
        left_order = OrderProperty(left_expr)
        sorted_lefts = [i for i, plan in enumerate(lefts)
                        if plan.order.covers(left_order)]
        if not sorted_lefts:
            return None
        right_order = OrderProperty(right_expr)
        sorted_rights = [j for j, plan in enumerate(rights)
                         if plan.order.covers(right_order)]
        if self.config.enable_hrjn:
            inputs["hrjn"] = [(i, j) for i in sorted_lefts
                              for j in sorted_rights]
        if self.config.enable_nrjn:
            # Left (sorted) as outer, right as the rescanned inner.
            inners = _undercutting(
                range(len(rights)), right_costs.__getitem__,
                group=lambda j: rights[j].leaf_logs)
            inputs["nrjn"] = [(i, j) for i in sorted_lefts for j in inners]
        return left_expr, right_expr, left_expr.combine(right_expr)

    def _offer_rank_join(self, build, operator, left, right, predicates,
                         selectivity, ranked):
        """Offer one rank join (and an HRJN's sharded alternative)."""
        left_expr, right_expr, combined = ranked
        plan = RankJoinPlan(
            self.model, operator, left, right, predicates, selectivity,
            left_expr, right_expr, combined,
        )
        self._add(build, plan)
        if operator == "hrjn":
            from repro.optimizer.parallel import parallel_alternative

            sharded = parallel_alternative(
                self.catalog, self.model, plan, mode="auto",
            )
            if sharded is not None:
                self._add(build, sharded)

    def _anyk_choice(self, build, subset):
        """Add the any-k DP alternative for an acyclic join subset.

        Eligibility: the ranking restricts onto the subset and the
        predicates *within* the subset form a tree over the relations
        (one edge per relation pair; multiple predicates between the
        same pair collapse into one composite-key edge).  The subset is
        already connected (the caller filtered), so ``|pairs| == |T|-1``
        is exactly acyclicity.  Each relation enters through its
        cheapest full-consumption single-table plan -- the DP reads
        everything, so sorted access buys nothing.
        """
        query, memo = build.query, build.memo
        ranking = query.ranking
        combined = ranking.restrict(subset)
        if combined is None:
            return
        predicates = query.predicates_within(subset)
        pairs = {}
        for predicate in predicates:
            pairs.setdefault(predicate.tables, []).append(predicate)
        if len(pairs) != len(subset) - 1:
            return
        tables = sorted(subset)
        adjacency = {table: [] for table in tables}
        for pair in pairs:
            first, second = sorted(pair)
            adjacency[first].append(second)
            adjacency[second].append(first)
        # Preorder walk rooted at the lexicographically first table;
        # deterministic, so re-optimizing reproduces the same plan.
        root = tables[0]
        order = []
        parent_of = {root: None}
        stack = [root]
        while stack:
            table = stack.pop()
            order.append(table)
            for neighbour in sorted(adjacency[table], reverse=True):
                if neighbour not in parent_of:
                    parent_of[neighbour] = table
                    stack.append(neighbour)
        position_of = {table: index for index, table in enumerate(order)}
        children = []
        edges = [None]
        for table in order:
            entry = memo.entry(frozenset((table,)))
            if not entry:
                return
            children.append(min(
                entry, key=lambda p: p.cost(max(1.0, p.cardinality)),
            ))
        for table in order[1:]:
            parent = parent_of[table]
            column_pairs = tuple(
                (predicate.column_for(table),
                 predicate.column_for(parent))
                for predicate in pairs[frozenset((table, parent))]
            )
            edges.append((position_of[parent], column_pairs))
        self._add(build, AnyKPlan(
            self.model, children, predicates, edges,
            self._join_selectivity(predicates), combined,
            [ranking.restrict((table,)) for table in order],
        ))

    def _enforce_orders(self, build, subset):
        memo = build.memo
        for interesting in build.interesting_at(subset):
            order = interesting.order_property
            existing = [p for p in memo.entry(subset)
                        if p.order.covers(order)]
            if existing:
                continue
            cheapest = memo.best(subset)
            if cheapest is None:
                continue
            self._add(build, SortPlan(self.model, cheapest, order))
