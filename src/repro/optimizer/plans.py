"""Optimizer plan nodes.

These mirror physical operators but live inside the optimizer: they
carry estimated cardinality, physical properties, and -- the paper's
point -- a cost that may *depend on k*, the number of ranked results
the plan will be asked for.

``plan.cost(k)`` returns the estimated cost of pulling ``k`` rows:

* blocking plans (sort plans, traditional join plans) return their
  total cost regardless of ``k`` ("Cost_a(k) = TotalCost_a");
* access paths scale with the consumed prefix;
* rank-join plans estimate their input depths ``dL(k), dR(k)`` via the
  Section 4 model and recursively charge their children for exactly
  those depths -- this recursion *is* Algorithm ``Propagate``, and
  ``plan.propagate_depths(k)`` reports it: every node with the depth
  its parent's cost charges it (``Plan.charged_depths``).

Plans are immutable once built, so every node memoises ``cost(k)`` per
distinct ``k`` (subclasses implement ``_cost``).  Children are shared
across the parents the enumerator builds over them, which memoises the
``Propagate`` recursion bottom-up.  The only writes after construction
are the enumerator's order/pipelining projection before a plan enters
the MEMO (nothing has costed it yet) and a guarded run's selectivity
correction, which goes into a copy: ``copy.copy`` of a plan starts with
an empty memo.
"""

import math

from repro.common.errors import OptimizerError
from repro.optimizer.properties import OrderProperty

#: Traditional join methods known to the enumerator.
JOIN_METHODS = ("hash", "nl", "inl", "sort_merge")

#: Rank-join operators known to the enumerator.
RANK_JOIN_OPERATORS = ("hrjn", "nrjn")

#: Depth estimates a :class:`RankJoinPlan` costs with: the average case
#: (what the optimizer plans with) and the worst-case bounds of
#: Equations 2-5 (the experiments harness).
ESTIMATION_MODES = ("average", "worst")


class Plan:
    """Base optimizer plan node."""

    def __init__(self, tables, children, order, pipelined, cardinality,
                 leaf_count):
        self.tables = frozenset(tables)
        self.children = tuple(children)
        self.order = order
        self.pipelined = pipelined
        self.cardinality = float(cardinality)
        self.leaf_count = leaf_count
        #: ``log(max(1, cardinality))`` of every leaf below, left to
        #: right (a rank join's mean leaf cardinality is built from it).
        if self.children:
            self.leaf_logs = tuple(log for child in self.children
                                   for log in child.leaf_logs)
        else:
            self.leaf_logs = (math.log(max(1.0, self.cardinality)),)
        self._costs = {}

    def __copy__(self):
        """A shallow copy with an empty cost memo (see the module doc)."""
        clone = object.__new__(type(self))
        clone.__dict__.update(self.__dict__)
        clone._costs = {}
        return clone

    # ------------------------------------------------------------------
    def cost(self, k):
        """Estimated cost of pulling ``min(k, cardinality)`` rows."""
        costs = self._costs
        value = costs.get(k)
        if value is None:
            value = costs[k] = self._cost(k)
        return value

    def _cost(self, k):
        raise NotImplementedError

    def charged_depths(self, k):
        """``(estimate, depths)`` behind ``cost(k)``.

        ``depths`` holds, per child, the ``k`` this node's cost charges
        that child for; ``estimate`` is the node's
        :class:`~repro.estimation.depths.DepthEstimate` (``None`` for
        all but rank joins).  By default every child is consumed in
        full.
        """
        return None, tuple(child.cardinality for child in self.children)

    def propagate_depths(self, k):
        """Algorithm ``Propagate`` (Figure 8): the depth each node is
        asked for when this plan must deliver ``k`` rows.

        Returns ``[(plan, required_k, DepthEstimate-or-None), ...]`` in
        pre-order.  The root is asked for ``k`` clamped to
        ``[1, cardinality]``; every child for exactly the depth its
        parent's ``cost`` charges it (:meth:`charged_depths`), so a rank
        join's child is asked for the parent's estimated input depth
        (the Figure 4 example: ``k=100 -> dL=580 -> d=783``).
        """
        results = []

        def visit(plan, required):
            estimate, depths = plan.charged_depths(required)
            results.append((plan, required, estimate))
            for child, depth in zip(plan.children, depths):
                visit(child, depth)

        visit(self, min(max(1.0, k), max(1.0, self.cardinality)))
        return results

    def total_cost(self):
        """Cost of consuming the plan completely."""
        return self.cost(max(1.0, self.cardinality))

    @property
    def k_dependent(self):
        """True when ``cost`` genuinely varies with ``k``."""
        return any(child.k_dependent for child in self.children)

    # ------------------------------------------------------------------
    def describe(self):
        raise NotImplementedError

    def explain(self, indent=0, k=None):
        """Multi-line plan tree; with ``k`` includes per-node costs."""
        label = self.describe()
        if k is not None:
            label += "  [cost(k=%g)=%.1f, card=%.0f, order=%s%s]" % (
                k, self.cost(k), self.cardinality, self.order.describe(),
                ", pipelined" if self.pipelined else "",
            )
        lines = ["%s%s" % ("  " * indent, label)]
        for child in self.children:
            lines.append(child.explain(indent + 1, k=None))
        return "\n".join(lines)

    def __repr__(self):
        return "<%s on %s order=%s>" % (
            type(self).__name__, "".join(sorted(self.tables)),
            self.order.describe(),
        )


class AccessPlan(Plan):
    """Base-table access: heap scan (DC) or sorted index scan.

    Parameters
    ----------
    model:
        The :class:`~repro.cost.model.CostModel`.
    table_name / cardinality:
        The relation and its row count.
    order:
        ``OrderProperty.none()`` for a heap scan, or the descending
        order the index delivers.
    index_name:
        Name of the delivering index (``None`` for a heap scan).
    """

    def __init__(self, model, table_name, cardinality, order=None,
                 index_name=None):
        order = order or OrderProperty.none()
        if not order.is_none and index_name is None:
            raise OptimizerError(
                "ordered access on %s requires an index" % (table_name,)
            )
        super().__init__(
            tables=(table_name,), children=(), order=order,
            pipelined=True, cardinality=cardinality, leaf_count=1,
        )
        self.model = model
        self.table_name = table_name
        self.index_name = index_name

    @property
    def k_dependent(self):
        # Access cost scales with how deep the consumer reads.
        return True

    def _cost(self, k):
        depth = min(max(0.0, k), self.cardinality)
        if self.index_name is None:
            return self.model.table_scan_cost(depth)
        return self.model.index_sorted_access_cost(depth)

    def describe(self):
        if self.index_name is None:
            return "TableScan(%s)" % (self.table_name,)
        return "IndexScan(%s via %s on %s)" % (
            self.table_name, self.index_name, self.order.describe(),
        )


class FilterPlan(Plan):
    """A selection applied on top of a child plan.

    Order-preserving and pipelined (inherits both from the child).  To
    deliver ``k`` rows it must pull ``k / selectivity`` rows from the
    child -- which is exactly how a selection under a rank-join thins
    the ranked stream and deepens the required depth.
    """

    def __init__(self, model, child, predicates, selectivity):
        if not predicates:
            raise OptimizerError("FilterPlan needs at least one predicate")
        if not 0.0 < selectivity <= 1.0:
            raise OptimizerError(
                "filter selectivity must be in (0, 1], got %r"
                % (selectivity,)
            )
        super().__init__(
            tables=child.tables, children=(child,), order=child.order,
            pipelined=child.pipelined,
            cardinality=selectivity * child.cardinality,
            leaf_count=child.leaf_count,
        )
        self.model = model
        self.predicates = tuple(predicates)
        self.selectivity = selectivity

    @property
    def k_dependent(self):
        return self.children[0].k_dependent

    def charged_depths(self, k):
        child = self.children[0]
        return None, (min(child.cardinality,
                          max(1.0, k) / self.selectivity),)

    def _cost(self, k):
        (needed,) = self.charged_depths(k)[1]
        return self.children[0].cost(needed) + self.model.cpu(needed)

    def describe(self):
        return "Filter(%s)" % (
            " and ".join(p.describe() for p in self.predicates),
        )


class SortPlan(Plan):
    """Glued sort enforcing an order on a child plan (blocking)."""

    def __init__(self, model, child, order):
        if order.is_none:
            raise OptimizerError("SortPlan needs a concrete order")
        super().__init__(
            tables=child.tables, children=(child,), order=order,
            pipelined=False, cardinality=child.cardinality,
            leaf_count=child.leaf_count,
        )
        self.model = model

    @property
    def k_dependent(self):
        return False

    def cost(self, k):
        # The same total for every k: one memo entry.
        return super().cost(None)

    def _cost(self, k):
        child = self.children[0]
        return (child.cost(child.cardinality)
                + self.model.external_sort_cost(child.cardinality))

    def describe(self):
        return "Sort(%s)" % (self.order.describe(),)


class JoinPlan(Plan):
    """Traditional binary join plan.

    Order/pipelining per method:

    * ``hash``  -- DC, blocking-ish (build side blocks first output);
    * ``nl`` / ``inl`` -- preserve the outer (left) order, pipelined;
    * ``sort_merge`` -- blocking, and the enumerator gives it DC: its
      output is sorted on the join column, but order inference through
      joins is out of scope, as in the paper (the enumerator's input
      pruning relies on sort-merge joins claiming no order).

    Cost is charged at full consumption: traditional joins gain little
    from early termination compared to rank-joins, and the paper costs
    the competing sort plan as blocking anyway.
    """

    _PIPELINED = {"hash": False, "nl": True, "inl": True,
                  "sort_merge": False}

    def __init__(self, model, method, left, right, predicates,
                 selectivity, order=None):
        if method not in JOIN_METHODS:
            raise OptimizerError("unknown join method %r" % (method,))
        if not predicates:
            raise OptimizerError("JoinPlan needs at least one predicate")
        order = order or OrderProperty.none()
        cardinality = selectivity * left.cardinality * right.cardinality
        pipelined = (self._PIPELINED[method] and left.pipelined)
        super().__init__(
            tables=left.tables | right.tables, children=(left, right),
            order=order, pipelined=pipelined, cardinality=cardinality,
            leaf_count=left.leaf_count + right.leaf_count,
        )
        self.model = model
        self.method = method
        self.predicates = tuple(predicates)
        self.selectivity = selectivity

    @property
    def k_dependent(self):
        return False

    def cost(self, k):
        # Charged at full consumption for every k: one memo entry.
        return super().cost(None)

    def _cost(self, k):
        left, right = self.children
        left_cost = left.cost(left.cardinality)
        right_cost = right.cost(right.cardinality)
        if self.method == "hash":
            method_cost = self.model.hash_join_cost(
                left.cardinality, right.cardinality,
            )
        elif self.method == "inl":
            # Inner accessed through its index: no inner scan charged.
            right_cost = 0.0
            method_cost = self.model.index_nl_join_cost(
                left.cardinality, right.cardinality, self.selectivity,
            )
        elif self.method == "nl":
            method_cost = self.model.nl_join_cost(
                left.cardinality, right.cardinality,
            )
        else:  # sort_merge
            method_cost = self.model.sort_merge_join_cost(
                left.cardinality, right.cardinality,
                left_sorted=not left.order.is_none,
                right_sorted=not right.order.is_none,
            )
        return left_cost + right_cost + method_cost

    def describe(self):
        return "%sJoin(%s)" % (
            self.method.upper(),
            " and ".join("%s=%s" % (p.left_column, p.right_column)
                         for p in self.predicates),
        )


class RankJoinPlan(Plan):
    """A rank-join (HRJN or NRJN) plan node.

    ``left_expression`` / ``right_expression`` are the score
    expressions the children are ordered on (``S_L`` / ``S_R``);
    ``combined_expression`` is their sum -- the order this plan
    produces.

    ``cost(k)`` estimates the depths via the Section 4 closed forms
    (``l`` and ``r`` are the children's *ranked leaf counts*), average
    case unless ``estimation_mode`` is ``"worst"``, and
    recursively charges each child for its depth, which implements the
    ``Propagate`` recursion across a rank-join pipeline.
    """

    def __init__(self, model, operator, left, right, predicates,
                 selectivity, left_expression, right_expression,
                 combined_expression, estimation_mode="average"):
        if operator not in RANK_JOIN_OPERATORS:
            raise OptimizerError("unknown rank-join %r" % (operator,))
        if estimation_mode not in ESTIMATION_MODES:
            raise OptimizerError("estimation_mode must be one of %r, got %r"
                                 % (ESTIMATION_MODES, estimation_mode))
        if not predicates:
            raise OptimizerError("RankJoinPlan needs a predicate")
        cardinality = selectivity * left.cardinality * right.cardinality
        # HRJN is non-blocking; NRJN blocks on the inner only.  The
        # plan is pipelined when the ranked inputs it streams from are.
        if operator == "hrjn":
            pipelined = left.pipelined and right.pipelined
        else:
            pipelined = left.pipelined
        super().__init__(
            tables=left.tables | right.tables, children=(left, right),
            order=OrderProperty(combined_expression), pipelined=pipelined,
            cardinality=cardinality,
            leaf_count=left.leaf_count + right.leaf_count,
        )
        self.model = model
        self.operator = operator
        self.predicates = tuple(predicates)
        self.selectivity = selectivity
        self.left_expression = left_expression
        self.right_expression = right_expression
        self.combined_expression = combined_expression
        self.estimation_mode = estimation_mode
        #: Geometric mean of the leaf cardinalities: the model's ``n``.
        self.mean_leaf_cardinality = math.exp(
            sum(self.leaf_logs) / len(self.leaf_logs))

    @property
    def k_dependent(self):
        return True

    def depth_estimate(self, k):
        """Estimated :class:`~repro.estimation.depths.DepthEstimate`."""
        from repro.estimation.depths import (
            top_k_depths_average_streams,
            top_k_depths_streams,
        )

        left, right = self.children
        k = min(max(1.0, k), max(1.0, self.cardinality))
        n = self.mean_leaf_cardinality
        l = left.leaf_count
        r = right.leaf_count
        m_left = max(1.0, left.cardinality)
        m_right = max(1.0, right.cardinality)
        if self.estimation_mode == "worst":
            estimate = top_k_depths_streams(
                k, self.selectivity, n, l=l, r=r,
                m_left=m_left, m_right=m_right,
            )
        else:
            estimate = top_k_depths_average_streams(
                k, self.selectivity, n, l=l, r=r,
                m_left=m_left, m_right=m_right,
            )
        return estimate.clamp(
            max_left=left.cardinality, max_right=right.cardinality,
        )

    def charged_depths(self, k):
        estimate = self.depth_estimate(k)
        if self.operator == "nrjn":
            # NRJN consumes the inner fully regardless of k.
            return estimate, (estimate.d_left, self.children[1].cardinality)
        return estimate, (estimate.d_left, estimate.d_right)

    def _cost(self, k):
        left, right = self.children
        d_left, d_right = self.charged_depths(k)[1]
        if self.operator == "hrjn":
            return (left.cost(d_left) + right.cost(d_right)
                    + self.model.hrjn_cost(d_left, d_right,
                                           self.selectivity))
        # NRJN: d_right is the inner's full cardinality.
        return (left.cost(d_left) + right.cost(d_right)
                + self.model.nrjn_cost(d_left, d_right, self.selectivity))

    def describe(self):
        return "%s(%s; %s + %s -> %s)" % (
            self.operator.upper(),
            " and ".join("%s=%s" % (p.left_column, p.right_column)
                         for p in self.predicates),
            self.left_expression.description(),
            self.right_expression.description(),
            self.combined_expression.description(),
        )


class AnyKPlan(Plan):
    """Any-k ranked enumeration over an acyclic join subgraph.

    ``children`` are per-relation plans in *preorder* of the join tree
    (``children[0]`` is the root relation); ``edges[j]`` names the
    equi-join edge hanging node ``j`` under its parent:
    ``(parent_index, ((child_column, parent_column), ...))`` with one
    column pair per predicate between the two relations (``edges[0]``
    is ``None``).  ``node_expressions`` holds the ranking restricted to
    each node's relation (``None`` for relations without score terms)
    and ``combined_expression`` the restriction to the whole subset --
    the order this plan produces.

    The plan is blocking (the DP consumes every input before the first
    answer), so under pipelining protection it never prunes a
    pipelined HRJN tree; the two compete purely on ``cost(k)``.  Cost
    is the children at full consumption, a near-linear preprocessing
    term, and ``O(log k)`` per answer -- flat where HRJN's depth-based
    cost climbs with ``k``, which is exactly the crossover the
    optimizer exploits.
    """

    def __init__(self, model, children, predicates, edges, selectivity,
                 combined_expression, node_expressions):
        children = tuple(children)
        if len(children) < 2:
            raise OptimizerError("AnyKPlan needs at least two relations")
        edges = tuple(edges)
        if len(edges) != len(children) or edges[0] is not None:
            raise OptimizerError(
                "AnyKPlan edges must align with children (root edge None)"
            )
        for position, edge in enumerate(edges[1:], start=1):
            parent, pairs = edge
            if not (0 <= parent < position) or not pairs:
                raise OptimizerError(
                    "AnyKPlan children must be in join-tree preorder"
                )
        if not predicates:
            raise OptimizerError("AnyKPlan needs join predicates")
        cardinality = selectivity
        tables = frozenset()
        for child in children:
            cardinality *= child.cardinality
            tables |= child.tables
        super().__init__(
            tables=tables, children=children,
            order=OrderProperty(combined_expression), pipelined=False,
            cardinality=cardinality,
            leaf_count=sum(child.leaf_count for child in children),
        )
        self.model = model
        self.predicates = tuple(predicates)
        self.edges = edges
        self.selectivity = selectivity
        self.combined_expression = combined_expression
        self.node_expressions = tuple(node_expressions)

    @property
    def k_dependent(self):
        return True

    def _cost(self, k):
        input_cost = sum(child.cost(child.cardinality)
                         for child in self.children)
        tuples = sum(child.cardinality for child in self.children)
        k = min(max(1.0, k), max(1.0, self.cardinality))
        return (input_cost
                + self.model.anyk_preprocess_cost(tuples)
                + self.model.anyk_enumerate_cost(k, len(self.children)))

    def describe(self):
        return "AnyK(%s -> %s)" % (
            " and ".join("%s=%s" % (p.left_column, p.right_column)
                         for p in self.predicates),
            self.combined_expression.description(),
        )


class ShardAccessPlan(AccessPlan):
    """Access to one shard of a hash/round-robin partitioned table.

    ``table_name`` is the shard's catalog *alias* (``A__c2_h0``) --
    what the builder resolves -- while :attr:`tables` reports the
    logical base table so join predicates and MEMO bookkeeping keep
    speaking the query's language.
    """

    def __init__(self, model, shard_name, cardinality, base_table,
                 shard_index, shard_count, order=None, index_name=None):
        super().__init__(model, shard_name, cardinality, order=order,
                         index_name=index_name)
        self.base_table = base_table
        self.shard_index = shard_index
        self.shard_count = shard_count
        # Logical identity: the shard contributes the base table's rows.
        self.tables = frozenset((base_table,))

    def describe(self):
        access = ("heap" if self.index_name is None
                  else "%s on %s" % (self.index_name,
                                     self.order.describe()))
        return "ShardedScan(%s shard %d/%d via %s)" % (
            self.base_table, self.shard_index, self.shard_count, access,
        )


class ScoreMergePlan(Plan):
    """Parallel rank-join alternative: merge of per-shard rank-joins.

    ``children`` are ``p`` independent :class:`RankJoinPlan` instances,
    one per co-partitioned shard pair, each producing the combined
    score order over its shard; this node merges them back into the
    global ranked stream (see
    :class:`~repro.operators.merge.ScoreMerge`).

    ``mode`` picks the execution vehicle: ``"inline"`` runs the shard
    pipelines serially in-process, ``"pool"`` ships them to a
    :class:`~repro.executor.shard_pool.ShardPool` worker each, and
    ``"auto"`` lets :meth:`resolved_mode` choose by cost.  ``cost(k)``
    is the cheaper of the two vehicles, so the MEMO's dominance test
    pits this plan against its serial ``source`` and the ``k*``-style
    crossover decides serial vs parallel per query.
    """

    #: Budget slack: shards get proportional shares of k scaled up a
    #: little, since contribution skew means no shard's share is exact.
    BUDGET_SLACK = 1.2

    def __init__(self, model, children, combined_expression, source,
                 mode="auto", pool_supported=True):
        children = tuple(children)
        if not children:
            raise OptimizerError("ScoreMergePlan needs shard children")
        if mode not in ("auto", "inline", "pool"):
            raise OptimizerError("unknown parallel mode %r" % (mode,))
        cardinality = sum(child.cardinality for child in children)
        super().__init__(
            tables=source.tables, children=children,
            order=OrderProperty(combined_expression),
            pipelined=all(child.pipelined for child in children),
            cardinality=cardinality, leaf_count=source.leaf_count,
        )
        self.model = model
        self.combined_expression = combined_expression
        #: The serial RankJoinPlan this node parallelises; forcing
        #: ``parallel="off"`` swaps it back in.
        self.source = source
        self.mode = mode
        self.pool_supported = pool_supported

    @property
    def k_dependent(self):
        return True

    @property
    def shard_count(self):
        return len(self.children)

    def with_mode(self, mode):
        """Return this plan with a different parallel mode forced."""
        if mode == self.mode:
            return self
        return ScoreMergePlan(
            self.model, self.children, self.combined_expression,
            self.source, mode=mode, pool_supported=self.pool_supported,
        )

    # ------------------------------------------------------------------
    def child_budgets(self, k):
        """Distribute ``k`` across shards via the selectivity model.

        Each shard's expected contribution to the global top-k is
        proportional to its estimated output cardinality; shares are
        scaled by :attr:`BUDGET_SLACK` and clamped to the shard's
        output size.  These budgets drive per-shard cost charging,
        ``propagate_depths`` and the pool workers' first batch size --
        correctness never depends on them (the merge refills shards on
        demand).
        """
        k = min(max(1.0, k), max(1.0, self.cardinality))
        total = sum(max(1.0, child.cardinality) for child in self.children)
        budgets = []
        for child in self.children:
            share = max(1.0, child.cardinality) / total
            budget = math.ceil(k * share * self.BUDGET_SLACK)
            budgets.append(min(max(1.0, float(budget)),
                               max(1.0, child.cardinality)))
        return budgets

    def inline_cost(self, k):
        """Shards run serially in-process: costs add up."""
        budgets = self.child_budgets(k)
        shard_cost = sum(child.cost(budget)
                         for child, budget in zip(self.children, budgets))
        return (shard_cost
                + self.model.score_merge_cost(k, self.shard_count)
                + self.shard_count
                * self.model.shard_startup_cost("inline"))

    def pool_cost(self, k):
        """Shards run concurrently: the slowest shard gates the merge."""
        budgets = self.child_budgets(k)
        shard_cost = max(child.cost(budget)
                         for child, budget in zip(self.children, budgets))
        return (shard_cost
                + self.model.score_merge_cost(k, self.shard_count)
                + self.shard_count
                * self.model.shard_startup_cost("pool"))

    def resolved_mode(self, k):
        """The execution vehicle this plan will actually use for ``k``."""
        if self.mode == "inline":
            return "inline"
        if self.mode == "pool":
            return "pool" if self.pool_supported else "inline"
        if not self.pool_supported:
            return "inline"
        return ("pool" if self.pool_cost(k) < self.inline_cost(k)
                else "inline")

    def _cost(self, k):
        if self.mode == "inline":
            return self.inline_cost(k)
        if self.mode == "pool" and self.pool_supported:
            return self.pool_cost(k)
        if self.pool_supported:
            return min(self.inline_cost(k), self.pool_cost(k))
        return self.inline_cost(k)

    def charged_depths(self, k):
        # Both vehicles charge each shard at its budget.
        return None, self.child_budgets(k)

    def describe(self):
        return "ScoreMerge[%s](p=%d -> %s)" % (
            self.mode, self.shard_count,
            self.combined_expression.description(),
        )
