"""The exhaustive join enumeration, kept as the differential oracle.

``_enumerate_subset``, ``_join_choices`` and ``_rank_join_choices`` as
they stood before the enumerator offered each join method only the
inputs that can win: every connected split offers every ``(left,
right)`` pair of retained plans to every eligible method, and leaves
the pruning entirely to ``Memo.add``.  Only the form changed: the
methods moved onto an :class:`~repro.optimizer.enumerator.Optimizer`
subclass.  ``tests/test_enumeration_pruning.py`` requires the shipped
enumerator to reproduce this one's MEMO, best plan and ``memo_insert``
event stream exactly.
"""

from repro.optimizer.enumerator import Optimizer
from repro.optimizer.parallel import parallel_alternative
from repro.optimizer.plans import JoinPlan, RankJoinPlan
from repro.optimizer.properties import OrderProperty


class ExhaustiveOptimizer(Optimizer):
    """An optimizer that offers every ``(left, right, method)``."""

    def _enumerate_subset(self, build, subset):
        query, memo = build.query, build.memo
        for left_tables, right_tables in self._splits(query, subset):
            predicates = query.predicates_between(left_tables, right_tables)
            if not predicates:
                continue
            selectivity = self._join_selectivity(predicates)
            left_plans = memo.entry(left_tables)
            right_plans = memo.entry(right_tables)
            for left in left_plans:
                for right in right_plans:
                    self._join_choices(
                        build, left, right, predicates, selectivity,
                    )
        if (self.config.rank_aware and self.config.enable_anyk
                and query.is_ranking):
            self._anyk_choice(build, subset)
        if self.config.eager_enforcement:
            self._enforce_orders(build, subset)

    def _join_choices(self, build, left, right, predicates, selectivity):
        for method in self.config.join_methods:
            order = OrderProperty.none()
            if method in ("nl", "inl"):
                order = left.order
            elif method == "sort_merge":
                order = OrderProperty.none()
            if method == "inl" and not self._inl_eligible(right):
                continue
            self._add(build, JoinPlan(
                self.model, method, left, right, predicates, selectivity,
                order=order,
            ))
        if self.config.rank_aware and build.query.is_ranking:
            self._rank_join_choices(
                build, left, right, predicates, selectivity,
            )

    def _rank_join_choices(self, build, left, right, predicates,
                           selectivity):
        ranking = build.query.ranking
        left_expr = ranking.restrict(left.tables)
        right_expr = ranking.restrict(right.tables)
        if left_expr is None or right_expr is None:
            # Rank-join needs score contributions on both sides
            # (f = f(f1(SL), f2(SR), f3(SO)) with non-empty SL, SR).
            return
        combined = left_expr.combine(right_expr)
        left_sorted = left.order.covers(OrderProperty(left_expr))
        right_sorted = right.order.covers(OrderProperty(right_expr))
        if self.config.enable_hrjn and left_sorted and right_sorted:
            hrjn = RankJoinPlan(
                self.model, "hrjn", left, right, predicates, selectivity,
                left_expr, right_expr, combined,
            )
            self._add(build, hrjn)
            sharded = parallel_alternative(
                self.catalog, self.model, hrjn, mode="auto",
            )
            if sharded is not None:
                self._add(build, sharded)
        if self.config.enable_nrjn and left_sorted:
            # Left (sorted) as outer, right as the rescanned inner.
            self._add(build, RankJoinPlan(
                self.model, "nrjn", left, right, predicates, selectivity,
                left_expr, right_expr, combined,
            ))
