"""The MEMO structure (Section 2.3).

One entry per enumerated table subset; each entry retains the cheapest
plan per *property class* (order property x pipelining), pruning via
the rank-aware dominance test:

Plan P1 prunes P2 iff P1's properties cover P2's **and** P1 costs no
more than P2 over the whole feasible range of ``k``.  With plan costs
monotone non-decreasing in ``k`` it suffices to compare at both ends
``k = k_min`` and ``k = n_a`` -- which realises the paper's three-case
``k*`` analysis:

* rank-join plan cheaper at both ends (``k* > n_a``): sort plan pruned;
* sort plan cheaper at both ends (``k* < k_min``): rank-join plan
  pruned unless it is pipelined (property protection);
* crossover inside the range: both survive.
"""

from repro.common.errors import OptimizerError
from repro.optimizer.properties import properties_cover

#: Tolerance when comparing plan costs.
_COST_EPSILON = 1e-9


class Memo:
    """MEMO: map from frozenset-of-tables to retained plans.

    With a :class:`~repro.observability.Telemetry` attached, every
    insert/prune decision is recorded: ``memo_insert`` /
    ``plan_pruned`` / ``pipelining_exemption`` events, and the
    ``optimizer_plans_generated`` / ``optimizer_plans_retained`` /
    ``optimizer_plans_pruned`` counters labelled by the plan's
    interesting order.  The enumerator does not build the joins this
    MEMO would reject on arrival (see :meth:`~repro.optimizer.enumerator
    .Optimizer._join_choices`), so ``optimizer_plans_generated`` counts
    only the plans that survive that input selection, and a skipped
    candidate emits no ``plan_pruned`` / ``pipelining_exemption`` event.
    """

    def __init__(self, k_min=1, telemetry=None):
        if k_min < 1:
            raise OptimizerError("k_min must be >= 1, got %r" % (k_min,))
        self.k_min = float(k_min)
        self.telemetry = telemetry
        self._entries = {}

    # ------------------------------------------------------------------
    def entry(self, tables):
        """Return (possibly empty) list of retained plans for ``tables``."""
        return list(self._entries.get(frozenset(tables), ()))

    def entries(self):
        """Return ``{tables: [plans]}`` (shallow copy)."""
        return {tables: list(plans)
                for tables, plans in self._entries.items()}

    def __contains__(self, tables):
        return frozenset(tables) in self._entries

    # ------------------------------------------------------------------
    def _no_costlier(self, plan_a, plan_b):
        """``plan_a`` costs no more than ``plan_b`` over the k range."""
        k_low = self.k_min
        k_high = max(k_low, plan_b.cardinality)
        if plan_a.cost(k_low) > plan_b.cost(k_low) + _COST_EPSILON:
            return False
        if plan_a.cost(k_high) > plan_b.cost(k_high) + _COST_EPSILON:
            return False
        return True

    def _dominates(self, plan_a, plan_b, note_exemption=False):
        """True when ``plan_a`` makes ``plan_b`` redundant."""
        if not properties_cover(plan_a.order, plan_a.pipelined,
                                plan_b.order, plan_b.pipelined):
            # Telemetry: surface the Section 3.3 property protection --
            # plan_b survives a no-costlier covering plan only because
            # it is pipelined and plan_a is not.
            if (note_exemption and self.telemetry is not None
                    and plan_b.pipelined and not plan_a.pipelined
                    and plan_a.order.covers(plan_b.order)
                    and self._no_costlier(plan_a, plan_b)):
                self.telemetry.events.emit(
                    "pipelining_exemption",
                    kept=plan_b.describe(),
                    against=plan_a.describe(),
                    tables=",".join(sorted(plan_b.tables)),
                )
            return False
        return self._no_costlier(plan_a, plan_b)

    def _note_pruned(self, plan, by):
        telemetry = self.telemetry
        if telemetry is None:
            return
        telemetry.events.emit(
            "plan_pruned", plan=plan.describe(), by=by.describe(),
            tables=",".join(sorted(plan.tables)),
        )
        telemetry.metrics.counter("optimizer_plans_pruned").inc(
            order=plan.order.describe())

    def add(self, plan):
        """Insert ``plan``, pruning dominated plans; returns True if kept."""
        key = frozenset(plan.tables)
        plans = self._entries.setdefault(key, [])
        telemetry = self.telemetry
        if telemetry is not None:
            telemetry.metrics.counter("optimizer_plans_generated").inc(
                order=plan.order.describe())
        for existing in plans:
            if self._dominates(existing, plan, note_exemption=True):
                self._note_pruned(plan, by=existing)
                return False
        survivors = []
        for existing in plans:
            if self._dominates(plan, existing):
                self._note_pruned(existing, by=plan)
            else:
                survivors.append(existing)
        survivors.append(plan)
        plans[:] = survivors
        if telemetry is not None:
            telemetry.events.emit(
                "memo_insert", plan=plan.describe(),
                order=plan.order.describe(), pipelined=plan.pipelined,
                tables=",".join(sorted(plan.tables)),
            )
            telemetry.metrics.counter("optimizer_plans_retained").inc(
                order=plan.order.describe())
        return True

    # ------------------------------------------------------------------
    def best(self, tables, order=None, k=None):
        """Cheapest retained plan for ``tables``.

        ``order`` restricts to plans covering that order property;
        ``k`` (default ``k_min``) selects the comparison point.
        """
        plans = self.entry(tables)
        if order is not None:
            plans = [p for p in plans if p.order.covers(order)]
        if not plans:
            return None
        at_k = self.k_min if k is None else float(k)
        return min(plans, key=lambda p: p.cost(at_k))

    def class_count(self, tables=None):
        """Number of retained order-property classes.

        This is the paper's "Number of Plans" in Figures 2 and 3 (one
        oval per order class per MEMO entry).  Without ``tables``,
        counts across all entries.
        """
        if tables is not None:
            plans = self.entry(tables)
            return len({p.order.key() for p in plans})
        return sum(self.class_count(tables) for tables in self._entries)

    def describe(self):
        """Return the MEMO as a readable multi-line string."""
        lines = []
        for tables in sorted(self._entries, key=lambda t: (len(t), sorted(t))):
            lines.append(",".join(sorted(tables)) + ":")
            for plan in self._entries[tables]:
                lines.append(
                    "  order=%-40s pipelined=%-5s cost(k_min)=%.1f"
                    % (plan.order.describe(), plan.pipelined,
                       plan.cost(self.k_min))
                )
        return "\n".join(lines)

    def __repr__(self):
        return "Memo(%d entries, %d classes)" % (
            len(self._entries), self.class_count(),
        )
