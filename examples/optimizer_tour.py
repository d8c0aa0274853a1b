"""A guided tour of the rank-aware optimizer internals.

Walks through the paper's Section 3 machinery on query Q2:

1. interesting order expressions (Table 1),
2. the MEMO with and without the rank-aware extension (Figures 2/3),
3. the k* crossover between the sort plan and the rank-join plan
   (Figure 6) and the MEMO's pruning decision table.

Run with::

    python examples/optimizer_tour.py
"""

import copy

from repro.cost.crossover import find_k_star
from repro.cost.model import CostModel
from repro.experiments.figures import two_way_plans
from repro.experiments.report import format_table
from repro.optimizer.enumerator import Optimizer, OptimizerConfig
from repro.optimizer.expressions import ScoreExpression
from repro.optimizer.interesting import collect_interesting_orders
from repro.optimizer.memo import Memo
from repro.optimizer.query import JoinPredicate, RankQuery
from repro.storage.catalog import Catalog
from repro.storage.index import SortedIndex
from repro.storage.table import Table
from repro.common.rng import make_rng


def build_catalog(rows=500, seed=3):
    rng = make_rng(seed)
    catalog = Catalog()
    for name in "ABC":
        table = Table.from_columns(name, [("c1", "float"), ("c2", "float")])
        for _ in range(rows):
            table.insert([
                float(rng.uniform(0, 1)), float(rng.integers(0, 25)),
            ])
        for column in ("c1", "c2"):
            table.create_index(SortedIndex(
                "%s_%s_idx" % (name, column), "%s.%s" % (name, column),
            ))
        catalog.register(table)
    catalog.analyze()
    return catalog


def q2():
    return RankQuery(
        tables="ABC",
        predicates=[JoinPredicate("A.c2", "B.c1"),
                    JoinPredicate("B.c2", "C.c2")],
        ranking=ScoreExpression({"A.c1": 0.3, "B.c1": 0.3, "C.c1": 0.3}),
        k=5,
    )


def main():
    catalog = build_catalog()
    model = CostModel()
    query = q2()

    # ------------------------------------------------------------------
    print("=== 1. Interesting order expressions (Table 1) ===")
    print(format_table(
        ["Interesting Order Expression", "Reason"],
        [[io.expression.description(), " and ".join(io.reasons)]
         for io in collect_interesting_orders(query)],
    ))

    # ------------------------------------------------------------------
    print("\n=== 2. MEMO: traditional vs rank-aware (Figures 2/3) ===")
    traditional = Optimizer(
        catalog, model, OptimizerConfig(rank_aware=False),
    ).build_memo(query)
    rank_aware = Optimizer(catalog, model).build_memo(query)
    print("traditional optimizer: %d plan classes"
          % (traditional.class_count(),))
    print("rank-aware optimizer:  %d plan classes"
          % (rank_aware.class_count(),))
    print("\nrank-aware MEMO contents:")
    print(rank_aware.describe())

    # ------------------------------------------------------------------
    print("\n=== 3. The winning plan ===")
    result = Optimizer(catalog, model).optimize(query)
    print(result.explain())

    # ------------------------------------------------------------------
    print("\n=== 4. The k* crossover (Figure 6) ===")
    n, s = 10000, 1e-3
    sort_plan, rank_plan = two_way_plans(n, s)
    k_star = find_k_star(rank_plan, sort_plan)
    print("for n=%d, s=%g: sort-plan cost = %.0f, k* = %s"
          % (n, s, sort_plan.cost(1), k_star))
    for k in (10, k_star, 10 * k_star):
        print("  rank-join plan cost(k=%-6d) = %10.1f"
              % (k, rank_plan.cost(k)))
    # The MEMO's dominance test is the pruning decision table: a plan
    # is pruned only by one that covers its properties and costs no
    # more at both k_min and n_a.
    for k_min, pipelined in ((10, True), (2 * k_star, False),
                             (2 * k_star, True)):
        rank = copy.copy(rank_plan)
        rank.pipelined = pipelined
        memo = Memo(k_min=k_min)
        memo.add(sort_plan)
        memo.add(rank)
        kept = [type(plan).__name__ for plan in memo.entry(rank.tables)]
        print("  k_min=%-6d pipelined=%-5s -> keeps %s"
              % (k_min, pipelined, " and ".join(kept)))


if __name__ == "__main__":
    main()
