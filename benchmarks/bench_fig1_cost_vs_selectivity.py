"""Figure 1: estimated I/O cost of the two ranking plans vs selectivity.

Paper's claim: for low join selectivity the traditional join-then-sort
plan is cheaper; for higher selectivity the rank-join plan wins.  Both
plans are the optimizer's own plan nodes, costed by ``plan.cost(k)``.
"""

from repro.experiments.figures import two_way_plans
from repro.experiments.report import format_table

from benchmarks.conftest import emit

CARDINALITY = 10000
K = 100
SELECTIVITIES = (1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1)


def run_figure1():
    rows = []
    for selectivity in SELECTIVITIES:
        sort_plan, rank_plan = two_way_plans(CARDINALITY, selectivity)
        sort_cost, rank_cost = sort_plan.cost(K), rank_plan.cost(K)
        winner = "rank-join" if rank_cost < sort_cost else "sort"
        rows.append((selectivity, sort_cost, rank_cost, winner))
    return rows


def test_fig1_cost_vs_selectivity(run_once):
    rows = run_once(run_figure1)
    emit(format_table(
        ["selectivity", "sort plan", "rank-join plan", "winner"],
        [["%.0e" % s, sc, rc, w] for s, sc, rc, w in rows],
        title="Figure 1: estimated cost of two ranking plans "
              "(n=%d, k=%d)" % (CARDINALITY, K),
    ))
    winners = [w for _s, _sc, _rc, w in rows]
    # Shape: sort wins at the low-selectivity end ...
    assert winners[0] == "sort"
    # ... rank-join wins at the high end ...
    assert winners[-1] == "rank-join"
    # ... with a single crossover in between.
    flips = sum(1 for a, b in zip(winners, winners[1:]) if a != b)
    assert flips == 1
    # Sort-plan cost grows with selectivity (more results to sort),
    # rank-join cost shrinks (shallower depths).
    sort_costs = [sc for _s, sc, _rc, _w in rows]
    rank_costs = [rc for _s, _sc, rc, _w in rows]
    assert sort_costs == sorted(sort_costs)
    assert rank_costs == sorted(rank_costs, reverse=True)
