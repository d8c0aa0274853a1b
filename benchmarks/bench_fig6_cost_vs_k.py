"""Figure 6: the effect of k on rank-join plan cost, and k*.

Paper's claim: the sort plan's cost is (almost) independent of k; the
rank-join plan's cost increases with k; the curves cross at k* (the
paper's example crosses at k* = 176 for its parameters -- ours lands in
the same order of magnitude by construction of the cost model).  Both
plans are the optimizer's own plan nodes, costed by ``plan.cost(k)``.
"""

from repro.cost.crossover import find_k_star
from repro.experiments.figures import two_way_plans
from repro.experiments.report import format_table

from benchmarks.conftest import emit
from benchmarks.runner import BenchRecorder, median_seconds, rounds_of

CARDINALITY = 10000
SELECTIVITY = 1e-3
KS = (1, 25, 50, 100, 150, 200, 400, 800)


def run_figure6():
    sort_plan, rank_plan = two_way_plans(CARDINALITY, SELECTIVITY)
    series = [(k, sort_plan.cost(k), rank_plan.cost(k)) for k in KS]
    return series, find_k_star(rank_plan, sort_plan)


def test_fig6_cost_vs_k(run_once, benchmark):
    series, k_star = run_once(run_figure6)
    recorder = BenchRecorder("fig6_cost_vs_k", params={
        "cardinality": CARDINALITY, "selectivity": SELECTIVITY,
        "ks": list(KS), "k_star": k_star,
    })
    for k, sort_cost, rank_cost in series:
        recorder.record(
            "k=%d" % (k,), median_seconds=median_seconds(benchmark),
            repeats=rounds_of(benchmark), sort_cost=sort_cost,
            rank_join_cost=rank_cost,
        )
    recorder.write()
    emit(format_table(
        ["k", "sort plan", "rank-join plan"],
        [[k, sc, rc] for k, sc, rc in series],
        title="Figure 6: effect of k on plan cost (n=%d, s=%g); "
              "k* = %s (paper example: 176)"
              % (CARDINALITY, SELECTIVITY, k_star),
    ))
    sort_costs = [sc for _k, sc, _rc in series]
    rank_costs = [rc for _k, _sc, rc in series]
    # Sort plan flat in k.
    assert len(set(sort_costs)) == 1
    # Rank-join plan strictly non-decreasing in k.
    assert rank_costs == sorted(rank_costs)
    # Crossover exists inside the feasible range, same order of
    # magnitude as the paper's 176.
    assert k_star is not None and 0 < k_star
    assert 10 <= k_star <= 2000
    # Below k*, rank-join is cheaper; above, the sort plan is.
    below = [rc < sc for k, sc, rc in series if k < k_star]
    above = [rc >= sc for k, sc, rc in series if k >= k_star]
    assert all(below) and all(above)
