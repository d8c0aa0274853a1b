"""The paper's evaluation (Section 5): the shape of every artifact.

Each test reads one function of :mod:`repro.experiments.figures` -- the
code ``python -m repro report`` formats -- and asserts what the paper
reports for that figure or table: who wins, where crossovers fall,
which estimates bracket the measurements.  Absolute numbers differ by
design (simulated engine, synthetic relations); they are pinned in
``test_paper_figure_goldens.py``.
"""

from repro.experiments import figures
from repro.experiments.report import relative_error


def test_figure1_cost_vs_selectivity():
    rows = figures.figure1()
    winners = [winner for _s, _sort, _rank, winner in rows]
    # Sort wins at the low-selectivity end, rank-join at the high end,
    # with a single crossover in between.
    assert winners[0] == "sort"
    assert winners[-1] == "rank-join"
    assert sum(1 for a, b in zip(winners, winners[1:]) if a != b) == 1
    # Sort cost grows with selectivity (more results to sort), rank-join
    # cost shrinks (shallower depths).
    sort_costs = [sort for _s, sort, _rank, _w in rows]
    rank_costs = [rank for _s, _sort, rank, _w in rows]
    assert sort_costs == sorted(sort_costs)
    assert rank_costs == sorted(rank_costs, reverse=True)


def test_figure2_memo_plan_counts():
    memos = figures.figures2_3()
    plain, ordered = memos["2(a)"], memos["2(b)"]
    # The paper's exact counts: ORDER BY A.c2 makes the order of A.c2
    # interesting at every entry containing A.
    assert plain.class_count() == 12
    assert ordered.class_count() == 15
    # Both enumerate the same 4 joins: 6 entries, no (A, C) entry.
    assert len(plain.entries()) == 6
    assert frozenset("AC") not in plain


def test_figure3_rank_aware_enumeration():
    memos = figures.figures2_3()
    assert memos["3(a)"].class_count() == 12
    rank_aware = memos["3(b)"]
    assert rank_aware.class_count() == 17
    # Per-entry counts of Figure 3(b).
    expected = {"A": 3, "B": 3, "C": 3, "AB": 3, "BC": 3, "ABC": 2}
    for tables, count in expected.items():
        assert rank_aware.class_count(frozenset(tables)) == count
    # The partial rank expression is retained at AB.
    assert "0.3*A.c1 + 0.3*B.c1" in {
        plan.order.describe() for plan in rank_aware.entry(frozenset("AB"))
    }


def test_table1_interesting_order_expressions():
    # The paper prints B.c2 / C.c2 in two pairwise rows where Q2's
    # ranking function reads B.c1 / C.c1; these are the corrected rows.
    orders = figures.table1()
    listing = {io.expression.description(): set(io.reasons)
               for io in orders}
    assert len(orders) == 10  # The paper's row count.
    assert listing == {
        "A.c1": {"Rank-join"},
        "A.c2": {"Join"},
        "B.c1": {"Join", "Rank-join"},
        "B.c2": {"Join"},
        "C.c1": {"Rank-join"},
        "C.c2": {"Join"},
        "0.3*A.c1 + 0.3*B.c1": {"Rank-join"},
        "0.3*B.c1 + 0.3*C.c1": {"Rank-join"},
        "0.3*A.c1 + 0.3*C.c1": {"Rank-join"},
        "0.3*A.c1 + 0.3*B.c1 + 0.3*C.c1": {"Orderby"},
    }


def test_figure4_depth_propagation():
    # Records are bottom-up: [inner HRJN1, top HRJN2].
    inner, top = figures.figure4()
    user_k = figures.FIGURE4[2]
    # The top operator needs k from the user but must read (far) more
    # than k tuples from each input.
    assert top[3] == user_k
    assert min(top[1]) > user_k
    # The inner operator is asked for the top operator's left depth,
    # which exceeds the user's k (the paper's 100 -> 580 -> 783 shape).
    assert inner[3] > user_k
    assert max(inner[1]) >= max(top[1])
    # The worst-case estimates never undershoot a measured depth by more
    # than ~35%.
    for _name, actual, estimate, _required in (inner, top):
        for side, depth in enumerate(estimate.as_tuple()):
            assert depth >= actual[side] * 0.65


def test_figure6_cost_vs_k():
    series, k_star = figures.figure6()
    sort_costs = [sort for _k, sort, _rank in series]
    rank_costs = [rank for _k, _sort, rank in series]
    # Sort plan flat in k; rank-join plan non-decreasing in k.
    assert len(set(sort_costs)) == 1
    assert rank_costs == sorted(rank_costs)
    # The crossover lies in the same order of magnitude as the paper's
    # 176 ...
    assert k_star is not None and 10 <= k_star <= 2000
    # ... with rank-join cheaper below it and the sort plan above.
    assert all(rank < sort for k, sort, rank in series if k < k_star)
    assert all(rank >= sort for k, sort, rank in series if k >= k_star)


def _mean_actual(measurement):
    return sum(measurement.actual) / 2.0


def _assert_sandwiched(measurements, error_bound):
    """Any-k <= actual <= Top-k (15% sampling slack either way), and the
    average-case estimate within ``error_bound`` of the actual depth."""
    for m in measurements:
        actual = _mean_actual(m)
        assert m.any_k[0] <= actual * 1.15
        assert actual <= m.top_k[0] * 1.15
        assert relative_error(actual, m.average[0]) <= error_bound


def test_figure13_depth_vs_k():
    measurements = figures.figure13()
    # The paper reports < 25% error; allow headroom for the different
    # workload while keeping the same order of accuracy.
    _assert_sandwiched(measurements, 0.45)
    actuals = [sum(m.actual) for m in measurements]
    assert actuals == sorted(actuals)


def test_figure13b_child_operator_depths():
    for k, records in figures.figure13b().items():
        _name, actual, estimate, required = records[0]
        # The child is asked for more than the user's k (Figure 4).
        assert required > k
        mean_actual = sum(actual) / 2.0
        any_k = (estimate.c_left + estimate.c_right) / 2.0
        top_k = (estimate.d_left + estimate.d_right) / 2.0
        # Any-k below, worst-case Top-k above (with slack), and the
        # conservative estimate within a small factor of the measurement.
        assert any_k <= mean_actual * 1.3
        assert mean_actual <= top_k * 1.3
        assert relative_error(mean_actual, top_k) <= 0.75


def test_figure14_depth_vs_selectivity():
    measurements = figures.figure14()
    _assert_sandwiched(measurements, 0.45)
    # Lower selectivity demands deeper reads.
    actuals = [sum(m.actual) for m in measurements]
    assert actuals == sorted(actuals, reverse=True)


def test_figure15_buffer_size():
    measurements = figures.figure15()
    for m in measurements:
        # The measured buffer respects the measured-depth bound d1*d2*s
        # (an expectation, hence the sampling headroom) ...
        assert m.buffer_actual <= m.buffer_actual_bound * 1.3
        # ... which the worst-case estimated bound dominates.  The paper
        # reports < 40% between the two bounds; ours are analytic
        # worst-case depths, not fitted ones, so allow up to 100%.
        assert m.buffer_actual_bound <= m.buffer_estimated_bound * 1.1
        assert relative_error(m.buffer_actual_bound,
                              m.buffer_estimated_bound) <= 1.0
    # The gap between the actual buffer and the bound widens with k.
    gaps = [m.buffer_estimated_bound - m.buffer_actual
            for m in measurements]
    assert gaps[-1] > gaps[0]
