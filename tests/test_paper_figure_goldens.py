"""Goldens for every paper artifact :mod:`repro.experiments.figures` computes.

These are the numbers EXPERIMENTS.md quotes.  Costs, realized
selectivities and propagated ``k`` hold to ``rel=1e-12``; depths,
buffer sizes and plan-class counts hold exactly.  Figures 1 and 6 cost
the two plans of Figure 5 with the optimizer's own plan nodes, and
Figures 4 and 13(b) propagate ``k`` with its ``propagate_depths``.  The
estimates of Figures 13-15 are closed forms of ``(k, realized s)``, so
pinning ``s`` pins them.
"""

import pytest

from repro.experiments import figures

#: Figure 1 (n=10000, k=100): (selectivity, sort plan, rank-join plan).
FIGURE1 = (
    (1e-06, 640.1, 80044.76438561898),
    (1e-05, 661.0, 35800.70495505456),
    (1e-04, 1050.0, 11325.094124472207),
    (1e-03, 4740.0, 3585.2263896196187),
    (1e-02, 61640.0, 1137.6653065613798),
    (1e-01, 610640.0, 363.6785330761212),
)

#: Figure 6 (n=10000, s=1e-3): (k, sort plan, rank-join plan).
FIGURE6 = (
    (1, 4740.0, 361.95376183816626),
    (25, 4740.0, 1794.0810020003207),
    (50, 4740.0, 2535.8514248177466),
    (100, 4740.0, 3585.2263896196187),
    (150, 4740.0, 4390.739995878497),
    (200, 4740.0, 5070.031620873448),
    (400, 4740.0, 7171.510321715142),
    (800, 4740.0, 10146.978326698718),
)

#: Figures 2-3: retained plan classes per MEMO entry, per panel.
FIGURES2_3 = {
    "2(a)": {"A": 2, "B": 3, "C": 2, "AB": 2, "BC": 2, "ABC": 1},
    "2(b)": {"A": 3, "B": 3, "C": 2, "AB": 3, "BC": 2, "ABC": 2},
    "3(a)": {"A": 2, "B": 3, "C": 2, "AB": 2, "BC": 2, "ABC": 1},
    "3(b)": {"A": 3, "B": 3, "C": 3, "AB": 3, "BC": 3, "ABC": 2},
}

#: Figure 4 (n=4000, s=0.01, k=100, seed 42, worst case), bottom-up:
#: (operator, required k, est dL, est dR, actual depths).
FIGURE4 = (
    ("HRJN1", 283.46190279222395, 336.1367149676273, 336.1367149676273,
     (166, 166)),
    ("HRJN2", 100.0, 283.46190279222395, 237.6845505593788, (164, 163)),
)

#: Figures 13, 14, 15 (n=8000): (k, realized selectivity, actual depths,
#: actual buffer) per measurement.
FIGURE13 = (
    (5, 0.009983359375, (33, 33), 12),
    (10, 0.010014328125, (39, 39), 12),
    (25, 0.010016703125, (82, 81), 43),
    (50, 0.009993359375, (95, 95), 59),
    (100, 0.00999396875, (145, 144), 128),
    (200, 0.009980609375, (214, 214), 245),
)
FIGURE14 = (
    (50, 0.002004515625, (190, 190), 41),
    (50, 0.00499696875, (133, 133), 54),
    (50, 0.009997859375, (111, 111), 72),
    (50, 0.0199801875, (78, 77), 71),
    (50, 0.05003840625, (55, 55), 87),
    (50, 0.10010784375, (34, 34), 57),
)
FIGURE15 = (
    (25, 0.009992484375, (83, 83), 48),
    (50, 0.0100168125, (109, 109), 57),
    (100, 0.010008921875, (150, 150), 146),
    (200, 0.009991859375, (237, 236), 316),
    (400, 0.0100030625, (288, 287), 422),
)

#: Figure 13(b) (n=6000, s=0.01, seed 2024): per user k, bottom-up
#: (operator, required k, actual depths).
FIGURE13B = {
    25: (("HRJN1", 112.34680810763749, (154, 154)),
         ("HRJN2", 25, (101, 101))),
    50: (("HRJN1", 178.33944137533314, (184, 184)),
         ("HRJN2", 50, (137, 137))),
    100: (("HRJN1", 283.0962168466248, (206, 206)),
          ("HRJN2", 100, (170, 170))),
}


@pytest.mark.parametrize("selectivity, sort_cost, rank_cost", FIGURE1)
def test_figure1_costs(selectivity, sort_cost, rank_cost):
    rows = {s: (sort, rank) for s, sort, rank, _w in figures.figure1()}
    assert rows[selectivity] == pytest.approx((sort_cost, rank_cost),
                                              rel=1e-12)


def test_figures2_3_plan_classes_per_entry():
    memos = figures.figures2_3()
    for panel, counts in FIGURES2_3.items():
        assert {"".join(sorted(tables)): memos[panel].class_count(tables)
                for tables in memos[panel].entries()} == counts


def test_figure4_propagated_depths():
    assert [(name, required, estimate.d_left, estimate.d_right, actual)
            for name, actual, estimate, required in figures.figure4()] \
        == list(FIGURE4)


def test_figure6_costs_and_k_star():
    series, k_star = figures.figure6()
    assert [k for k, _sort, _rank in series] == [k for k, _s, _r in FIGURE6]
    for (_k, sort_cost, rank_cost), golden in zip(series, FIGURE6):
        assert (sort_cost, rank_cost) == pytest.approx(golden[1:],
                                                       rel=1e-12)
    assert k_star == 175


@pytest.mark.parametrize("figure, golden", [
    (figures.figure13, FIGURE13),
    (figures.figure14, FIGURE14),
    (figures.figure15, FIGURE15),
], ids=["figure13", "figure14", "figure15"])
def test_measured_depths_and_buffers(figure, golden):
    measurements = figure()
    assert [(m.k, m.actual, m.buffer_actual) for m in measurements] \
        == [(k, actual, buffer) for k, _s, actual, buffer in golden]
    assert [m.selectivity for m in measurements] == pytest.approx(
        [s for _k, s, _actual, _buffer in golden], rel=1e-12)


def test_figure13b_pipeline_depths():
    records = figures.figure13b()
    assert list(records) == list(FIGURE13B)
    for k, golden in FIGURE13B.items():
        assert [(name, actual) for name, actual, _e, _r in records[k]] \
            == [(name, actual) for name, _r, actual in golden]
        assert [required for _n, _a, _e, required in records[k]] \
            == pytest.approx([required for _n, required, _a in golden],
                             rel=1e-12)
