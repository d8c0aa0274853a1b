"""Enumeration offers each join method only the inputs that can win.

The enumerator skips a ``(left, right, method)`` offer whenever its plan
would reach ``Memo.add`` with the property vector of an offered plan and
no lower cost at either abscissa -- a plan the MEMO rejects on arrival.
The differential half enumerates every query twice, as shipped and with
the exhaustive offer loop of ``tests/reference_enumeration.py``, and
requires identical MEMOs (entries in list order, properties, costs),
best plans and ``memo_insert`` event streams.  The count half pins how
many plans a cold optimize still builds on the benchmark's catalog.
"""

import pytest

from repro.common.rng import make_rng
from repro.cost.model import IN_MEMORY, PAPER_2004, CostModel
from repro.executor.database import Database
from repro.observability import Telemetry
from repro.optimizer.enumerator import Optimizer, OptimizerConfig
from repro.optimizer.memo import Memo
from repro.optimizer.plans import JoinPlan, RankJoinPlan
from repro.sql.parser import parse_query

from tests.reference_enumeration import ExhaustiveOptimizer
from tests.test_memo_costing import KS, ranked_sql

SHAPES = {
    "two": ranked_sql("AB", (0.3, 0.7), k=5),
    "two_selection": ranked_sql("AB", (0.6, 0.4), extra=" AND B.c1 > 0.2"),
    "chain3": ranked_sql("ABC", (0.2, 0.3, 0.5)),
    "star3_selection": ranked_sql("ABC", (0.5, 0.25, 0.25), form="star",
                                  extra=" AND A.c1 > 0.1"),
    "chain4_selection": ranked_sql("ABCD", (0.1, 0.2, 0.3, 0.4), k=20,
                                   extra=" AND C.c1 > 0.3"),
    "star4": ranked_sql("ABCD", (0.4, 0.1, 0.3, 0.2), form="star"),
}

CONFIGS = {
    "average": {},
    "worst": {"estimation_mode": "worst"},
    "empirical": {"estimation_mode": "empirical"},
    "jstar": {"enable_jstar": True},
    "anyk": {"enable_anyk": True},
    "no_pipelining": {"respect_pipelining": False},
    "lazy": {"eager_enforcement": False},
    "traditional": {"rank_aware": False},
}

#: Table sizes per catalog.  Equal sizes tie alternatives' total costs;
#: unequal ones make cardinalities differ in the last ulp by split
#: order.  ``sharded`` hash-partitions the unequal tables on their join
#: key, so leaf HRJNs get ScoreMerge alternatives.  Every score column
#: is indexed, so under ``empirical`` both NRJN inputs carry profiles.
CATALOGS = {
    "equal": {"A": 300, "B": 300, "C": 300, "D": 300},
    "unequal": {"A": 300, "B": 310, "C": 290, "D": 305},
    "sharded": {"A": 300, "B": 310, "C": 290, "D": 305},
}


def make_catalog(name, domain=12):
    rng = make_rng(23)
    db = Database()
    for table, rows in CATALOGS[name].items():
        db.create_table(table, [("c1", "float"), ("c2", "int")], rows=[
            [float(rng.uniform(0, 1)), int(rng.integers(0, domain))]
            for _ in range(rows)
        ])
    db.analyze()
    if name == "sharded":
        for table in CATALOGS[name]:
            db.partition_table(table, 2, column="%s.c2" % (table,))
    return db.catalog


@pytest.fixture(scope="module")
def catalogs():
    return {name: make_catalog(name) for name in CATALOGS}


def costs(plan, k_min):
    return tuple(repr(plan.cost(k)) for k in (k_min, plan.cardinality) + KS)


def enumerate_with(cls, catalog, config, sql):
    """Optimize ``sql``; return the result and its exact signature."""
    telemetry = Telemetry()
    optimizer = cls(catalog, CostModel(), OptimizerConfig(**config))
    result = optimizer.optimize(parse_query(sql), telemetry=telemetry)
    memo = result.memo
    entries = [
        (sorted(tables),
         [(plan.explain(), plan.order.describe(), plan.pipelined,
           costs(plan, memo.k_min)) for plan in plans])
        for tables, plans in sorted(memo.entries().items(),
                                    key=lambda item: sorted(item[0]))
    ]
    best = result.best_plan
    inserts = [sorted(event.attributes.items())
               for event in telemetry.events.events("memo_insert")]
    offered = telemetry.metrics.counter("optimizer_plans_generated").total()
    return result, {
        "entries": entries,
        "best": (best.explain(), costs(best, memo.k_min)),
        "memo_insert": inserts,
    }, offered


#: Every shape under every config and catalog, except that the 4-table
#: shapes (three quarters of the time) run on the unequal catalog only:
#: there an entry's first plan is not always its cheapest, so plans the
#: exhaustive loop accepts and later evicts must still be offered.
CASES = [(shape, config, catalog)
         for shape in sorted(SHAPES) for config in sorted(CONFIGS)
         for catalog in sorted(CATALOGS)
         if "4" not in shape or catalog == "unequal"]


class TestPrunedMatchesExhaustive:
    @pytest.mark.parametrize("shape, config, catalog", CASES)
    def test_memo_best_plan_and_inserts(self, shape, config, catalog,
                                        catalogs):
        args = (catalogs[catalog], CONFIGS[config], SHAPES[shape])
        _, pruned, pruned_offers = enumerate_with(Optimizer, *args)
        _, exhaustive, exhaustive_offers = enumerate_with(
            ExhaustiveOptimizer, *args)
        assert pruned["entries"] == exhaustive["entries"]
        assert pruned["best"] == exhaustive["best"]
        assert pruned["memo_insert"] == exhaustive["memo_insert"]
        assert pruned_offers <= exhaustive_offers

    def test_empirical_nrjn_inputs_both_profiled(self, catalogs,
                                                 monkeypatch):
        """The ``empirical`` cases offer NRJNs whose inner carries a
        score profile too, so the inner's profile is a pruning key."""
        optimizer = Optimizer(catalogs["equal"], CostModel(),
                              OptimizerConfig(**CONFIGS["empirical"]))
        nrjns = [plan for plan, _order in built_plans(
                     optimizer, SHAPES["two"], monkeypatch)
                 if isinstance(plan, RankJoinPlan)
                 and plan.operator == "nrjn"]
        assert any(None not in plan.profiles for plan in nrjns)


def built_plans(optimizer, sql, monkeypatch):
    """``(plan, order as built)`` for every plan one optimize offers."""
    built = []
    add = Optimizer._add

    def recording(self, build, plan):
        built.append((plan, plan.order))
        return add(self, build, plan)

    monkeypatch.setattr(Optimizer, "_add", recording)
    optimizer.optimize(parse_query(sql))
    return built


def offers(optimizer, monkeypatch, profile, sql):
    """What ``Memo.add`` returned per offered plan of one cold optimize."""
    kept = []
    add = Memo.add

    def counted(memo, plan):
        kept.append(add(memo, plan))
        return kept[-1]

    monkeypatch.setattr(Memo, "add", counted)
    Optimizer(optimizer.catalog, CostModel(profile)).optimize(
        parse_query(sql))
    return kept


class TestOfferCount:
    """A count, not a timing: the exhaustive loop offered 345 plans on
    the cold 3-table shape and 80 on the 2-table one.  Counted in the
    PAPER_2004 cost profile the counts were taken in."""

    @pytest.mark.parametrize("tables, weights, most, accepted", [
        ("ABC", (0.2, 0.3, 0.5), 130, 26),
        ("AB", (0.4, 0.6), 40, 10),
    ])
    def test_cold_optimize_offers(self, plan_cold_optimizer, monkeypatch,
                                  tables, weights, most, accepted):
        kept = offers(plan_cold_optimizer, monkeypatch, PAPER_2004,
                      ranked_sql(tables, weights))
        assert len(kept) <= most
        assert sum(kept) == accepted

    @pytest.mark.parametrize("tables, weights, most, accepted", [
        ("ABC", (0.2, 0.3, 0.5), 131, 35),
        ("AB", (0.4, 0.6), 32, 12),
    ])
    def test_cold_optimize_offers_in_memory(self, plan_cold_optimizer,
                                            monkeypatch, tables, weights,
                                            most, accepted):
        """The database's default profile offers and accepts more: its
        0.01 index-read weight keeps traditional joins alive on arrival
        that PAPER_2004 rejected (docs/estimation_model.md §9).  Pinned
        at the counts measured when the profile landed, so further
        growth shows."""
        kept = offers(plan_cold_optimizer, monkeypatch, IN_MEMORY,
                      ranked_sql(tables, weights))
        assert len(kept) <= most
        assert sum(kept) == accepted

    def test_sort_merge_joins_are_dc(self, plan_cold_optimizer,
                                     monkeypatch):
        """Order inference through joins is out of scope: a sort-merge
        join is built with no order (before the MEMO projects it), which
        its input pruning relies on."""
        merges = [order for plan, order in built_plans(
                      plan_cold_optimizer, ranked_sql("ABC", (0.2, 0.3, 0.5)),
                      monkeypatch)
                  if isinstance(plan, JoinPlan)
                  and plan.method == "sort_merge"]
        assert merges
        assert all(order.is_none for order in merges)
