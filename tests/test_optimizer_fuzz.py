"""Property-based fuzzing of the full optimize+execute pipeline.

Random catalogs, random join topologies (chains/stars over 2-4
tables), random weights, filters, and k -- every plan the optimizer
picks must produce exactly the brute-force top-k, and the MEMO must
satisfy its structural invariants.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.rng import make_rng
from repro.executor.database import Database
from repro.optimizer.enumerator import OptimizerConfig
from repro.optimizer.expressions import ScoreExpression
from repro.optimizer.query import (
    FilterPredicate,
    JoinPredicate,
    RankQuery,
)

from tests.reference_answers import assert_query_top_k

_TABLES = ("A", "B", "C", "D")


@st.composite
def scenarios(draw):
    n_tables = draw(st.integers(min_value=2, max_value=4))
    tables = _TABLES[:n_tables]
    topology = draw(st.sampled_from(("chain", "star")))
    if topology == "chain":
        predicates = [
            JoinPredicate("%s.c2" % tables[i], "%s.c2" % tables[i + 1])
            for i in range(n_tables - 1)
        ]
    else:
        hub = tables[0]
        predicates = [
            JoinPredicate("%s.c2" % hub, "%s.c2" % other)
            for other in tables[1:]
        ]
    weights = {
        "%s.c1" % table: draw(st.sampled_from((0.2, 0.5, 1.0)))
        for table in tables
    }
    k = draw(st.integers(min_value=1, max_value=15))
    add_filter = draw(st.booleans())
    filters = []
    if add_filter:
        filters.append(FilterPredicate(
            "%s.c2" % draw(st.sampled_from(tables)),
            draw(st.sampled_from(("<=", ">="))),
            draw(st.integers(min_value=1, max_value=4)),
        ))
    seed = draw(st.integers(min_value=0, max_value=10 ** 6))
    config = draw(st.sampled_from((
        OptimizerConfig(),
        OptimizerConfig(rank_aware=False),
        OptimizerConfig(enable_nrjn=False),
    )))
    return tables, predicates, weights, k, filters, seed, config


def build_db(tables, seed, config):
    rng = make_rng(seed)
    db = Database(config=config)
    for name in tables:
        db.create_table(
            name, [("c1", "float"), ("c2", "int")],
            rows=[[float(rng.uniform(0, 1)), int(rng.integers(0, 5))]
                  for _ in range(25)],
        )
    db.analyze()
    return db


class TestOptimizerFuzz:
    @given(scenario=scenarios())
    @settings(max_examples=40, deadline=None)
    def test_optimized_execution_matches_brute_force(self, scenario):
        tables, predicates, weights, k, filters, seed, config = scenario
        db = build_db(tables, seed, config)
        query = RankQuery(
            tables=tables, predicates=predicates,
            ranking=ScoreExpression(weights), k=k, filters=filters,
        )
        assert_query_top_k(db.execute(query).rows, db.catalog, query)

    @given(scenario=scenarios())
    @settings(max_examples=25, deadline=None)
    def test_memo_invariants(self, scenario):
        tables, predicates, weights, k, filters, seed, config = scenario
        db = build_db(tables, seed, config)
        query = RankQuery(
            tables=tables, predicates=predicates,
            ranking=ScoreExpression(weights), k=k, filters=filters,
        )
        memo = db.optimizer().build_memo(query)
        # Root entry exists with at least one plan.
        root = memo.entry(frozenset(tables))
        assert root
        # Every entry is non-empty, connected, and plan tables match
        # the entry key.
        for entry_tables, plans in memo.entries().items():
            assert plans
            assert query.is_connected(entry_tables)
            for plan in plans:
                assert plan.tables == entry_tables
                assert plan.cost(k) >= 0
        # No pair of retained plans dominates each other.
        for _tables, plans in memo.entries().items():
            for i, plan_a in enumerate(plans):
                for plan_b in plans[i + 1:]:
                    assert not (
                        memo._dominates(plan_a, plan_b)
                        or memo._dominates(plan_b, plan_a)
                    )
