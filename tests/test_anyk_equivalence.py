"""Byte-identical top-k equivalence of any-k vs the serial HRJN
reference.

Pinning the optimizer to the any-k operator family must return exactly
the rows of the binary HRJN reference plans -- same values, same order
-- across the sixteen SQL plan shapes of the parallel-equivalence
matrix, plus multi-way chain and star queries whose predicates each
join a *different* key column (shapes a rank join over one shared key
cannot express).  A final test pins down the cost-model crossover: the
unforced optimizer picks binary rank joins at shallow k and the any-k
plan at deep k, with identical answers either side of the switch.
"""

import pytest

from repro.common.rng import make_rng
from repro.executor.database import Database
from repro.optimizer.enumerator import OptimizerConfig
from repro.optimizer.expressions import ScoreExpression
from repro.optimizer.plans import AnyKPlan
from repro.optimizer.query import JoinPredicate, RankQuery

from tests.reference_answers import assert_query_top_k
from tests.test_parallel_equivalence import SHAPES

ANYK_ONLY = dict(enable_anyk=True, enable_hrjn=False,
                 enable_nrjn=False)


def make_sql_db(config=None):
    """The parallel-equivalence matrix data (same seed and layout as
    ``tests.test_parallel_equivalence.make_db``), with a configurable
    optimizer so the same shapes run under any-k and HRJN."""
    rng = make_rng(5)
    db = Database(config=config)
    for name in ("A", "C"):
        db.create_table(
            name, [("c1", "float"), ("c2", "int")], rows=[
                [float(rng.uniform(0, 1)), int(rng.integers(0, 30))]
                for _ in range(240)
            ],
        )
    db.create_table(
        "B", [("c1", "int"), ("c2", "float")], rows=[
            [int(rng.integers(0, 30)), float(rng.uniform(0, 1))]
            for _ in range(240)
        ],
    )
    db.analyze()
    return db


@pytest.fixture(scope="module")
def hrjn_rows():
    db = make_sql_db(OptimizerConfig(enable_nrjn=False))
    return {name: db.execute(sql).rows for name, sql in SHAPES.items()}


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_sql_shapes_match_hrjn_reference(shape, hrjn_rows):
    db = make_sql_db(OptimizerConfig(**ANYK_ONLY))
    report = db.execute(SHAPES[shape])
    assert report.rows == hrjn_rows[shape], (
        "any-k diverged from the HRJN reference on %s" % (shape,)
    )


# ----------------------------------------------------------------------
# Multi-way chains and stars, different key per predicate
# ----------------------------------------------------------------------
def make_multiway_db(config=None, rows=60, domain=8, seed=21):
    rng = make_rng(seed)
    db = Database(config=config)
    for name in ("A", "B", "C", "D"):
        db.create_table(
            name, [("c1", "float"), ("c2", "int"), ("c3", "int")],
            rows=[[float(rng.uniform(0, 1)),
                   int(rng.integers(0, domain)),
                   int(rng.integers(0, domain))]
                  for _ in range(rows)],
        )
    db.analyze()
    return db


def multiway_query(tables, predicates, k=25):
    weight = 1.0 / len(tables)
    return RankQuery(
        tables=tables,
        predicates=[JoinPredicate(left, right)
                    for left, right in predicates],
        ranking=ScoreExpression({"%s.c1" % t: weight for t in tables}),
        k=k,
    )


MULTIWAY = {
    "chain3": ("ABC", [("A.c2", "B.c2"), ("B.c3", "C.c3")]),
    "star3": ("ABC", [("A.c2", "B.c2"), ("A.c3", "C.c3")]),
    "chain4": ("ABCD", [("A.c2", "B.c2"), ("B.c3", "C.c3"),
                        ("C.c2", "D.c2")]),
    "star4": ("ABCD", [("A.c2", "B.c2"), ("A.c3", "C.c3"),
                       ("A.c2", "D.c2")]),
}


def projection(query, rows):
    """Base-column values plus the evaluated score, per answer row.

    The two operator families carry their combined score in
    differently named computed columns (``_score_ANYK*`` vs
    ``_score_RJ*``), so equivalence is asserted on what the answers
    *are*: every base column of every joined table, in order, plus the
    ranking score evaluated from those base columns.
    """
    columns = ["%s.c%d" % (table, i)
               for table in sorted(query.tables) for i in (1, 2, 3)]
    return [
        tuple(row[column] for column in columns)
        + (round(query.ranking.evaluate(row), 9),)
        for row in rows
    ]


@pytest.mark.parametrize("shape", sorted(MULTIWAY))
def test_multiway_matches_hrjn_reference(shape):
    tables, predicates = MULTIWAY[shape]
    query = multiway_query(tables, predicates)
    reference_db = make_multiway_db(OptimizerConfig(enable_anyk=False))
    anyk_db = make_multiway_db(OptimizerConfig(**ANYK_ONLY))
    reference = reference_db.execute(query)
    result = anyk_db.execute(query)
    assert projection(query, result.rows) \
        == projection(query, reference.rows)
    # The pinned run really used the any-k plan.
    assert isinstance(anyk_db.explain(query).best_plan, AnyKPlan)


@pytest.mark.parametrize("shape", sorted(MULTIWAY))
def test_multiway_matches_brute_force(shape):
    tables, predicates = MULTIWAY[shape]
    query = multiway_query(tables, predicates)
    db = make_multiway_db(OptimizerConfig(**ANYK_ONLY))
    assert_query_top_k(db.execute(query).rows, db.catalog, query)


# ----------------------------------------------------------------------
# Cost-model crossover: the optimizer switches operator families by k
# ----------------------------------------------------------------------
class TestOptimizerCrossover:
    def db(self):
        return make_multiway_db(
            OptimizerConfig(enable_anyk=True), rows=200, domain=20,
        )

    def query(self, k):
        tables, predicates = MULTIWAY["chain4"]
        return multiway_query(tables, predicates, k=k)

    def test_shallow_k_stays_on_binary_rank_joins(self):
        db = self.db()
        plan = db.explain(self.query(5)).best_plan
        assert not isinstance(plan, AnyKPlan)

    def test_deep_k_crosses_over_to_anyk(self):
        db = self.db()
        plan = db.explain(self.query(1000)).best_plan
        assert isinstance(plan, AnyKPlan)

    def test_answers_identical_across_the_switch(self):
        query = self.query(50)
        chosen = self.db().execute(query)
        reference = make_multiway_db(
            OptimizerConfig(enable_anyk=False), rows=200, domain=20,
        ).execute(query)
        assert projection(query, chosen.rows) \
            == projection(query, reference.rows)
