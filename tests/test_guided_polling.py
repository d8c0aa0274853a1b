"""Every HRJN the optimizer plans polls the input whose threshold term
is larger (``strategy="threshold"``, HRJN* of Ilyas, Aref and
Elmagarmid).  Against the same plan polled round-robin, on a seeded
grid of weight skews, k, filters and chain lengths: no rank-join input
is read deeper and the top-k scores are identical.  A guarded run takes
the recovery path round-robin polling took.
"""

from math import fsum

import pytest

import repro.optimizer.builder as builder
from repro.common.rng import make_rng
from repro.executor.database import Database
from repro.operators.hrjn import HRJN
from repro.optimizer.enumerator import OptimizerConfig
from repro.robustness.recovery import RecoveryPolicy

WEIGHTS = ((0.5, 0.5), (0.7, 0.3), (0.9, 0.1), (0.97, 0.03))


@pytest.fixture(scope="module")
def db():
    """A, B, C (1 000 rows, join-key domain 20); HRJN is the only
    rank join on offer, so every plan polls."""
    rng = make_rng(37)
    database = Database(config=OptimizerConfig(enable_nrjn=False))
    for name in ("A", "B", "C"):
        database.create_table(
            name, [("c1", "float"), ("c2", "int")],
            rows=[[float(rng.uniform(0, 1)), int(rng.integers(0, 20))]
                  for _ in range(1000)])
    database.analyze()
    return database


def query(weights, k, tables="AB", filtered=False):
    """A chain on ``c2`` ranked by the weighted ``c1`` columns."""
    pairs = tuple(zip(weights, ("%s.c1" % table for table in tables)))
    predicates = ["%s.c2 = %s.c2" % pair for pair in zip(tables, tables[1:])]
    if filtered:
        predicates.append("%s.c2 <= 9" % (tables[0],))
    sql = """
    WITH R AS (
      SELECT %s,
             rank() OVER (ORDER BY (%s)) AS rank
      FROM %s WHERE %s)
    SELECT %s, rank FROM R WHERE rank <= %d""" % (
        ", ".join("%s AS x%d" % (column, i)
                  for i, (_weight, column) in enumerate(pairs)),
        " + ".join("%r*%s" % pair for pair in pairs),
        ", ".join(tables), " AND ".join(predicates),
        ", ".join("x%d" % (i,) for i in range(len(pairs))), k)
    return sql, pairs


def scores(rows, pairs):
    return [fsum(weight * row[column] for weight, column in pairs)
            for row in rows]


def round_robin(db, sql):
    """The plan ``db`` runs for ``sql``, every HRJN forced to
    ``alternate``: its rows and per-join input depths."""
    root = db.executor().builder.build_query(db.explain(sql))
    joins = [op for op in root.walk() if type(op) is HRJN]
    for op in joins:
        assert op.strategy == "threshold"
        op.strategy = "alternate"
    rows = list(root)
    return rows, [tuple(op.stats.pulled) for op in joins]


@pytest.mark.parametrize("tables", ["AB", "ABC"], ids=["2way", "3way"])
@pytest.mark.parametrize("filtered", [False, True],
                         ids=["plain", "filtered"])
@pytest.mark.parametrize("k", [1, 10, 100])
@pytest.mark.parametrize("weights", WEIGHTS,
                         ids=["%g-%g" % pair for pair in WEIGHTS])
def test_no_input_read_deeper_and_same_scores(db, weights, k, filtered,
                                              tables):
    if len(tables) == 3:  # The light weight is split over B and C.
        weights = (weights[0], weights[1] / 2, weights[1] / 2)
    sql, pairs = query(weights, k, tables, filtered)
    report = db.execute(sql)
    guided = [tuple(snap.pulled) for snap in report.operators
              if snap.name.startswith("HRJN")]
    rows, alternate = round_robin(db, sql)
    assert len(guided) == len(tables) - 1
    assert scores(report.rows, pairs) == scores(rows, pairs)
    for mine, theirs in zip(guided, alternate):
        assert all(a <= b for a, b in zip(mine, theirs)), (mine, theirs)


def test_skew_reads_the_heavy_input_shallower(db):
    """Under uniform scores depths go roughly as ``dL/dR ~ wR/wL``."""
    sql, _pairs = query((0.9, 0.1), 10)
    report = db.execute(sql)
    (guided,) = [tuple(snap.pulled) for snap in report.operators
                 if snap.name.startswith("HRJN")]
    _rows, (alternate,) = round_robin(db, sql)
    assert guided[0] * 3 < guided[1] == alternate[1]
    assert alternate[0] == alternate[1]


@pytest.mark.parametrize("weights,k,path", [
    ((0.5, 0.5), 10, "direct"),
    ((0.7, 0.3), 10, "direct"),
    ((0.9, 0.1), 10, "reestimated"),
    ((0.97, 0.03), 10, "fallback"),
    ((0.9, 0.1), 100, "fallback"),
    ((0.99, 0.01), 50, "fallback"),
])
def test_recovery_path_is_round_robins(db, monkeypatch, weights, k, path):
    """Section 4's depth model still assumes round-robin polling; the
    guided run trips its depth limits where the round-robin run did."""
    sql, pairs = query(weights, k)
    guided = db.execute_guarded(sql, policy=RecoveryPolicy())
    monkeypatch.setattr(builder, "POLLING", "alternate")
    alternate = db.execute_guarded(sql, policy=RecoveryPolicy())
    assert guided.recovery.path == alternate.recovery.path == path
    assert scores(guided.rows, pairs) == scores(alternate.rows, pairs)
