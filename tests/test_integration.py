"""Integration tests: SQL -> optimizer -> executor vs brute force."""

import pytest

from repro.common.rng import make_rng
from repro.executor.database import Database
from repro.optimizer.enumerator import OptimizerConfig

from tests.reference_answers import assert_query_top_k


def build_db(tables=("A", "B", "C"), rows=120, domain=8, seed=11,
             config=None):
    rng = make_rng(seed)
    db = Database(config=config)
    for name in tables:
        db.create_table(
            name, [("c1", "float"), ("c2", "int")],
            rows=[[float(rng.uniform(0, 1)), int(rng.integers(0, domain))]
                  for _ in range(rows)],
        )
    db.analyze()
    return db


def check_against_oracle(db, sql):
    """Run ``sql`` and compare its rows with the brute-force answers."""
    report = db.execute(sql)
    assert_query_top_k(report.rows, db.catalog, db.parse(sql))
    return report


THREE_WAY_SQL = """
WITH Ranked AS (
  SELECT A.c1 AS x, B.c1 AS y, C.c1 AS z,
         rank() OVER (ORDER BY (0.3*A.c1 + 0.3*B.c1 + 0.3*C.c1)) AS rank
  FROM A, B, C
  WHERE A.c2 = B.c2 AND B.c2 = C.c2)
SELECT x, y, z, rank FROM Ranked WHERE rank <= 10
"""


class TestEndToEnd:
    def test_three_way_topk_matches_brute_force(self):
        check_against_oracle(build_db(), THREE_WAY_SQL)

    def test_rank_aware_and_traditional_agree_on_results(self):
        """Both optimizers must return the same top-k scores -- only
        the plans differ."""
        db_rank = build_db()
        db_trad = build_db(config=OptimizerConfig(rank_aware=False))
        rows_rank = db_rank.execute(THREE_WAY_SQL).rows
        rows_trad = db_trad.execute(THREE_WAY_SQL).rows
        score = lambda r: round(
            0.3 * (r["A.c1"] + r["B.c1"] + r["C.c1"]), 9,
        )
        assert [score(r) for r in rows_rank] == [
            score(r) for r in rows_trad
        ]

    def test_two_way_asymmetric_weights(self):
        db = build_db(tables=("A", "B"))
        sql = """
        WITH R AS (
          SELECT A.c1 AS x, B.c1 AS y,
                 rank() OVER (ORDER BY (0.9*A.c1 + 0.1*B.c1)) AS rank
          FROM A, B WHERE A.c2 = B.c2)
        SELECT x, y, rank FROM R WHERE rank <= 7
        """
        check_against_oracle(db, sql)

    def test_k_larger_than_result_set(self):
        db = build_db(rows=20, domain=30, seed=5)
        sql = """
        WITH R AS (
          SELECT A.c1 AS x, B.c1 AS y,
                 rank() OVER (ORDER BY (A.c1 + B.c1)) AS rank
          FROM A, B WHERE A.c2 = B.c2)
        SELECT x, y, rank FROM R WHERE rank <= 500
        """
        report = check_against_oracle(db, sql)
        assert len(report.rows) < 500

    def test_single_table_topk_sql(self):
        db = build_db(tables=("A",))
        check_against_oracle(
            db, "SELECT A.c1 FROM A ORDER BY A.c1 DESC LIMIT 5")

    def test_plain_order_by_query(self):
        db = build_db(tables=("A", "B"))
        report = db.execute(
            "SELECT A.c1, B.c1 FROM A, B WHERE A.c2 = B.c2 "
            "ORDER BY A.c1",
        )
        values = [r["A.c1"] for r in report.rows]
        assert values == sorted(values, reverse=True)


class TestConfigMatrix:
    @pytest.mark.parametrize("config", [
        OptimizerConfig(),
        OptimizerConfig(enable_nrjn=False),
        OptimizerConfig(enable_hrjn=False),
        OptimizerConfig(rank_aware=False),
        OptimizerConfig(respect_pipelining=False),
    ], ids=["default", "hrjn-only", "nrjn-only", "traditional",
            "no-pipelining"])
    def test_all_configs_same_answers(self, config):
        check_against_oracle(build_db(config=config, rows=80), THREE_WAY_SQL)
