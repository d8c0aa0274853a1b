"""Top-k joins mixed with selections, and the join-then-sort baseline.

The paper motivates rank-aware optimization for queries that mix
ranking with joins *and selections*.  This example:

1. runs a filtered top-k join through the rank-aware optimizer and
   shows the selection sitting under the rank-join, preserving the
   ranked order while thinning the stream;
2. answers the same (unfiltered) query with the paper's blocking
   *join-then-sort* plan, ``Limit(Sort(HashJoin), k)``, and contrasts
   the tuples consumed.

Run with::

    python examples/selection_topk.py
"""

from repro.common.rng import make_rng
from repro.executor.database import Database
from repro.operators.joins import HashJoin
from repro.operators.scan import TableScan
from repro.operators.sort import Sort
from repro.operators.topk import Limit

ROWS = 3000
DOMAIN = 12
K = 10


def main():
    rng = make_rng(404)
    db = Database()
    for name in ("A", "B"):
        db.create_table(
            name, [("c1", "float"), ("c2", "int")],
            rows=[[float(rng.uniform(0, 1)), int(rng.integers(0, DOMAIN))]
                  for _ in range(ROWS)],
        )
    db.analyze()

    # ------------------------------------------------------------------
    print("=== Filtered top-k join through the optimizer ===")
    report = db.execute("""
        WITH R AS (
          SELECT A.c1 AS x, B.c1 AS y,
                 rank() OVER (ORDER BY (A.c1 + B.c1)) AS rank
          FROM A, B WHERE A.c2 = B.c2 AND A.c2 <= 5)
        SELECT x, y, rank FROM R WHERE rank <= %d""" % (K,))
    print(report.explain())
    print("\ntop-%d filtered results:" % (K,))
    for row in report.rows[:3]:
        print("  A.c1=%.4f  B.c1=%.4f  score=%.4f"
              % (row["A.c1"], row["B.c1"], row["A.c1"] + row["B.c1"]))
    print("  ...")

    # ------------------------------------------------------------------
    print("\n=== Rank-join vs join-then-sort on the plain query ===")
    plain = db.execute("""
        WITH R AS (
          SELECT A.c1 AS x, B.c1 AS y,
                 rank() OVER (ORDER BY (A.c1 + B.c1)) AS rank
          FROM A, B WHERE A.c2 = B.c2)
        SELECT x, y, rank FROM R WHERE rank <= %d""" % (K,))
    rank_consumed = sum(
        snap.rows_out for snap in plain.operators
        if snap.name.startswith(("IndexScan", "Scan"))
    )
    join = HashJoin(TableScan(db.catalog.table("A")),
                    TableScan(db.catalog.table("B")), "A.c2", "B.c2")

    def score_of(row):
        return row["A.c1"] + row["B.c1"]

    sorted_rows = list(Limit(Sort(join, score_of, description="A.c1+B.c1"),
                             K))
    sort_consumed = sum(join.stats.pulled)
    rank_scores = [round(r["A.c1"] + r["B.c1"], 9) for r in plain.rows]
    sort_scores = [round(score_of(r), 9) for r in sorted_rows]
    assert rank_scores == sort_scores, "strategies disagree!"
    print("identical top-%d answers; resources:" % (K,))
    print("  rank-join plan:   %6d base tuples read" % (rank_consumed,))
    print("  join-then-sort:   %6d base tuples read" % (sort_consumed,))
    factor = sort_consumed / max(1, rank_consumed)
    print("\nthe rank-join plan touched %.0fx less data -- the paper's "
          "case for integrating rank-joins into the optimizer instead "
          "of joining everything and sorting." % (factor,))


if __name__ == "__main__":
    main()
