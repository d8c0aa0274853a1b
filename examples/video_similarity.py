"""The paper's Section 5 workload: multi-feature video similarity.

Generates the synthetic video database (one ranked relation per visual
feature: ColorHist, ColorLayout, Texture, Edges -- each ranking the
same video objects by a per-feature similarity score to the query
image), then answers

    Q: Retrieve the k most similar video shots to a given image based
       on m visual features.

two ways: with a pipeline of HRJN operators (the paper's rank-join
plan) and with a join-then-sort plan -- and reports the measured
depths against the Section 4 model via Algorithm Propagate.

Run with::

    python examples/video_similarity.py
"""

from repro.data.video import make_video_workload
from repro.experiments.harness import (
    build_hrjn_pipeline,
    pipeline_estimates,
    pipeline_plan,
)
from repro.experiments.report import format_table
from repro.operators.joins import HashJoin
from repro.operators.scan import TableScan
from repro.operators.sort import Sort
from repro.operators.topk import Limit

K = 20
CARDINALITY = 2000
FEATURES = ("ColorHist", "ColorLayout", "Texture")


def main():
    workload = make_video_workload(
        CARDINALITY, features=FEATURES, key_join=True, seed=7,
    )
    print("workload:", workload)

    # ------------------------------------------------------------------
    # Rank-join plan: a left-deep pipeline of HRJN operators.
    # ------------------------------------------------------------------
    tables = [workload.table(f) for f in FEATURES]
    keys = [workload.key_column(f) for f in FEATURES]
    scores = [workload.score_column(f) for f in FEATURES]
    rows, joins = build_hrjn_pipeline(tables, keys, scores, K)
    top = joins[-1]
    combined = top.output_score_column
    print("\ntop-%d video objects by combined similarity:" % (K,))
    for position, row in enumerate(rows[:5], start=1):
        print("  #%d  object=%d  score=%.4f"
              % (position, row[keys[0]], row[combined]))
    print("  ... (%d rows total)" % (len(rows),))

    # ------------------------------------------------------------------
    # Baseline: join everything, then sort (what Q1 forces without
    # rank-join operators).
    # ------------------------------------------------------------------
    plan = TableScan(tables[0])
    for table, left_key, key in zip(tables[1:], keys, keys[1:]):
        plan = HashJoin(plan, TableScan(table), left_key, key)
    score_of = lambda row: sum(row[c] for c in scores)
    baseline = list(Limit(Sort(plan, score_of, description="sum"), K))
    assert [round(score_of(r), 9) for r in baseline] == [
        round(r[combined], 9) for r in rows
    ], "rank-join and join-then-sort disagree!"
    print("\nrank-join results verified against join-then-sort baseline")

    # ------------------------------------------------------------------
    # Depth accounting: measured vs Algorithm Propagate.
    # ------------------------------------------------------------------
    plan = pipeline_plan(
        CARDINALITY, [workload.selectivity] * (len(FEATURES) - 1))
    table_rows = []
    for join, (_required, estimate) in zip(joins,
                                           pipeline_estimates(plan, K)):
        table_rows.append([
            join.name, join.depths[0], join.depths[1],
            estimate.d_left, estimate.d_right,
            join.stats.max_buffer,
        ])
    print("\n" + format_table(
        ["operator", "actual dL", "actual dR", "est dL", "est dR",
         "buffer"],
        table_rows,
        title="measured depths vs Propagate (worst-case) estimates",
    ))
    full_join_work = CARDINALITY * len(FEATURES)
    consumed = sum(sum(j.depths) for j in joins)
    print("\nthe rank-join pipeline consumed %d input tuples; the "
          "baseline consumed %d (%.1fx more)"
          % (consumed, full_join_work, full_join_work / consumed))


if __name__ == "__main__":
    main()
