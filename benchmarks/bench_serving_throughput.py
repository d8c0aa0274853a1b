"""Serving throughput: plan cache, prepared queries, batch drain.

The serving benchmark measures the repeated-query regime the plan
cache and batch-at-a-time data plane target:

* ``cold_execute`` -- every execution parses, fingerprints, and fully
  re-optimizes (the plan cache is invalidated between runs): the
  latency floor without caching;
* ``warm_execute`` -- repeated ``Database.execute`` of the same text:
  parse still runs, but the optimized plan comes from the cache;
* ``warm_prepared`` -- a :class:`~repro.executor.prepared.PreparedQuery`
  re-executed with bound ``k``: parse and optimization are both
  skipped, the steady-state serving path;
* ``batch_rows_{1,64,512}`` -- building a blocking sort plan's tree
  and draining it by hand through ``next_batch`` at different batch
  lengths (batch 1 degenerates to a call per row; longer batches
  amortize per-call accounting);
* ``row_at_a_time`` -- the classic one-``next``-per-row hand drain of
  the same sort plan, for reference.

Results land in ``BENCH_serving_throughput.json`` through
:class:`benchmarks.runner.BenchRecorder`; every case carries a ``qps``
(executions per second) extra, and the recorder params carry the
headline ratios (``warm_speedup``, ``batch_speedup``).

Run standalone (CI smoke uses ``--repeats 1``)::

    python -m benchmarks.bench_serving_throughput --repeats 3
"""

import argparse
import statistics
import sys
from time import perf_counter

from repro.common.rng import make_rng
from repro.executor.database import Database

from benchmarks.runner import BenchRecorder

#: Serving workload: 4-way ranked join over small relations, so
#: optimization (DP enumeration over join orders) dominates execution.
SERVING_TABLES = ("A", "B", "C", "D")
SERVING_ROWS = 500
SERVING_DOMAIN = 40
SERVING_K = 10

#: Batch workload: one wide sort plan drained end to end.
BATCH_ROWS = 5000
BATCH_SIZES = (1, 64, 512)

#: Executions averaged inside one timed repetition.
INNER = 5


def build_serving_db(rows=SERVING_ROWS, seed=17):
    rng = make_rng(seed)
    db = Database()
    for name in SERVING_TABLES:
        db.create_table(name, [("c1", "float"), ("c2", "int")], rows=[
            [float(rng.uniform(0, 1)), int(rng.integers(0, SERVING_DOMAIN))]
            for _ in range(rows)
        ])
    db.analyze()
    return db


def serving_sql(k=SERVING_K):
    score = " + ".join(
        "%.2f*%s.c1" % (1.0 / len(SERVING_TABLES), name)
        for name in SERVING_TABLES
    )
    predicates = " AND ".join(
        "%s.c2 = %s.c2" % (left, right)
        for left, right in zip(SERVING_TABLES, SERVING_TABLES[1:])
    )
    return (
        "WITH Ranked AS (SELECT A.c1 AS x, "
        "rank() OVER (ORDER BY (%s)) AS rank FROM %s WHERE %s) "
        "SELECT x, rank FROM Ranked WHERE rank <= %d"
        % (score, ", ".join(SERVING_TABLES), predicates, k)
    )


def build_batch_db(rows=BATCH_ROWS, seed=23):
    rng = make_rng(seed)
    db = Database()
    db.create_table("A", [("c1", "float"), ("c2", "int")], rows=[
        [float(rng.uniform(0, 1)), int(rng.integers(0, SERVING_DOMAIN))]
        for _ in range(rows)
    ])
    db.analyze()
    return db


def batch_sql(rows=BATCH_ROWS):
    return "SELECT A.c1 FROM A ORDER BY A.c1 DESC LIMIT %d" % (rows,)


def _time_case(fn, repeats, inner=INNER):
    """Median seconds per execution of ``fn`` (averaged over ``inner``)."""
    timings = []
    for _ in range(max(1, repeats)):
        started = perf_counter()
        for _ in range(inner):
            fn()
        timings.append((perf_counter() - started) / inner)
    return statistics.median(timings)


def run(repeats=3, out_dir=None):
    """Run every case and write ``BENCH_serving_throughput.json``."""
    recorder = BenchRecorder("serving_throughput", params={
        "tables": len(SERVING_TABLES), "rows": SERVING_ROWS,
        "k": SERVING_K, "batch_rows": BATCH_ROWS, "inner": INNER,
    })

    db = build_serving_db()
    sql = serving_sql()
    db.execute(sql)  # Warm the interpreter/caches before timing.

    def cold():
        db.plan_cache.invalidate()
        db.execute(sql)

    cold_seconds = _time_case(cold, repeats)
    recorder.record("cold_execute", median_seconds=cold_seconds,
                    repeats=repeats, qps=1.0 / cold_seconds)

    db.plan_cache.invalidate()
    db.execute(sql)  # Re-seed the cache for the warm cases.
    warm_seconds = _time_case(lambda: db.execute(sql), repeats)
    recorder.record("warm_execute", median_seconds=warm_seconds,
                    repeats=repeats, qps=1.0 / warm_seconds)

    prepared = db.prepare(sql)
    prepared.execute()
    prepared_seconds = _time_case(prepared.execute, repeats)
    recorder.record("warm_prepared", median_seconds=prepared_seconds,
                    repeats=repeats, qps=1.0 / prepared_seconds)

    batch_db = build_batch_db()
    build = batch_db.executor().builder.build_query
    plan = batch_db.prepare(batch_sql()).explain()

    def drain(batch_size=None):
        """Build the sort plan's tree and drain it by hand."""
        root = build(plan)
        root.open()
        try:
            if batch_size is None:
                pull = root.next
                while pull() is not None:
                    pass
                return
            while len(root.next_batch(batch_size)) == batch_size:
                pass
        finally:
            root.close()

    drain()
    batch_seconds = {}
    for batch_size in BATCH_SIZES:
        seconds = _time_case(lambda _n=batch_size: drain(_n), repeats)
        batch_seconds[batch_size] = seconds
        recorder.record("batch_rows_%d" % (batch_size,),
                        median_seconds=seconds, repeats=repeats,
                        qps=1.0 / seconds, batch_size=batch_size)
    row_seconds = _time_case(drain, repeats)
    recorder.record("row_at_a_time", median_seconds=row_seconds,
                    repeats=repeats, qps=1.0 / row_seconds)

    warm_speedup = cold_seconds / prepared_seconds
    batch_speedup = batch_seconds[BATCH_SIZES[0]] / batch_seconds[
        BATCH_SIZES[-1]
    ]
    recorder.params["warm_speedup"] = round(warm_speedup, 2)
    recorder.params["batch_speedup"] = round(batch_speedup, 2)
    recorder.params["plan_cache"] = db.plan_cache.stats()
    path = recorder.write(out_dir)
    return path, warm_speedup, batch_speedup


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="benchmarks.bench_serving_throughput",
        description="Serving throughput: plan cache + batch drain",
    )
    parser.add_argument("--repeats", type=int, default=3,
                        help="timed repetitions per case (default 3)")
    parser.add_argument("--out-dir", default=None,
                        help="output directory (default: repo root, or "
                             "$BENCH_OUT_DIR)")
    args = parser.parse_args(argv)
    path, warm_speedup, batch_speedup = run(
        repeats=args.repeats, out_dir=args.out_dir,
    )
    print("wrote %s" % (path,))
    print("warm prepared vs cold: %.1fx" % (warm_speedup,))
    print("batch %d vs batch %d drain: %.1fx"
          % (BATCH_SIZES[-1], BATCH_SIZES[0], batch_speedup))
    return 0


if __name__ == "__main__":
    sys.exit(main())
