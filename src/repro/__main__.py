"""Command-line interface: ``python -m repro``.

Subcommands
-----------
``demo``
    Run the quickstart scenario: generate two ranked relations, execute
    the paper's Q1-style top-k SQL, print the plan, instrumentation,
    and results.
``sql QUERY``
    Execute an arbitrary query from the supported dialect against
    generated tables ``A``, ``B``, ``C`` (columns ``c1`` float score,
    ``c2`` int join key).
``figures``
    Print the two analytic figures (1 and 6) straight from the
    optimizer's plan-node costs -- no data generation needed.
``serve``
    Demo the concurrent query server: submit a mixed workload of
    interactive and batch queries from several tenants, then print
    per-session outcomes and the scheduler's preemption / fairness
    counters.

Observability flags (``demo`` and ``sql``): ``--trace`` prints the
span tree, optimizer event summary and estimate-accuracy report of the
run; ``--metrics-out PATH`` writes the full telemetry bundle as JSON
lines (``.prom`` extension switches to Prometheus text format).

Robustness flags (``demo`` and ``sql``): ``--checkpoint-every N``
routes execution through the guarded executor with operator-state
checkpoints every N delivered rows and prints the recovery log;
``--state-dir DIR`` persists those checkpoints as crash-safe
snapshots under DIR (implies the guarded executor), so a killed
process can be continued byte-identically with a later invocation.
Under ``serve``, ``--state-dir`` additionally journals every
admission and replays unfinished queries at startup via
``Server.recover()``.

Serving flag (``demo`` and ``sql``): ``--prepare`` executes through
:meth:`Database.prepare` (plan cache + prepared query) and prints the
cache counters.

Parallelism flags (``demo`` and ``sql``): ``--shards N``
hash-partitions the join inputs into N shards so sharded parallel
rank-join plans become available; ``--parallel MODE`` picks the
vehicle (``auto`` lets the cost model decide, ``inline`` runs shard
pipelines serially in-process, ``pool`` uses worker processes,
``off`` disables parallel plans).  The demo prints per-shard depths
when a parallel plan ran.

Count flags (``--rows``, ``--checkpoint-every``, ``--shards``,
``--clients``, ``--instalment``) take integers >= 1, and ``--limit``
and ``--seed`` integers >= 0; any other value exits with status 2 and a
usage line.
"""

import argparse
import sys

from repro.common.rng import make_rng
from repro.executor.database import Database
from repro.optimizer.enumerator import OptimizerConfig

_DEMO_SQL = """
WITH Ranked AS (
  SELECT A.c1 AS x, B.c2 AS y,
         rank() OVER (ORDER BY (0.3*A.c1 + 0.7*B.c2)) AS rank
  FROM A, B WHERE A.c2 = B.c1)
SELECT x, y, rank FROM Ranked WHERE rank <= 5
"""


def _at_least(minimum):
    """An argparse ``type=``: an integer no smaller than ``minimum``."""
    def parse(text):
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                "invalid int value: %r" % (text,)) from None
        if value < minimum:
            raise argparse.ArgumentTypeError(
                "must be >= %d, got %d" % (minimum, value))
        return value
    return parse


def _operator_config(args):
    """The ``Database(config=...)`` value ``--operator`` asks for.

    ``auto`` widens the search space with the any-k alternative (cost
    still decides); ``anyk`` pins ranked enumeration to the any-k
    operator by disabling the binary rank joins; ``hrjn`` keeps
    today's default space.  No flag leaves the config untouched.
    """
    choice = getattr(args, "operator", None)
    if choice is None or choice == "hrjn":
        return None
    if choice == "anyk":
        return OptimizerConfig(enable_anyk=True, enable_hrjn=False,
                               enable_nrjn=False)
    return OptimizerConfig(enable_anyk=True)


def _make_demo_db(rows, seed, config=None):
    rng = make_rng(seed)
    db = Database(config=config)
    db.create_table("A", [("c1", "float"), ("c2", "int")], rows=[
        [float(rng.uniform(0, 1)), int(rng.integers(0, 40))]
        for _ in range(rows)
    ])
    db.create_table("B", [("c1", "int"), ("c2", "float")], rows=[
        [int(rng.integers(0, 40)), float(rng.uniform(0, 1))]
        for _ in range(rows)
    ])
    db.analyze()
    return db


def _make_sql_db(rows, seed, config=None):
    rng = make_rng(seed)
    db = Database(config=config)
    for name in ("A", "B", "C"):
        db.create_table(name, [("c1", "float"), ("c2", "int")], rows=[
            [float(rng.uniform(0, 1)), int(rng.integers(0, 40))]
            for _ in range(rows)
        ])
    db.analyze()
    return db


def _wants_telemetry(args):
    return bool(getattr(args, "trace", False)
                or getattr(args, "metrics_out", None))


def _emit_telemetry(args, report):
    """Print/serialise the run's telemetry per the CLI flags."""
    telemetry = report.telemetry
    if telemetry is None:
        return
    if args.trace:
        print("\n" + telemetry.tracer.describe())
        kinds = telemetry.events.kinds()
        if kinds:
            print("\nevents: " + ", ".join(
                "%s=%d" % (kind, count)
                for kind, count in sorted(kinds.items())
            ))
        print("\n" + report.accuracy_summary())
    if args.metrics_out:
        from repro.observability.export import to_jsonl, to_prometheus

        if args.metrics_out.endswith(".prom"):
            payload = to_prometheus(telemetry.metrics)
        else:
            payload = to_jsonl(telemetry)
        with open(args.metrics_out, "w") as handle:
            handle.write(payload)
        print("\ntelemetry written to %s" % (args.metrics_out,))


def _run_query(db, query, args):
    """Execute ``query`` honouring the shared CLI flags.

    ``--checkpoint-every N`` routes through the guarded executor with a
    row-cadence checkpoint policy (state-preserving recovery); without
    it the plain executor runs the query.  ``--prepare`` goes through
    :meth:`Database.prepare` (plan-cache serving path); it does not
    combine with the guarded executor.
    """
    trace = _wants_telemetry(args)
    parallel = getattr(args, "parallel", None)
    shards = getattr(args, "shards", None)
    every = getattr(args, "checkpoint_every", None)
    state_dir = getattr(args, "state_dir", None)
    if every is not None or state_dir is not None:
        return db.execute_guarded(query, trace=trace, checkpoint=every,
                                  parallel=parallel, shards=shards,
                                  state_dir=state_dir)
    if getattr(args, "prepare", False):
        prepared = db.prepare(query)
        if shards is not None:
            db._ensure_partitionings(prepared.query, shards)
        report = prepared.execute(trace=trace, parallel=parallel)
        stats = db.plan_cache.stats()
        print("plan cache: %d hit(s), %d miss(es), %d entr%s"
              % (stats["hits"], stats["misses"], stats["size"],
                 "y" if stats["size"] == 1 else "ies"))
        return report
    return db.execute(query, trace=trace, parallel=parallel, shards=shards)


def _print_shard_depths(report):
    """Print per-shard rank-join depths when a parallel plan ran."""
    shard_snaps = [
        snap for snap in report.operators
        if snap.name.startswith("HRJN") and "[s" in snap.name
    ]
    if not shard_snaps:
        return
    print("\nper-shard depths:")
    for snap in shard_snaps:
        print("  %-12s depth=%-14s rows_out=%d"
              % (snap.name, list(snap.pulled), snap.rows_out))


def cmd_demo(args):
    db = _make_demo_db(args.rows, args.seed,
                       config=_operator_config(args))
    report = _run_query(db, _DEMO_SQL, args)
    print(report.explain())
    print("\ntop-5 results:")
    for row in report.rows:
        print("  %r" % (row,))
    _print_shard_depths(report)
    _emit_telemetry(args, report)
    return 0


def cmd_sql(args):
    db = _make_sql_db(args.rows, args.seed,
                      config=_operator_config(args))
    report = _run_query(db, args.query, args)
    print(report.explain())
    print("\n%d rows:" % (len(report.rows),))
    for row in report.rows[:args.limit]:
        print("  %r" % (row,))
    if len(report.rows) > args.limit:
        print("  ... (%d more)" % (len(report.rows) - args.limit,))
    _print_shard_depths(report)
    _emit_telemetry(args, report)
    return 0


def cmd_figures(args):
    from repro.experiments.figures import analytic_report

    print(analytic_report())
    return 0


def cmd_serve(args):
    """Run a mixed concurrent workload through the server demo."""
    import asyncio

    from repro.server import SchedulerConfig, Server

    db = _make_demo_db(args.rows, args.seed,
                       config=_operator_config(args))
    expensive = _DEMO_SQL.replace("rank <= 5", "rank <= 40")

    async def workload():
        config = SchedulerConfig(instalment_pulls=args.instalment)
        state_dir = getattr(args, "state_dir", None)
        async with Server(db, scheduler=config,
                          state_dir=state_dir) as server:
            server.register_tenant("analytics", weight=1.0)
            server.register_tenant("dashboard", weight=2.0)
            sessions = list(await server.recover())
            if sessions:
                print("recovered %d unfinished quer%s from %s"
                      % (len(sessions),
                         "y" if len(sessions) == 1 else "ies",
                         state_dir))
            sessions.append(await server.submit(expensive,
                                                tenant="analytics"))
            for _ in range(args.clients):
                sessions.append(await server.submit(
                    _DEMO_SQL, tenant="dashboard"))
            for session in sessions:
                await session.result()
            return sessions

    sessions = asyncio.run(workload())
    print("session outcomes:")
    for session in sessions:
        print("  %-10s %-12s %-10s rows=%-3d instalments=%d "
              "preemptions=%d"
              % (session.tenant, session.queue_class, session.state,
                 len(session.report.rows),
                 session.stats["instalments"],
                 session.stats["preemptions"]))
    preemptions = db.metrics.counter("server_preemptions_total")
    instalments = db.metrics.counter("server_instalments_total")
    print("\nscheduler: %d instalment(s), %d preemption(s)"
          % (instalments.total(), preemptions.total()))
    stats = db.plan_cache.stats()
    print("plan cache: %d hit(s), %d miss(es)"
          % (stats["hits"], stats["misses"]))
    return 0


def cmd_report(args):
    from repro.experiments.figures import generate_report

    print(generate_report())
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Rank-aware Query Optimization (SIGMOD 2004) demo CLI",
    )
    parser.add_argument("--rows", type=_at_least(1), default=2000,
                        help="rows per generated table (default 2000)")
    parser.add_argument("--seed", type=_at_least(0), default=0,
                        help="generator seed (default 0)")
    parser.add_argument("--trace", action="store_true",
                        help="trace the run: print the span tree, event "
                             "summary, and estimate-accuracy report")
    parser.add_argument("--metrics-out", metavar="PATH", default=None,
                        help="write the run's telemetry to PATH as JSON "
                             "lines (.prom extension: Prometheus text)")
    parser.add_argument("--checkpoint-every", metavar="N",
                        type=_at_least(1),
                        default=None,
                        help="run demo/sql through the guarded executor, "
                             "checkpointing operator state every N rows "
                             "(enables suspend/resume and state-"
                             "preserving recovery)")
    parser.add_argument("--state-dir", metavar="DIR", default=None,
                        help="persist checkpoints as crash-safe "
                             "snapshots under DIR (implies the guarded "
                             "executor); under serve, also journal "
                             "admissions and recover unfinished "
                             "queries at startup")
    parser.add_argument("--prepare", action="store_true",
                        help="run demo/sql through Database.prepare (the "
                             "plan-cache serving path) and print the "
                             "cache counters")
    parser.add_argument("--shards", metavar="N", type=_at_least(1),
                        default=None,
                        help="hash-partition join inputs into N shards "
                             "(enables sharded parallel rank joins)")
    parser.add_argument("--parallel", default=None,
                        choices=("auto", "inline", "pool", "off"),
                        help="parallel execution vehicle: auto (cost "
                             "model decides), inline (in-process "
                             "shards), pool (worker processes), off")
    parser.add_argument("--operator", default=None,
                        choices=("auto", "anyk", "hrjn"),
                        help="ranked-join operator family: auto adds "
                             "the any-k alternative to the search "
                             "space (cost decides), anyk pins ranked "
                             "enumeration to the any-k operator, hrjn "
                             "keeps the default binary rank joins")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("demo", help="run the quickstart scenario")
    sql = sub.add_parser("sql", help="run a query against generated data")
    sql.add_argument("query", help="query text (see README for dialect)")
    sql.add_argument("--limit", type=_at_least(0), default=20,
                     help="rows to print (default 20)")
    sub.add_parser("figures", help="print the analytic figures 1 and 6")
    serve = sub.add_parser(
        "serve", help="demo the concurrent query server")
    serve.add_argument("--clients", type=_at_least(1), default=6,
                       help="interactive sessions to submit alongside "
                            "the expensive batch query (default 6)")
    serve.add_argument("--instalment", type=_at_least(1), default=500,
                       help="pull budget per scheduler instalment "
                            "(default 500)")
    sub.add_parser(
        "report",
        help="regenerate the full paper-reproduction report "
             "(figures 1-6, 13, 15, table 1)",
    )
    args = parser.parse_args(argv)
    handlers = {"demo": cmd_demo, "sql": cmd_sql,
                "figures": cmd_figures, "serve": cmd_serve,
                "report": cmd_report}
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
