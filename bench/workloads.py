"""The workloads and hosted scenarios: data, set-up, operations, checks
and probes.

Each one drives the program through its public entry points only
(``Database``, ``PreparedQuery``, ``Server``).  All tables share one
schema -- ``c1`` a uniform float score, ``c2`` an integer join key --
and every query is a top-k equi-join on ``c2`` ranked by a weighted sum
of the ``c1`` columns, so one oracle (:mod:`bench.oracle`) covers all of
them.  Sizes were tuned on the 2-core reference box so that a round of
at least 100 operations takes one to two seconds; ``bench/README.md``
lists them.

Three are workloads with a timed run (``WORKLOADS``).  ``join_sharded``
and ``serve_durable`` are scenarios: traced like a workload, inside the
traced run of the workload that hosts them, and never timed end to end.
"""

import asyncio
import gc
import os
import shutil
import statistics
import sys
import traceback
from math import fsum
from time import perf_counter_ns

import numpy as np

from repro.common.errors import ReproError
from repro.executor.database import Database, forced_parallel_result
from repro.executor.executor import ExecutionReport, OperatorSnapshot
from repro.executor.plan_cache import query_fingerprint
from repro.optimizer.enumerator import OptimizerConfig
from repro.sql.parser import parse_query

from bench import oracle
from bench.spans import NULL_TRACER, count, layer_shares, total_ms

SCHEMA = [("c1", "float"), ("c2", "int")]

#: Operations per round in ``--smoke`` mode (not comparable).
SMOKE_OPS = 10

#: Seed of the tables' contents and the query weights, the same in
#: every run; ``--seed`` orders rows and operations (see ``Workload``).
DATA_SEED = 20040613


def _sql(tables, weights, k, form):
    """Top-k join text; ``form`` picks chain or star predicates."""
    selects = ", ".join("%s.c1 AS s%d" % (table, index)
                        for index, table in enumerate(tables))
    ranking = " + ".join("%r*%s.c1" % (weight, table)
                         for weight, table in zip(weights, tables))
    if form == "star":
        pairs = [(tables[0], other) for other in tables[1:]]
    else:
        pairs = list(zip(tables, tables[1:]))
    where = " AND ".join("%s.c2 = %s.c2" % pair for pair in pairs)
    outputs = ", ".join("s%d" % (index,) for index in range(len(tables)))
    return ("WITH Ranked AS (SELECT %s, rank() OVER (ORDER BY (%s)) AS rank "
            "FROM %s WHERE %s) SELECT %s, rank FROM Ranked WHERE rank <= %d"
            % (selects, ranking, ", ".join(tables), where, outputs, k))


class Template:
    """One query shape of a workload, with its share of the operations."""

    def __init__(self, name, tables, weights, k, share, form="chain"):
        self.name = name
        self.tables = tuple(tables)
        self.weights = tuple(weights)
        self.k = k
        self.share = share
        self.sql = _sql(self.tables, self.weights, k, form)
        self.columns = tuple("%s.c1" % (table,) for table in tables)
        #: Oracle scores and the public entry point's rows, set by
        #: :meth:`Workload.verify` during warm-up.
        self.expected = None
        self.reference = None

    def scores(self, rows):
        pairs = tuple(zip(self.weights, self.columns))
        return [fsum(weight * row[column] for weight, column in pairs)
                for row in rows]

    def check(self, rows):
        """Per-operation check: row count and non-increasing scores."""
        if len(rows) != len(self.expected):
            return False
        scores = self.scores(rows)
        return all(later <= earlier
                   for earlier, later in zip(scores, scores[1:]))


class Round:
    """What one round of operations measured."""

    def __init__(self):
        #: One entry per operation of the sequence, in its order;
        #: ``None`` where the operation failed.
        self.latencies_ns = []
        self.pulled = 0
        self.results = 0
        self.attempted = 0
        self.failed = 0

    def succeeded(self, template, elapsed_ns, rows, pulled):
        self.attempted += 1
        if not template.check(rows):
            self.failed += 1
            self.latencies_ns.append(None)
            print("wrong answer: %s returned %d rows (expected %d) or "
                  "scores out of order" % (template.name, len(rows),
                                           len(template.expected)),
                  file=sys.stderr)
            return
        self.latencies_ns.append(elapsed_ns)
        self.pulled += pulled
        self.results += len(rows)

    def diverged(self, template):
        """The traced path's rows differ from the public entry point's."""
        self.attempted += 1
        self.failed += 1
        self.latencies_ns.append(None)
        print("traced path diverged on %s" % (template.name,),
              file=sys.stderr)

    def raised(self, template):
        self.attempted += 1
        self.failed += 1
        self.latencies_ns.append(None)
        print("operation failed: %s" % (template.name,), file=sys.stderr)
        traceback.print_exc()

    def timed_ns(self):
        """Latencies of the operations that succeeded."""
        return [value for value in self.latencies_ns if value is not None]


def leaf_pulls(operators):
    """Tuples pulled by the leaf scans of one executed plan.

    A scan reports them as its ``rows_out``; a shard stream (the leaf
    of a pooled plan, whose scans run in a worker) mirrors the worker
    kernel's two input depths into ``pulled``.
    """
    total = 0
    for snap in operators:
        if not snap.pulled:
            total += snap.rows_out
        elif "[s" in snap.name:
            total += sum(snap.pulled)
    return total


class Workload:
    """Base: seeded data, repeated set-up, rounds, traced rounds."""

    name = None
    #: ``{table: (rows, key domain)}``.
    tables = {}
    round_ops = 100
    #: Forced parallel vehicle of every operation (``None`` = serial).
    parallel = None
    config = None
    #: Phase of the traced run whose spans time the operators.
    operator_phase = "round"
    #: Scenarios traced after this workload in its traced run, and the
    #: prefixes of the per-layer metrics a hosted scenario contributes.
    hosted = ()
    owns = ()

    def __init__(self, seed, smoke=False, workdir=None):
        self.seed = seed
        self.smoke = smoke
        self.workdir = workdir
        # N2: the seed permutes, it does not resample.  Scores, keys and
        # query weights come from the workload's own fixed generator, so
        # every seed joins the same tuples and pulls the same counts;
        # the seed decides the physical row order of each table and the
        # order of the operations.  (Resampling moves the depth of a
        # k=5 join by tens of percent, which would drown any change.)
        fixed = np.random.default_rng([DATA_SEED, sum(map(ord, self.name))])
        rng = np.random.default_rng([seed, sum(map(ord, self.name))])
        self.columns = {}
        for table, (count_, domain) in self.tables.items():
            order = rng.permutation(count_)
            scores = fixed.uniform(0.0, 1.0, count_)[order]
            keys = fixed.integers(0, domain, count_)[order]
            self.columns[table] = (scores, keys)
        self.templates = self.make_templates(fixed)
        self.sequence = self._make_sequence(rng)
        self.db = None
        #: What the traced operations' reports showed (see ``observe``)
        #: and the MEMO order classes their optimizations enumerated.
        self.observed = {"reports": 0, "pulled": 0, "max_buffer": 0,
                         "cost_units": 0.0, "depth_ratios": []}
        self.memo_plans = 0

    # ------------------------------------------------------------------
    # Inputs
    # ------------------------------------------------------------------
    def make_templates(self, rng):
        raise NotImplementedError

    def _make_sequence(self, rng):
        """Template indexes of one round: fixed counts, seeded order."""
        shares = sum(template.share for template in self.templates)
        sequence = []
        for index, template in enumerate(self.templates):
            sequence += [index] * round(
                self.round_ops * template.share / shares)
        rng.shuffle(sequence)
        if self.smoke:
            sequence = sequence[:SMOKE_OPS]
        return [int(index) for index in sequence]

    def active_templates(self):
        return [self.templates[index] for index in sorted(set(self.sequence))]

    # ------------------------------------------------------------------
    # Set-up (program calls only; the caller times it)
    # ------------------------------------------------------------------
    def input_rows(self):
        """The tables as the row lists ``create_table`` takes.

        Built before a set-up is timed and dropped after the load: they
        are the benchmark's objects, and kept alive they would be walked
        by every full collection -- also in the pool workers, which
        inherit the parent's heap.
        """
        return {table: [list(pair) for pair in
                        zip(scores.tolist(), keys.tolist())]
                for table, (scores, keys) in self.columns.items()}

    def load(self, rows, tr=NULL_TRACER):
        """A new Database with ``rows`` bulk-loaded and analyzed."""
        db = Database(config=self.config)
        with tr.span("storage.load"):
            for table, table_rows in rows.items():
                db.create_table(table, SCHEMA, rows=table_rows)
        with tr.span("storage.analyze"):
            db.analyze()
        return db

    def setup(self, rows, tr=NULL_TRACER):
        """Set up from ``input_rows()``; empties ``rows`` once loaded."""
        self.db = self.load(rows, tr)
        rows.clear()
        self.prepare(tr)
        for template in self.warm_templates():
            self.direct(template)

    def prepare(self, tr):
        """Workload-specific set-up after load and analyze."""

    def warm_templates(self):
        """Templates executed once at the end of set-up."""
        return self.active_templates()

    def teardown(self):
        """Release what set-up started; safe to call twice."""
        if self.db is not None:
            self.db.shard_pool.shutdown()
            self.db = None

    def loaded_rows(self):
        return sum(rows for rows, _domain in self.tables.values())

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------
    def direct(self, template, **options):
        """The operation through the public entry point; a report."""
        return self.db.execute(template.sql, **options)

    def verify(self):
        """Warm-up check of every template against the oracle.

        Returns the names of the templates whose score sequence differs
        from full join, sort, take k.
        """
        wrong = []
        for template in self.active_templates():
            template.expected = oracle.top_k_scores(
                [self.columns[table] for table in template.tables],
                template.weights, template.k)
            rows = self.direct(template).rows
            template.reference = rows
            got = template.scores(rows)
            if (len(got) != len(template.expected) or not np.allclose(
                    got, template.expected, rtol=0.0, atol=1e-9)):
                wrong.append(template.name)
        return wrong

    def run_round(self, sequence, tr=None):
        """One closed-loop round; traced when ``tr`` is given."""
        result = Round()
        for index in sequence:
            template = self.templates[index]
            started = perf_counter_ns()
            try:
                if tr is None:
                    report = self.direct(template)
                else:
                    with tr.operation():
                        report = self.traced(template, tr)
                elapsed = perf_counter_ns() - started
            except ReproError:
                result.raised(template)
                continue
            if tr is not None and report.rows != template.reference:
                result.diverged(template)
                continue
            result.succeeded(template, elapsed, report.rows,
                             leaf_pulls(report.operators))
            if tr is not None:
                self.observe(report)
        return result

    def observe(self, report):
        """Keep a traced operation's counts, estimates and plan cost.

        Only numbers are kept: holding every report alive would grow
        the heap the collector walks during the traced round.
        """
        seen = self.observed
        seen["reports"] += 1
        seen["pulled"] += leaf_pulls(report.operators)
        seen["max_buffer"] = max(seen["max_buffer"], max(
            snap.max_buffer for snap in report.operators))
        seen["cost_units"] += report.best_plan.cost(float(report.query.k))
        joins = [row for row in report.estimate_accuracy()
                 if row["kind"] == "rank_join"]
        if joins:
            root = joins[0]
            seen["depth_ratios"].append(
                max(root["est_d_left"], root["est_d_right"])
                / max(root["actual_d_left"], root["actual_d_right"], 1))

    # ------------------------------------------------------------------
    # Traced operation: the same work as ``direct`` through the public
    # functions of each layer, one span per call.
    # ------------------------------------------------------------------
    def parsed(self, template, tr):
        """``(query, fingerprint)`` of the operation, under spans."""
        with tr.span("sql.parse"):
            query = parse_query(template.sql)
        with tr.span("plan_cache.fingerprint"):
            fingerprint = query_fingerprint(query)
        return query, fingerprint

    def traced(self, template, tr, batch_size=None):
        db = self.db
        executor = db.executor()
        cache = db.plan_cache
        query, fingerprint = self.parsed(template, tr)
        version = db.catalog.version
        key = fingerprint
        if self.parallel is not None:
            key = (fingerprint, "parallel", self.parallel)
        with tr.span("plan_cache.lookup"):
            result = cache.get(key, query.k, version)
        if result is None:
            if self.parallel is None:
                with tr.span("optimizer.optimize"):
                    result = executor.optimizer.optimize(query)
            else:
                with tr.span("plan_cache.lookup"):
                    base = cache.get(fingerprint, query.k, version)
                if base is None:
                    with tr.span("optimizer.optimize"):
                        base = executor.optimizer.optimize(query)
                    cache.put(fingerprint, query.k, version, base)
                with tr.span("optimizer.parallel"):
                    result = forced_parallel_result(
                        executor.catalog, db.cost_model, base,
                        self.parallel)
            with tr.span("plan_cache.put"):
                cache.put(key, query.k, version, result)
            self.memo_plans += result.memo.class_count()
        with tr.span("optimizer.build"):
            root = executor.builder.build_query(result)
        with tr.span("operators.open"):
            root.open()
        rows = []
        try:
            with tr.span("operators.pull"):
                if batch_size is None:
                    pull = root.next
                    while True:
                        row = pull()
                        if row is None:
                            break
                        rows.append(row)
                else:
                    while True:
                        batch = root.next_batch(batch_size)
                        rows.extend(batch)
                        if len(batch) < batch_size:
                            break
        finally:
            with tr.span("operators.close"):
                root.close()
        with tr.span("executor.report"):
            operators = [OperatorSnapshot(op) for op in root.walk()]
            report = ExecutionReport(query, result, rows, operators)
        return report

    # ------------------------------------------------------------------
    # Probes of the traced run (per-layer numbers a round cannot give)
    # ------------------------------------------------------------------
    def probe_sequence(self):
        return self.sequence[:max(SMOKE_OPS, len(self.sequence) // 3)]

    def _mean_ms(self, call, sequence):
        started = perf_counter_ns()
        for index in sequence:
            call(self.templates[index])
        return (perf_counter_ns() - started) / 1e6 / len(sequence)

    def probes(self, tr, base_ms):
        """Extra per-layer metrics; ``{name: value}``.

        ``base_ms`` is the mean untraced operation of this run.
        """
        sequence = self.probe_sequence()
        values = {}
        tr.phase = "probe.batch"
        for index in sequence:
            with tr.operation():
                self.traced(self.templates[index], tr, batch_size=256)
        values["operators.batch_pull_ms"] = total_ms(
            tr.select("probe.batch"), "operators.pull") / len(sequence)
        values.update(self._observability(sequence))
        return values

    def layer_shares(self, tr, probes, base_ms):
        """Each layer's share of the traced round's operation time."""
        return layer_shares(tr.select("round"))

    def _observability(self, sequence):
        """Cost of the program's own tracing on this workload."""
        plain_ns = traced_ns = spans = 0
        for index in sequence:
            # Alternate, so slow drift of the machine cancels out.
            template = self.templates[index]
            started = perf_counter_ns()
            self.direct(template)
            middle = perf_counter_ns()
            report = self.direct(template, trace=True)
            traced_ns += perf_counter_ns() - middle
            plain_ns += middle - started
            spans += sum(1 for root in report.telemetry.tracer.spans
                         for _span in root.walk())
        return {
            "observability.trace_overhead_ratio": traced_ns / plain_ns,
            "observability.spans_per_query": spans / len(sequence),
            "_direct_execute_ms": plain_ns / 1e6 / len(sequence),
        }


class JoinDeep(Workload):
    """Prepared, plan-cache-warm deep rank joins: the operators' pull
    loop is over 85% of the time; parse and optimizer are absent."""

    name = "join_deep"
    tables = {"A": (60000, 50), "B": (60000, 50), "C": (60000, 50),
              "D": (12000, 4000), "E": (12000, 4000)}
    round_ops = 102

    def make_templates(self, rng):
        return [
            Template("two_way_hrjn", "AB", (0.5, 0.5), 2000, 1),
            Template("three_way_hrjn", "ABC", (0.4, 0.3, 0.3), 300, 1),
            Template("sparse_nrjn", "DE", (0.5, 0.5), 40, 1),
        ]

    def prepare(self, tr):
        self.prepared = {template.name: self.db.prepare(template.sql)
                         for template in self.templates}

    def direct(self, template, **options):
        return self.prepared[template.name].execute(**options)

    def parsed(self, template, tr):
        prepared = self.prepared[template.name]
        return prepared.bind(), prepared.fingerprint


class JoinSharded(Workload):
    """Sparse 2-way join on 2 pooled shards: the only path through the
    shard pool's worker kernel, partitioning, shared memory and the
    score merge."""

    name = "join_sharded"
    owns = ("shard_pool.", "storage.partition_ms", "storage.shm_")
    tables = {"A": (50000, 100000), "B": (50000, 100000)}
    round_ops = 100
    parallel = "pool"
    shards = 2
    #: HRJN only, as in benchmarks/bench_parallel_scaling.py: a sparse
    #: join otherwise plans NRJN, which has no sharded alternative.
    config = OptimizerConfig(enable_nrjn=False)

    def make_templates(self, rng):
        return [Template("sparse_pooled", "AB", (0.5, 0.5), 600, 1)]

    def prepare(self, tr):
        self.db.shard_pool.max_workers = self.shards
        with tr.span("storage.partition"):
            for table in self.tables:
                self.db.partition_table(table, self.shards,
                                        column="%s.c2" % (table,))
        # N1 for the workers: they inherit this process's heap when the
        # first pooled operation forks them, so it is frozen first.
        gc.collect()
        gc.freeze()
        # That operation also publishes the shared-memory segment;
        # shard_pool.start_ms is its excess over a steady one.
        started = perf_counter_ns()
        self.direct(self.templates[0])
        self.first_pooled_ns = perf_counter_ns() - started

    def direct(self, template, parallel=parallel, **options):
        return self.db.execute(template.sql, parallel=parallel,
                               shards=self.shards, **options)

    def warm_templates(self):
        return []

    def probes(self, tr, base_ms):
        from repro.storage import shm

        values = super().probes(tr, base_ms)
        template = self.templates[0]
        repeats = 3 if self.smoke else 7
        pooled = statistics.median([self._mean_ms(self.direct, [0])
                               for _ in range(3 * repeats)])
        serial = statistics.median([self._mean_ms(
            lambda t: self.direct(t, parallel="off"), [0])
            for _ in range(repeats)])
        inline = statistics.median([self._mean_ms(
            lambda t: self.direct(t, parallel="inline"), [0])
            for _ in range(repeats)])
        name = "bench_%d_probe" % (os.getpid(),)
        with tr.span("storage.shm_publish"):
            segment = shm.encode_tables(self.db.catalog.tables(), name)
        size = segment.size
        segment.close()
        segment.unlink()
        values.update({
            "shard_pool.start_ms": self.first_pooled_ns / 1e6 - pooled,
            "shard_pool.pool_vs_serial_ratio": pooled / serial,
            "shard_pool.inline_vs_serial_ratio": inline / serial,
            "storage.shm_segment_mb": size / 2 ** 20,
            "_shard_pool_serial_ms": serial,
            "_shard_pool_pooled_ms": pooled,
        })
        assert template.reference == self.direct(
            template, parallel="off").rows
        return values


def _weights(rng, count_, seen):
    """A fresh weight vector whose ratios no earlier shape used."""
    while True:
        raw = rng.uniform(0.1, 0.9, count_)
        weights = tuple(round(float(value), 3) for value in raw / raw.sum())
        ratios = tuple(round(value / weights[0], 6) for value in weights)
        if ratios not in seen:
            seen.add(ratios)
            return weights


class PlanCold(Workload):
    """130 distinct shapes cycled through the 128-entry plan cache, so
    every operation parses and enumerates a MEMO: sql and optimizer do
    most of the work."""

    name = "plan_cold"
    tables = {"A": (70000, 40), "B": (70000, 40), "C": (70000, 40),
              "D": (70000, 40)}
    round_ops = 130

    def make_templates(self, rng):
        templates = []
        seen = set()
        names = sorted(self.tables)
        pairs = [(a, b) for a in names for b in names if a < b]
        triples = [(a, b, c) for a in names for b in names for c in names
                   if a < b < c]
        # 98 two-table shapes (the p50 mode) and 32 three-table shapes
        # (the p90 mode): the boundary sits at the 75th percentile.
        for index in range(98):
            tables = pairs[index % len(pairs)]
            templates.append(Template(
                "two_%02d" % (index,), tables, _weights(rng, 2, seen),
                10, 1))
        for index in range(32):
            tables = triples[index % len(triples)]
            templates.append(Template(
                "three_%02d" % (index,), tables, _weights(rng, 3, seen),
                10, 1, form="star" if index % 2 else "chain"))
        return templates

    def warm_templates(self):
        # Nothing to warm: no shape is ever served from the cache.  One
        # shape per mode runs so lazily imported code is loaded.
        active = self.active_templates()
        return [active[0], active[-1]]


class ShortWarm(Workload):
    """8 small cached shapes of 0.4-3 ms: parse, fingerprint, cache hit,
    plan build, open/close and report construction weigh most here; the
    pull loop is about 200 tuples."""

    name = "short_warm"
    tables = {"A": (90000, 50), "B": (90000, 50), "C": (90000, 50)}
    round_ops = 1200

    def make_templates(self, rng):
        # Shares keep p50 inside one 3-way shape (40th-70th percentile)
        # and p90 inside the slowest one (80th-100th).
        return [
            Template("ab_k5", "AB", (0.6, 0.4), 5, 8),
            Template("ab_k10", "AB", (0.3, 0.7), 10, 8),
            Template("bc_k20", "BC", (0.5, 0.5), 20, 8),
            Template("ac_k10", "AC", (0.2, 0.8), 10, 8),
            Template("bc_k5", "BC", (0.9, 0.1), 5, 8),
            Template("abc_k5", "ABC", (0.5, 0.3, 0.2), 5, 30),
            Template("abc_k10", "ABC", (0.4, 0.4, 0.2), 10, 10),
            Template("abc_k20", "ABC", (0.2, 0.3, 0.5), 20, 20),
        ]


class ServeDurable(Workload):
    """One closed-loop client of a Server with a state_dir: admission,
    journal, instalment scheduler, guarded executor, checkpoint encoding
    and fsynced snapshots are on the blocking path."""

    name = "serve_durable"
    owns = ("robustness.", "server.")
    tables = {"A": (130000, 2000), "B": (130000, 2000)}
    round_ops = 100
    #: Pulls per instalment: the query pulls about 1200 tuples, so it
    #: is suspended to a durable snapshot at two instalment boundaries.
    instalment_pulls = 500
    config = OptimizerConfig(enable_nrjn=False)

    def make_templates(self, rng):
        return [Template("served_hrjn", "AB", (0.5, 0.5), 60, 1)]

    def __init__(self, seed, smoke=False, workdir=None):
        super().__init__(seed, smoke, workdir)
        self._round = 0
        self.sessions = []
        self.snapshot_sizes = []
        self.fsyncs = 0

    def warm_templates(self):
        # Server start is part of set-up: one served, durable operation
        # on a throwaway server loads the serving and durability code.
        self.run_round(self.sequence[:1], check=False)
        return self.active_templates()

    def run_round(self, sequence, tr=None, check=True):
        """A fresh Server and empty state_dir, drained at round end."""
        self._round += 1
        state_dir = os.path.join(self.workdir, "state-%d" % (self._round,))
        try:
            return asyncio.run(self._serve(sequence, state_dir, tr, check))
        finally:
            shutil.rmtree(state_dir, ignore_errors=True)

    async def _serve(self, sequence, state_dir, tr, check):
        from repro.server import SchedulerConfig, Server

        result = Round()
        server = Server(
            self.db, state_dir=state_dir,
            scheduler=SchedulerConfig(
                instalment_pulls=self.instalment_pulls))
        restore = self._wrap(server, tr) if tr is not None else []
        try:
            async with server:
                for index in sequence:
                    template = self.templates[index]
                    started = perf_counter_ns()
                    try:
                        if tr is None:
                            session = await server.submit(template.sql)
                            report = await session.result()
                        else:
                            with tr.operation():
                                with tr.span("server.submit"):
                                    session = await server.submit(
                                        template.sql)
                                with tr.span("server.wait"):
                                    report = await session.result()
                        elapsed = perf_counter_ns() - started
                    except ReproError:
                        result.raised(template)
                        continue
                    if not check:
                        continue
                    if (tr is not None
                            and report.rows != template.reference):
                        result.diverged(template)
                        continue
                    result.succeeded(template, elapsed, report.rows, 0)
                    if tr is not None:
                        self.sessions.append(dict(session.stats))
                # Exact count: the tenant's pulls over every instalment.
                tenant = server.stats()["tenants"].get("default")
                result.pulled = tenant["pulls"] if tenant else 0
        finally:
            for undo in restore:
                undo()
        return result

    def _wrap(self, server, tr):
        """Time the durability calls the scheduler makes internally."""
        from repro.robustness import durability

        original_fsync = os.fsync

        def fsync(fd):
            self.fsyncs += 1
            with tr.span("robustness.fsync"):
                return original_fsync(fd)

        os.fsync = fsync
        return [
            lambda: setattr(os, "fsync", original_fsync),
            tr.wrap(durability, "encode_snapshot",
                    "robustness.snapshot_encode", self.snapshot_sizes),
            tr.wrap(server.store, "save_checkpoint",
                    "robustness.durable_write"),
        ]

    operator_phase = "probe.direct"

    def layer_shares(self, tr, probes, base_ms):
        # The served path runs the operators inside the scheduler's
        # threads, so their share is taken from the same query run
        # directly; the rest is what serving and durability add.
        direct = probes["_direct_execute_ms"] / base_ms
        return {"operators+executor": direct,
                "server+robustness": 1.0 - direct}

    def probes(self, tr, base_ms):
        from repro.robustness.budget import ResourceBudget

        db = self.db
        template = self.templates[0]
        sequence = self.probe_sequence()
        values = self._observability(sequence)
        direct_ms = values["_direct_execute_ms"]
        # The same query through the decomposed path gives the
        # operators' numbers the served path cannot expose.
        tr.phase = "probe.direct"
        for index in sequence:
            with tr.operation():
                report = self.traced(self.templates[index], tr)
            self.observe(report)
        guarded_ms = self._mean_ms(
            lambda t: db.execute_guarded(t.sql), sequence)
        cadence = max(1, template.k // 4)
        checkpointed_ms = self._mean_ms(
            lambda t: db.execute_guarded(t.sql, checkpoint=cadence),
            sequence)
        # Cold recovery: suspend half-way into a state_dir, then a
        # fresh Database (the restarted process) resumes from it.
        clean = db.execute_guarded(template.sql)
        half = clean.recovery.stats["pulled_total"] // 2
        resume_ms, rerun_ms = [], []
        for attempt in range(3):
            state_dir = os.path.join(self.workdir,
                                     "resume-%d" % (attempt,))
            try:
                first = db.execute_guarded(
                    template.sql, budget=ResourceBudget(max_pulls=half),
                    checkpoint=cadence, state_dir=state_dir)
                if not first.suspended:
                    raise AssertionError("probe query did not suspend")
                # Two restarted processes: one resumes, one reruns.
                restarted = self.load(self.input_rows())
                started = perf_counter_ns()
                resumed = restarted.resume(state_dir)
                resume_ms.append((perf_counter_ns() - started) / 1e6)
                if resumed.rows != clean.rows:
                    raise AssertionError("resumed rows differ")
                restarted = self.load(self.input_rows())
                started = perf_counter_ns()
                restarted.execute_guarded(template.sql)
                rerun_ms.append((perf_counter_ns() - started) / 1e6)
            finally:
                shutil.rmtree(state_dir, ignore_errors=True)
        sessions = self.sessions
        values.update({
            "robustness.fsyncs_per_query": self.fsyncs / len(sessions),
            "robustness.snapshot_bytes_per_query":
                sum(self.snapshot_sizes) / len(sessions),
            "server.instalments_per_query": sum(
                stat["instalments"] for stat in sessions) / len(sessions),
            "server.preemptions_per_query": sum(
                stat["preemptions"] for stat in sessions) / len(sessions),
            "server.overhead_ratio": base_ms / direct_ms,
            "robustness.guard_overhead_ratio": guarded_ms / direct_ms,
            "robustness.checkpoint_overhead_ratio":
                checkpointed_ms / guarded_ms,
            "robustness.resume_ms": statistics.median(resume_ms),
            "robustness.resume_vs_rerun_ratio":
                statistics.median(resume_ms) / statistics.median(rerun_ms),
            "_guarded_ms": guarded_ms,
            "_rerun_ms": statistics.median(rerun_ms),
        })
        return values


# The two scenarios that keep more than one process or thread busy, or
# wait for the disk, are traced inside a workload's traced run and have
# no timed run: on a shared host their latency measures the neighbours.
JoinDeep.hosted = (JoinSharded,)
ShortWarm.hosted = (ServeDurable,)

WORKLOADS = {cls.name: cls for cls in (JoinDeep, PlanCold, ShortWarm)}


def span_metrics(workload, tr, operations, memo_plans, base_ms, traced_ms):
    """Per-layer metrics of the traced round, from its spans."""
    spans = tr.select("round")
    setup = tr.select("setup")
    seen = workload.observed
    pulled = seen["pulled"]
    # serve_durable hides its operators inside the server; the same
    # query through the decomposed path (a probe) stands in for them.
    operator_spans = tr.select(workload.operator_phase)
    operator_ops = count(operator_spans, "op")

    def per_op(name):
        return total_ms(spans, name) / operations

    def per_operator_op(name):
        return total_ms(operator_spans, name) / max(operator_ops, 1)

    execute_ms = sum(total_ms(operator_spans, "operators." + part)
                     for part in ("open", "pull", "close"))
    load_ms = total_ms(setup, "storage.load")
    values = {
        "sql.parse_ms": per_op("sql.parse"),
        "plan_cache.fingerprint_ms": per_op("plan_cache.fingerprint"),
        "plan_cache.lookup_ms": per_op("plan_cache.lookup"),
        "optimizer.optimize_ms": per_op("optimizer.optimize"),
        "optimizer.memo_plans_per_query": memo_plans / operations,
        "optimizer.build_ms": per_operator_op("optimizer.build"),
        "estimation.depth_ratio": (statistics.median(seen["depth_ratios"])
                                   if seen["depth_ratios"] else 0.0),
        "cost.units_per_ms": (seen["cost_units"] / execute_ms
                              if execute_ms else 0.0),
        "operators.open_ms": per_operator_op("operators.open"),
        "operators.pull_ms": per_operator_op("operators.pull"),
        "operators.close_ms": per_operator_op("operators.close"),
        "operators.us_per_pulled_tuple": (1e3 * execute_ms / pulled
                                          if pulled else 0.0),
        "operators.pulled_per_query": pulled / max(seen["reports"], 1),
        "operators.max_buffer_rows": seen["max_buffer"],
        "storage.load_rows_per_s": (workload.loaded_rows() / load_ms * 1e3
                                    if load_ms else 0.0),
        "storage.analyze_ms": total_ms(setup, "storage.analyze"),
        "storage.partition_ms": total_ms(setup, "storage.partition"),
        "storage.shm_publish_ms": total_ms(tr.spans, "storage.shm_publish"),
        "robustness.snapshot_encode_ms":
            per_op("robustness.snapshot_encode"),
        "robustness.durable_write_ms": per_op("robustness.durable_write"),
        "server.submit_ms": per_op("server.submit"),
        "server.wait_ms": per_op("server.wait"),
        "bench.probe_overhead_ratio": traced_ms / base_ms,
    }
    return values
