"""Process-pool execution of shard rank-join pipelines.

The pool vehicle runs one HRJN pipeline per shard inside worker
processes.  Shard table data travels through a named
``multiprocessing.shared_memory`` segment (one per pool generation, see
:mod:`repro.storage.shm`): the parent lays the column-major tables and
index permutations out once, and every worker attaches and wraps the
raw columns in ``memoryview`` casts -- zero-copy transport, no pickled
table snapshots, no reliance on fork inheritance for data.  Each task
message is a small spec (table aliases, index names, join keys, score
expressions) plus an output window, and each result is a batch of
``(score, row)`` dicts, mirroring the batch-at-a-time ``next_batch``
plane.

The worker runs the same
:class:`~repro.operators.rank_kernel.RankJoinKernel` as the in-process
:class:`~repro.operators.hrjn.HRJN`, with the polling strategy its
task spec names (``alternate``, HRJN's default, when it names none),
through the same positional adapter over the shared columns, with heap
positions as payloads instead of Rows -- so its output stream is the
serial operator's by construction.

One deliberate asymmetry versus the in-process operators remains:
tasks are windowed, not resident.  A refill re-runs the kernel to a
deeper target and ships only the new suffix; budgets double on each
refill so total recomputation stays within a constant factor of the
final depth.

Segment lifecycle: generation-keyed names (``repro_<pid>_g<n>``) are
created on pool start, freed (closed + unlinked) on rebuild and
shutdown, and composable with the rebuild-once-then-degrade ladder --
the degraded inline path attaches the very same segment in-process, so
every execution mode reads identical bytes.
"""

import itertools
import math
import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

from repro.common.errors import ExecutionError, TransientFaultError
from repro.common.scoring import SumScore
from repro.common.types import Row
from repro.observability.metrics import NULL_METRICS
from repro.operators.base import Operator, OperatorStats, ScoreSpec
from repro.operators.rank_kernel import PositionalInput, RankJoinKernel
from repro.operators.scan import ColumnarView
from repro.storage import shm

_GENERATION = itertools.count(1)

#: Per-process cache of attached segments ({name: ShmView}).  In a
#: worker this holds exactly the generation it serves; in the parent it
#: holds segments attached for inline/degraded execution and is purged
#: when the owning pool frees the generation.
_ATTACHED = {}


def _attach_segment(name):
    view = _ATTACHED.get(name)
    if view is None:
        view = shm.attach(name)
        _ATTACHED[name] = view
    return view


def _release_segment(name):
    view = _ATTACHED.pop(name, None)
    if view is not None:
        view.close()


class _ShmScan(Operator):
    """One shard input over the shared segment, as the kernel sees a scan.

    Offers what a pull of
    :class:`~repro.operators.rank_kernel.PositionalInput` asks of an
    IndexScan -- ``fuse_columnar`` and the ``_consumed`` cursor -- with
    the heap position itself as the payload, so the worker touches no
    Row and builds output dicts only for the window it ships.
    """

    def __init__(self, table, index_name):
        super().__init__()
        self.table = table
        self.order = table.order(index_name)
        self._consumed = 0

    def fuse_columnar(self):
        # ``int`` is the identity on a position: the payload.
        return ColumnarView(self.table.columns, self.order, int,
                            len(self.order))


def _run_shard_task(spec, skip, budget, attempt=1):
    """Produce output rows ``skip .. skip+budget`` of one shard's HRJN.

    Runs in a worker process (or inline, for tests and the degraded
    ladder).  Returns ``{"rows": [...], "pulled": (dL, dR),
    "exhausted": bool}`` where ``rows`` are plain dicts carrying the
    combined score column.
    """
    fault = spec.get("fault")
    if fault is not None and attempt <= fault.get("times", 1):
        raise TransientFaultError(
            fault.get("message")
            or "injected shard fault (attempt %d)" % (attempt,)
        )
    view = _attach_segment(spec["segment"])
    sides = [spec["left"], spec["right"]]
    tables = [view.table(side["table"]) for side in sides]
    # A bare Operator owns what the adapters ask of a rank join: the
    # ``pulled`` counters and the (absent) guard and tracer hooks.
    join = Operator(children=[_ShmScan(table, side["index"])
                              for table, side in zip(tables, sides)])
    kernel = RankJoinKernel(
        tuple(
            PositionalInput.over(join, index, (side["key"],),
                                 ScoreSpec.weighted(side["expression"]))
            for index, side in enumerate(sides)
        ),
        SumScore(), spec.get("strategy", "alternate"), join.stats,
    )
    needed = skip + budget
    reported = kernel.advance(needed)
    # Output dicts are built straight from the shared columns at the
    # two heap positions, left columns first, for the shipped window.
    left, right = ([(name, table.columns[name]) for name in table.names]
                   for table in tables)
    score_column = spec["score_column"]
    rows = []
    for negated, _sequence, left_position, right_position in reported[skip:]:
        output = {name: column[left_position] for name, column in left}
        for name, column in right:
            output[name] = column[right_position]
        output[score_column] = -negated
        rows.append(output)
    return {
        "rows": rows,
        "pulled": tuple(join.stats.pulled),
        "exhausted": len(reported) < needed,
    }


class ShardPool:
    """Lazily started fork-based process pool for shard pipelines.

    The pool (and its shared-memory segment) is rebuilt whenever the
    catalog version moves, which keeps worker-side table views
    consistent with the data the optimizer planned against -- the same
    invalidation rule the plan cache uses.

    Parameters
    ----------
    catalog:
        Source of shard tables.
    max_workers:
        Worker count override (default: bounded cpu count).
    metrics:
        Optional :class:`~repro.observability.metrics.MetricsRegistry`;
        when given, segment lifecycle is reported as ``shm_*`` counters.
    """

    def __init__(self, catalog, max_workers=None, metrics=None):
        self.catalog = catalog
        self.max_workers = max_workers
        self.metrics = NULL_METRICS if metrics is None else metrics
        self._executor = None
        self._version = None
        self._segment = None
        self._segment_name = None

    @property
    def available(self):
        """True when fork-based worker processes can be used here."""
        try:
            import multiprocessing

            multiprocessing.get_context("fork")
        except (ImportError, ValueError):
            return False
        return True

    @property
    def segment_name(self):
        """Current generation's segment name (building it if needed)."""
        self._ensure_segment()
        return self._segment_name

    def _create_segment(self):
        name = "repro_%d_g%d" % (os.getpid(), next(_GENERATION))
        self._segment = shm.encode_tables(self.catalog.tables(), name)
        self._segment_name = name
        self.metrics.counter("shm_segments_created_total").inc()
        self.metrics.gauge("shm_segment_bytes").set(self._segment.size)

    def _free_segment(self):
        name = self._segment_name
        if name is None:
            return
        self._segment_name = None
        _release_segment(name)  # Parent-side inline attachment, if any.
        segment = self._segment
        self._segment = None
        try:
            segment.close()
            segment.unlink()
        except Exception:  # pragma: no cover - already-freed race
            pass
        self.metrics.counter("shm_segments_freed_total").inc()
        self.metrics.gauge("shm_segment_bytes").set(0)

    def _ensure(self):
        version = self.catalog.version
        if self._executor is not None and self._version == version:
            return self._executor
        self.shutdown()
        import multiprocessing

        self._create_segment()
        workers = self.max_workers or min(
            8, max(2, os.cpu_count() or 1)
        )
        self._executor = ProcessPoolExecutor(
            max_workers=workers,
            mp_context=multiprocessing.get_context("fork"),
        )
        self._version = version
        return self._executor

    def submit(self, spec, skip, budget, attempt=1):
        """Submit one shard window; returns a future."""
        executor = self._ensure()
        spec = dict(spec, segment=self._segment_name)
        return executor.submit(_run_shard_task, spec, skip, budget,
                               attempt)

    def run_inline(self, spec, skip, budget, attempt=1):
        """Run one shard window in-process (tests / degraded ladder)."""
        self._ensure_segment()
        spec = dict(spec, segment=self._segment_name)
        return _run_shard_task(spec, skip, budget, attempt)

    def rebuild(self):
        """Replace a broken executor with a fresh pool.

        Idempotent across the several :class:`ShardStream` instances
        sharing one pool: a worker death breaks every in-flight future
        at once, so the first stream to notice rebuilds and the rest
        find a healthy executor already in place.
        """
        executor = self._executor
        if executor is not None and not getattr(executor, "_broken",
                                                False):
            return executor
        self.shutdown()
        return self._ensure()

    def _ensure_segment(self):
        if (self._segment_name is None
                or self._version != self.catalog.version):
            # Executor (if any) was forked against an older segment.
            if self._executor is not None:
                self._executor.shutdown(wait=False)
                self._executor = None
            self._free_segment()
            self._create_segment()
            self._version = self.catalog.version

    def shutdown(self):
        """Stop workers and free the segment; restarts lazily on next
        submit."""
        if self._executor is not None:
            self._executor.shutdown(wait=False)
            self._executor = None
        self._free_segment()
        self._version = None

    def __del__(self):  # pragma: no cover - interpreter teardown
        try:
            self.shutdown()
        except Exception:
            pass


class ShardStream(Operator):
    """Leaf operator streaming one shard's rank-join output from a pool.

    The stream prefetches its first window at ``open`` and refills with
    doubled budgets as the merge consumes it.  Transient worker faults
    (:class:`~repro.common.errors.TransientFaultError`) are retried up
    to ``MAX_RETRIES`` times per window, matching the PR-1 retry
    policy; the count of absorbed faults is exposed as ``retries`` so
    the guarded executor can record which shards recovered.

    Checkpoint state is the delivered-row count: a worker task is a
    pure function of the spec and window, so replaying from
    ``delivered`` reproduces the remaining stream exactly.
    """

    MAX_RETRIES = 3

    def __init__(self, pool, spec, schema, shard_index, shard_count,
                 budget, name=None):
        super().__init__(children=(), name=name)
        self.pool = pool
        self.spec = spec
        self._schema = schema
        self.shard_index = shard_index
        self.shard_count = shard_count
        self.initial_budget = max(1, int(budget))
        self.score_spec = ScoreSpec.column(spec["score_column"])
        # Two pseudo-inputs: the worker HRJN's left/right depths are
        # mirrored into ``stats.pulled`` after every window so
        # snapshots (and the demo's per-shard display) report real
        # per-shard depths.
        self.stats = OperatorStats(2)
        self.tasks = 0
        self.retries = 0
        self.pool_rebuilds = 0
        self.degraded = False
        self._buffer = ()
        self._cursor = 0
        self._delivered = 0
        self._budget = self.initial_budget
        self._exhausted = False
        self._future = None

    @property
    def schema(self):
        return self._schema

    @property
    def depths(self):
        """``(dL, dR)`` reached by the worker kernel on this shard."""
        return tuple(self.stats.pulled)

    # ------------------------------------------------------------------
    def _open(self):
        self._buffer = ()
        self._cursor = 0
        self._delivered = 0
        self._budget = self.initial_budget
        self._exhausted = False
        self.tasks += 1
        self._future = self.pool.submit(self.spec, 0, self._budget)

    def _close(self):
        future = self._future
        self._future = None
        if future is not None:
            future.cancel()
        self._buffer = ()
        self._cursor = 0

    # ------------------------------------------------------------------
    def _fetch(self, skip, budget):
        """Run one window, absorbing transient faults with retries.

        A dead worker (``BrokenProcessPool``) is not a data fault: the
        window never ran, so it is safe to re-dispatch verbatim.  The
        first death rebuilds the pool once and retries; a second death
        degrades this stream to inline in-process execution for the
        rest of the query (recorded as the ``shard_pool_degraded``
        recovery path) instead of failing the query.
        """
        attempt = 1
        future = self._future
        self._future = None
        if future is not None and self.degraded:
            future.cancel()
            future = None
        while True:
            if self.degraded:
                try:
                    return self.pool.run_inline(self.spec, skip, budget,
                                                attempt)
                except TransientFaultError:
                    self.retries += 1
                    attempt += 1
                    if attempt > self.MAX_RETRIES + 1:
                        raise
                continue
            if future is None:
                self.tasks += 1
                future = self.pool.submit(self.spec, skip, budget,
                                          attempt)
            try:
                return future.result()
            except TransientFaultError:
                future = None
                self.retries += 1
                attempt += 1
                if attempt > self.MAX_RETRIES + 1:
                    raise
            # BrokenProcessPool subclasses RuntimeError, so this clause
            # must precede the generic worker-failure clause below.
            except BrokenProcessPool:
                future = None
                if self.pool_rebuilds == 0:
                    self.pool_rebuilds += 1
                    try:
                        self.pool.rebuild()
                    except Exception:
                        self.degraded = True
                else:
                    self.degraded = True
            except (OSError, RuntimeError) as exc:
                raise ExecutionError(
                    "shard pool worker failed for %r: %s"
                    % (self.name, exc)
                ) from exc

    def _refill(self):
        if self._exhausted:
            return False
        tracer = self._tracer
        if tracer is None:
            result = self._fetch(self._delivered, self._budget)
        else:
            with tracer.span("shard_task", operator=self.name,
                             shard=self.shard_index,
                             skip=self._delivered,
                             budget=self._budget):
                result = self._fetch(self._delivered, self._budget)
        rows = result["rows"]
        pulled = result["pulled"]
        # Worker depths are absolute (each window recomputes from the
        # top), so mirror rather than accumulate.
        self.stats.pulled[0] = pulled[0]
        self.stats.pulled[1] = pulled[1]
        self.stats.note_buffer(len(rows))
        self._buffer = rows
        self._cursor = 0
        self._exhausted = result["exhausted"]
        if not rows:
            self._exhausted = True
            return False
        self._budget *= 2
        return True

    # Window dicts arrive fresh from the task (unpickled, or built
    # inline) and each is delivered once, so Rows adopt them.
    def _next(self):
        while True:
            cursor = self._cursor
            if cursor < len(self._buffer):
                self._cursor = cursor + 1
                self._delivered += 1
                return Row._adopt(self._buffer[cursor])
            if not self._refill():
                return None

    def _next_batch(self, n):
        rows = []
        while len(rows) < n:
            cursor = self._cursor
            chunk = self._buffer[cursor:cursor + n - len(rows)]
            if not chunk and not self._refill():
                break
            self._cursor += len(chunk)
            self._delivered += len(chunk)
            rows.extend(map(Row._adopt, chunk))
        return rows

    # ------------------------------------------------------------------
    def _state_dict(self):
        return {
            "delivered": self._delivered,
            "budget": self._budget,
            "tasks": self.tasks,
            "retries": self.retries,
            "rebuilds": self.pool_rebuilds,
            "degraded": self.degraded,
        }

    def _load_state_dict(self, state):
        self._delivered = state["delivered"]
        self._budget = state["budget"]
        self.tasks = state["tasks"]
        self.retries = state["retries"]
        self.pool_rebuilds = state.get("rebuilds", 0)
        self.degraded = state.get("degraded", False)
        self._buffer = ()
        self._cursor = 0
        self._exhausted = False
        self._future = None

    def describe(self):
        return "ShardStream(%s join %s shard %d/%d via pool, score->%s)" % (
            self.spec["left"]["table"], self.spec["right"]["table"],
            self.shard_index, self.shard_count,
            self.spec["score_column"],
        )


def shard_budget(budget):
    """Clamp a (possibly fractional) per-shard budget to a task window."""
    return max(1, int(math.ceil(budget)))
