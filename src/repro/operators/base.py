"""Operator protocol, instrumentation, and score specifications.

The experiments in Section 5 compare the *measured* input cardinality
(depth) and buffer size of rank-join operators against the model's
estimates.  To measure those quantities we give every operator a
:class:`OperatorStats` record and count each tuple an operator pulls
from each child.
"""

import math
from time import perf_counter_ns

from repro.common.errors import CheckpointError, DataError, ExecutionError


def check_score(value, context=""):
    """Validate one score value; returns it.

    Rank-join thresholds and priority queues assume finite, totally
    ordered scores: NaN poisons every comparison and ±inf degenerates
    the threshold, so both are rejected with a
    :class:`~repro.common.errors.DataError` at the boundary where the
    score enters the engine.
    """
    try:
        finite = math.isfinite(value)
    except TypeError:
        raise DataError(
            "score must be a real number%s; got %r"
            % (" (%s)" % (context,) if context else "", value)
        )
    if not finite:
        raise DataError(
            "score must be finite%s; got %r -- NaN/inf would corrupt "
            "the rank-join threshold"
            % (" (%s)" % (context,) if context else "", value)
        )
    return value


class OperatorStats:
    """Instrumentation counters for one operator instance.

    Attributes
    ----------
    rows_out:
        Tuples this operator has produced so far.
    pulled:
        List with one entry per child input: tuples pulled from that
        child (a rank-join's *depth* into each input).
    max_buffer:
        High-water mark of the operator's internal buffer (priority
        queue / hash tables), in tuples.  Zero for unbuffered operators.
    opens:
        Number of times :meth:`Operator.open` ran (re-opens matter for
        nested-loops inners).
    time_open_ns / time_next_ns / time_close_ns / next_calls / pull_ns:
        Wall-clock nanoseconds spent in each lifecycle phase (inclusive
        of children) and per-child pull time.  Collected only when a
        tracer is attached to the operator; zero otherwise.
    guard / owner:
        Optional :class:`~repro.robustness.budget.ExecutionGuard` hook
        (with the owning operator) notified of buffer growth so
        resource budgets can bound buffer occupancy.
    """

    __slots__ = ("rows_out", "pulled", "max_buffer", "opens",
                 "time_open_ns", "time_next_ns", "time_close_ns",
                 "next_calls", "pull_ns", "guard", "owner")

    def __init__(self, n_children):
        self.rows_out = 0
        self.pulled = [0] * n_children
        self.max_buffer = 0
        self.opens = 0
        self.time_open_ns = 0
        self.time_next_ns = 0
        self.time_close_ns = 0
        self.next_calls = 0
        self.pull_ns = [0] * n_children
        self.guard = None
        self.owner = None

    def reset(self):
        """Zero all counters (used when an operator tree is re-run)."""
        self.rows_out = 0
        self.pulled = [0] * len(self.pulled)
        self.max_buffer = 0
        self.opens = 0
        self.time_open_ns = 0
        self.time_next_ns = 0
        self.time_close_ns = 0
        self.next_calls = 0
        self.pull_ns = [0] * len(self.pull_ns)

    def note_buffer(self, size):
        """Record the current buffer occupancy ``size``.

        When an execution guard is attached the occupancy is also
        checked against the query's buffer budget (which may raise
        :class:`~repro.common.errors.BudgetExceededError`).
        """
        if size > self.max_buffer:
            self.max_buffer = size
        if self.guard is not None:
            self.guard.note_buffer(self.owner, size)

    @property
    def total_time_ns(self):
        """Total traced wall-clock across all lifecycle phases."""
        return self.time_open_ns + self.time_next_ns + self.time_close_ns

    def as_dict(self):
        """Return the counters as a plain dict (for reports)."""
        out = {
            "rows_out": self.rows_out,
            "pulled": list(self.pulled),
            "max_buffer": self.max_buffer,
            "opens": self.opens,
        }
        if self.total_time_ns or self.next_calls:
            out["timing"] = {
                "open_ns": self.time_open_ns,
                "next_ns": self.time_next_ns,
                "close_ns": self.time_close_ns,
                "next_calls": self.next_calls,
                "pull_ns": list(self.pull_ns),
            }
        return out

    def state_dict(self):
        """Serialize the checkpoint-relevant counters.

        Timing fields are intentionally excluded: wall-clock spent
        before an interruption does not transfer to a resumed run.
        """
        return {
            "rows_out": self.rows_out,
            "pulled": list(self.pulled),
            "max_buffer": self.max_buffer,
            "opens": self.opens,
        }

    def load_state_dict(self, state):
        """Restore counters serialized by :meth:`state_dict`.

        Counters are part of a checkpoint because execution semantics
        depend on them: depth limits key off absolute ``pulled`` depths
        and ``observed_selectivity`` reads ``rows_out``.
        """
        self.rows_out = state["rows_out"]
        self.pulled = list(state["pulled"])
        self.max_buffer = state["max_buffer"]
        self.opens = state["opens"]

    def __repr__(self):
        return ("OperatorStats(rows_out=%d, pulled=%s, max_buffer=%d)"
                % (self.rows_out, self.pulled, self.max_buffer))


class ScoreSpec:
    """Describes how to read a tuple's rank score from a row.

    Rank-join inputs must be ranked streams; a :class:`ScoreSpec` pairs
    the accessor (``row -> float``) with a human/optimizer-readable
    description used for matching interesting order expressions and for
    plan display.

    ``column_name`` is the qualified column when the score is one
    plain column, and ``weights`` -- an ordered ``[(column, weight), ...]``
    list -- declares that ``accessor(row)`` equals
    ``fsum(weight * row[column] ...)`` in that order.  Either lets a
    positional consumer read the score from raw columns instead of
    calling ``accessor`` (see
    :func:`~repro.storage.columns.compile_score_closure`).
    """

    __slots__ = ("accessor", "description", "column_name", "weights")

    def __init__(self, accessor, description, weights=None):
        self.column_name = None
        self.weights = weights
        if isinstance(accessor, str):
            column = accessor
            if description is None:
                description = column
            self.column_name = column
            self.accessor = lambda row, _c=column: row[_c]
        elif callable(accessor):
            if description is None:
                raise ExecutionError("callable ScoreSpec needs a description")
            self.accessor = accessor
        else:
            raise ExecutionError(
                "ScoreSpec accessor must be a column name or callable"
            )
        self.description = description

    @classmethod
    def column(cls, qualified_name):
        """Score is a plain column, e.g. ``ScoreSpec.column("A.c1")``."""
        return cls(qualified_name, qualified_name)

    @classmethod
    def weighted(cls, expression):
        """Spec of a weighted-sum ``ScoreExpression``, weights included."""
        return cls(expression.accessor(), expression.description(),
                   weights=list(expression.weights.items()))

    def checked(self):
        """Return a spec that rejects NaN/±inf scores with a DataError.

        Operators that read scores without a
        :class:`~repro.operators.rank_kernel.RankedInput` in front
        (AnyK's nodes) wrap their specs with this so a
        degenerate score fails the query at the offending row instead
        of silently corrupting the threshold.
        """
        return ScoreSpec(
            lambda row, _inner=self.accessor, _d=self.description:
                check_score(_inner(row), _d),
            self.description,
        )

    def __call__(self, row):
        return self.accessor(row)

    def __repr__(self):
        return "ScoreSpec(%s)" % (self.description,)


class Operator:
    """Base class for all physical operators.

    Lifecycle: ``open()`` prepares state, ``next()`` returns the next
    output :class:`~repro.common.types.Row` or ``None`` when exhausted,
    ``close()`` releases state.  Iterating an operator runs the full
    lifecycle::

        for row in operator:   # open() .. next() .. close()
            ...

    Subclasses set ``children`` (tuple of child operators) before calling
    ``super().__init__()`` logic via :meth:`_init_base`, implement
    :meth:`_open` and :meth:`_next`, and may override :meth:`_close`.
    """

    #: True when the operator emits its first row without consuming all
    #: input first.  The optimizer treats this as the *pipelining*
    #: physical property (Section 3.3).
    pipelined = True

    #: True for pass-through wrappers (fault injection, retry) that
    #: must not appear in checkpoints: ``state_dict`` /
    #: ``load_state_dict`` delegate straight to the wrapped child, so a
    #: snapshot taken on a fault-wrapped tree restores into a clean
    #: rebuild of the same plan (and vice versa).
    checkpoint_transparent = False

    def __init__(self, children=(), name=None):
        self.children = tuple(children)
        self.name = name or type(self).__name__
        self.stats = OperatorStats(len(self.children))
        #: Optimizer plan node this operator was built from (set by the
        #: plan builder; None for hand-assembled operator trees).
        self.plan = None
        #: Execution guard enforcing resource budgets / depth limits
        #: (set by ExecutionGuard.attach; None for unguarded runs).
        self._guard = None
        #: Tracer collecting spans and phase timings (set by
        #: Telemetry.instrument; None keeps every hook a no-op).
        self._tracer = None
        self._opened = False

    # ------------------------------------------------------------------
    # Public protocol
    # ------------------------------------------------------------------
    @property
    def schema(self):
        """The output schema of this operator."""
        raise NotImplementedError

    def open(self):
        """Prepare the operator (and its children) for producing rows.

        If any child's ``open()`` (or this operator's own ``_open``)
        fails midway, every child that did open is closed before the
        error propagates, so a failed open never leaks open state.

        With a tracer attached (see
        :meth:`repro.observability.Telemetry.instrument`) the open is
        wrapped in a per-operator span and its inclusive wall-clock is
        accumulated into ``stats.time_open_ns``.
        """
        if self._opened:
            raise ExecutionError("operator %r is already open" % (self.name,))
        tracer = self._tracer
        if tracer is None:
            self._run_open()
        else:
            started = perf_counter_ns()
            with tracer.span("open", operator=self.name):
                self._run_open()
            self.stats.time_open_ns += perf_counter_ns() - started
        self._opened = True

    def _run_open(self):
        """Open children then this operator, unwinding on failure."""
        opened = []
        try:
            for child in self.children:
                child.open()
                opened.append(child)
            self.stats.opens += 1
            self._open()
        except BaseException:
            for child in reversed(opened):
                try:
                    child.close()
                except Exception:
                    # Unwinding: the original failure is the one to
                    # surface; a close error here must not mask it.
                    pass
            raise

    def next(self):
        """Return the next output row, or ``None`` when exhausted.

        Traced operators accumulate per-call inclusive wall-clock into
        ``stats.time_next_ns`` (no span per call: a top-k drain makes
        thousands of ``next`` calls; the executor wraps the whole drain
        in one ``next`` span instead).
        """
        if not self._opened:
            raise ExecutionError("operator %r is not open" % (self.name,))
        if self._tracer is None:
            row = self._next()
        else:
            started = perf_counter_ns()
            row = self._next()
            self.stats.time_next_ns += perf_counter_ns() - started
            self.stats.next_calls += 1
        if row is not None:
            self.stats.rows_out += 1
        return row

    def next_batch(self, n):
        """Return up to ``n`` output rows as a list (batch-at-a-time).

        The batch contract: a returned list shorter than ``n`` means
        the stream is exhausted (subsequent calls return ``[]``).
        Mixing :meth:`next` and :meth:`next_batch` on one operator is
        allowed -- both drive the same execution state, and
        ``stats.rows_out`` counts rows identically on either path.

        The default implementation loops :meth:`_next`; operators with
        materialised state (scans, sorts, top-k, limits) override
        :meth:`_next_batch` with a vectorised slice.  Traced operators
        accumulate the batch's inclusive wall-clock into
        ``stats.time_next_ns`` and count one ``next_calls`` entry per
        batch.
        """
        if not self._opened:
            raise ExecutionError("operator %r is not open" % (self.name,))
        if n <= 0:
            return []
        if self._tracer is None:
            rows = self._next_batch(n)
        else:
            started = perf_counter_ns()
            rows = self._next_batch(n)
            self.stats.time_next_ns += perf_counter_ns() - started
            self.stats.next_calls += 1
        self.stats.rows_out += len(rows)
        return rows

    def close(self):
        """Release operator state; children are closed even when this
        operator's own teardown fails (the first failure is re-raised
        after every subtree had its chance to close)."""
        if not self._opened:
            return
        self._opened = False
        tracer = self._tracer
        if tracer is None:
            self._run_close()
        else:
            started = perf_counter_ns()
            with tracer.span("close", operator=self.name):
                self._run_close()
            self.stats.time_close_ns += perf_counter_ns() - started

    def _run_close(self):
        errors = []
        try:
            self._close()
        except Exception as exc:
            errors.append(exc)
        for child in self.children:
            try:
                child.close()
            except Exception as exc:
                errors.append(exc)
        if errors:
            raise errors[0]

    def __iter__(self):
        self.open()
        try:
            while True:
                row = self.next()
                if row is None:
                    return
                yield row
        finally:
            self.close()

    # ------------------------------------------------------------------
    # Checkpoint protocol
    # ------------------------------------------------------------------
    def state_dict(self):
        """Serialize this subtree's execution state into plain data.

        The returned structure is owned by the caller: every container
        is copied (rows themselves are immutable and shared), so the
        operator may keep running and the snapshot stays frozen.

        Round-trip contract: restoring the snapshot into a freshly
        built tree for the same plan (:meth:`load_state_dict`) makes
        the remaining output stream identical to an uninterrupted run.
        """
        if self.checkpoint_transparent:
            return self.children[0].state_dict()
        return {
            "operator": type(self).__name__,
            "name": self.name,
            "opened": self._opened,
            "stats": self.stats.state_dict(),
            "state": self._state_dict() if self._opened else {},
            "children": [child.state_dict() for child in self.children],
        }

    def load_state_dict(self, state):
        """Restore a snapshot produced by :meth:`state_dict`.

        The target must be structurally identical to the checkpointed
        tree -- same operator class, name, and child count at every
        node -- otherwise a
        :class:`~repro.common.errors.CheckpointError` is raised.
        Restoring marks the subtree open (when the snapshot was taken
        open), so the caller continues with ``next()`` directly;
        ``open()`` must not be called on a restored tree.  Operator
        names are a function of the plan shape (see
        :class:`~repro.optimizer.builder.PlanBuilder`), so any build of
        the same shape matches.
        """
        if self.checkpoint_transparent:
            self.children[0].load_state_dict(state)
            self._opened = self.children[0]._opened
            return
        if state["operator"] != type(self).__name__:
            raise CheckpointError(
                "checkpoint holds %s state but the plan has %s at %r"
                % (state["operator"], type(self).__name__, self.name)
            )
        if state["name"] != self.name:
            raise CheckpointError(
                "checkpoint was taken on operator %r, cannot restore "
                "into %r -- rebuild the plan from the same "
                "optimization result" % (state["name"], self.name)
            )
        if len(state["children"]) != len(self.children):
            raise CheckpointError(
                "checkpoint has %d children for %r, plan has %d"
                % (len(state["children"]), self.name, len(self.children))
            )
        for child, child_state in zip(self.children, state["children"]):
            child.load_state_dict(child_state)
        self.stats.load_state_dict(state["stats"])
        if state["opened"]:
            self._load_state_dict(state["state"])
        self._opened = state["opened"]

    # ------------------------------------------------------------------
    # Subclass hooks
    # ------------------------------------------------------------------
    def _open(self):
        """Subclass hook: initialise per-execution state."""

    def _next(self):
        """Subclass hook: produce one row or ``None``."""
        raise NotImplementedError

    def _next_batch(self, n):
        """Subclass hook: produce up to ``n`` rows (short = exhausted).

        The default loops :meth:`_next`, so every operator supports
        batch draining out of the box.  Vectorised overrides must
        preserve two invariants: a short batch is only returned at
        stream exhaustion, and all execution state mutated per batch is
        exactly the state :meth:`_state_dict` serialises -- a
        checkpoint taken between two batch calls must restore into a
        tree that continues identically (row- or batch-at-a-time).
        """
        rows = []
        while len(rows) < n:
            row = self._next()
            if row is None:
                break
            rows.append(row)
        return rows

    def _close(self):
        """Subclass hook: drop per-execution state."""

    def _state_dict(self):
        """Subclass hook: serialize operator-specific open state.

        Only called while the operator is open.  Implementations must
        copy mutable containers (lists, dicts, heaps) so the snapshot
        is isolated from further execution; immutable rows may be
        shared.  Stateless pass-through operators keep the default.
        """
        return {}

    def _load_state_dict(self, state):
        """Subclass hook: restore state serialized by :meth:`_state_dict`.

        Implementations must copy adopted containers for the same
        isolation reason -- the same snapshot may be restored more than
        once.
        """

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _pull(self, child_index):
        """Pull one row from child ``child_index``, counting the pull.

        Returns ``None`` when the child is exhausted (exhaustion is not
        counted as a pull).  With an execution guard attached, budgets
        and depth limits are checked *before* the pull (so a guard trip
        never drops an already-produced tuple) and delivered rows are
        charged against the budget afterwards.
        """
        guard = self._guard
        if guard is not None:
            guard.before_pull(self, child_index)
        if self._tracer is None:
            row = self.children[child_index].next()
        else:
            started = perf_counter_ns()
            row = self.children[child_index].next()
            self.stats.pull_ns[child_index] += perf_counter_ns() - started
        if row is not None:
            self.stats.pulled[child_index] += 1
            if guard is not None:
                guard.on_pulled(self, child_index)
        return row

    def _pull_batch(self, child_index, n):
        """Pull up to ``n`` rows from child ``child_index`` as a batch.

        A short list means the child is exhausted.  ``pulled`` counts
        advance by the batch length, exactly as ``n`` row-wise pulls
        would.  With an execution guard attached this falls back to
        row-at-a-time :meth:`_pull` so per-pull budget and depth-limit
        enforcement keeps its precise trip points: the child may be a
        join that charges pulls of its own while producing the batch,
        so a cap computed beforehand (as :meth:`_read_positions` does
        for a scan, which charges nothing) would move the trip point.
        """
        if self._guard is not None:
            rows = []
            while len(rows) < n:
                row = self._pull(child_index)
                if row is None:
                    break
                rows.append(row)
            return rows
        if self._tracer is None:
            rows = self.children[child_index].next_batch(n)
        else:
            started = perf_counter_ns()
            rows = self.children[child_index].next_batch(n)
            self.stats.pull_ns[child_index] += perf_counter_ns() - started
        self.stats.pulled[child_index] += len(rows)
        return rows

    def _read_positions(self, child_index, want, length):
        """Read up to ``want`` positions of scan child ``child_index``.

        The leaf batch of a positional reader (fused Filter/Project,
        NRJN's inner build): cursor, ``rows_out`` and ``pulled`` advance
        as ``want`` pulls from a ``length``-position stream would, and a
        guard (:meth:`~repro.robustness.budget.ExecutionGuard.admit`)
        trips at the same pull, the one finding the end included.
        Returns the ``(start, stop)`` cursor range read.
        """
        scan = self.children[child_index]
        start = scan._consumed
        stop = min(start + want, length)
        guard = self._guard
        tripped = False
        if guard is not None:
            attempts = min(want, stop - start + 1)
            allowed = guard.admit(self, child_index, attempts)
            tripped = allowed < attempts
            stop = min(stop, start + allowed)
            guard.on_pulled(self, child_index, stop - start)
        scan.advance(stop - start)
        self.stats.pulled[child_index] += stop - start
        if tripped:
            guard.before_pull(self, child_index)  # Spent: this raises.
        return start, stop

    def _charge_pull(self, child_index, elapsed):
        """Book a positional read's traced wall-clock as a pull's."""
        self.stats.pull_ns[child_index] += elapsed
        child = self.children[child_index]
        if child._tracer is not None:
            child.stats.time_next_ns += elapsed
            child.stats.next_calls += 1

    def reset_stats(self):
        """Recursively zero instrumentation on this subtree."""
        self.stats.reset()
        for child in self.children:
            child.reset_stats()

    def walk(self):
        """Yield this operator and all descendants, pre-order."""
        yield self
        for child in self.children:
            for descendant in child.walk():
                yield descendant

    def explain(self, indent=0):
        """Return a plan-tree string for debugging and examples."""
        lines = ["%s%s" % ("  " * indent, self.describe())]
        for child in self.children:
            lines.append(child.explain(indent + 1))
        return "\n".join(lines)

    def describe(self):
        """One-line description used by :meth:`explain`."""
        return self.name

    def __repr__(self):
        return "<%s %r>" % (type(self).__name__, self.name)
