"""The rank-join kernel: the one threshold / priority-queue loop.

:class:`~repro.operators.hrjn.HRJN`,
:class:`~repro.operators.nrjn.NRJN` and the shard-pool worker
(:func:`repro.executor.shard_pool._run_shard_task`) all run
:class:`RankJoinKernel`.  It owns the two hash tables, the priority
queue, the polling strategy and the threshold of Section 2.2,
``T = max(f(lastL, topR), f(topL, lastR))``, recomputed only when an
input advances.  Queue entries are ``(-combined, sequence,
left_payload, right_payload)``: a join combination is *buffered* as two
references and the caller builds an output row only for the entries
:meth:`RankJoinKernel.advance` reports.  Ties break by push sequence,
so payloads are never compared.

NRJN's inner is consumed by :meth:`RankJoinKernel.preload`: read and
score-checked in full, its hash table is a :class:`ProbeTable` that
builds ``(score, payload)`` entries only for the keys the outer probes,
over a grouping of the inner by join key (the table's cached
:meth:`~repro.storage.table.Table.key_positions` for a heap scan, else
grouped per query).

Inputs reach the kernel through two adapters with one protocol
(``pull() -> (key, score, payload) | None`` and ``drain()``):
:class:`PositionalInput` reads a fusable scan's raw columns by position
and hands on the scan's cached Row (in the worker: the position);
:class:`RowInput` pulls Rows from any other child.  Guards and tracers
never select a different path: both adapters call ``before_pull`` /
``on_pulled`` per pull and charge ``pull_ns``, and a positional
``drain`` is one leaf batch admitted by the guard as a whole.  See
``docs/columnar.md`` section 3.
"""

import heapq
from math import fsum, isfinite
from time import perf_counter_ns

from repro.common.errors import DataError, ExecutionError
from repro.common.scoring import SumScore
from repro.operators.base import ScoreSpec, check_score
from repro.operators.joins import _drain_build
from repro.storage.columns import compile_score_closure, score_values
from repro.storage.table import group_positions

#: Tolerance for floating-point threshold and sortedness comparisons.
EPSILON = 1e-9

#: Supported input-polling strategies.
POLL_STRATEGIES = ("alternate", "threshold", "left", "right")

_NEG_INF = float("-inf")


class RankedInput:
    """One ranked input: its score spec and threshold bookkeeping.

    Tracks the top (first) and last seen scores that feed the
    threshold, and validates every score entering the kernel.
    """

    __slots__ = ("index", "score_spec", "top_score", "last_score",
                 "exhausted")

    def __init__(self, index, score_spec):
        if not isinstance(score_spec, ScoreSpec):
            raise ExecutionError("rank-join inputs need a ScoreSpec")
        self.index = index
        self.score_spec = score_spec
        self.top_score = None
        self.last_score = None
        self.exhausted = False

    def observe(self, row):
        """Record the score of a newly pulled row; returns the score."""
        return self.check(self.score_spec(row))

    def context(self):
        """Where a bad score entered, for error messages."""
        return "rank-join input %d, %s" % (self.index,
                                           self.score_spec.description)

    def check(self, score):
        """Validate and record the next score of the stream.

        A NaN/±inf score raises :class:`~repro.common.errors.DataError`
        (one NaN would silently disable the early-out forever), an
        ascending step :class:`ExecutionError`.
        """
        try:
            finite = isfinite(score)
        except TypeError:
            finite = False
        if not finite:
            check_score(score, self.context())
        top = self.top_score
        if top is None:
            self.top_score = score
        elif score > top + EPSILON:
            raise ExecutionError(
                "rank-join input %d is not sorted descending on %s "
                "(saw %r after top %r)"
                % (self.index, self.score_spec.description, score, top)
            )
        last = self.last_score
        if last is not None and score > last + EPSILON:
            raise ExecutionError(
                "rank-join input %d is not sorted descending on %s"
                % (self.index, self.score_spec.description)
            )
        self.last_score = score
        return score


class RowInput(RankedInput):
    """Kernel input pulling Rows from child ``index`` of ``owner``."""

    __slots__ = ("owner", "key")

    def __init__(self, owner, index, key, score_spec):
        super().__init__(index, score_spec)
        self.owner = owner
        self.key = key

    def pull(self):
        row = self.owner._pull(self.index)
        if row is None:
            return None
        return self.key(row), self.observe(row), row

    def drain(self):
        """Pull the rest of the stream: ``(scores, groups, payload_at)``.

        ``groups`` maps each key to the stream indices holding it
        (:func:`~repro.storage.table.group_positions`); ``scores`` and
        ``payload_at`` are indexed by stream index.
        """
        rows = []
        _drain_build(self.owner, self.index, rows.append)
        score = self.score_spec
        return ([score(row) for row in rows],
                group_positions(map(self.key, rows)), rows.__getitem__)


class PositionalInput(RankedInput):
    """Kernel input reading a fusable scan's columns by position.

    ``owner`` supplies the hooks a pull consults (``_guard``,
    ``_tracer``, ``stats.pulled``), ``scan`` the cursor (``_consumed``
    / ``advance``): the protocol the fused Filter/Project use.
    """

    __slots__ = ("owner", "scan", "order", "length", "key_columns",
                 "key_at", "score_at", "row_at", "columns")

    @classmethod
    def over(cls, owner, index, key_columns, score_spec):
        """The adapter for child ``index``, or ``None`` if ineligible."""
        scan = owner.children[index]
        fuse = getattr(scan, "fuse_columnar", None)
        if (fuse is None or key_columns is None
                or (score_spec.column_name is None
                    and score_spec.weights is None)):
            return None
        view = fuse()
        columns = view.columns
        try:
            keys = [columns[name] for name in key_columns]
            if score_spec.column_name is not None:
                score_at = columns[score_spec.column_name].__getitem__
            else:
                score_at = compile_score_closure(score_spec.weights,
                                                 columns)
        except KeyError:
            return None
        self = cls(index, score_spec)
        self.owner = owner
        self.scan = scan
        self.order = view.order
        self.length = view.length
        self.key_columns = key_columns
        if len(keys) == 1:
            self.key_at = keys[0].__getitem__
        else:
            self.key_at = lambda position, _k=keys: tuple(
                column[position] for column in _k)
        self.score_at = score_at
        self.row_at = view.row_at
        self.columns = columns
        return self

    def pull(self):
        owner = self.owner
        index = self.index
        guard = owner._guard
        if guard is not None:
            guard.before_pull(owner, index)
        traced = owner._tracer is not None
        if traced:
            started = perf_counter_ns()
        scan = self.scan
        cursor = scan._consumed
        entry = None
        if cursor < self.length:
            order = self.order
            position = cursor if order is None else order[cursor]
            scan._consumed = cursor + 1  # scan.advance(1), inlined
            scan.stats.rows_out += 1
            owner.stats.pulled[index] += 1
            score = self.score_at(position)
            entry = (self.key_at(position), score, self.row_at(position))
        if traced:
            owner._charge_pull(index, perf_counter_ns() - started)
        if entry is None:
            return None
        if guard is not None:
            guard.on_pulled(owner, index)
        # check(), inlined for the common case: a finite float no
        # higher than the last score (which check() held to the top).
        last = self.last_score
        if type(score) is float and last is not None \
                and _NEG_INF < score <= last:
            self.last_score = score
        else:
            self.check(score)
        return entry

    def drain(self):
        """Read the rest of the stream in one pass over the score columns.

        Returns ``(scores, groups, payload_at)`` as
        :meth:`RowInput.drain` does.  The rest is one leaf batch: under
        a guard it trips where row-wise pulls would, including the pull
        that finds the end.  A heap-order scan read from position 0 over
        a single key column takes its grouping from the table's cache
        (:meth:`~repro.storage.table.Table.key_positions`: stream index
        = heap position) unless the table grew since :meth:`over`;
        every other stream groups the keys it read.
        """
        owner = self.owner
        traced = owner._tracer is not None
        if traced:
            started = perf_counter_ns()
        length = self.length
        start, stop = owner._read_positions(
            self.index, length - self.scan._consumed + 1, length)
        positions = (range(start, stop) if self.order is None
                     else self.order[start:stop])
        spec = self.score_spec
        if spec.column_name is not None:
            scores = list(map(self.score_at, positions))
        else:
            scores = score_values(spec.weights, self.columns, positions)
        if traced:
            owner._charge_pull(self.index, perf_counter_ns() - started)
        table = self.scan.table
        if (start == 0 and self.order is None
                and len(self.key_columns) == 1 and len(table) == length):
            return (scores, table.key_positions(self.key_columns[0]),
                    self.row_at)
        return (scores, group_positions(map(self.key_at, positions)),
                lambda i, _p=positions, _row_at=self.row_at: _row_at(_p[i]))


class ProbeTable:
    """A preloaded input's hash table, built per probed key.

    ``get(key)`` returns the key's ``[(score, payload)]`` in stream
    order -- what ``{key: [(score, payload)]}`` built from the whole
    stream would hold -- building entries only for the keys the other
    input probes.  :meth:`items` materialises every key, in first-seen
    order, for a checkpoint.
    """

    __slots__ = ("groups", "scores", "payload_at")

    def __init__(self, groups, scores, payload_at):
        self.groups = groups
        self.scores = scores
        self.payload_at = payload_at

    def get(self, key):
        group = self.groups.get(key)
        if group is None:
            return None
        scores, payload_at = self.scores, self.payload_at
        return [(scores[i], payload_at(i)) for i in group]

    def items(self):
        for key in self.groups:
            yield key, self.get(key)


class RankJoinKernel:
    """Hash tables + priority queue + threshold of one binary rank join.

    ``inputs`` are the ``(left, right)`` adapters; combined scores are
    always ``combiner((left_score, right_score))``.  ``strategy`` is one
    of :data:`POLL_STRATEGIES`: alternate polling starts left, and every
    strategy first forces one tuple from each side.  ``stats`` is the
    owner's :class:`~repro.operators.base.OperatorStats`, told the queue
    length after every pull.
    """

    __slots__ = ("inputs", "combine", "strategy", "stats", "tables",
                 "queue", "sequence", "turn", "terms", "threshold")

    def __init__(self, inputs, combiner, strategy, stats):
        self.inputs = inputs
        # SumScore.__call__ is fsum behind two frames of arity checks.
        self.combine = fsum if type(combiner) is SumScore else combiner
        self.strategy = strategy
        self.stats = stats
        self.tables = [{}, {}]
        self.queue = []
        self.sequence = 0
        self.turn = 0
        self.terms = [None, None]
        self._refresh()

    # ------------------------------------------------------------------
    def _refresh(self):
        """Recompute the threshold; called whenever an input advanced.

        ``None`` while unbounded (an input that is not exhausted has
        not delivered its first tuple yet), ``-inf`` once both inputs
        are exhausted or one is exhausted without ever delivering a
        tuple (nothing can join it), else the larger bound on a
        combination with an unseen left or an unseen right tuple.
        Those two bounds, ``f(lastL, topR)`` and ``f(topL, lastR)``,
        are kept as :attr:`terms` (``None`` where not computed): the
        ``threshold`` strategy polls the side whose term is larger, and
        :meth:`_poll` updates one term per pull once both sides run.
        """
        left, right = self.inputs
        bound = _NEG_INF
        left_term = right_term = None
        if not left.exhausted:
            if left.last_score is None or right.top_score is None:
                if not (right.exhausted and right.top_score is None):
                    self.terms[:] = (None, None)
                    self.threshold = None
                    return
            else:
                bound = left_term = self.combine(
                    (left.last_score, right.top_score))
        if not right.exhausted:
            if right.last_score is None or left.top_score is None:
                if not (left.exhausted and left.top_score is None):
                    self.terms[:] = (left_term, None)
                    self.threshold = None
                    return
            else:
                right_term = self.combine((left.top_score, right.last_score))
                if left.exhausted or right_term > bound:
                    bound = right_term
        self.terms[:] = (left_term, right_term)
        self.threshold = bound

    def preload(self, side):
        """Consume input ``side`` in full before the first report.

        This is NRJN's inner: the stream need not be sorted, so its
        scores are only checked for finiteness and its top is its
        maximum; the input then counts as exhausted.  Its hash table
        becomes a :class:`ProbeTable` over the drained grouping.
        """
        source = self.inputs[side]
        scores, groups, payload_at = source.drain()
        try:
            finite = isfinite(sum(scores))
        except TypeError:
            finite = False
        if not finite:  # Find the offending row (overflow: none is).
            context = source.context()
            for score in scores:
                check_score(score, context)
        self.tables[side] = ProbeTable(groups, scores, payload_at)
        source.top_score = max(scores, default=None)
        source.exhausted = True
        self._refresh()

    # ------------------------------------------------------------------
    def advance(self, n):
        """Report up to ``n >= 1`` queue entries, best first.

        An entry is reported once its combined score reaches the
        threshold (within :data:`EPSILON`); until then inputs are
        polled.  Fewer than ``n`` entries means the join is exhausted.
        Finite scores whose combination overflows a float raise
        :class:`~repro.common.errors.DataError`, caught here rather
        than checked per pull.
        """
        out = []
        queue = self.queue
        pop = heapq.heappop
        while True:
            threshold = self.threshold
            if threshold is not None:
                # -inf (inputs exhausted) bounds nothing: all is final.
                bound = threshold - EPSILON
                while queue and -queue[0][0] >= bound:
                    out.append(pop(queue))
                    if len(out) == n:
                        return out
                if threshold == _NEG_INF:
                    return out
            try:
                self._poll()
            except OverflowError as error:
                left, right = self.inputs
                raise DataError(
                    "combined score must be finite (%s; %s); the "
                    "combination overflows a float"
                    % (left.context(), right.context())) from error

    def _poll(self):
        """Pull inputs until the queue head is reportable or both end.

        The other half of :meth:`advance`'s loop: its state is bound to
        locals once per run of pulls (a sparse join pulls thousands of
        tuples per result), not once per ``advance(1)``.  Each pulled
        tuple probes the other side's hash table; matches are buffered.
        Once both sides have delivered and neither is exhausted, a pull
        moves only its own side's term of ``T`` and recomputes just
        that one; every other pull recomputes both (:meth:`_refresh`).
        """
        queue = self.queue
        inputs = left, right = self.inputs
        pulls = (left.pull, right.pull)
        tables = self.tables
        terms = self.terms
        combine = self.combine
        strategy = self.strategy
        stats = self.stats
        push = heapq.heappush
        while True:
            # An exhausted side yields to the other; both sides deliver
            # one tuple before any strategy applies.
            steady = False
            if left.exhausted:
                side = 1
            elif right.exhausted or left.last_score is None:
                side = 0
            elif right.last_score is None:
                side = 1
            else:
                steady = True
                if strategy == "alternate":
                    side = self.turn
                    self.turn = 1 - side
                elif strategy == "threshold":
                    # The side whose unseen-term dominates lowers the
                    # threshold fastest.
                    side = 0 if terms[0] >= terms[1] else 1
                else:
                    side = 0 if strategy == "left" else 1
            entry = pulls[side]()
            if entry is None:
                inputs[side].exhausted = True
                self._refresh()
            else:
                key, score, payload = entry
                tables[side].setdefault(key, []).append((score, payload))
                matches = tables[1 - side].get(key)
                if matches:
                    sequence = self.sequence
                    if side == 0:
                        for other_score, other in matches:
                            push(queue, (-combine((score, other_score)),
                                         sequence, payload, other))
                            sequence += 1
                    else:
                        for other_score, other in matches:
                            push(queue, (-combine((other_score, score)),
                                         sequence, other, payload))
                            sequence += 1
                    self.sequence = sequence
                if steady:
                    # ``score`` is the pulled side's new last score.
                    if side:
                        terms[1] = combine((left.top_score, score))
                    else:
                        terms[0] = combine((score, right.top_score))
                    self.threshold = (terms[1] if terms[1] > terms[0]
                                      else terms[0])
                else:
                    self._refresh()
                # Every pull reports the queue length; without a guard
                # that is a no-op unless the queue just grew.  A buffer
                # trip here leaves the threshold current.
                if matches or stats.guard is not None:
                    stats.note_buffer(len(queue))
            threshold = self.threshold
            if threshold is not None and (
                    threshold == _NEG_INF
                    or (queue and -queue[0][0] >= threshold - EPSILON)):
                return

    # ------------------------------------------------------------------
    def state_dict(self):
        """Plain-data snapshot; payload rows are shared, not copied."""
        return {
            "inputs": [(source.top_score, source.last_score,
                        source.exhausted) for source in self.inputs],
            "hash": [
                {key: list(entries) for key, entries in table.items()}
                for table in self.tables
            ],
            "queue": list(self.queue),
            "sequence": self.sequence,
            "turn": self.turn,
        }

    def load_state_dict(self, state):
        for source, bookkeeping in zip(self.inputs, state["inputs"]):
            (source.top_score, source.last_score,
             source.exhausted) = bookkeeping
        self.tables = [
            {key: list(entries) for key, entries in table.items()}
            for table in state["hash"]
        ]
        self.queue = list(state["queue"])
        heapq.heapify(self.queue)
        self.sequence = state["sequence"]
        self.turn = state["turn"]
        self._refresh()
