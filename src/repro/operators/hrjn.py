"""HRJN: the hash rank-join operator (Section 2.2).

HRJN is a variant of the symmetric hash join with an embedded rank
aggregation algorithm.  Internal state:

1. two hash tables (one per input) of all tuples seen so far,
2. a priority queue of valid join results ordered by combined score,
3. the threshold ``T`` -- an upper bound on the combined score of every
   join result not yet seen::

       T = max( f(topL, lastR), f(lastL, topR) )

A buffered join result is reported as soon as its combined score is
``>= T``; the operator therefore produces ranked join results
progressively, without exhausting its inputs ("early out").

All of that state and the loop over it live in
:class:`~repro.operators.rank_kernel.RankJoinKernel`; this operator
binds the kernel to its children and materialises an output row for
each join result the kernel *reports* (never for one it only buffers).

The *depth* the operator reaches into each input and the priority-queue
high-water mark are recorded in :attr:`Operator.stats` -- these are the
measured quantities of the paper's Figures 13-15.
"""

from repro.common.errors import ExecutionError
from repro.common.scoring import MonotoneScore, SumScore
from repro.common.types import Column, Row, Schema
from repro.operators.base import Operator, ScoreSpec
from repro.operators.joins import key_spec
from repro.operators.rank_kernel import (
    POLL_STRATEGIES,
    PositionalInput,
    RankJoinKernel,
    RowInput,
)


class HRJN(Operator):
    """Hash Rank Join.

    Parameters
    ----------
    left, right:
        Child operators, each producing rows in descending order of its
        score expression.
    left_key, right_key:
        Equi-join keys: a column name, a tuple of column names
        (composite key) or a ``row -> key`` callable.
    left_score, right_score:
        :class:`~repro.operators.base.ScoreSpec` (or qualified column
        name) giving each input's rank score.
    combiner:
        A :class:`~repro.common.scoring.MonotoneScore`; defaults to
        :class:`~repro.common.scoring.SumScore`.
    output_score_column:
        Name of the computed column carrying the combined score in
        output rows.  Must be unique within the plan; defaults to
        ``"_score_<name>"``.
    strategy:
        Input polling strategy: ``"alternate"`` (round-robin, default),
        ``"threshold"`` (poll the input responsible for the larger
        threshold term, shrinking ``T`` fastest; every HRJN the
        optimizer plans uses it), ``"left"``/``"right"`` (drain one
        side first; mainly for tests/ablations).
    """

    def __init__(self, left, right, left_key, right_key, left_score,
                 right_score, combiner=None, output_score_column=None,
                 strategy="alternate", name=None):
        name = name or "HRJN"
        super().__init__(children=(left, right), name=name)
        if strategy not in POLL_STRATEGIES:
            raise ExecutionError("unknown polling strategy %r" % (strategy,))
        self.strategy = strategy
        if isinstance(left_score, str):
            left_score = ScoreSpec.column(left_score)
        if isinstance(right_score, str):
            right_score = ScoreSpec.column(right_score)
        #: Per input: key columns (None if callable), key accessor, score.
        self._sides = (key_spec(left_key) + (left_score,),
                       key_spec(right_key) + (right_score,))
        if combiner is None:
            combiner = SumScore()
        if not isinstance(combiner, MonotoneScore):
            raise ExecutionError("combiner must be a MonotoneScore")
        self.combiner = combiner
        self.output_score_column = (
            output_score_column or "_score_%s" % (name,)
        )
        self.score_spec = ScoreSpec.column(self.output_score_column)
        merged = left.schema.merge(right.schema)
        self._schema = Schema(
            tuple(merged.columns)
            + (Column(self.output_score_column, table=None,
                      type_name="float"),)
        )
        self._kernel = None

    # ------------------------------------------------------------------
    @property
    def schema(self):
        return self._schema

    def _make_kernel(self):
        """A fresh kernel over the current children.

        Built per ``open()`` (and per restore): fault injection rewires
        ``children`` after construction, and an input is read by
        position only if the child actually there is a fusable scan.
        """
        inputs = tuple(
            PositionalInput.over(self, index, columns, score)
            or RowInput(self, index, accessor, score)
            for index, (columns, accessor, score) in enumerate(self._sides)
        )
        return RankJoinKernel(inputs, self.combiner, self.strategy,
                              self.stats)

    def _open(self):
        self._kernel = self._make_kernel()

    def _close(self):
        self._kernel = None

    def _state_dict(self):
        return self._kernel.state_dict()

    def _load_state_dict(self, state):
        # Restored trees skip open(): re-derive what _open derives.
        # Children were restored first, so scan cursors are current.
        kernel = self._make_kernel()
        kernel.load_state_dict(state)
        self._kernel = kernel

    # ------------------------------------------------------------------
    def threshold(self):
        """Return the current upper bound on unseen join-result scores.

        ``None`` means "unbounded" (an input has not delivered its first
        tuple yet so no finite bound exists); ``-inf`` means both inputs
        are exhausted, or one is exhausted without ever delivering a
        tuple, and nothing unseen remains.
        """
        return self._kernel.threshold

    # Output rows are built here, for reported results only: left
    # columns, right columns, then the combined score.  _next repeats
    # the expression rather than calling _next_batch(1): the extra
    # frame and list cost 8% of a k=2000 drain.
    def _next(self):
        reported = self._kernel.advance(1)
        if not reported:
            return None
        negated, _sequence, left, right = reported[0]
        return Row._adopt({**left._values, **right._values,
                           self.output_score_column: -negated})

    def _next_batch(self, n):
        column = self.output_score_column
        adopt = Row._adopt
        return [
            adopt({**left._values, **right._values, column: -negated})
            for negated, _sequence, left, right in self._kernel.advance(n)
        ]

    # ------------------------------------------------------------------
    @property
    def depths(self):
        """Return ``(dL, dR)`` -- tuples pulled from each input so far."""
        return tuple(self.stats.pulled)

    def observed_selectivity(self):
        """Join selectivity realised so far, or ``None`` before any pull.

        Join results found (emitted plus still buffered) over the
        cross-product of the consumed prefixes -- the mid-query
        evidence the adaptive recovery layer uses to replace a wrong
        optimizer estimate.
        """
        d_left, d_right = self.stats.pulled
        pairs = d_left * d_right
        if pairs <= 0:
            return None
        kernel = self._kernel
        buffered = len(kernel.queue) if kernel is not None else 0
        return (self.stats.rows_out + buffered) / pairs

    def describe(self):
        return "HRJN(f=%r, strategy=%s, score->%s)" % (
            self.combiner, self.strategy, self.output_score_column,
        )
