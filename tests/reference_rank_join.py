"""The pre-kernel row-dict HRJN and NRJN, kept as the differential oracle.

These are the operators as they stood before
:mod:`repro.operators.rank_kernel` replaced their loops: every buffered
join combination is a merged output dict, the threshold is recomputed
on every ``next()``, inputs are always pulled as Rows through
``Operator._pull``, and ``next_batch`` is the inherited loop over
``_next``.  ``tests/test_rank_kernel.py`` requires the kernel-backed
operators to match them row for row and counter for counter.  Only the
class names changed (``Reference*``); nothing here imports the kernel.
"""

import heapq

from repro.common.errors import ExecutionError
from repro.common.scoring import MonotoneScore, SumScore
from repro.common.types import Column, Row, Schema
from repro.operators.base import Operator, ScoreSpec, check_score

_EPSILON = 1e-9
_BUILD_BATCH = 1024
POLL_STRATEGIES = ("alternate", "threshold", "left", "right")


def _key_accessor(key):
    if isinstance(key, str):
        return lambda row, _c=key: row[_c]
    if callable(key):
        return key
    raise ExecutionError("join key must be a column name or callable")


class ReferenceRankedInput:
    """Helper binding a child operator index to its score accessor.

    Used by rank-join operators to treat both inputs uniformly; also
    tracks the top (first) and bottom (last seen) scores that feed the
    threshold computation.
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
        """Record the score of a newly pulled row; returns the score.

        Rejects NaN/±inf scores with a
        :class:`~repro.common.errors.DataError` -- the threshold
        arithmetic assumes finite, totally ordered scores, and a single
        NaN would silently disable the early-out forever.
        """
        score = check_score(
            self.score_spec(row),
            "rank-join input %d, %s"
            % (self.index, self.score_spec.description),
        )
        if self.top_score is None:
            self.top_score = score
        elif score > self.top_score + 1e-9:
            raise ExecutionError(
                "rank-join input %d is not sorted descending on %s "
                "(saw %r after top %r)"
                % (self.index, self.score_spec.description, score,
                   self.top_score)
            )
        if self.last_score is not None and score > self.last_score + 1e-9:
            raise ExecutionError(
                "rank-join input %d is not sorted descending on %s"
                % (self.index, self.score_spec.description)
            )
        self.last_score = score
        return score

    def state_dict(self):
        """Serialize the threshold bookkeeping for a checkpoint."""
        return {
            "top": self.top_score,
            "last": self.last_score,
            "exhausted": self.exhausted,
        }

    def load_state_dict(self, state):
        """Restore bookkeeping serialized by :meth:`state_dict`."""
        self.top_score = state["top"]
        self.last_score = state["last"]
        self.exhausted = state["exhausted"]


class ReferenceHRJN(Operator):
    """Hash Rank Join.

    Parameters
    ----------
    left, right:
        Child operators, each producing rows in descending order of its
        score expression.
    left_key, right_key:
        Equi-join key accessors (column name or callable).
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
        threshold term, shrinking ``T`` fastest), ``"left"``/``"right"``
        (drain one side first; mainly for tests/ablations).
    """

    def __init__(self, left, right, left_key, right_key, left_score,
                 right_score, combiner=None, output_score_column=None,
                 strategy="alternate", name=None):
        name = name or "HRJN"
        super().__init__(children=(left, right), name=name)
        if strategy not in POLL_STRATEGIES:
            raise ExecutionError("unknown polling strategy %r" % (strategy,))
        self.strategy = strategy
        self.left_key = _key_accessor(left_key)
        self.right_key = _key_accessor(right_key)
        if isinstance(left_score, str):
            left_score = ScoreSpec.column(left_score)
        if isinstance(right_score, str):
            right_score = ScoreSpec.column(right_score)
        self.inputs = (ReferenceRankedInput(0, left_score),
                       ReferenceRankedInput(1, right_score))
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
        self._hash = None
        self._queue = None
        self._sequence = None
        self._turn = 0

    # ------------------------------------------------------------------
    @property
    def schema(self):
        return self._schema

    def _open(self):
        self.inputs[0].top_score = None
        self.inputs[0].last_score = None
        self.inputs[0].exhausted = False
        self.inputs[1].top_score = None
        self.inputs[1].last_score = None
        self.inputs[1].exhausted = False
        self._hash = ({}, {})
        self._queue = []
        self._sequence = 0
        self._turn = 0

    def _close(self):
        self._hash = None
        self._queue = None

    def _state_dict(self):
        # Queue entries are (neg_score, seq, output_dict): scores and
        # sequence numbers are scalars, output dicts are copied so the
        # snapshot survives further heap pops.
        return {
            "inputs": [ranked.state_dict() for ranked in self.inputs],
            "hash": [
                {key: list(entries) for key, entries in table.items()}
                for table in self._hash
            ],
            "queue": [(neg, seq, dict(output))
                      for neg, seq, output in self._queue],
            "sequence": self._sequence,
            "turn": self._turn,
        }

    def _load_state_dict(self, state):
        for ranked, ranked_state in zip(self.inputs, state["inputs"]):
            ranked.load_state_dict(ranked_state)
        self._hash = tuple(
            {key: list(entries) for key, entries in table.items()}
            for table in state["hash"]
        )
        self._queue = [(neg, seq, dict(output))
                       for neg, seq, output in state["queue"]]
        heapq.heapify(self._queue)
        self._sequence = state["sequence"]
        self._turn = state["turn"]

    # ------------------------------------------------------------------
    # Threshold machinery
    # ------------------------------------------------------------------
    def threshold(self):
        """Return the current upper bound on unseen join-result scores.

        ``None`` means "unbounded" (an input has not delivered its first
        tuple yet so no finite bound exists); ``-inf`` means both inputs
        are exhausted, or one is exhausted without ever delivering a
        tuple, and nothing unseen remains.
        """
        left, right = self.inputs
        terms = []
        if not left.exhausted:
            # Unseen L tuple (score <= lastL) with any R tuple
            # (score <= topR); none if R ended empty.
            if left.last_score is None or right.top_score is None:
                if not (right.exhausted and right.top_score is None):
                    return None
            else:
                terms.append(
                    self.combiner((left.last_score, right.top_score))
                )
        if not right.exhausted:
            if right.last_score is None or left.top_score is None:
                if not (left.exhausted and left.top_score is None):
                    return None
            else:
                terms.append(
                    self.combiner((left.top_score, right.last_score))
                )
        if not terms:
            return float("-inf")
        return max(terms)

    def _threshold_terms(self):
        """Return (term_left_unseen, term_right_unseen) or None values."""
        left, right = self.inputs
        term_left = None
        term_right = None
        if (not left.exhausted and left.last_score is not None
                and right.top_score is not None):
            term_left = self.combiner((left.last_score, right.top_score))
        if (not right.exhausted and right.last_score is not None
                and left.top_score is not None):
            term_right = self.combiner((left.top_score, right.last_score))
        return term_left, term_right

    # ------------------------------------------------------------------
    # Polling
    # ------------------------------------------------------------------
    def _choose_side(self):
        left, right = self.inputs
        if left.exhausted and right.exhausted:
            return None
        if left.exhausted:
            return 1
        if right.exhausted:
            return 0
        # Both inputs must deliver one tuple before any strategy applies.
        if left.last_score is None:
            return 0
        if right.last_score is None:
            return 1
        if self.strategy == "left":
            return 0
        if self.strategy == "right":
            return 1
        if self.strategy == "threshold":
            term_left, term_right = self._threshold_terms()
            if term_left is None:
                return 0
            if term_right is None:
                return 1
            # Pulling from the side whose unseen-term dominates lowers
            # the threshold fastest.
            return 0 if term_left >= term_right else 1
        side = self._turn
        self._turn = 1 - self._turn
        return side

    def _pull_side(self, side):
        ranked = self.inputs[side]
        row = self._pull(side)
        if row is None:
            ranked.exhausted = True
            return
        score = ranked.observe(row)
        key = self.left_key(row) if side == 0 else self.right_key(row)
        self._hash[side].setdefault(key, []).append((score, row))
        for other_score, other_row in self._hash[1 - side].get(key, ()):
            if side == 0:
                combined = self.combiner((score, other_score))
                joined = row.merge(other_row)
            else:
                combined = self.combiner((other_score, score))
                joined = other_row.merge(row)
            output = joined.as_dict()
            output[self.output_score_column] = combined
            heapq.heappush(
                self._queue, (-combined, self._sequence, output),
            )
            self._sequence += 1
        self.stats.note_buffer(len(self._queue))

    # ------------------------------------------------------------------
    def _next(self):
        while True:
            threshold = self.threshold()
            if self._queue:
                best = -self._queue[0][0]
                if (threshold is not None
                        and (best >= threshold - _EPSILON
                             or threshold == float("-inf"))):
                    _neg, _seq, output = heapq.heappop(self._queue)
                    return Row(output)
            elif threshold == float("-inf"):
                return None
            side = self._choose_side()
            if side is None:
                # Inputs done; drain whatever remains in the queue.
                if not self._queue:
                    return None
                _neg, _seq, output = heapq.heappop(self._queue)
                return Row(output)
            self._pull_side(side)

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
        hits = self.stats.rows_out + (len(self._queue) if self._queue else 0)
        return hits / pairs

    def describe(self):
        return "HRJN(f=%r, strategy=%s, score->%s)" % (
            self.combiner, self.strategy, self.output_score_column,
        )


class ReferenceNRJN(Operator):
    """Nested-loops Rank Join.

    Parameters
    ----------
    outer:
        Ranked child (descending on ``outer_score``); left input.
    inner:
        Unrestricted child; fully materialised on open.
    outer_key / inner_key:
        Equi-join key accessors.
    outer_score / inner_score:
        Score specs; ``inner_score`` only needs to be *evaluable* per
        row (the inner stream need not be sorted).
    combiner:
        Monotone combining function (default
        :class:`~repro.common.scoring.SumScore`).  Combined scores are
        always computed as ``f(outer_score, inner_score)``.
    output_score_column:
        Computed column name for the combined score.
    """

    def __init__(self, outer, inner, outer_key, inner_key, outer_score,
                 inner_score, combiner=None, output_score_column=None,
                 name=None):
        name = name or "NRJN"
        super().__init__(children=(outer, inner), name=name)
        self.outer_key = _key_accessor(outer_key)
        self.inner_key = _key_accessor(inner_key)
        if isinstance(outer_score, str):
            outer_score = ScoreSpec.column(outer_score)
        if isinstance(inner_score, str):
            inner_score = ScoreSpec.column(inner_score)
        # NRJN reads scores without a RankedInput boundary, so the
        # NaN/inf rejection happens in the checked specs instead.
        self.outer_score = outer_score.checked()
        self.inner_score = inner_score.checked()
        if combiner is None:
            combiner = SumScore()
        if not isinstance(combiner, MonotoneScore):
            raise ExecutionError("combiner must be a MonotoneScore")
        self.combiner = combiner
        self.output_score_column = (
            output_score_column or "_score_%s" % (name,)
        )
        self.score_spec = ScoreSpec.column(self.output_score_column)
        merged = outer.schema.merge(inner.schema)
        self._schema = Schema(
            tuple(merged.columns)
            + (Column(self.output_score_column, table=None,
                      type_name="float"),)
        )
        self._inner_lookup = None
        self._inner_top = None
        self._queue = None
        self._sequence = None
        self._last_outer = None
        self._outer_top = None
        self._outer_exhausted = False

    @property
    def schema(self):
        return self._schema

    def _open(self):
        # Materialise the inner input: a nested-loops join must be able
        # to rescan it, so the full inner is consumed up front.  Build a
        # hash lookup (same results as a scan, just faster) and record
        # the top inner score for the threshold.
        lookup = {}
        top = None
        inner_score = self.inner_score
        inner_key = self.inner_key
        while True:
            # Batched drain of the blocking build side; pulled counts
            # advance exactly as row-wise pulls would (and degrade to
            # row-at-a-time under an execution guard).
            batch = self._pull_batch(1, _BUILD_BATCH)
            for row in batch:
                score = inner_score(row)
                if top is None or score > top:
                    top = score
                lookup.setdefault(inner_key(row), []).append((score, row))
            if len(batch) < _BUILD_BATCH:
                break
        self._inner_lookup = lookup
        self._inner_top = top
        self._queue = []
        self._sequence = 0
        self._last_outer = None
        self._outer_top = None
        self._outer_exhausted = False
        self.stats.note_buffer(len(self._queue))

    def _close(self):
        self._inner_lookup = None
        self._queue = None

    def _state_dict(self):
        return {
            "inner_lookup": {
                key: list(entries)
                for key, entries in self._inner_lookup.items()
            },
            "inner_top": self._inner_top,
            "queue": [(neg, seq, dict(output))
                      for neg, seq, output in self._queue],
            "sequence": self._sequence,
            "last_outer": self._last_outer,
            "outer_top": self._outer_top,
            "outer_exhausted": self._outer_exhausted,
        }

    def _load_state_dict(self, state):
        self._inner_lookup = {
            key: list(entries)
            for key, entries in state["inner_lookup"].items()
        }
        self._inner_top = state["inner_top"]
        self._queue = [(neg, seq, dict(output))
                       for neg, seq, output in state["queue"]]
        heapq.heapify(self._queue)
        self._sequence = state["sequence"]
        self._last_outer = state["last_outer"]
        self._outer_top = state["outer_top"]
        self._outer_exhausted = state["outer_exhausted"]

    def threshold(self):
        """Upper bound on unseen join-result scores (see module doc)."""
        if self._outer_exhausted:
            return float("-inf")
        if self._last_outer is None or self._inner_top is None:
            if self._inner_top is None:  # An empty inner joins nothing.
                return float("-inf")
            return None
        return self.combiner((self._last_outer, self._inner_top))

    def _advance_outer(self):
        row = self._pull(0)
        if row is None:
            self._outer_exhausted = True
            return
        score = self.outer_score(row)
        if self._outer_top is None:
            self._outer_top = score
        elif score > self._outer_top + _EPSILON:
            raise ExecutionError(
                "NRJN outer input is not sorted descending on %s"
                % (self.outer_score.description,)
            )
        self._last_outer = score
        for inner_score, inner_row in self._inner_lookup.get(
                self.outer_key(row), ()):
            combined = self.combiner((score, inner_score))
            output = row.merge(inner_row).as_dict()
            output[self.output_score_column] = combined
            heapq.heappush(
                self._queue, (-combined, self._sequence, output),
            )
            self._sequence += 1
        self.stats.note_buffer(len(self._queue))

    def _next(self):
        while True:
            threshold = self.threshold()
            if self._queue:
                best = -self._queue[0][0]
                if (threshold is not None
                        and (best >= threshold - _EPSILON
                             or threshold == float("-inf"))):
                    _neg, _seq, output = heapq.heappop(self._queue)
                    return Row(output)
            elif threshold == float("-inf"):
                return None
            if self._outer_exhausted:
                if not self._queue:
                    return None
                _neg, _seq, output = heapq.heappop(self._queue)
                return Row(output)
            self._advance_outer()

    @property
    def depths(self):
        """Return ``(d_outer, d_inner)`` tuples pulled so far."""
        return tuple(self.stats.pulled)

    def observed_selectivity(self):
        """Join selectivity realised so far, or ``None`` before any pull.

        Join results found (emitted plus buffered) over the consumed
        outer prefix times the materialised inner.
        """
        d_outer, d_inner = self.stats.pulled
        pairs = d_outer * d_inner
        if pairs <= 0:
            return None
        hits = self.stats.rows_out + (len(self._queue) if self._queue else 0)
        return hits / pairs

    def describe(self):
        return "NRJN(f=%r, score->%s)" % (
            self.combiner, self.output_score_column,
        )
