"""Blocking sort operator.

``Sort`` is the operator glued on top of a join to enforce an
interesting order (or the final ranking order) when no pipelined ranked
plan is available -- the paper's "sort plan" (Figure 5a).
"""

from repro.common.errors import DataError
from repro.operators.base import Operator, ScoreSpec


class Sort(Operator):
    """Full in-memory sort on a score expression.

    Parameters
    ----------
    child:
        Input operator.
    key:
        Column name or callable ``row -> sort key``.
    descending:
        Rankings sort descending (the default).
    description:
        Order description for plan display / property matching;
        defaults to the column name when ``key`` is a string.
    """

    pipelined = False  # Blocking: consumes all input before emitting.

    def __init__(self, child, key, descending=True, description=None,
                 name=None):
        super().__init__(children=(child,), name=name or "Sort")
        self.score_spec = ScoreSpec(key, description)
        self.descending = descending
        self._sorted = None
        self._position = 0

    @property
    def schema(self):
        return self.children[0].schema

    #: Input batch size for the blocking build phase.
    BUILD_BATCH = 1024

    def _open(self):
        rows = []
        while True:
            batch = self._pull_batch(0, self.BUILD_BATCH)
            rows.extend(batch)
            if len(batch) < self.BUILD_BATCH:
                break
        self.stats.note_buffer(len(rows))
        try:
            rows.sort(key=self.score_spec, reverse=self.descending)
        except OverflowError as error:
            raise DataError(
                "score must be finite (%s, %s); the weighted sum "
                "overflows a float"
                % (self.name, self.score_spec.description)) from error
        self._sorted = rows
        self._position = 0

    def _next(self):
        if self._position >= len(self._sorted):
            return None
        row = self._sorted[self._position]
        self._position += 1
        return row

    def _next_batch(self, n):
        start = self._position
        rows = self._sorted[start:start + n]
        self._position = start + len(rows)
        return rows

    def _close(self):
        self._sorted = None
        self._position = 0

    def _state_dict(self):
        return {"sorted": list(self._sorted), "position": self._position}

    def _load_state_dict(self, state):
        self._sorted = list(state["sorted"])
        self._position = state["position"]

    def describe(self):
        direction = "desc" if self.descending else "asc"
        return "Sort(%s %s)" % (self.score_spec.description, direction)
