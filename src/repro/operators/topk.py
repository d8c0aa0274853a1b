"""The limit operator.

``Limit`` truncates any stream after ``k`` rows -- placed above a ranked
stream it implements the ``WHERE rank <= k`` clause of the paper's Q1/Q2
and is what lets a pipelined rank-join plan stop early.  Over an unranked
input the top-k is the paper's sort plan, ``Limit(Sort(input, key), k)``.
"""

from repro.common.errors import ExecutionError
from repro.operators.base import Operator


class Limit(Operator):
    """Pass through the first ``k`` rows, then stop pulling."""

    def __init__(self, child, k, name=None):
        if k < 0:
            raise ExecutionError("Limit k must be >= 0, got %r" % (k,))
        super().__init__(children=(child,), name=name or "Limit(%d)" % (k,))
        self.k = k
        self._emitted = 0

    @property
    def schema(self):
        return self.children[0].schema

    def _open(self):
        self._emitted = 0

    def _next(self):
        if self._emitted >= self.k:
            return None
        row = self._pull(0)
        if row is None:
            return None
        self._emitted += 1
        return row

    def _next_batch(self, n):
        # Never request more than the k-remainder: a Limit over a
        # pipelined rank-join must not overpull its early-out input.
        want = min(n, self.k - self._emitted)
        if want <= 0:
            return []
        rows = self._pull_batch(0, want)
        self._emitted += len(rows)
        return rows

    def _state_dict(self):
        return {"emitted": self._emitted}

    def _load_state_dict(self, state):
        self._emitted = state["emitted"]

    def describe(self):
        return "Limit(k=%d)" % (self.k,)
