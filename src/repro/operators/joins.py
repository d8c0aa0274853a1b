"""Traditional binary join operators.

These are the baselines the rank-aware optimizer weighs rank-joins
against: a rank-join plan competes with "cheapest join + glued sort"
(Figure 5).  All joins here are equi-joins driven by key accessors; a
residual predicate can be layered with :class:`repro.operators.Filter`.
"""

from repro.common.errors import ExecutionError
from repro.operators.base import Operator


def key_spec(key):
    """Normalise a join key to ``(columns, accessor)``.

    ``key`` is a column name, a tuple of column names (composite key)
    or a ``row -> key`` callable.  ``columns`` is the tuple of names
    (``None`` for a callable) positional consumers read instead of
    calling ``accessor``.
    """
    if isinstance(key, str):
        return (key,), lambda row, _c=key: row[_c]
    if isinstance(key, tuple):
        return key, lambda row, _c=key: tuple(row[c] for c in _c)
    if callable(key):
        return None, key
    raise ExecutionError("join key must be a column name or callable")


def _key_accessor(key):
    """Normalise a key spec to its ``row -> key`` callable."""
    return key_spec(key)[1]


#: Input batch size for blocking build phases (hash tables, inner
#: materialisation).  The build consumes its whole input anyway, so a
#: large batch only reduces per-row call overhead.
BUILD_BATCH = 1024


def _drain_build(operator, child_index, consume):
    """Drain ``child_index`` batch-at-a-time into ``consume(row)``.

    Shared by the blocking build phases; returns the row count.  Falls
    back to row-wise pulls automatically under an execution guard (see
    :meth:`~repro.operators.base.Operator._pull_batch`).
    """
    count = 0
    while True:
        batch = operator._pull_batch(child_index, BUILD_BATCH)
        for row in batch:
            consume(row)
        count += len(batch)
        if len(batch) < BUILD_BATCH:
            return count


class NestedLoopsJoin(Operator):
    """Tuple nested-loops equi-join; pipelined on the outer input.

    The inner input is materialised on first open (our tables are
    in-memory, so "rescan" is a list walk); this keeps child pull counts
    meaningful -- each inner tuple is pulled exactly once.
    """

    def __init__(self, left, right, left_key, right_key, name=None):
        super().__init__(children=(left, right), name=name or "NLJoin")
        self.left_key = _key_accessor(left_key)
        self.right_key = _key_accessor(right_key)
        self._schema = left.schema.merge(right.schema)
        self._inner = None
        self._outer_row = None
        self._inner_pos = 0

    @property
    def schema(self):
        return self._schema

    def _open(self):
        inner = []
        _drain_build(self, 1, inner.append)
        self.stats.note_buffer(len(inner))
        self._inner = inner
        self._outer_row = None
        self._inner_pos = 0

    def _next(self):
        while True:
            if self._outer_row is None:
                self._outer_row = self._pull(0)
                if self._outer_row is None:
                    return None
                self._inner_pos = 0
            outer_key = self.left_key(self._outer_row)
            while self._inner_pos < len(self._inner):
                inner_row = self._inner[self._inner_pos]
                self._inner_pos += 1
                if self.right_key(inner_row) == outer_key:
                    return self._outer_row.merge(inner_row)
            self._outer_row = None

    def _close(self):
        self._inner = None
        self._outer_row = None

    def _state_dict(self):
        return {
            "inner": list(self._inner),
            "outer_row": self._outer_row,
            "inner_pos": self._inner_pos,
        }

    def _load_state_dict(self, state):
        self._inner = list(state["inner"])
        self._outer_row = state["outer_row"]
        self._inner_pos = state["inner_pos"]

    def describe(self):
        return "NestedLoopsJoin"


class IndexNestedLoopsJoin(Operator):
    """Nested loops probing an equality lookup structure on the inner.

    Builds a hash map over the inner input keyed by the join key --
    functionally an index lookup per outer tuple, matching the paper's
    "index nested-loops join" in the Figure 6 sort plan.
    """

    def __init__(self, left, right, left_key, right_key, name=None):
        super().__init__(children=(left, right), name=name or "INLJoin")
        self.left_key = _key_accessor(left_key)
        self.right_key = _key_accessor(right_key)
        self._schema = left.schema.merge(right.schema)
        self._lookup = None
        #: Matches still to emit, last first: ``pop()`` is O(1) where
        #: ``pop(0)`` moved the whole list per emitted row.
        self._pending = []

    @property
    def schema(self):
        return self._schema

    def _open(self):
        lookup = {}

        def consume(row, _key=self.right_key, _lookup=lookup):
            _lookup.setdefault(_key(row), []).append(row)

        count = _drain_build(self, 1, consume)
        self.stats.note_buffer(count)
        self._lookup = lookup
        self._pending = []

    def _next(self):
        while True:
            if self._pending:
                return self._pending.pop()
            outer = self._pull(0)
            if outer is None:
                return None
            matches = self._lookup.get(self.left_key(outer), ())
            self._pending = [outer.merge(match)
                             for match in reversed(matches)]

    def _close(self):
        self._lookup = None
        self._pending = []

    def _state_dict(self):
        return {
            "lookup": {key: list(rows)
                       for key, rows in self._lookup.items()},
            "pending": self._pending[::-1],
        }

    def _load_state_dict(self, state):
        self._lookup = {key: list(rows)
                        for key, rows in state["lookup"].items()}
        self._pending = state["pending"][::-1]

    def describe(self):
        return "IndexNestedLoopsJoin"


class HashJoin(Operator):
    """Classic build/probe hash equi-join (blocking on the build side).

    The right child is the build side.  Pipelined on the probe side but
    the optimizer treats it as non-pipelined only when the *whole plan*
    blocks; operator-level ``pipelined`` stays true because first output
    needs only the build input.
    """

    def __init__(self, left, right, left_key, right_key, name=None):
        super().__init__(children=(left, right), name=name or "HashJoin")
        self.left_key = _key_accessor(left_key)
        self.right_key = _key_accessor(right_key)
        self._schema = left.schema.merge(right.schema)
        self._build = None
        self._pending = []  # Last first, as in IndexNestedLoopsJoin.

    @property
    def schema(self):
        return self._schema

    def _open(self):
        build = {}

        def consume(row, _key=self.right_key, _build=build):
            _build.setdefault(_key(row), []).append(row)

        count = _drain_build(self, 1, consume)
        self.stats.note_buffer(count)
        self._build = build
        self._pending = []

    def _next(self):
        while True:
            if self._pending:
                return self._pending.pop()
            probe = self._pull(0)
            if probe is None:
                return None
            matches = self._build.get(self.left_key(probe), ())
            self._pending = [probe.merge(match)
                             for match in reversed(matches)]

    def _close(self):
        self._build = None
        self._pending = []

    def _state_dict(self):
        return {
            "build": {key: list(rows)
                      for key, rows in self._build.items()},
            "pending": self._pending[::-1],
        }

    def _load_state_dict(self, state):
        self._build = {key: list(rows)
                       for key, rows in state["build"].items()}
        self._pending = state["pending"][::-1]

    def describe(self):
        return "HashJoin"
