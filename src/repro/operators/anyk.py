"""Any-k ranked enumeration over an acyclic join tree.

Binary rank-join pipelines (HRJN trees) pay buffered intermediate join
state at every internal node, and their stopping condition is only as
tight as the weakest binary threshold.  For *acyclic* multi-way joins a
dynamic program over the join tree does better (Tziavelis et al.,
"Optimal Algorithms for Ranked Enumeration of Answers to Full
Conjunctive Queries"):

1. **Bottom-up DP** -- after materialising every input relation, each
   tuple ``t`` of node ``v`` gets a *suffix bound*: the exact maximum
   score any join answer can collect from ``t``'s subtree::

       bound(t) = score_v(t) + sum over children c of best_c[key_c(t)]

   where ``best_c[key]`` is the largest bound among child ``c``'s
   tuples joining on ``key``.  Tuples with no join partner in some
   child subtree are *dead* and dropped.  Per-node scores are computed
   with the columnar :func:`~repro.storage.columns.compile_score_closure`
   machinery, bit-identical to
   :meth:`~repro.optimizer.expressions.ScoreExpression.evaluate`.

2. **Lawler enumeration** -- a solution is a choice vector over the
   preorder node serialisation: per node, a ``(bucket key, index)``
   pair into that node's bound-sorted bucket.  The top answer is the
   all-greedy vector (index 0 everywhere).  Popping a solution with
   last deviation position ``p`` generates one successor per position
   ``q >= p``: bump the index at ``q`` and re-greedify every later
   position.  The Lawler partition guarantees each vector is generated
   at most once, so answers stream out in exact score order with no
   duplicates -- the k-th answer costs ``O(m log k)`` (``m`` = number
   of relations, a constant in data complexity).

Scores attached to emitted rows are the DP cascade values (node score
plus child subtree values, added in fixed child order).  Plain float
addition is monotone, so the emitted score sequence is non-increasing
*bitwise*, not merely up to rounding -- the property the enumeration
tests pin down.
"""

import heapq
from math import isfinite

from repro.common.errors import DataError, ExecutionError
from repro.common.types import Column, Row, Schema
from repro.operators.base import Operator, ScoreSpec, check_score
from repro.operators.joins import _key_accessor
from repro.storage.columns import compile_score_closure

#: Tuples pulled per child batch while materialising the inputs.
_BUILD_BATCH = 1024


class AnyKNode:
    """One join-tree node of an :class:`AnyK` operator.

    Parameters
    ----------
    child:
        Index into the operator's ``children`` tuple: which input
        relation this node reads.
    parent:
        Preorder index of the parent node (``None`` for the root).
        Nodes must be supplied in preorder, so ``parent < self``.
    key / parent_key:
        Equi-join key accessors (column name or callable) for the edge
        to the parent: ``key`` reads this node's rows, ``parent_key``
        the parent node's rows.  Required for non-root nodes.
    score:
        Optional per-node rank score: a
        :class:`~repro.operators.base.ScoreSpec` or column name.
    score_weights:
        Optional ordered ``[(qualified_column, weight), ...]`` list;
        when given it takes precedence over ``score`` and is evaluated
        through :func:`~repro.storage.columns.compile_score_closure`
        over the materialised column buffers (bit-identical to
        ``ScoreExpression.evaluate``).  Nodes with neither contribute
        ``0.0``.
    """

    __slots__ = ("child", "parent", "key", "parent_key", "score",
                 "score_weights")

    def __init__(self, child, parent, key=None, parent_key=None,
                 score=None, score_weights=None):
        self.child = child
        self.parent = parent
        if parent is None:
            if key is not None or parent_key is not None:
                raise ExecutionError(
                    "root any-k node must not carry join keys"
                )
            self.key = None
            self.parent_key = None
        else:
            if key is None or parent_key is None:
                raise ExecutionError(
                    "non-root any-k node needs key and parent_key"
                )
            self.key = _key_accessor(key)
            self.parent_key = _key_accessor(parent_key)
        if isinstance(score, str):
            score = ScoreSpec.column(score)
        self.score = score.checked() if score is not None else None
        self.score_weights = (tuple(score_weights)
                              if score_weights else None)


class AnyK(Operator):
    """DP + Lawler any-k enumeration over an acyclic equi-join tree.

    Parameters
    ----------
    children:
        One operator per input relation (any order; unranked heap
        scans are the natural access path -- the DP reads everything).
    nodes:
        Tuple of :class:`AnyKNode` in *preorder*: ``nodes[0]`` is the
        root, and every other node's ``parent`` index precedes it.
        ``node.child`` values must form a permutation of the children.
    output_score_column:
        Name of the computed column carrying the combined score;
        defaults to ``"_score_<name>"``.

    The join tree may use a *different* key per edge (chains, stars,
    and arbitrary acyclic shapes), and inputs need not be sorted.
    """

    pipelined = False

    def __init__(self, children, nodes, output_score_column=None,
                 name=None):
        name = name or "AnyK"
        children = tuple(children)
        if len(children) < 2:
            raise ExecutionError("AnyK needs at least two inputs")
        super().__init__(children=children, name=name)
        self.nodes = tuple(nodes)
        if not self.nodes:
            raise ExecutionError("AnyK needs at least one join-tree node")
        if self.nodes[0].parent is not None:
            raise ExecutionError("nodes[0] must be the root (parent=None)")
        for position, node in enumerate(self.nodes):
            if position and not (isinstance(node.parent, int)
                                 and 0 <= node.parent < position):
                raise ExecutionError(
                    "any-k nodes must be in preorder: node %d has "
                    "parent %r" % (position, node.parent)
                )
        child_indexes = sorted(node.child for node in self.nodes)
        if child_indexes != list(range(len(self.children))):
            raise ExecutionError(
                "any-k nodes must map onto the children exactly once "
                "each, got child indexes %r" % (child_indexes,)
            )
        self.output_score_column = (
            output_score_column or "_score_%s" % (name,)
        )
        self.score_spec = ScoreSpec.column(self.output_score_column)
        merged = self.children[0].schema
        for child in self.children[1:]:
            merged = merged.merge(child.schema)
        self._schema = Schema(
            tuple(merged.columns)
            + (Column(self.output_score_column, table=None,
                      type_name="float"),)
        )
        # Children of each tree node, in preorder position order --
        # fixed at construction so the DP's float-addition order (and
        # therefore every bound, bit for bit) is deterministic.
        self._children_of = [[] for _ in self.nodes]
        for position, node in enumerate(self.nodes):
            if position:
                self._children_of[node.parent].append(position)
        self._rows = None
        self._buckets = None
        self._frontier = None
        self._sequence = 0
        self._buffered = 0

    # ------------------------------------------------------------------
    @property
    def schema(self):
        return self._schema

    def _open(self):
        self._rows = [[] for _ in self.children]
        self._buffered = 0
        for index in range(len(self.children)):
            rows = self._rows[index]
            while True:
                batch = self._pull_batch(index, _BUILD_BATCH)
                rows.extend(batch)
                self._buffered += len(batch)
                self.stats.note_buffer(self._buffered)
                if len(batch) < _BUILD_BATCH:
                    break
        self._build()
        self._frontier = []
        self._sequence = 0
        self._seed()

    def _close(self):
        self._rows = None
        self._buckets = None
        self._frontier = None

    # ------------------------------------------------------------------
    # Bottom-up DP
    # ------------------------------------------------------------------
    def _node_scores(self, node, rows):
        """Per-tuple rank scores of one node's materialised rows."""
        if node.score_weights is not None:
            buffers = {
                column: [row[column] for row in rows]
                for column, _weight in node.score_weights
            }
            closure = compile_score_closure(
                list(node.score_weights), buffers,
            )
            context = "any-k node scores"
            return [check_score(closure(position), context)
                    for position in range(len(rows))]
        if node.score is not None:
            return [node.score(row) for row in rows]
        return [0.0] * len(rows)

    def _build(self):
        """Compute suffix bounds and bound-sorted buckets per node.

        Processing nodes in reverse preorder guarantees every child's
        buckets exist when the parent probes them.  Bucket entries are
        ``(bound, own_score, row)`` sorted by descending bound; the
        sort is stable, so equal bounds keep arrival order and the
        whole structure is a deterministic function of the input row
        order.
        """
        nodes = self.nodes
        buckets = [None] * len(nodes)
        for position in range(len(nodes) - 1, -1, -1):
            node = nodes[position]
            rows = self._rows[node.child]
            scores = self._node_scores(node, rows)
            kids = self._children_of[position]
            entries = {}
            for row, own in zip(rows, scores):
                bound = own
                alive = True
                for kid in kids:
                    kid_bucket = buckets[kid].get(
                        nodes[kid].parent_key(row)
                    )
                    if kid_bucket is None:
                        alive = False
                        break
                    bound = bound + kid_bucket[0][0]
                if not alive:
                    continue
                key = node.key(row) if node.key is not None else None
                entries.setdefault(key, []).append((bound, own, row))
            for bucket in entries.values():
                bucket.sort(key=lambda entry: entry[0], reverse=True)
            buckets[position] = entries
        self._buckets = buckets

    # ------------------------------------------------------------------
    # Lawler frontier
    # ------------------------------------------------------------------
    def _row_at(self, position, choice):
        return self._buckets[position][choice[0]][choice[1]][2]

    def _greedify(self, choices, start):
        """Fill positions ``>= start`` with greedy (index 0) choices."""
        nodes = self.nodes
        for position in range(start, len(nodes)):
            parent_row = self._row_at(
                nodes[position].parent, choices[nodes[position].parent],
            )
            choices[position] = (
                nodes[position].parent_key(parent_row), 0,
            )

    def _vector_score(self, choices):
        """Exact cascade score of a fully materialised choice vector.

        Values are combined bottom-up with the *same* float additions
        the DP used for bounds, so a greedy subtree's value equals its
        stored bound bit for bit, and bumping one bucket index can
        never increase the total (float addition is monotone).
        """
        values = [0.0] * len(self.nodes)
        for position in range(len(self.nodes) - 1, -1, -1):
            key, index = choices[position]
            value = self._buckets[position][key][index][1]
            for kid in self._children_of[position]:
                value = value + values[kid]
            values[position] = value
        return values[0]

    def _push(self, choices, deviation):
        score = self._vector_score(choices)
        heapq.heappush(
            self._frontier,
            (-score, self._sequence, choices, deviation),
        )
        self._sequence += 1

    def _seed(self):
        root_bucket = self._buckets[0].get(None)
        if not root_bucket:
            return
        choices = [None] * len(self.nodes)
        choices[0] = (None, 0)
        self._greedify(choices, 1)
        self._push(tuple(choices), 0)

    def _successors(self, choices, deviation):
        """Push the Lawler successors of one popped solution."""
        nodes = self.nodes
        for position in range(deviation, len(nodes)):
            key, index = choices[position]
            if index + 1 >= len(self._buckets[position][key]):
                continue
            successor = list(choices)
            successor[position] = (key, index + 1)
            self._greedify(successor, position + 1)
            self._push(tuple(successor), position)

    def _next(self):
        if not self._frontier:
            return None
        # Buffer accounting happens before the pop: if a budget guard
        # trips here, the frontier still holds the next answer and a
        # resumed run loses nothing.
        self.stats.note_buffer(self._buffered + len(self._frontier))
        neg_score, _seq, choices, deviation = heapq.heappop(
            self._frontier
        )
        if not isfinite(neg_score):
            # Node scores are finite, so only their sum can overflow.
            raise DataError(
                "combined score must be finite (any-k %s, %d inputs); "
                "the combination overflows a float"
                % (self.name, len(self.nodes)))
        self._successors(choices, deviation)
        output = {}
        for position in range(len(self.nodes)):
            output.update(self._row_at(position,
                                       choices[position]).as_dict())
        output[self.output_score_column] = -neg_score
        return Row(output)

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def _state_dict(self):
        # The DP tables are a deterministic function of the
        # arrival-ordered input rows, so only the rows, the frontier,
        # and the sequence counter are serialised; buckets and bounds
        # are rebuilt on restore.  Rows are immutable and shared;
        # containers are copied.
        return {
            "rows": [list(rows) for rows in self._rows],
            "frontier": [
                (neg, seq, tuple(choices), deviation)
                for neg, seq, choices, deviation in self._frontier
            ],
            "sequence": self._sequence,
        }

    def _load_state_dict(self, state):
        self._rows = [list(rows) for rows in state["rows"]]
        self._buffered = sum(len(rows) for rows in self._rows)
        self._build()
        self._frontier = [
            (neg, seq, tuple(tuple(choice) for choice in choices),
             deviation)
            for neg, seq, choices, deviation in state["frontier"]
        ]
        heapq.heapify(self._frontier)
        self._sequence = state["sequence"]

    # ------------------------------------------------------------------
    def describe(self):
        edges = []
        for position, node in enumerate(self.nodes):
            if node.parent is not None:
                edges.append("%d->%d" % (node.parent, position))
        return "AnyK(m=%d%s, score->%s)" % (
            len(self.nodes),
            ", " + " ".join(edges) if edges else "",
            self.output_score_column,
        )
