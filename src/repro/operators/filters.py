"""Selection and projection, with columnar fast paths.

Both operators keep their row-at-a-time protocol untouched and add a
*fused* batch path: when the child is a scan exposing
:meth:`~repro.operators.scan.Operator.fuse_columnar`, predicates and
projections are evaluated directly over the table's raw typed columns
at heap positions -- no Row is materialised except for surviving
positions.  Fusion is pure optimisation: the child's cursor and every
stats counter (``rows_out``, ``pulled``) advance exactly as the
row-at-a-time path would, so checkpoints, equivalence suites, and
depth accounting cannot observe it.  Tracing and execution guards do
not turn it off: a fused batch charges a tracer's ``pull_ns`` once,
and each chunk is one leaf batch
(:meth:`~repro.operators.base.Operator._read_positions`) a guard admits
as a whole.
"""

from time import perf_counter_ns

from repro.operators.base import Operator
from repro.storage.columns import (
    compile_mask_selector,
    compile_predicate_closure,
)


class _FusedBatches(Operator):
    """What Filter and Project share: the fused view and its batches.

    Subclasses implement ``_setup_fused`` (set ``self._fused`` to a
    tuple led by the child's columnar view, or ``None``),
    ``_fused_batch`` and ``_row_batch``; a batch takes the fused path
    whenever the view is set.
    """

    _fused = None
    fused_batches = 0
    fused_rows = 0

    def _open(self):
        self._setup_fused()

    def _load_state_dict(self, state):
        # Restored trees skip open(); re-derive the fused view (the
        # child's state was restored first, so its cursor is current).
        self._setup_fused()

    def _close(self):
        self._fused = None

    def _next_batch(self, n):
        if self._fused is None:
            return self._row_batch(n)
        if self._tracer is None:
            rows = self._fused_batch(n)
        else:
            started = perf_counter_ns()
            rows = self._fused_batch(n)
            self._charge_pull(0, perf_counter_ns() - started)
        self.fused_batches += 1
        self.fused_rows += len(rows)
        return rows


class Filter(_FusedBatches):
    """Selection: passes rows satisfying ``predicate(row)``.

    Parameters
    ----------
    child:
        Input operator.
    predicate:
        ``row -> bool`` callable (the row-at-a-time path).
    description:
        Human-readable predicate text for plan display.
    predicates:
        Optional structured predicate list
        (:class:`~repro.optimizer.query.FilterPredicate`-shaped
        ``column``/``op``/``value`` objects).  When given and the child
        is a fusable scan, the predicates are compiled once into a
        closure over the raw columns and evaluated positionally.
    """

    def __init__(self, child, predicate, description=None, name=None,
                 predicates=None):
        super().__init__(children=(child,), name=name or "Filter")
        self.predicate = predicate
        self.description = description or "<predicate>"
        self.predicates = tuple(predicates) if predicates else ()

    @property
    def schema(self):
        return self.children[0].schema

    def _setup_fused(self):
        self._fused = None
        if not self.predicates:
            return
        child = self.children[0]
        fuse = getattr(child, "fuse_columnar", None)
        if fuse is None:
            return
        view = fuse()
        closure = compile_predicate_closure(self.predicates, view.columns)
        if closure is None:
            return
        # Heap-order streams additionally get a numpy mask selector
        # (whole-chunk compare + nonzero); sorted streams keep the
        # per-position closure over the gather permutation.
        selector = None
        if view.order is None:
            selector = compile_mask_selector(self.predicates, view.columns)
        self._fused = (view, closure, selector)

    def _next(self):
        while True:
            row = self._pull(0)
            if row is None:
                return None
            if self.predicate(row):
                return row

    def _row_batch(self, n):
        # Chunk size tracks the remaining demand so no surviving row is
        # ever buffered across calls: the operator stays stateless and
        # the checkpoint contract is untouched.
        predicate = self.predicate
        out = []
        while len(out) < n:
            want = n - len(out)
            chunk = self._pull_batch(0, want)
            out.extend(row for row in chunk if predicate(row))
            if len(chunk) < want:
                break
        return out

    def _fused_batch(self, n):
        # Mirrors the chunked row path exactly: each round consumes
        # `want` positions from the child (or fewer at exhaustion), so
        # the pulled/rows_out counters match the row path batch for
        # batch.
        view, accept, selector = self._fused
        order = view.order
        length = view.length
        row_at = view.row_at
        out = []
        while len(out) < n:
            want = n - len(out)
            start, stop = self._read_positions(0, want, length)
            if selector is not None:
                out.extend(map(row_at, selector(start, stop)))
            else:
                positions = (range(start, stop) if order is None
                             else order[start:stop])
                out.extend([row_at(position) for position in positions
                            if accept(position)])
            if stop - start < want:
                break
        return out

    def describe(self):
        return "Filter(%s)" % (self.description,)


class Project(_FusedBatches):
    """Projection onto a subset of qualified column names."""

    def __init__(self, child, columns, name=None):
        super().__init__(children=(child,), name=name or "Project")
        self.columns = tuple(columns)
        # Resolve names against the child schema so bare names work and
        # typos fail at plan-build time rather than mid-execution.
        resolved = child.schema.project(self.columns)
        self._schema = resolved
        self._qualified = resolved.qualified_names()

    @property
    def schema(self):
        return self._schema

    def _setup_fused(self):
        self._fused = None
        child = self.children[0]
        fuse = getattr(child, "fuse_columnar", None)
        if fuse is None:
            return
        view = fuse()
        try:
            buffers = [view.columns[name] for name in self._qualified]
        except KeyError:
            return
        if not buffers:
            return  # Degenerate empty projection: row path handles it.
        self._fused = (view, buffers)

    def _next(self):
        row = self._pull(0)
        if row is None:
            return None
        return row.project(self._qualified)

    def _row_batch(self, n):
        names = self._qualified
        return [row.project(names) for row in self._pull_batch(0, n)]

    def _fused_batch(self, n):
        # Build the narrow output rows straight from column slices; the
        # wide input rows are never materialised.
        from repro.common.types import Row

        view, buffers = self._fused
        start, stop = self._read_positions(0, n, view.length)
        names = self._qualified
        order = view.order
        if order is None:
            slices = [buffer[start:stop] for buffer in buffers]
        else:
            positions = order[start:stop]
            slices = [[buffer[p] for p in positions] for buffer in buffers]
        adopt = Row._adopt
        return [adopt(dict(zip(names, values))) for values in zip(*slices)]

    def describe(self):
        return "Project(%s)" % (", ".join(self._qualified),)
