"""The rank-join kernel against the pre-kernel row-dict operators.

``tests/reference_rank_join.py`` keeps HRJN and NRJN as they were
before :mod:`repro.operators.rank_kernel`.  Everything observable must
be the same call for call: output rows including dict key order,
``stats.pulled`` / ``rows_out`` / ``max_buffer``, the threshold, the
realised selectivity, guard trip points, and the remainder after a
checkpoint taken at any prefix -- whichever input adapter (positional
over a scan, positional over a degraded object column, generic Row
child) and pull mode (``next``, ``next_batch``, interleaved) is used.
"""

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import BudgetExceededError
from repro.common.rng import make_rng
from repro.common.scoring import AverageScore, MaxScore, MinScore, SumScore
from repro.executor.shard_pool import ShardPool
from repro.observability import Telemetry
from repro.operators.base import ScoreSpec
from repro.operators.filters import Filter
from repro.operators.hrjn import HRJN
from repro.operators.nrjn import NRJN
from repro.operators.rank_kernel import (
    POLL_STRATEGIES,
    PositionalInput,
    RowInput,
)
from repro.operators.scan import IndexScan, TableScan
from repro.optimizer.expressions import ScoreExpression
from repro.robustness.budget import ExecutionGuard, ResourceBudget
from repro.storage.catalog import Catalog
from repro.storage.index import SortedIndex
from repro.storage.table import Table

from tests.reference_rank_join import ReferenceHRJN, ReferenceNRJN

COMBINERS = {"sum": SumScore, "min": MinScore, "max": MaxScore,
             "average": AverageScore}
KINDS = ("positional", "row", "degraded", "weighted")
MODES = ("next", "batch", "interleaved")

#: Tie-heavy: five distinct score values.  The degraded variant swaps
#: the end points for ints, which degrades the float column to a list.
SCORES = (0.9, 0.7, 0.5, 0.3, 0.1)
DEGRADED_SCORES = (1, 0.7, 0.5, 0.3, 0)


def make_table(name, n, seed, degraded=False, key_domain=3):
    rng = make_rng(seed)
    palette = DEGRADED_SCORES if degraded else SCORES
    table = Table.from_columns(
        name, [("id", "int"), ("key", "int"), ("score", "float")],
        rows=[[i, int(rng.integers(0, key_domain)),
               palette[int(rng.integers(0, len(palette)))]]
              for i in range(n)])
    table.create_index(SortedIndex("%s_idx" % name, "%s.score" % name))
    if degraded and n:
        kinds = table.column_store().column_kinds()
        assert kinds["%s.score" % name] == "object"
    return table


def ranked_child(table, kind):
    """A ranked child of the given input kind over ``table``."""
    scan = IndexScan(table, table.get_index("%s_idx" % table.name))
    if kind == "row":
        # A pass-through Filter hides the scan: no fuse_columnar.
        return Filter(scan, lambda row: True)
    return scan


def score_spec(table, kind):
    column = "%s.score" % table.name
    if kind == "weighted":
        expression = ScoreExpression({column: 0.5})
        return ScoreSpec(expression.accessor(), expression.description(),
                         weights=list(expression.weights.items()))
    return ScoreSpec.column(column)


def build(cls, left, right, kind, right_ranked=True, **options):
    """``cls`` over fresh children; keys and scores by column name."""
    right_child = (ranked_child(right, kind) if right_ranked
                   else (Filter(TableScan(right), lambda row: True)
                         if kind == "row" else TableScan(right)))
    return cls(
        ranked_child(left, kind), right_child,
        "%s.key" % left.name, "%s.key" % right.name,
        score_spec(left, kind), score_spec(right, kind),
        name="RJ", **options)


def observe(op):
    """Everything a caller can see of a rank join between two calls."""
    return (tuple(op.stats.pulled), op.stats.rows_out,
            op.stats.max_buffer, op.threshold(),
            op.observed_selectivity(),
            [child.stats.rows_out for child in op.children])


def items(rows):
    """Rows as ordered item lists: dict *order* must match too."""
    return [None if row is None else list(row.items()) for row in rows]


def calls(mode):
    """An endless call script: ``("next",)`` or ``("batch", n)``."""
    while True:
        if mode == "next":
            yield ("next",)
        elif mode == "batch":
            yield ("batch", 3)
        else:
            yield ("next",)
            yield ("batch", 2)
            yield ("batch", 1)


def lockstep(actual, expected, mode, limit=None):
    """Drive both operators with one call script; compare every step."""
    actual.open()
    expected.open()
    produced = 0
    try:
        assert observe(actual) == observe(expected)
        for call in calls(mode):
            if call[0] == "next":
                got, want = [actual.next()], [expected.next()]
                done = got[0] is None
            else:
                n = call[1]
                if limit is not None:
                    n = min(n, limit - produced)
                got, want = actual.next_batch(n), expected.next_batch(n)
                done = len(got) < n
            assert items(got) == items(want)
            assert observe(actual) == observe(expected)
            produced += len([row for row in got if row is not None])
            if done or (limit is not None and produced >= limit):
                break
    finally:
        actual.close()
        expected.close()
    return produced


L = make_table("L", 14, seed=1)
R = make_table("R", 12, seed=2)
LD = make_table("L", 14, seed=1, degraded=True)
RD = make_table("R", 12, seed=2, degraded=True)
EMPTY_L = make_table("L", 0, seed=3)
EMPTY_R = make_table("R", 0, seed=4)
ONE_L = make_table("L", 1, seed=5, key_domain=1)
ONE_R = make_table("R", 1, seed=6, key_domain=1)


def tables_for(kind):
    return (LD, RD) if kind == "degraded" else (L, R)


class TestAdapterChoice:
    def test_scan_with_column_specs_is_positional(self):
        for kind in ("positional", "degraded", "weighted"):
            left, right = tables_for(kind)
            op = build(HRJN, left, right, kind)
            op.open()
            try:
                assert all(isinstance(source, PositionalInput)
                           for source in op._kernel.inputs)
            finally:
                op.close()

    def test_everything_else_pulls_rows(self):
        hidden = build(HRJN, L, R, "row")
        callable_key = HRJN(
            ranked_child(L, "positional"), ranked_child(R, "positional"),
            lambda row: row["L.key"], "R.key", "L.score",
            ScoreSpec(lambda row: row["R.score"], "R.score"), name="RJ")
        for op in (hidden, callable_key):
            op.open()
            try:
                assert all(type(source) is RowInput
                           for source in op._kernel.inputs)
            finally:
                op.close()


class TestHRJNEquivalence:
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("combiner", sorted(COMBINERS))
    @pytest.mark.parametrize("strategy", POLL_STRATEGIES)
    def test_full_drain(self, strategy, combiner, kind, mode):
        left, right = tables_for(kind)
        options = {"strategy": strategy,
                   "combiner": COMBINERS[combiner]()}
        produced = lockstep(build(HRJN, left, right, kind, **options),
                            build(ReferenceHRJN, left, right, kind,
                                  **options), mode)
        assert produced > 10  # k beyond the join size: full drain.

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("strategy", POLL_STRATEGIES)
    @pytest.mark.parametrize("left,right", [
        (EMPTY_L, EMPTY_R), (EMPTY_L, R), (L, EMPTY_R),
        (ONE_L, ONE_R), (ONE_L, R), (L, ONE_R),
    ], ids=["both-empty", "left-empty", "right-empty", "one-one",
            "one-left", "one-right"])
    def test_empty_and_one_row_inputs(self, left, right, strategy, mode):
        for kind in ("positional", "row"):
            lockstep(build(HRJN, left, right, kind, strategy=strategy),
                     build(ReferenceHRJN, left, right, kind,
                           strategy=strategy), mode)

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("kind", KINDS)
    def test_early_out_prefix(self, kind, mode):
        """Stopping at k leaves both operators at the same depths."""
        left, right = tables_for(kind)
        for k in (1, 4, 9):
            produced = lockstep(build(HRJN, left, right, kind),
                                build(ReferenceHRJN, left, right, kind),
                                mode, limit=k)
            assert produced == k

    def test_report_within_epsilon_of_the_threshold(self):
        """A result 5e-13 under the threshold is reported at once."""
        tables = []
        for name, rows in (("L", [[0, 0, 0.5], [1, 1, 0.5 - 5e-13]]),
                           ("R", [[0, 1, 0.5], [1, 2, 0.1]])):
            table = Table.from_columns(
                name, [("id", "int"), ("key", "int"), ("score", "float")],
                rows=rows)
            table.create_index(
                SortedIndex("%s_idx" % name, "%s.score" % name))
            tables.append(table)
        for kind in ("positional", "row"):
            actual = build(HRJN, *tables, kind)
            actual.open()
            try:
                assert actual.next()["_score_RJ"] < actual.threshold()
                assert actual.depths == (2, 1)
            finally:
                actual.close()
            lockstep(build(HRJN, *tables, kind),
                     build(ReferenceHRJN, *tables, kind), "next")

    @settings(max_examples=60, deadline=None)
    @given(
        left=st.lists(st.tuples(st.integers(0, 2),
                                st.sampled_from(SCORES)), max_size=9),
        right=st.lists(st.tuples(st.integers(0, 2),
                                 st.sampled_from(SCORES)), max_size=9),
        strategy=st.sampled_from(POLL_STRATEGIES),
        combiner=st.sampled_from(sorted(COMBINERS)),
        kind=st.sampled_from(("positional", "row", "weighted")),
        mode=st.sampled_from(MODES),
    )
    def test_generated_tie_heavy_inputs(self, left, right, strategy,
                                        combiner, kind, mode):
        tables = []
        for name, rows in (("L", left), ("R", right)):
            table = Table.from_columns(
                name, [("id", "int"), ("key", "int"), ("score", "float")],
                rows=[[i, key, score]
                      for i, (key, score) in enumerate(rows)])
            table.create_index(
                SortedIndex("%s_idx" % name, "%s.score" % name))
            tables.append(table)
        options = {"strategy": strategy,
                   "combiner": COMBINERS[combiner]()}
        lockstep(build(HRJN, *tables, kind, **options),
                 build(ReferenceHRJN, *tables, kind, **options), mode)


class TestNRJNEquivalence:
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("combiner", sorted(COMBINERS))
    def test_full_drain(self, combiner, kind, mode):
        left, right = tables_for(kind)
        options = {"combiner": COMBINERS[combiner](),
                   "right_ranked": False}
        produced = lockstep(build(NRJN, left, right, kind, **options),
                            build(ReferenceNRJN, left, right, kind,
                                  **options), mode)
        assert produced > 10

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("left,right", [
        (EMPTY_L, EMPTY_R), (EMPTY_L, R), (L, EMPTY_R), (ONE_L, ONE_R),
    ], ids=["both-empty", "outer-empty", "inner-empty", "one-one"])
    def test_empty_and_one_row_inputs(self, left, right, mode):
        for kind in ("positional", "row"):
            lockstep(build(NRJN, left, right, kind, right_ranked=False),
                     build(ReferenceNRJN, left, right, kind,
                           right_ranked=False), mode)

    def test_inner_consumed_from_a_sorted_scan_too(self):
        lockstep(build(NRJN, L, R, "positional"),
                 build(ReferenceNRJN, L, R, "positional"), "next")


def guarded_run(op, max_pulls):
    """Drain under a pull budget: rows so far and the trip snapshot."""
    guard = ExecutionGuard(ResourceBudget(max_pulls=max_pulls)).attach(op)
    rows = []
    tripped = None
    try:
        op.open()
        while True:
            row = op.next()
            if row is None:
                break
            rows.append(row)
    except BudgetExceededError as error:
        tripped = [(snap.pulled, snap.rows_out, snap.max_buffer)
                   for snap in error.snapshots]
    finally:
        op.close()
        guard.detach()
    return items(rows), tripped


class TestGuardParity:
    """A guard does not select another loop: every trip point, and the
    rows delivered before it, are the reference's."""

    @pytest.mark.parametrize("kind", ("positional", "row"))
    @pytest.mark.parametrize("cls,reference,options", [
        (HRJN, ReferenceHRJN, {}),
        (HRJN, ReferenceHRJN, {"strategy": "threshold"}),
        (NRJN, ReferenceNRJN, {"right_ranked": False}),
    ], ids=["hrjn", "hrjn-threshold", "nrjn"])
    def test_every_pull_budget(self, cls, reference, options, kind):
        trips = 0
        for max_pulls in range(0, 64):
            got = guarded_run(build(cls, L, R, kind, **options), max_pulls)
            want = guarded_run(build(reference, L, R, kind, **options),
                               max_pulls)
            assert got == want, "max_pulls=%d" % (max_pulls,)
            trips += got[1] is not None
        assert 0 < trips < 64  # The sweep spans trip and no-trip runs.


class TestTracerParity:
    @pytest.mark.parametrize("kind", ("positional", "row"))
    @pytest.mark.parametrize("cls,reference,options", [
        (HRJN, ReferenceHRJN, {}),
        (HRJN, ReferenceHRJN, {"strategy": "threshold"}),
        (NRJN, ReferenceNRJN, {"right_ranked": False}),
    ], ids=["hrjn", "hrjn-threshold", "nrjn"])
    def test_traced_run_is_the_same_run(self, cls, reference, options,
                                        kind):
        actual = build(cls, L, R, kind, **options)
        expected = build(reference, L, R, kind, **options)
        for op in (actual, expected):
            Telemetry().instrument(op)
        plain = build(cls, L, R, kind, **options)
        for mode in ("next", "batch"):
            lockstep(actual, expected, mode)
            assert all(ns > 0 for ns in actual.stats.pull_ns)
            assert all(child.stats.time_next_ns > 0
                       for child in actual.children)
            actual.reset_stats()
            expected.reset_stats()
        assert items(list(plain)) == items(list(build(
            reference, L, R, kind, **options)))


class TestCheckpointEveryPrefix:
    """Snapshot after any prefix, pulled row- or batch-wise; restore
    into a fresh tree; the remainder is the uninterrupted run's."""

    @pytest.mark.parametrize("kind", ("positional", "row"))
    @pytest.mark.parametrize("cls,options", [
        (HRJN, {}), (HRJN, {"strategy": "threshold"}),
        (NRJN, {"right_ranked": False}),
    ], ids=["hrjn", "hrjn-threshold", "nrjn"])
    def test_restores_to_identical_remainder(self, cls, options, kind):
        def fresh():
            return build(cls, L, R, kind, **options)

        expected = items(list(fresh()))
        for prefix in range(len(expected) + 1):
            for batched in (False, True):
                original = fresh()
                original.open()
                try:
                    if batched:
                        head = original.next_batch(prefix)
                    else:
                        head = [original.next() for _ in range(prefix)]
                    assert items(head) == expected[:prefix]
                    # Through pickle, as a durable snapshot travels.
                    state = pickle.loads(pickle.dumps(
                        original.state_dict(), protocol=4))
                    counters = observe(original)
                    restored = fresh()
                    restored.load_state_dict(state)
                    try:
                        assert observe(restored) == counters
                        tail = (restored.next_batch(len(expected) + 1)
                                if batched else
                                list(iter(restored.next, None)))
                        assert items(tail) == expected[prefix:]
                    finally:
                        restored.close()
                    # The snapshot did not alias live state.
                    rest = list(iter(original.next, None))
                    assert items(rest) == expected[prefix:]
                finally:
                    original.close()

    def test_queue_entries_share_rows_with_the_hash_tables(self):
        op = build(HRJN, L, R, "positional")
        op.open()
        try:
            op.next_batch(3)
            state = op.state_dict()["state"]
        finally:
            op.close()
        held = {id(row) for table in state["hash"]
                for entries in table.values() for _score, row in entries}
        assert state["queue"]
        for _negated, _sequence, left, right in state["queue"]:
            assert id(left) in held and id(right) in held


class TestShardTaskWindows:
    """The worker calls the same kernel: any ``(skip, budget)`` window
    is the serial operator's slice, with the serial depths."""

    def test_windows_equal_the_serial_slice(self):
        catalog = Catalog()
        catalog.register(L)
        catalog.register(R)
        spec = {
            "left": {"table": "L", "index": "L_idx", "key": "L.key",
                     "expression": ScoreExpression({"L.score": 1.0})},
            "right": {"table": "R", "index": "R_idx", "key": "R.key",
                      "expression": ScoreExpression({"R.score": 1.0})},
            "score_column": "_score_RJ",
        }

        def serial(needed):
            op = build(HRJN, L, R, "positional")
            op.open()
            try:
                rows = op.next_batch(needed)
                return ([dict(row.items()) for row in rows],
                        tuple(op.stats.pulled))
            finally:
                op.close()

        total = len(serial(10 ** 6)[0])
        pool = ShardPool(catalog)
        try:
            for skip in (0, 1, 5, total - 1, total):
                for budget in (1, 3, total + 5):
                    result = pool.run_inline(spec, skip, budget)
                    rows, pulled = serial(skip + budget)
                    assert result["rows"] == rows[skip:]
                    assert [list(row) for row in result["rows"]] == [
                        list(row) for row in rows[skip:]]
                    assert result["pulled"] == pulled
                    assert result["exhausted"] == (skip + budget > total)
        finally:
            pool.shutdown()

    def test_a_spec_naming_threshold_polls_as_the_operator_does(self):
        """Weights 0.9/0.1 make the two strategies read different
        depths, so a worker that ignored the spec's strategy fails."""
        catalog = Catalog()
        catalog.register(L)
        catalog.register(R)
        weights = {"L": 0.9, "R": 0.1}
        expressions = {name: ScoreExpression({"%s.score" % name: weight})
                       for name, weight in weights.items()}
        spec = {
            side: {"table": name, "index": "%s_idx" % name,
                   "key": "%s.key" % name, "expression": expressions[name]}
            for side, name in (("left", "L"), ("right", "R"))
        }
        spec.update(score_column="_score_RJ", strategy="threshold")

        def serial(needed, strategy):
            op = HRJN(*(ranked_child(table, "positional")
                        for table in (L, R)),
                      "L.key", "R.key",
                      *(ScoreSpec.weighted(expressions[table.name])
                        for table in (L, R)),
                      name="RJ", strategy=strategy)
            op.open()
            try:
                rows = op.next_batch(needed)
                return ([dict(row.items()) for row in rows],
                        tuple(op.stats.pulled))
            finally:
                op.close()

        total = len(serial(10 ** 6, "threshold")[0])
        pool = ShardPool(catalog)
        moved = False
        try:
            for skip in (0, 1, 5, total - 1, total):
                for budget in (1, 3, total + 5):
                    result = pool.run_inline(spec, skip, budget)
                    rows, pulled = serial(skip + budget, "threshold")
                    assert result["rows"] == rows[skip:]
                    assert result["pulled"] == pulled
                    assert result["exhausted"] == (skip + budget > total)
                    moved |= pulled != serial(skip + budget,
                                              "alternate")[1]
        finally:
            pool.shutdown()
        assert moved
