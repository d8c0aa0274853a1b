"""Columnar storage and vectorized-operator equivalence.

Three contracts:

* :class:`TypedColumn` / :class:`ColumnStore` type discipline -- exact
  typing with silent, value-preserving degradation to object columns;
* fused (columnar) Filter/Project batches are byte-identical to the
  row-at-a-time path for every tree shape and batch size, including
  with the numpy mask selector and over sorted (gather) streams;
* checkpoints taken mid-stream through vectorized operators restore
  into fresh trees and produce exactly the remaining rows.

The PR-pinned suites (``test_batch_execution``,
``test_checkpoint_roundtrip``, ``test_parallel_equivalence``) run the
same trees through the generic planes; this file targets the columnar
machinery itself.
"""

import numpy as np
import pytest

from repro.common.errors import SchemaError
from repro.common.rng import make_rng
from repro.common.types import Row
from repro.operators.filters import Filter, Project
from repro.operators.hrjn import HRJN
from repro.operators.scan import IndexScan, TableScan
from repro.operators.topk import Limit
from repro.optimizer.query import FilterPredicate
from repro.storage.columns import (
    TypedColumn,
    compile_mask_selector,
    compile_predicate_closure,
    compile_score_closure,
)
from repro.storage.index import SortedIndex
from repro.storage.table import Table

BATCH_SIZES = (1, 2, 3, 7, 64)


def ranked_table(name, n, key_domain=5, seed=0):
    rng = make_rng(seed)
    table = Table.from_columns(
        name, [("id", "int"), ("key", "int"), ("score", "float")],
        rows=[
            [i, int(rng.integers(0, key_domain)),
             float(rng.uniform(0, 1))]
            for i in range(n)
        ],
    )
    table.create_index(SortedIndex("%s_idx" % name, "%s.score" % name))
    return table


L = ranked_table("L", 60, seed=7)
R = ranked_table("R", 45, seed=8)

PRED_SCORE = (FilterPredicate("L.score", ">=", 0.4),)
PRED_BOTH = (
    FilterPredicate("L.score", ">=", 0.25),
    FilterPredicate("L.key", "<", 4),
)


def index_scan(table):
    return IndexScan(table, table.get_index("%s_idx" % table.name))


# ----------------------------------------------------------------------
# TypedColumn / ColumnStore
# ----------------------------------------------------------------------
class TestTypedColumn:
    def test_exact_int_stays_typed(self):
        col = TypedColumn("int")
        col.extend([1, 2, 3])
        col.append(4)
        assert col.kind == "int"
        assert list(col.data) == [1, 2, 3, 4]

    def test_bool_degrades_preserving_values(self):
        col = TypedColumn("int")
        col.extend([1, 2])
        col.append(True)
        assert col.kind == "object"
        assert list(col.data) == [1, 2, True]
        assert col.data[2] is True

    def test_float_column_rejects_int(self):
        col = TypedColumn("float")
        col.extend([0.5, 1.5])
        col.append(2)
        assert col.kind == "object"
        assert list(col.data) == [0.5, 1.5, 2]
        assert type(col.data[2]) is int

    def test_overflow_append_degrades(self):
        col = TypedColumn("int")
        col.append(1)
        col.append(2 ** 70)
        assert col.kind == "object"
        assert list(col.data) == [1, 2 ** 70]

    def test_overflow_extend_rolls_back_partial_tail(self):
        col = TypedColumn("int")
        col.extend([1, 2])
        # The wide int passes the type sweep (it *is* int) and trips
        # OverflowError inside array.extend; the partial tail must not
        # survive twice.
        col.extend([3, 2 ** 70, 4])
        assert col.kind == "object"
        assert list(col.data) == [1, 2, 3, 2 ** 70, 4]

    def test_string_schema_type_is_object(self):
        col = TypedColumn("str")
        col.extend(["a", "b"])
        assert col.kind == "object"

    def test_extend_from_degraded_source_degrades_target(self):
        src = TypedColumn("int")
        src.extend([1, 2])
        src.append(True)  # degrade the source
        dst = TypedColumn("int")
        dst.extend([9])
        dst.extend_from(src, [2, 0])
        assert dst.kind == "object"
        assert list(dst.data) == [9, True, 1]


SPEC = [("id", "int"), ("key", "int"), ("score", "float")]

#: The same 20 rows in each form ``Table.extend`` takes.
ROW_FORMS = {
    "lists": lambda i: [i, i % 3, float(i) / 10],
    "tuples": lambda i: (i, i % 3, float(i) / 10),
    "mixed_tuple_dict": lambda i: (
        (i, i % 3, float(i) / 10) if i % 2
        else {"id": i, "T.key": i % 3, "score": float(i) / 10}),
    "rows": lambda i: Row({"T.id": i, "T.key": i % 3,
                           "T.score": float(i) / 10}),
}

#: ``value in the key column -> what the bulk load must keep``.
DEGRADING = {
    "float_in_int": 2.5,
    "bool": True,
    "wide_int": 2 ** 70,
    "numpy_scalar": np.int64(7),
}


def columns_of(table):
    return [(kind, [(type(v), v) for v in table.column(name)])
            for name, kind in table.column_store().column_kinds().items()]


class TestRowFacade:
    def test_bulk_load_equals_per_insert(self):
        for form, make in ROW_FORMS.items():
            rows = [make(i) for i in range(20)]
            bulk = Table.from_columns("T", SPEC, rows=rows)
            serial = Table.from_columns("T", SPEC)
            for row in rows:
                serial.insert(row)
            assert bulk.rows() == serial.rows(), form
            assert columns_of(bulk) == columns_of(serial), form
            assert len(bulk) == len(serial) == 20

    @pytest.mark.parametrize("bad", [
        [1, 2], (1, 2, 0.5, 9), {"id": 1, "score": 0.5}, (),
    ], ids=["short_list", "long_tuple", "dict_missing_key", "empty"])
    def test_bulk_load_refuses_a_bad_last_row_whole(self, bad):
        table = Table.from_columns("T", SPEC, rows=[[0, 0, 0.0]])
        before = (len(table), table.version, columns_of(table))
        rows = [[i, i % 3, float(i)] for i in range(9999)] + [bad]
        with pytest.raises(SchemaError):
            table.extend(rows)
        assert (len(table), table.version, columns_of(table)) == before

    @pytest.mark.parametrize("value", sorted(DEGRADING))
    def test_bulk_load_degrades_as_per_insert(self, value):
        odd = DEGRADING[value]
        rows = [[i, i % 3, float(i)] for i in range(1000)]
        rows[600][1] = odd
        bulk = Table.from_columns("T", SPEC, rows=rows)
        serial = Table.from_columns("T", SPEC)
        for row in rows:
            serial.insert(row)
        kinds = bulk.column_store().column_kinds()
        assert kinds == {"T.id": "int", "T.key": "object",
                         "T.score": "float"}
        assert columns_of(bulk) == columns_of(serial)
        assert bulk.column("T.key")[600] is odd

    def test_bulk_load_bumps_version_once(self):
        table = Table.from_columns("T", [("a", "int")])
        before = table.version
        table.extend([[i] for i in range(50)])
        assert table.version == before + 1

    def test_insert_after_rows_keeps_facade_live(self):
        table = Table.from_columns("T", [("a", "int")])
        table.insert([1])
        live = table.rows()
        table.insert([2])
        assert [row["T.a"] for row in live] == [1, 2]
        assert table.rows() is live

    def test_column_exposes_raw_buffer(self):
        store = L.column_store()
        assert list(L.column("L.id")) == list(range(60))
        assert store.column_kinds()["L.score"] == "float"

    def test_row_at_matches_rows(self):
        store = L.column_store()
        assert store.row_at(17) == L.rows()[17]
        assert store.build_rows(5, 9) == L.rows()[5:9]


# ----------------------------------------------------------------------
# Compiled closures
# ----------------------------------------------------------------------
class TestCompiledClosures:
    def test_score_closure_matches_rows(self):
        store = L.column_store()
        columns = {name: col.data for name, col
                   in zip(store.names, store.columns)}
        closure = compile_score_closure(
            [("L.score", 0.3), ("L.key", 0.7)], columns,
        )
        import math
        for position, row in enumerate(L.rows()):
            expected = math.fsum(
                (0.3 * row["L.score"], 0.7 * row["L.key"]),
            )
            assert closure(position) == expected

    def test_predicate_closure_matches_rows(self):
        store = L.column_store()
        columns = {name: col.data for name, col
                   in zip(store.names, store.columns)}
        closure = compile_predicate_closure(PRED_BOTH, columns)
        for position, row in enumerate(L.rows()):
            expected = row["L.score"] >= 0.25 and row["L.key"] < 4
            assert closure(position) == expected

    def test_predicate_closure_missing_column_is_none(self):
        assert compile_predicate_closure(PRED_SCORE, {}) is None

    def test_mask_selector_matches_closure(self):
        store = L.column_store()
        columns = {name: col.data for name, col
                   in zip(store.names, store.columns)}
        selector = compile_mask_selector(PRED_BOTH, columns)
        assert selector is not None
        closure = compile_predicate_closure(PRED_BOTH, columns)
        expected = [p for p in range(len(L)) if closure(p)]
        assert selector(0, len(L)) == expected
        assert selector(10, 40) == [p for p in expected
                                    if 10 <= p < 40]

    def test_mask_selector_refuses_inexact_comparison(self):
        store = L.column_store()
        columns = {name: col.data for name, col
                   in zip(store.names, store.columns)}
        # int column compared to a float constant: numpy would cast the
        # int64 side to float64, which is not always exact.
        preds = (FilterPredicate("L.key", "<", 2.5),)
        assert compile_mask_selector(preds, columns) is None


# ----------------------------------------------------------------------
# Fused vs row-at-a-time equivalence
# ----------------------------------------------------------------------
def _conjunction(predicates):
    return lambda row, _p=predicates: all(p.matches(row) for p in _p)


def fused_filter(scan_factory, predicates):
    """Filter carrying structured predicates: fusion-eligible."""
    return Filter(scan_factory(), _conjunction(predicates),
                  description="preds", predicates=predicates)


def row_filter(scan_factory, predicates):
    """Same selection without structured predicates: row path only."""
    return Filter(scan_factory(), _conjunction(predicates),
                  description="preds")


SHAPES = {
    "filter_heap": (PRED_SCORE, lambda: TableScan(L)),
    "filter_heap_conj": (PRED_BOTH, lambda: TableScan(L)),
    "filter_sorted": (PRED_SCORE, lambda: index_scan(L)),
    "filter_sorted_conj": (PRED_BOTH, lambda: index_scan(L)),
}


def drain_batches(operator, n):
    operator.open()
    try:
        rows = []
        while True:
            batch = operator.next_batch(n)
            rows.extend(batch)
            if len(batch) < n:
                return rows
    finally:
        operator.close()


def drain_rows(operator):
    return list(operator)


class TestFusedEquivalence:
    @pytest.mark.parametrize("shape", sorted(SHAPES))
    @pytest.mark.parametrize("batch", BATCH_SIZES)
    def test_filter_fused_matches_row_path(self, shape, batch):
        predicates, scan_factory = SHAPES[shape]
        expected = drain_rows(row_filter(scan_factory, predicates))
        fused = drain_batches(
            fused_filter(scan_factory, predicates), batch,
        )
        assert fused == expected

    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_filter_fused_stats_match_row_path(self, shape):
        predicates, scan_factory = SHAPES[shape]
        row_op = row_filter(scan_factory, predicates)
        drain_batches(row_op, 7)
        fused_op = fused_filter(scan_factory, predicates)
        drain_batches(fused_op, 7)
        assert (fused_op.stats.pulled == row_op.stats.pulled)
        assert (fused_op.children[0].stats.rows_out
                == row_op.children[0].stats.rows_out)

    @pytest.mark.parametrize("batch", BATCH_SIZES)
    def test_project_fused_matches_row_path(self, batch):
        expected = [row.project(("L.id", "L.score"))
                    for row in TableScan(L)]
        fused = drain_batches(
            Project(TableScan(L), ("L.id", "L.score")), batch,
        )
        assert fused == expected

    @pytest.mark.parametrize("batch", BATCH_SIZES)
    def test_project_over_sorted_matches_row_path(self, batch):
        expected = [row.project(("L.id",)) for row in index_scan(L)]
        assert drain_batches(
            Project(index_scan(L), ("L.id",)), batch,
        ) == expected

    def test_filter_feeding_hrjn_matches_serial(self):
        def build(predicates):
            left = Filter(
                index_scan(L),
                lambda row: row["L.score"] >= 0.25,
                predicates=predicates,
            )
            return Limit(HRJN(
                left, index_scan(R), "L.key", "R.key",
                "L.score", "R.score", name="RJ",
            ), 12)

        plain = drain_rows(
            build(None)
        )
        fused = drain_batches(
            build((FilterPredicate("L.score", ">=", 0.25),)), 5,
        )
        assert fused == plain

    def test_tracer_keeps_fusion_without_changing_rows(self):
        db = selection_db()
        plain = db.execute(SELECTION_SQL)
        traced = db.execute(SELECTION_SQL, trace=True)
        assert traced.rows == plain.rows
        assert counters(traced) == counters(plain)
        batches = traced.telemetry.metrics.get("columnar_fused_batches_total")
        assert batches.value(operator="Filter") > 0
        snap = next(s for s in traced.operators if s.name == "Filter")
        assert snap.pull_ns[0] > 0


SELECTION_SQL = "SELECT A.c1, A.c2 FROM A WHERE A.c1 >= 0.5"


def selection_db():
    from repro.executor.database import Database

    rng = make_rng(5)
    db = Database()
    db.create_table("A", [("c1", "float"), ("c2", "int")], rows=[
        [float(rng.uniform(0, 1)), int(rng.integers(0, 50))]
        for _ in range(200)
    ])
    db.analyze()
    return db


def counters(report):
    return [(s.name, s.pulled, s.rows_out, s.max_buffer)
            for s in report.operators]


# ----------------------------------------------------------------------
# Guarded leaf batches
# ----------------------------------------------------------------------
GUARDED_FACTORIES = {
    "filter": lambda: fused_filter(lambda: TableScan(L), PRED_BOTH),
    "filter_sorted": lambda: fused_filter(lambda: index_scan(L),
                                          PRED_SCORE),
    "project": lambda: Project(TableScan(L), ("L.id", "L.score")),
}

#: ``(rows delivered, [(operator, pulled, rows_out)])`` at the breach
#: (``None``: the drain completed) of a ``next_batch(7)`` drain under
#: ``max_pulls=m``, captured while a guard sent these operators down
#: their row path.  At m=60 the pull that finds the end of the
#: 60-row table is the one that trips.
GUARDED_GOLDEN = {
    ("filter", 0): (0, [("Filter", (0,), 0), ("Scan(L)", (), 0)]),
    ("filter", 1): (0, [("Filter", (1,), 0), ("Scan(L)", (), 1)]),
    ("filter", 7): (0, [("Filter", (7,), 0), ("Scan(L)", (), 7)]),
    ("filter", 60): (28, [("Filter", (60,), 28), ("Scan(L)", (), 60)]),
    ("filter", 150): (33, None),
    ("filter_sorted", 0): (0, [("Filter", (0,), 0),
                               ("IndexScan(L.L_idx)", (), 0)]),
    ("filter_sorted", 1): (0, [("Filter", (1,), 0),
                               ("IndexScan(L.L_idx)", (), 1)]),
    ("filter_sorted", 7): (7, [("Filter", (7,), 7),
                               ("IndexScan(L.L_idx)", (), 7)]),
    ("filter_sorted", 60): (35, [("Filter", (60,), 35),
                                 ("IndexScan(L.L_idx)", (), 60)]),
    ("filter_sorted", 150): (37, None),
    ("project", 0): (0, [("Project", (0,), 0), ("Scan(L)", (), 0)]),
    ("project", 1): (0, [("Project", (1,), 0), ("Scan(L)", (), 1)]),
    ("project", 7): (7, [("Project", (7,), 7), ("Scan(L)", (), 7)]),
    ("project", 60): (56, [("Project", (60,), 56), ("Scan(L)", (), 60)]),
    ("project", 150): (60, None),
}


class TestGuardedLeafBatches:
    @pytest.mark.parametrize("kind, m", sorted(GUARDED_GOLDEN))
    def test_pull_budget_trips_where_row_pulls_do(self, kind, m):
        from repro.common.errors import BudgetExceededError
        from repro.robustness.budget import ExecutionGuard, ResourceBudget

        operator = GUARDED_FACTORIES[kind]()
        guard = ExecutionGuard(ResourceBudget(max_pulls=m)).attach(operator)
        delivered, breach = 0, None
        operator.open()
        try:
            while True:
                batch = operator.next_batch(7)
                delivered += len(batch)
                if len(batch) < 7:
                    break
        except BudgetExceededError as error:
            breach = [(s.name, s.pulled, s.rows_out)
                      for s in error.snapshots]
        finally:
            operator.close()
        assert (delivered, breach) == GUARDED_GOLDEN[kind, m]
        assert guard.total_pulled == min(m, len(L))
        if breach is None:
            assert operator.fused_batches > 0
            assert operator.stats.pulled == [len(L)]


# ----------------------------------------------------------------------
# Observability
# ----------------------------------------------------------------------
class TestColumnarMetrics:
    def test_fused_counters_recorded_on_batch_drain(self):
        db = selection_db()
        report = db.execute(SELECTION_SQL)
        rows = db.metrics.get("columnar_fused_rows_total")
        assert rows is not None
        assert sum(v for _l, v in rows.samples()) == len(report.rows)
        assert db.metrics.get("columnar_fused_batches_total") is not None


# ----------------------------------------------------------------------
# Checkpoints through vectorized operators
# ----------------------------------------------------------------------
CHECKPOINT_FACTORIES = {
    "fused_filter": lambda: fused_filter(lambda: TableScan(L),
                                         PRED_BOTH),
    "fused_filter_sorted": lambda: fused_filter(lambda: index_scan(L),
                                                PRED_SCORE),
    "fused_project": lambda: Project(TableScan(L),
                                     ("L.id", "L.score")),
    "fused_filter_hrjn": lambda: Limit(HRJN(
        fused_filter(lambda: index_scan(L), PRED_SCORE),
        index_scan(R), "L.key", "R.key", "L.score", "R.score",
        name="RJ"), 10),
}


class TestVectorizedCheckpoints:
    @pytest.mark.parametrize("kind", sorted(CHECKPOINT_FACTORIES))
    @pytest.mark.parametrize("batch", (1, 3, 7))
    def test_roundtrip_mid_batch(self, kind, batch):
        factory = CHECKPOINT_FACTORIES[kind]
        expected = drain_batches(factory(), batch)
        assert expected
        for j in (0, 1, len(expected) // 2, len(expected)):
            original = factory()
            original.open()
            try:
                prefix = []
                while len(prefix) < j:
                    got = original.next_batch(
                        min(batch, j - len(prefix)),
                    )
                    prefix.extend(got)
                    if not got:
                        break
                assert prefix == expected[:j]
                state = original.state_dict()
            finally:
                original.close()
            restored = factory()
            restored.load_state_dict(state)
            try:
                rest = []
                while True:
                    got = restored.next_batch(batch)
                    rest.extend(got)
                    if len(got) < batch:
                        break
                assert rest == expected[j:], (
                    "restored %s diverged after %d rows" % (kind, j)
                )
            finally:
                restored.close()
