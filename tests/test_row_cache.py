"""The row facade builds Rows only where a query reads.

A table's Rows live in a position cache filled on first read
(:attr:`Table.row_at`); statistics, index builds and scan opens read
typed columns and sort permutations instead.  These tests pin what
builds a Row and when:

* ``ANALYZE`` builds none, and its statistics equal the row-read ones
  field for field (typed, degraded, non-finite and empty columns);
* a top-k query caches at most the positions its scans delivered, and
  an NRJN's sorted-access inner only the rows of the probed keys;
* the sorted index's ``(score, row)`` views equal the old sorted
  ``(key, row)`` list;
* one Row object per position, also under a thread race;
* a scan streams its snapshot as of ``open()``, on the row path and
  the fused path;
* a tracemalloc bound that fails if full materialisation comes back.
"""

import math
import re
import threading
import time
import tracemalloc

import pytest

from repro import Database
from repro.common.rng import make_rng
from repro.operators.nrjn import NRJN
from repro.operators.scan import IndexScan, TableScan
from repro.operators.topk import Limit
from repro.storage.columns import ColumnStore
from repro.storage.index import SortedIndex
from repro.storage.stats import ColumnStats, TableStats
from repro.storage.table import Table

SQL = """
WITH Ranked AS (
  SELECT A.c1 AS x, B.c1 AS y,
         rank() OVER (ORDER BY (0.5*A.c1 + 0.5*B.c1)) AS rank
  FROM A, B WHERE A.c2 = B.c2)
SELECT x, y, rank FROM Ranked WHERE rank <= 10"""

SCAN = re.compile(r"^(?:IndexScan|TableScan)\((\w+)[ )]")


def loaded_db(n=20000, domain=50, seed=3):
    """Two ``(c1 float score, c2 int key)`` tables, not yet analyzed."""
    rng = make_rng(seed)
    db = Database()
    for name in "AB":
        db.create_table(name, [("c1", "float"), ("c2", "int")], rows=[
            [float(rng.uniform(0, 1)), int(rng.integers(0, domain))]
            for _ in range(n)
        ])
    return db


@pytest.fixture
def row_builds(monkeypatch):
    """Count every Row the column store builds."""
    built = []
    row_at = ColumnStore.row_at
    build_rows = ColumnStore.build_rows

    def counted_row_at(store, position):
        built.append(1)
        return row_at(store, position)

    def counted_build_rows(store, start, stop):
        built.append(stop - start)
        return build_rows(store, start, stop)

    monkeypatch.setattr(ColumnStore, "row_at", counted_row_at)
    monkeypatch.setattr(ColumnStore, "build_rows", counted_build_rows)
    return built


def cached(table):
    return len(table._row_cache)


class TestAnalyzeBuildsNoRow:
    def test_database_analyze_builds_no_row(self, row_builds):
        db = loaded_db(n=2000)
        db.analyze()
        assert sum(row_builds) == 0
        for table in db.catalog.tables().values():
            assert cached(table) == 0

    def test_index_build_builds_no_row(self, row_builds):
        db = loaded_db(n=2000)
        for table in db.catalog.tables().values():
            for index in table.indexes().values():
                assert len(index) == len(table)
                index.order()
        assert sum(row_builds) == 0


class TestQueryBuildsOnlyWhatItReads:
    def test_cache_holds_at_most_the_delivered_positions(self):
        db = loaded_db()
        db.analyze()
        report = db.execute(SQL)
        assert len(report.rows) == 10
        delivered = {}
        for snapshot in report.operators:
            match = SCAN.match(snapshot.description)
            if match:
                name = match.group(1)
                delivered[name] = delivered.get(name, 0) + snapshot.rows_out
        assert set(delivered) == {"A", "B"}
        for name, count in delivered.items():
            table = db.catalog.table(name)
            assert 0 < cached(table) <= count < len(table)

    def test_nrjn_index_scan_inner_builds_only_probed_rows(self):
        """A preloaded inner read by sorted access builds the Rows of
        the keys the outer probes, not every Row it drained."""
        db = loaded_db(n=3000)
        outer, inner = (db.catalog.table(name) for name in "AB")
        join = NRJN(IndexScan(outer, outer.get_index("A_c1_idx")),
                    IndexScan(inner, inner.get_index("B_c1_idx")),
                    "A.c2", "B.c2", "A.c1", "B.c1")
        assert len(list(Limit(join, 5))) == 5
        probed = {row["A.c2"] for row in outer._row_cache.values()}
        keys = inner.column("B.c2")
        expected = sum(1 for key in keys if key in probed)
        assert 0 < cached(inner) == expected < len(inner)

    def test_answers_equal_a_fully_materialised_run(self):
        lazy = loaded_db(n=3000)
        lazy.analyze()
        eager = loaded_db(n=3000)
        for table in eager.catalog.tables().values():
            table.rows()
        eager.analyze()
        assert lazy.execute(SQL).rows == eager.execute(SQL).rows


def stats_fields(stats):
    histogram = stats.histogram
    if histogram is not None:
        histogram = (histogram.total, histogram.buckets, histogram.low,
                     histogram.high, histogram.width, histogram.counts)
    return (stats.column, stats.count, stats.distinct, stats.minimum,
            stats.maximum, histogram)


def row_read_stats(table):
    """What ANALYZE computed when it read every Row."""
    return {
        name: ColumnStats.from_values(name, [row[name] for row in
                                             table.rows()])
        for name in table.schema.qualified_names()
    }


class TestColumnStatsEqualRowStats:
    @pytest.mark.parametrize("kind, values", [
        ("int", [3, -1, 7, 7, 0, 2 ** 62]),
        ("float", [0.25, -3.5, 1e300, 0.25, -0.0]),
        ("int", [1, True, None, 2 ** 70, -4]),
        ("float", [0.5, math.nan, math.inf, -math.inf, math.nan, 2.0]),
        ("float", [math.nan, math.inf]),
        ("float", [None, None]),
        ("int", []),
    ], ids=["int", "float", "degraded", "non_finite", "no_finite",
            "all_none", "empty"])
    def test_stats_match(self, kind, values):
        table = Table.from_columns("T", [("v", kind)],
                                   rows=[[value] for value in values])
        analyzed = TableStats.analyze(table)
        assert cached(table) == 0
        expected = row_read_stats(table)
        assert analyzed.cardinality == len(values)
        for name, stats in analyzed.columns().items():
            assert (repr(stats_fields(stats))
                    == repr(stats_fields(expected[name])))

    def test_degraded_column_is_a_list(self):
        table = Table.from_columns("T", [("v", "int")],
                                   rows=[[1], [True], [None], [2 ** 70]])
        assert isinstance(table.column("T.v"), list)


def reference_entries(table, key, descending=True):
    """The old index state: every ``(key, row)``, stably sorted."""
    pairs = [(key(row), row) for row in table.rows()]
    order = sorted(range(len(pairs)), key=lambda p: pairs[p][0],
                   reverse=descending)
    return [pairs[position] for position in order]


def tied_table(n=200):
    rng = make_rng(11)
    return Table.from_columns(
        "T", [("id", "int"), ("score", "float"), ("rank", "int")],
        rows=[[i, float(int(rng.integers(0, 9))) / 8,
               int(rng.integers(0, 6))] for i in range(n)],
    )


class TestSortedIndexViews:
    @pytest.mark.parametrize("column, descending", [
        ("T.score", True), ("T.score", False), ("T.rank", True),
    ])
    def test_views_equal_the_old_entry_list(self, column, descending):
        table = tied_table()
        index = SortedIndex("idx", column, descending=descending)
        table.create_index(index)
        expected = reference_entries(table, lambda row: row[column],
                                     descending)
        entries = index.entries()
        assert entries == expected
        assert [type(score) for score, _row in entries] == [
            type(score) for score, _row in expected]
        assert all(row is expected_row
                   for (_s, row), (_e, expected_row) in zip(entries,
                                                            expected))
        assert list(index.sorted_access()) == expected
        assert index.top() == expected[0]
        assert len(index) == len(table)

    def test_callable_key(self):
        table = tied_table()
        key = lambda row: row["T.score"] - row["T.rank"]  # noqa: E731
        index = SortedIndex("expr", key, key_description="score-rank")
        table.create_index(index)
        assert index.entries() == reference_entries(table, key)
        assert index.top() == reference_entries(table, key)[0]

    def test_empty_table(self):
        table = Table.from_columns("T", [("score", "float")])
        index = SortedIndex("idx", "T.score")
        table.create_index(index)
        assert index.entries() == []
        assert list(index.sorted_access()) == []
        assert index.top() is None
        assert len(index) == 0

    def test_len_and_top_build_at_most_one_row(self, row_builds):
        table = tied_table()
        index = SortedIndex("idx", "T.score")
        table.create_index(index)
        assert len(index) == 200
        assert sum(row_builds) == 0
        index.top()
        assert sum(row_builds) == 1

    def test_sorted_access_is_a_snapshot(self):
        table = tied_table(20)
        index = SortedIndex("idx", "T.score")
        table.create_index(index)
        before = index.entries()
        stream = index.sorted_access()
        table.insert([99, 5.0, 0])
        assert list(stream) == before
        assert index.top()[0] == 5.0


class TestOneRowPerPosition:
    def test_rows_reuses_cached_rows(self):
        table = tied_table(50)
        early = table.row_at(7)
        rows = table.rows()
        assert rows[7] is early
        assert all(rows[p] is table.row_at(p) for p in range(50))
        assert cached(table) == 50

    def test_row_at_rejects_positions_outside_the_table(self):
        table = tied_table(5)
        for position in (5, -1):
            with pytest.raises(IndexError):
                table.row_at(position)
        assert cached(table) == 0

    def test_threads_racing_on_one_position_share_one_row(self, monkeypatch):
        table = tied_table(50)
        row_at = ColumnStore.row_at
        builds = []

        def slow_row_at(store, position):
            builds.append(position)
            time.sleep(0.01)  # Hold the miss open so threads overlap.
            return row_at(store, position)

        monkeypatch.setattr(ColumnStore, "row_at", slow_row_at)
        threads = 8
        barrier = threading.Barrier(threads)
        got = [None] * threads

        def read(slot):
            barrier.wait()
            got[slot] = table.row_at(17)

        workers = [threading.Thread(target=read, args=(slot,))
                   for slot in range(threads)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
        assert len(builds) > 1  # the race happened
        assert all(row is got[0] for row in got)
        assert table.row_at(17) is got[0]
        assert table.rows()[17] is got[0]


class TestScanSnapshotAtOpen:
    def make(self):
        table = tied_table(30)
        index = SortedIndex("idx", "T.score")
        table.create_index(index)
        return table, index

    def test_index_scan_row_path(self):
        table, index = self.make()
        expected = [row for _score, row in index.entries()]
        for batch in (1, 4, 64):
            scan = IndexScan(table, index)
            scan.open()
            table.insert([100 + batch, 2.0, 0])  # would lead the index
            got = []
            while True:
                chunk = scan.next_batch(batch)
                got.extend(chunk)
                if len(chunk) < batch:
                    break
            scan.close()
            assert got == expected
            expected = [row for _score, row in index.entries()]

    def test_index_scan_fused_path(self):
        table, index = self.make()
        expected = [row for _score, row in index.entries()]
        scan = IndexScan(table, index)
        scan.open()
        table.insert([100, 2.0, 0])
        view = scan.fuse_columnar()
        assert view.length == len(expected)
        assert [view.row_at(position)
                for position in view.order[:view.length]] == expected
        scan.close()
        # A closed scan fuses the stream as of now.
        assert scan.fuse_columnar().length == len(expected) + 1

    def test_table_scan_row_path(self):
        table, _index = self.make()
        expected = list(table.rows())
        scan = TableScan(table)
        scan.open()
        table.insert([100, 2.0, 0])
        got = [scan.next() for _ in range(len(expected))]
        assert scan.next() is None
        scan.close()
        assert got == expected


def test_top_k_traced_peak_stays_bounded():
    """CI guard against full row materialisation.

    ANALYZE plus one k = 10 top-k over two 20 000-row tables, traced
    with tracemalloc from after the load.  When ANALYZE, index builds
    and scan opens built every table row the traced peak read 14.9 MB;
    with Rows built only where the query reads it reads 3.1 MB
    (CPython 3.11).  The bound, 8 MB, sits between the two.
    """
    db = loaded_db()
    tracemalloc.start()
    try:
        db.analyze()
        report = db.execute(SQL)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(report.rows) == 10
    assert peak < 8 * 1024 * 1024, "traced peak %.1f MB" % (peak / 2 ** 20)
