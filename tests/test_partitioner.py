"""Unit tests for hash/round-robin table partitioning."""

import pytest

from repro.common.errors import CatalogError
from repro.common.rng import make_rng
from repro.executor.database import Database
from repro.storage.catalog import Catalog
from repro.storage.index import SortedIndex
from repro.storage.partition import Partitioner, stable_hash
from repro.storage.stats import TableStats
from repro.storage.table import Table

from tests.test_memo_costing import ranked_sql
from tests.test_row_cache import stats_fields as column_fields


def make_catalog(rows=60, key_domain=7, seed=3):
    rng = make_rng(seed)
    catalog = Catalog()
    table = Table.from_columns(
        "T", [("key", "int"), ("score", "float")]
    )
    for _ in range(rows):
        table.insert([int(rng.integers(0, key_domain)),
                      float(rng.uniform(0, 1))])
    table.create_index(SortedIndex("T_idx", "T.score"))
    catalog.register(table)
    return catalog


def shard_rows(catalog, partitioning):
    return [list(catalog.table(name).rows())
            for name in partitioning.shard_names]


class TestHashPartitioning:
    def test_shards_are_a_disjoint_union(self):
        catalog = make_catalog()
        base_rows = list(catalog.table("T").rows())
        partitioning = Partitioner(catalog).partition(
            "T", 4, column="T.key",
        )
        shards = shard_rows(catalog, partitioning)
        assert sum(len(rows) for rows in shards) == len(base_rows)
        scattered = [row for rows in shards for row in rows]
        assert sorted(scattered, key=repr) == sorted(base_rows, key=repr)

    def test_hash_routing_co_locates_keys(self):
        catalog = make_catalog()
        partitioning = Partitioner(catalog).partition(
            "T", 4, column="T.key",
        )
        for index, rows in enumerate(shard_rows(catalog, partitioning)):
            for row in rows:
                assert stable_hash(row["T.key"]) % 4 == index

    def test_shards_keep_base_name_schema_and_indexes(self):
        catalog = make_catalog()
        partitioning = Partitioner(catalog).partition(
            "T", 2, column="T.key",
        )
        base = catalog.table("T")
        for name in partitioning.shard_names:
            shard = catalog.table(name)
            assert shard.name == "T"
            assert shard.schema == base.schema
            assert shard.get_index("T_idx").key_description == "T.score"

    def test_unknown_column_rejected(self):
        catalog = make_catalog()
        with pytest.raises(CatalogError, match="no column"):
            Partitioner(catalog).partition("T", 2, column="T.nope")


class TestRoundRobin:
    def test_round_robin_balances(self):
        catalog = make_catalog(rows=61)
        partitioning = Partitioner(catalog).partition("T", 4)
        assert partitioning.strategy == "round_robin"
        sizes = [len(rows)
                 for rows in shard_rows(catalog, partitioning)]
        assert max(sizes) - min(sizes) <= 1
        assert sum(sizes) == 61


class TestLifecycle:
    def test_partition_is_idempotent(self):
        catalog = make_catalog()
        partitioner = Partitioner(catalog)
        first = partitioner.partition("T", 3, column="T.key")
        version = catalog.version
        again = partitioner.partition("T", 3, column="T.key")
        assert again is first
        assert catalog.version == version

    def test_repartition_replaces_shards(self):
        catalog = make_catalog()
        partitioner = Partitioner(catalog)
        old = partitioner.partition("T", 2, column="T.key")
        old_shard = catalog.table(old.shard_names[0])
        new = partitioner.partition("T", 3, column="T.key")
        assert new.shard_count == 3
        for name in new.shard_names:
            assert name in catalog
        # Alias names are reused, but the tables behind them are fresh
        # and the 2-shard layout is fully replaced by the 3-shard one.
        assert catalog.table(new.shard_names[0]) is not old_shard
        assert catalog.partitioning("T", "T.key") is new

    def test_insert_into_base_staleness(self):
        catalog = make_catalog()
        Partitioner(catalog).partition("T", 2, column="T.key")
        assert catalog.partitioning("T", "T.key") is not None
        catalog.table("T").insert([1, 0.5])
        assert catalog.partitioning("T", "T.key") is None
        assert catalog.partitioning(
            "T", "T.key", allow_stale=True,
        ) is not None

    def test_partitioning_moves_catalog_version(self):
        catalog = make_catalog()
        before = catalog.version
        Partitioner(catalog).partition("T", 2, column="T.key")
        assert catalog.version > before

    def test_bad_shard_count_and_strategy(self):
        catalog = make_catalog()
        partitioner = Partitioner(catalog)
        with pytest.raises(CatalogError, match="shard count"):
            partitioner.partition("T", 0, column="T.key")
        with pytest.raises(CatalogError, match="unknown strategy"):
            partitioner.partition("T", 2, strategy="range")
        with pytest.raises(CatalogError, match="needs a column"):
            partitioner.partition("T", 2, strategy="hash")


class TestDatabasePartitionTable:
    """``Database.partition_table`` analyzes only the shards it adds."""

    def make_db(self):
        db = Database()
        rng = make_rng(5)
        for name in "ABC":
            db.create_table(name, [("c1", "float"), ("c2", "int")], rows=[
                [float(rng.uniform(0, 1)), int(rng.integers(0, 9))]
                for _ in range(300)
            ])
        db.analyze()
        return db

    def test_analyzes_only_the_registered_shards(self, monkeypatch):
        db = self.make_db()
        catalog = db.catalog
        before = {name: catalog.stats(name) for name in "ABC"}
        fields = {name: stats_fields(stats)
                  for name, stats in before.items()}
        analyzed = []
        analyze = TableStats.analyze.__func__

        def recorded(cls, table):
            analyzed.append(table)
            return analyze(cls, table)

        monkeypatch.setattr(TableStats, "analyze", classmethod(recorded))
        version = catalog.version
        partitioning = db.partition_table("A", 2, column="A.c2")
        shards = [catalog.table(name) for name in partitioning.shard_names]
        assert analyzed == shards
        assert catalog.version > version
        for name in "ABC":
            assert catalog.stats(name) is before[name]
            assert stats_fields(catalog.stats(name)) == fields[name]
        for name, shard in zip(partitioning.shard_names, shards):
            assert (stats_fields(catalog.stats(name))
                    == stats_fields(analyze(TableStats, shard)))

        del analyzed[:]
        version = catalog.version
        assert db.partition_table("A", 2, column="A.c2") is partitioning
        assert analyzed == []
        assert catalog.version == version

    def test_cached_plans_refresh(self):
        db = self.make_db()
        sql = ranked_sql("AB", (0.5, 0.5), k=3)
        db.execute(sql)
        misses = db.plan_cache.misses
        db.execute(sql)
        assert db.plan_cache.misses == misses
        db.partition_table("B", 2, column="B.c2")
        db.execute(sql)
        assert db.plan_cache.misses == misses + 1


def stats_fields(table_stats):
    """Every field of a :class:`TableStats`, histograms included."""
    return (table_stats.table_name, table_stats.cardinality,
            [column_fields(stats) for _name, stats
             in sorted(table_stats.columns().items())])


class TestStableHash:
    def test_process_stable_values(self):
        assert stable_hash(7) == 7
        assert stable_hash(True) == 1
        assert stable_hash("abc") == stable_hash("abc")
        assert stable_hash((1, "a")) == stable_hash((1, "a"))
        assert stable_hash(1.5) == stable_hash(1.5)
