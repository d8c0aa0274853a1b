"""Plan cache, prepared queries, and version-keyed invalidation."""

import asyncio
import threading

import numpy as np
import pytest

import repro.executor.database as database_module
from repro.common.errors import OptimizerError, ParseError
from repro.common.rng import make_rng
from repro.executor.database import Database
from repro.executor.plan_cache import PlanCache, query_fingerprint
from repro.sql.parser import parse_query
from repro.storage.index import SortedIndex


TOPK_SQL = """
WITH Ranked AS (
  SELECT A.c1 AS x, B.c1 AS y,
         rank() OVER (ORDER BY (0.5*A.c1 + 0.5*B.c1)) AS rank
  FROM A, B WHERE A.c2 = B.c2)
SELECT x, y, rank FROM Ranked WHERE rank <= 10
"""

SIMPLE_SQL = "SELECT A.c1 FROM A ORDER BY A.c1 DESC LIMIT 5"

THIRD_SQL = "SELECT B.c1 FROM B ORDER BY B.c1 DESC LIMIT 4"


def build_db(rows=80, seed=3, **kwargs):
    rng = make_rng(seed)
    db = Database(**kwargs)
    for name in ("A", "B"):
        db.create_table(name, [("c1", "float"), ("c2", "int")], rows=[
            [float(rng.uniform(0, 1)), int(rng.integers(0, 8))]
            for _ in range(rows)
        ])
    db.analyze()
    return db


def rows_of(report):
    return [dict(row) for row in report.rows]


class TestCacheHitsAndMisses:
    def test_repeat_execution_hits(self):
        db = build_db()
        first = db.execute(TOPK_SQL)
        assert db.plan_cache.stats()["hits"] == 0
        assert db.plan_cache.stats()["misses"] == 1
        second = db.execute(TOPK_SQL)
        assert db.plan_cache.stats()["hits"] == 1
        assert rows_of(first) == rows_of(second)

    def test_cached_plan_is_the_same_object(self):
        db = build_db()
        first = db.execute(TOPK_SQL)
        second = db.execute(TOPK_SQL)
        assert second.optimization is first.optimization

    def test_explain_after_execute_is_a_hit(self):
        db = build_db()
        report = db.execute(TOPK_SQL)
        result = db.explain(TOPK_SQL)
        assert db.plan_cache.stats()["hits"] == 1
        assert result.best_plan is report.best_plan

    def test_explain_rejects_non_queries(self):
        db = build_db()
        with pytest.raises(TypeError, match="explain"):
            db.explain(42)

    def test_whitespace_variants_share_an_entry(self):
        db = build_db()
        db.execute(TOPK_SQL)
        db.execute(TOPK_SQL.replace("\n", " ").strip())
        assert db.plan_cache.stats()["hits"] == 1
        assert db.plan_cache.stats()["size"] == 1

    def test_insert_invalidates(self):
        db = build_db()
        db.execute(TOPK_SQL)
        db.catalog.table("A").insert([0.9, 3])
        db.execute(TOPK_SQL)
        assert db.plan_cache.stats()["hits"] == 0
        assert db.plan_cache.stats()["misses"] == 2

    def test_analyze_invalidates(self):
        db = build_db()
        db.execute(TOPK_SQL)
        db.analyze()
        db.execute(TOPK_SQL)
        assert db.plan_cache.stats()["misses"] == 2

    def test_index_creation_invalidates(self):
        db = build_db()
        db.execute(TOPK_SQL)
        db.catalog.table("A").create_index(
            SortedIndex("A_c2_extra_idx", "A.c2", descending=True)
        )
        db.execute(TOPK_SQL)
        assert db.plan_cache.stats()["misses"] == 2

    def test_selectivity_override_invalidates(self):
        db = build_db()
        db.execute(TOPK_SQL)
        db.catalog.set_join_selectivity("A.c2", "B.c2", 0.05)
        db.execute(TOPK_SQL)
        assert db.plan_cache.stats()["misses"] == 2

    def test_results_stay_correct_after_invalidation(self):
        db = build_db()
        before = rows_of(db.execute(SIMPLE_SQL))
        db.catalog.table("A").insert([2.0, 1])
        after = rows_of(db.execute(SIMPLE_SQL))
        assert before != after
        assert after[0]["A.c1"] == 2.0

    def test_lru_eviction(self):
        db = build_db(plan_cache_size=1)
        db.execute(TOPK_SQL)
        db.execute(SIMPLE_SQL)  # Evicts the top-k plan.
        db.execute(TOPK_SQL)   # Misses again and evicts the simple plan.
        stats = db.plan_cache.stats()
        assert stats["evictions"] == 2
        assert stats["size"] == 1
        assert stats["misses"] == 3

    def test_zero_capacity_disables_caching(self):
        db = build_db(plan_cache_size=0)
        db.execute(TOPK_SQL)
        db.execute(TOPK_SQL)
        stats = db.plan_cache.stats()
        assert stats["hits"] == 0
        assert stats["size"] == 0

    def test_metrics_counters_track_the_cache(self):
        db = build_db()
        db.execute(TOPK_SQL)
        db.execute(TOPK_SQL)
        metrics = {m["name"]: m["value"] for m in db.metrics.as_dicts()}
        assert metrics["plan_cache_hits_total"] == 1
        assert metrics["plan_cache_misses_total"] == 1
        assert metrics["plan_cache_size"] == 1


class TestPreparedQueries:
    def test_prepared_execution_matches_execute(self):
        db = build_db()
        expected = rows_of(db.execute(TOPK_SQL))
        prepared = db.prepare(TOPK_SQL)
        assert rows_of(prepared.execute()) == expected
        assert db.plan_cache.stats()["hits"] == 1

    def test_rebinding_k_returns_a_prefix(self):
        db = build_db()
        prepared = db.prepare(TOPK_SQL)
        full = rows_of(prepared.execute())
        assert len(full) == 10
        top3 = rows_of(prepared.execute(k=3))
        assert top3 == full[:3]

    def test_each_k_gets_its_own_entry(self):
        db = build_db()
        prepared = db.prepare(TOPK_SQL)
        prepared.execute()
        prepared.execute(k=3)
        assert db.plan_cache.stats()["size"] == 2
        prepared.execute(k=3)
        assert db.plan_cache.stats()["hits"] == 1

    @pytest.mark.parametrize("k", [2.5, 3.0, 10.0, True, "3"])
    def test_non_integer_k_rejected(self, k):
        prepared = build_db().prepare(TOPK_SQL)  # Bound to k=10.
        prepared.execute(k=1)
        prepared.execute(k=3)
        with pytest.raises(OptimizerError, match="integer k"):
            prepared.execute(k=k)

    def test_numpy_integer_k_accepted(self):
        prepared = build_db().prepare(TOPK_SQL)
        top3 = rows_of(prepared.execute(k=np.int64(3)))
        assert top3 == rows_of(prepared.execute())[:3]

    def test_unknown_parallel_mode_rejected(self):
        db = build_db()
        with pytest.raises(OptimizerError, match="parallel must be one of"):
            db.execute(TOPK_SQL, parallel="bogus")
        with pytest.raises(OptimizerError, match="parallel must be one of"):
            db.prepare(TOPK_SQL).execute(parallel="bogus")

    def test_bind_memoises_query_objects(self):
        db = build_db()
        prepared = db.prepare(TOPK_SQL)
        assert prepared.bind() is prepared.query
        assert prepared.bind(k=prepared.query.k) is prepared.query
        assert prepared.bind(k=4) is prepared.bind(k=4)
        assert prepared.bind(k=4).k == 4

    def test_bind_rejects_non_ranking_rebind(self):
        db = build_db()
        prepared = db.prepare("SELECT A.c1 FROM A")
        with pytest.raises(OptimizerError):
            prepared.bind(k=5)

    def test_prepared_survives_catalog_changes(self):
        db = build_db()
        prepared = db.prepare(SIMPLE_SQL)
        prepared.execute()
        db.catalog.table("A").insert([2.0, 1])
        report = prepared.execute()
        assert report.rows[0]["A.c1"] == 2.0
        assert db.plan_cache.stats()["misses"] == 2

    def test_explain_goes_through_the_cache(self):
        db = build_db()
        prepared = db.prepare(TOPK_SQL)
        result = prepared.explain()
        assert db.plan_cache.stats()["misses"] == 1
        assert prepared.explain() is result
        assert db.plan_cache.stats()["hits"] == 1

    def test_traced_hit_marks_the_optimize_span(self):
        db = build_db()
        prepared = db.prepare(TOPK_SQL)
        cold = prepared.execute(trace=True)
        warm = prepared.execute(trace=True)
        assert cold.telemetry.tracer.find("optimize").attributes == {}
        assert warm.telemetry.tracer.find("optimize").attributes == {
            "cached": True,
        }


class TestFingerprint:
    def test_k_is_a_bind_parameter(self):
        ten = parse_query(TOPK_SQL)
        three = parse_query(TOPK_SQL.replace("rank <= 10", "rank <= 3"))
        assert ten.k != three.k
        assert query_fingerprint(ten) == query_fingerprint(three)

    def test_predicate_order_is_canonical(self):
        flipped = TOPK_SQL.replace("A.c2 = B.c2", "B.c2 = A.c2")
        assert query_fingerprint(parse_query(TOPK_SQL)) == (
            query_fingerprint(parse_query(flipped))
        )

    def test_different_ranking_differs(self):
        other = TOPK_SQL.replace("0.5*A.c1 + 0.5*B.c1", "A.c1")
        assert query_fingerprint(parse_query(TOPK_SQL)) != (
            query_fingerprint(parse_query(other))
        )

    def test_scaled_weights_share_a_fingerprint(self):
        scaled = TOPK_SQL.replace(
            "0.5*A.c1 + 0.5*B.c1", "0.25*A.c1 + 0.25*B.c1"
        )
        assert query_fingerprint(parse_query(TOPK_SQL)) == (
            query_fingerprint(parse_query(scaled))
        )


def count_parses(monkeypatch):
    """Count the parser calls the database makes from now on."""
    calls = []

    def counting(text):
        calls.append(text)
        return parse_query(text)

    monkeypatch.setattr(database_module, "parse_query", counting)
    return calls


class TestStatementMap:
    def test_repeated_text_skips_the_parser(self, monkeypatch):
        db = build_db()
        calls = count_parses(monkeypatch)
        first = db.parse(TOPK_SQL)
        db.execute(TOPK_SQL)
        db.explain(TOPK_SQL)
        db.execute_guarded(TOPK_SQL)
        prepared = db.prepare(TOPK_SQL)
        assert calls == [TOPK_SQL]
        assert db.parse(TOPK_SQL) is first
        assert prepared.query is first
        assert prepared.fingerprint == query_fingerprint(first)

    def test_statements_are_bounded_and_evicted_lru(self, monkeypatch):
        db = build_db(plan_cache_size=2)
        calls = count_parses(monkeypatch)
        db.parse(TOPK_SQL)
        db.parse(SIMPLE_SQL)
        db.parse(TOPK_SQL)  # Refreshes the top-k text.
        db.parse(THIRD_SQL)  # Evicts the simple text.
        assert db.plan_cache.stats()["statements"] == 2
        db.parse(TOPK_SQL)
        db.parse(SIMPLE_SQL)
        assert calls == [TOPK_SQL, SIMPLE_SQL, THIRD_SQL, SIMPLE_SQL]
        assert db.plan_cache.stats()["statements"] == 2

    def test_zero_capacity_parses_every_call(self, monkeypatch):
        db = build_db(plan_cache_size=0)
        calls = count_parses(monkeypatch)
        db.execute(TOPK_SQL)
        db.execute(TOPK_SQL)
        db.parse(TOPK_SQL)
        assert calls == [TOPK_SQL] * 3
        assert db.plan_cache.stats()["statements"] == 0

    def test_invalidate_empties_both_maps(self, monkeypatch):
        db = build_db()
        db.execute(TOPK_SQL)
        db.plan_cache.invalidate()
        stats = db.plan_cache.stats()
        assert (stats["size"], stats["statements"]) == (0, 0)
        calls = count_parses(monkeypatch)
        db.execute(TOPK_SQL)
        assert calls == [TOPK_SQL]

    def test_failed_text_is_not_cached(self, monkeypatch):
        db = build_db()
        calls = count_parses(monkeypatch)
        bad = "SELECT A.c1 FROM A ORDER BY A.c1 DESC LIMIT 5\u00b2"
        for _ in range(2):
            with pytest.raises(ParseError):
                db.execute(bad)
        no_table = "SELECT A.c1 FROM A WHERE Z.c1 <= 5"
        for _ in range(2):
            with pytest.raises(OptimizerError):
                db.parse(no_table)
        assert calls == [bad, bad, no_table, no_table]
        assert db.plan_cache.stats()["statements"] == 0

    def test_plan_counters_match_the_uncached_parser(self):
        # Every statement hit still makes its plan lookup, so these
        # counts are the ones a parse-every-call cache produces.
        db = build_db(plan_cache_size=2)
        db.execute(TOPK_SQL)
        db.execute(TOPK_SQL)
        db.execute(SIMPLE_SQL)
        db.explain(TOPK_SQL)
        db.prepare(TOPK_SQL).execute(k=3)
        db.execute(THIRD_SQL)
        db.parse(SIMPLE_SQL)
        with pytest.raises(ParseError):
            db.execute("SELECT FROM A")
        db.catalog.table("A").insert([0.9, 3])
        db.execute(TOPK_SQL)
        db.execute_guarded(SIMPLE_SQL)
        db.execute(TOPK_SQL)
        db.execute(SIMPLE_SQL, parallel="off")
        db.execute(THIRD_SQL)
        stats = db.plan_cache.stats()
        assert (stats["hits"], stats["misses"], stats["evictions"],
                stats["size"]) == (4, 8, 6, 2)
        metrics = {m["name"]: m["value"] for m in db.metrics.as_dicts()
                   if m["name"].startswith("plan_cache_")}
        assert metrics == {
            "plan_cache_evictions_total": 6,
            "plan_cache_hits_total": 4,
            "plan_cache_misses_total": 8,
            "plan_cache_size": 2,
        }

    def test_concurrent_executions_match_serial(self):
        texts = [TOPK_SQL, SIMPLE_SQL, THIRD_SQL,
                 TOPK_SQL.replace("rank <= 10", "rank <= 3")]
        serial = {text: rows_of(build_db().execute(text))
                  for text in texts}
        db = build_db()
        barrier = threading.Barrier(8)
        results, errors = [], []

        def worker(offset):
            try:
                barrier.wait()
                for step in range(12):
                    text = texts[(offset + step) % len(texts)]
                    results.append((text, rows_of(db.execute(text))))
            except Exception as error:  # pragma: no cover - reported
                errors.append(error)

        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        assert len(results) == 8 * 12
        for text, rows in results:
            assert rows == serial[text]
        assert db.plan_cache.stats()["statements"] == len(texts)

    def test_shared_statement_is_never_mutated(self, tmp_path):
        from repro.server.server import Server

        db = build_db()
        cached = db.parse(TOPK_SQL)
        db.execute(TOPK_SQL)
        db.execute_guarded(TOPK_SQL, checkpoint=2)
        db.explain(TOPK_SQL)
        db.prepare(TOPK_SQL).execute(k=4)

        async def serve():
            async with Server(db) as server:
                session = await server.submit(TOPK_SQL, k=3)
                return await session.result()

        assert len(asyncio.run(serve()).rows) == 3
        assert db.parse(TOPK_SQL) is cached
        fresh = parse_query(TOPK_SQL)
        assert query_fingerprint(cached) == query_fingerprint(fresh)
        assert cached.k == fresh.k == 10
        assert cached.aliases == fresh.aliases
        assert cached.ranking.weights == fresh.ranking.weights


class TestPlanCacheUnit:
    def test_lru_order_is_by_recency_of_use(self):
        cache = PlanCache(capacity=2)
        fp_a, fp_b, fp_c = ("a",), ("b",), ("c",)
        cache.put(fp_a, 1, 0, "plan-a")
        cache.put(fp_b, 1, 0, "plan-b")
        assert cache.get(fp_a, 1, 0) == "plan-a"  # Refreshes a.
        cache.put(fp_c, 1, 0, "plan-c")  # Evicts b.
        assert cache.get(fp_b, 1, 0) is None
        assert cache.get(fp_a, 1, 0) == "plan-a"
        assert cache.evictions == 1

    def test_version_mismatch_is_a_miss(self):
        cache = PlanCache(capacity=4)
        cache.put(("q",), 5, 7, "plan")
        assert cache.get(("q",), 5, 8) is None
        assert cache.get(("q",), 5, 7) == "plan"

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            PlanCache(capacity=-1)


class TestExecutorMemoisation:
    ALIAS_SQL = """
WITH Ranked AS (
  SELECT a1.c1 AS x,
         rank() OVER (ORDER BY (0.5*a1.c1 + 0.5*a2.c1)) AS rank
  FROM A a1, A a2 WHERE a1.c2 = a2.c2)
SELECT x, rank FROM Ranked WHERE rank <= 5
"""

    def test_derived_executor_is_reused(self):
        db = build_db()
        query = parse_query(self.ALIAS_SQL)
        first = db._executor_for(query)
        assert first is not db.executor
        assert db._executor_for(query) is first

    def test_derived_executor_rebuilt_after_change(self):
        db = build_db()
        query = parse_query(self.ALIAS_SQL)
        first = db._executor_for(query)
        db.catalog.table("A").insert([0.7, 2])
        rebuilt = db._executor_for(query)
        assert rebuilt is not first
        # The rebuilt executor sees the new row through its aliases.
        assert len(rebuilt.catalog.table("a1")) == len(db.catalog.table("A"))

    def test_aliased_results_stay_fresh_after_insert(self):
        db = build_db()
        before = rows_of(db.execute(self.ALIAS_SQL))
        db.catalog.table("A").insert([5.0, 1])
        db.catalog.table("A").insert([5.0, 1])
        after = rows_of(db.execute(self.ALIAS_SQL))
        assert before != after
