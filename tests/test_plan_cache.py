"""Plan cache, prepared queries, and version-keyed invalidation."""

import pytest

from repro.common.errors import OptimizerError
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
