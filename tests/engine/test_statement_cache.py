"""Statement fast path: SQL-text parse cache and bounded plan cache."""

import pytest

from repro import Server
from repro.common.lru import LRUCache
from repro.errors import ExecutionError


@pytest.fixture
def server():
    s = Server("s")
    s.create_database("db")
    s.execute("CREATE TABLE t (id INT PRIMARY KEY, v VARCHAR(10))")
    s.execute("INSERT INTO t VALUES (1, 'one'), (2, 'two')")
    return s


class TestLRUCache:
    def test_hit_miss_accounting(self):
        cache = LRUCache(4)
        assert cache.get("a") is None
        cache["a"] = 1
        assert cache.get("a") == 1
        assert cache.stats.misses == 1
        assert cache.stats.hits == 1
        assert cache.stats.hit_rate == 0.5

    def test_eviction_is_least_recently_used(self):
        cache = LRUCache(2)
        cache["a"] = 1
        cache["b"] = 2
        cache.get("a")  # refresh a; b becomes the LRU entry
        cache["c"] = 3
        assert "a" in cache and "c" in cache
        assert "b" not in cache
        assert cache.stats.evictions == 1

    def test_validator_counts_invalidation_not_hit(self):
        cache = LRUCache(4)
        cache["a"] = ("v1", "payload")
        assert cache.get("a", valid=lambda e: e[0] == "v2") is None
        assert cache.stats.invalidations == 1
        assert cache.stats.hits == 0
        assert "a" not in cache

    def test_eviction_callback(self):
        closed = []
        cache = LRUCache(1, on_evict=closed.append)
        cache["a"] = "first"
        cache["b"] = "second"
        assert closed == ["first"]

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            LRUCache(0)


class TestParseCache:
    def test_repeated_batch_parses_once(self, server):
        sql = "SELECT v FROM t WHERE id = @id"
        before = server.parses
        for i in range(5):
            server.execute(sql, params={"id": 1})
        assert server.parses == before + 1
        assert server.total_work.parse_cache_hits >= 4

    def test_distinct_texts_parse_separately(self, server):
        """Distinct *shapes* parse separately; distinct literals do not."""
        before = server.parses
        server.execute("SELECT v FROM t WHERE id = 1")
        server.execute("SELECT v FROM t WHERE id = 2")
        assert server.parses == before + 1
        server.execute("SELECT v FROM t WHERE id >= 2")
        server.execute("SELECT v FROM t WHERE v = 'two'")
        assert server.parses == before + 3

    def test_ddl_version_bump_invalidates_parse_cache(self, server):
        sql = "SELECT v FROM t WHERE id = @id"
        server.execute(sql, params={"id": 1})
        before = server.parses
        server.execute("CREATE INDEX ix_t_v ON t (v)")  # bumps the version
        server.execute(sql, params={"id": 1})
        # DDL batch itself plus the re-parse of the now-stale entry.
        assert server.parses == before + 2
        assert server._parse_cache.stats.invalidations >= 1

    def test_stats_surface(self, server):
        server.execute("SELECT v FROM t")
        server.execute("SELECT v FROM t")
        stats = server.statement_cache_stats()
        assert stats["parse_cache"]["hits"] >= 1
        assert stats["parses"] >= 1
        assert set(stats) >= {
            "parse_cache",
            "plan_cache",
            "parses",
            "prepared_statements",
            "parse_cache_hits",
            "prepared_executions",
            "round_trips_saved",
        }


class TestPlanCache:
    def test_plan_cache_is_bounded(self):
        s = Server("tiny")
        s._plan_cache = LRUCache(2)
        s.create_database("db")
        s.execute("CREATE TABLE t (id INT PRIMARY KEY)")
        s.execute("INSERT INTO t VALUES (1)")
        for op in ("=", "<>", "<", "<=", ">"):  # five shapes, not five literals
            s.execute(f"SELECT id FROM t WHERE id {op} 1")
        assert len(s._plan_cache) <= 2
        assert s._plan_cache.stats.evictions >= 3
        for i in range(5):
            s.execute(f"SELECT id FROM t WHERE id > {i}")
        assert s._plan_cache.stats.evictions == 3

    def test_ddl_version_bump_invalidates_plan_cache(self, server):
        sql = "SELECT v FROM t WHERE id = @id"
        server.execute(sql, params={"id": 1})
        hits_before = server._plan_cache.stats.hits
        server.execute(sql, params={"id": 2})
        assert server._plan_cache.stats.hits == hits_before + 1
        server.execute("CREATE INDEX ix_t_v2 ON t (v)")
        invalidations_before = server._plan_cache.stats.invalidations
        server.execute(sql, params={"id": 1})
        assert server._plan_cache.stats.invalidations == invalidations_before + 1

    def test_repeated_execution_reuses_plan(self, server):
        sql = "SELECT v FROM t WHERE id = @id"
        server.execute(sql, params={"id": 1})
        entries = len(server._plan_cache)
        server.execute(sql, params={"id": 2})
        assert len(server._plan_cache) == entries


class TestUnionTypeCheck:
    def test_incompatible_branch_types_rejected(self, server):
        server.execute("CREATE TABLE s (id INT PRIMARY KEY, n FLOAT)")
        server.execute("INSERT INTO s VALUES (1, 1.5)")
        with pytest.raises(ExecutionError, match="not type-compatible at column 1"):
            server.execute("SELECT v FROM t UNION ALL SELECT n FROM s")

    def test_numeric_widening_is_compatible(self, server):
        server.execute("CREATE TABLE s (id INT PRIMARY KEY, n FLOAT)")
        server.execute("INSERT INTO s VALUES (7, 1.5)")
        result = server.execute("SELECT id FROM t UNION ALL SELECT n FROM s")
        assert len(result.rows) == 3
