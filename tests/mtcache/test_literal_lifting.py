"""Literal texts through a cache server: one dynamic plan (paper §5.1)
serves every ad-hoc value, on the cache and on the backend behind it."""

import pytest

from repro import MTCacheDeployment, Server

CUSTOMERS = 2_000
CACHED_THROUGH = 1_000
POINT = "SELECT cid, cname, region FROM customer WHERE cid = @cid"


def literal_point(cid: int) -> str:
    return f"SELECT cid, cname, region FROM customer WHERE cid = {cid}"


def build_partial_view_deployment():
    """The harness's ``adhoc_partial`` shape, a tenth of the size: the
    cache holds the lower half of ``customer``."""
    backend = Server("backend")
    backend.create_database("shop")
    backend.execute(
        "CREATE TABLE customer (cid INT PRIMARY KEY, cname VARCHAR(40) NOT NULL, "
        "region VARCHAR(10))"
    )
    shop = backend.database("shop")
    shop.bulk_load(
        "customer", [(cid, f"cust{cid}", f"r{cid % 7}") for cid in range(1, CUSTOMERS + 1)]
    )
    shop.analyze_all()
    deployment = MTCacheDeployment(backend, "shop")
    cache = deployment.add_cache_server("cache1")
    cache.create_cached_view(
        "CREATE CACHED VIEW CustLow AS "
        f"SELECT cid, cname, region FROM customer WHERE cid <= {CACHED_THROUGH}"
    )
    return backend, cache


@pytest.fixture
def partial():
    return build_partial_view_deployment()


def test_distinct_literal_reads_cost_one_parse_and_one_cache_entry(partial):
    """``CacheServer`` looks the batch up again after every statement (is it
    read-only?); that lookup must be the lifted one, not a second parse of
    each literal text."""
    _, cache = partial
    server = cache.server
    parses, entries = server.parses, len(server._parse_cache)
    for cid in range(1, 501):
        assert cache.execute(literal_point(cid)).rows == [(cid, f"cust{cid}", f"r{cid % 7}")]
    assert server.parses == parses + 1
    assert len(server._parse_cache) == entries + 1


def test_literal_point_queries_share_one_dynamic_plan_on_both_tiers(partial):
    backend, cache = partial
    link = cache.server.linked_servers.get("backend")
    keys = [1 + (index * 37) % CACHED_THROUGH + (CACHED_THROUGH if index % 2 else 0)
            for index in range(200)]  # fmt: skip
    assert min(keys) <= CACHED_THROUGH < max(keys)

    def rows_processed(statements):
        before = backend.total_work.rows_processed
        for sql, params in statements:
            rows = cache.execute(sql, params).rows
            assert len(rows) == 1
        return backend.total_work.rows_processed - before

    # The first remote key plans the one dynamic plan and prepares its
    # remote branch's one handle.
    plan_misses = cache.server._plan_cache.stats.misses
    cache.execute(literal_point(next(key for key in keys if key > CACHED_THROUGH)))
    backend_parses, backend_prepared = backend.parses, len(backend._prepared)

    literal_rows = rows_processed((literal_point(key), None) for key in keys)

    assert cache.server._plan_cache.stats.misses == plan_misses + 1
    assert len(link._handles) <= 2
    assert backend.parses == backend_parses
    assert len(backend._prepared) == backend_prepared
    # The guard picks, per value, the branch a literal's static plan would.
    assert literal_rows == rows_processed((POINT, {"cid": key}) for key in keys)
    assert literal_rows > 0


def test_plan_is_for_the_exact_statement_given(partial):
    """``CacheServer.plan`` keeps the static plan reachable: a constant
    inside the view plans local, one outside plans remote, and the text
    that *executes* gets the dynamic plan that covers both."""
    _, cache = partial
    local = cache.plan(literal_point(5)).explain()
    remote = cache.plan(literal_point(CACHED_THROUGH + 5)).explain()
    assert "ChoosePlan" not in local and "RemoteQuery" not in local
    assert "ChoosePlan" not in remote and "RemoteQuery" in remote
    executed = "\n".join(row[0] for row in cache.execute("EXPLAIN " + literal_point(5)).rows)
    assert "ChoosePlan" in executed and "RemoteQuery" in executed
