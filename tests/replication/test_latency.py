"""Replication latency in virtual time (Experiment 3 mechanics)."""

import pytest

from repro import MTCacheDeployment

from tests.conftest import make_shop_backend


@pytest.fixture
def env():
    backend = make_shop_backend(customers=50, orders=100)
    deployment = MTCacheDeployment(
        backend, "shop", logreader_interval=0.25, agent_interval=0.25
    )
    cache = deployment.add_cache_server("cache1")
    cache.create_cached_view(
        "CREATE CACHED VIEW vcust AS SELECT cid, cname FROM customer WHERE cid <= 30"
    )
    return backend, deployment, cache


def test_latency_bounded_by_polling_intervals(env):
    backend, deployment, cache = env
    for step in range(20):
        deployment.clock.advance(0.1)
        if step % 4 == 0:
            cid = (step % 20) + 1
            backend.execute(
                f"UPDATE customer SET cname = 'u{step}' WHERE cid = {cid}",
                database="shop",
            )
        deployment.tick()
    latency = deployment.average_replication_latency()
    assert latency is not None
    # Commit -> reader poll -> agent poll: at most ~2 poll intervals + slack.
    assert 0.0 <= latency <= 0.75


def test_slower_agents_mean_higher_latency(env):
    backend, deployment, cache = env
    fast = _measure(deployment, backend, agent_interval=0.25)
    deployment.reset_replication_measurements()
    slow = _measure(deployment, backend, agent_interval=2.0)
    assert slow > fast


def _measure(deployment, backend, agent_interval):
    for agent in deployment.distributor.agents:
        agent.poll_interval = agent_interval
    deployment.reset_replication_measurements()
    for step in range(40):
        deployment.clock.advance(0.1)
        if step % 5 == 0:
            cid = (step % 25) + 1
            backend.execute(
                f"UPDATE customer SET cname = 'v{step}' WHERE cid = {cid}",
                database="shop",
            )
        deployment.tick()
    deployment.clock.advance(3.0)
    deployment.tick()
    return deployment.average_replication_latency() or 0.0


def test_staleness_tracks_sync(env):
    backend, deployment, cache = env
    deployment.clock.advance(1.0)
    deployment.sync()
    assert cache.staleness() <= 1.0
    backend.execute("UPDATE customer SET cname = 'x' WHERE cid = 1", database="shop")
    deployment.clock.advance(5.0)
    # Without a sync, the cache has no idea about the last 5 seconds.
    assert cache.staleness() >= 4.0
    deployment.sync()
    assert cache.staleness() < 1.0


def test_freshness_clause_routes_to_backend_when_stale(env):
    backend, deployment, cache = env
    deployment.sync()
    backend.execute("UPDATE customer SET cname = 'fresh' WHERE cid = 1", database="shop")
    deployment.clock.advance(100.0)  # now very stale, no sync

    stale_ok = cache.execute(
        "SELECT cname FROM customer WHERE cid <= 5 WITH FRESHNESS 1000 SECONDS"
    )
    # Freshness bound satisfied by the stale cache: local (old) data allowed.
    assert ("cust1",) in stale_ok.rows

    must_be_fresh = cache.execute(
        "SELECT cname FROM customer WHERE cid <= 5 WITH FRESHNESS 10 SECONDS"
    )
    # Bound violated: the query must fall through to the backend.
    assert ("fresh",) in must_be_fresh.rows


BOUNDED = "SELECT cname FROM customer WHERE cid <= 5 WITH FRESHNESS 10 SECONDS"


def _shipped(cache):
    return cache.server.linked_servers.get("backend").queries_shipped


def test_one_cached_plan_follows_the_watermark_across_its_bound(env):
    """The bound is a run-time guard, not a plan-time decision: the same
    text flips local -> remote -> local with no new plan."""
    backend, deployment, cache = env
    deployment.sync()
    assert ("cust1",) in cache.execute(BOUNDED).rows  # in sync: from vcust
    assert _shipped(cache) == 0
    misses = cache.server.statement_cache_stats()["plan_cache"]["misses"]

    backend.execute("UPDATE customer SET cname = 'fresh' WHERE cid = 1", database="shop")
    deployment.clock.advance(100.0)  # 100 s stale under a 10 s bound, no sync
    assert cache.staleness() >= 100.0
    assert ("fresh",) in cache.execute(BOUNDED).rows  # from the backend
    assert _shipped(cache) == 1

    deployment.sync()  # caught up: the same plan goes local again
    assert ("fresh",) in cache.execute(BOUNDED).rows
    assert _shipped(cache) == 1
    assert cache.server.statement_cache_stats()["plan_cache"]["misses"] == misses


def test_a_plan_first_made_while_stale_goes_local_once_in_sync(env):
    backend, deployment, cache = env
    deployment.sync()
    deployment.clock.advance(100.0)
    never_planned = BOUNDED.replace("10 SECONDS", "11 SECONDS")
    cache.execute(never_planned)
    assert _shipped(cache) == 1
    deployment.sync()
    cache.execute(never_planned)
    assert _shipped(cache) == 1  # stayed remote at the parent


@pytest.mark.parametrize(
    "sql",
    [
        # A cached view the statement names itself is bounded like any other.
        "SELECT cname FROM vcust WHERE cid = 1 WITH FRESHNESS 10 SECONDS",
        # ... and so is one reached through a derived table or an outer
        # join (planned in written order, over a whole-table view).
        "SELECT d.cname FROM (SELECT cid, cname FROM customer WHERE cid <= 5) AS d "
        "WHERE d.cid = 1 WITH FRESHNESS 10 SECONDS",
        "SELECT n.cname FROM orders o LEFT JOIN customer n ON o.o_cid = n.cid "
        "WHERE o.oid = 100 WITH FRESHNESS 10 SECONDS",
        # A parameterised statement: the bound joins the ChoosePlan guard.
        "SELECT cname FROM customer WHERE cid = @cid WITH FRESHNESS 10 SECONDS",
    ],
)
def test_every_way_to_a_cached_view_is_guarded(env, sql):
    backend, deployment, cache = env
    if "LEFT JOIN" in sql:
        cache.create_cached_view("CREATE CACHED VIEW vnames AS SELECT cid, cname FROM customer")
    deployment.sync()
    params = {"cid": 1}
    assert ("cust1",) in cache.execute(sql, params).rows
    backend.execute("UPDATE customer SET cname = 'fresh' WHERE cid = 1", database="shop")
    deployment.clock.advance(100.0)
    assert ("fresh",) in cache.execute(sql, params).rows
    unbounded = sql.replace(" WITH FRESHNESS 10 SECONDS", "")
    assert ("cust1",) in cache.execute(unbounded, params).rows  # no bound, no guard
    deployment.sync()
    assert ("fresh",) in cache.execute(unbounded, params).rows


def test_the_verifier_rejects_an_unguarded_cached_view_under_a_bound(env):
    from dataclasses import replace

    from repro.analysis import verify_plan
    from repro.sql import parse

    _, _, cache = env
    server, database = cache.server, cache.database
    bounded = server.optimizer_for(database).plan_select(parse(BOUNDED))
    assert bounded.currency is not None
    assert verify_plan(bounded, database=database) == []
    # The plan the parent made while in sync: the view, no guard, same bound.
    unguarded = server.optimizer_for(database).plan_select(
        parse(BOUNDED.replace(" WITH FRESHNESS 10 SECONDS", ""))
    )
    assert unguarded.currency is None and unguarded.uses_cached_view
    assert verify_plan(unguarded, database=database) == []
    rules = [d.rule for d in verify_plan(replace(unguarded, currency=bounded.currency), database=database)]
    assert rules == ["currency-guard"]
