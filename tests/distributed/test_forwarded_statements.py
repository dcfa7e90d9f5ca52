"""Forwarded DML and ``EXEC`` share one entry on the link and travel by
prepared handle: the backend parses a forwarded statement's text once,
however many values it is called with."""

import datetime
import random

import pytest

from repro.client import connect
from repro.errors import CircuitOpenError, LinkUnavailableError
from repro.faults import FaultInjector
from repro.tpcw import MIXES, TPCWApplication, TPCWConfig, build_backend, enable_caching
from repro.tpcw.workload import INTERACTIONS


@pytest.fixture
def link(cache):
    return cache.server.linked_servers.get("backend")


@pytest.fixture
def injector(deployment):
    inj = FaultInjector(deployment.clock, seed=7)
    deployment.attach_fault_injector(inj)
    return inj


@pytest.fixture
def echo(backend, cache):
    """A backend-only procedure: the cache has to forward calls to it."""
    backend.execute(
        "CREATE PROCEDURE echo @a INT, @s VARCHAR(40), @d DATETIME, @n INT AS "
        "SELECT @a AS a, @s AS s, @d AS d, @n AS n",
        database="shop",
    )
    return "EXEC echo 7, 'it''s -- not /* a comment */', @d = @d, @n = NULL"


def test_ordering_mix_leaves_the_backend_parse_count_flat():
    backend, config = build_backend(TPCWConfig(num_items=60, num_ebs=10))
    deployment, caches = enable_caching(backend, ["c1"], config)
    application = TPCWApplication(connect(caches[0]), config, random.Random(4))
    sessions = [application.new_session() for _ in range(4)]
    for round_index in range(8):  # warm-up: every interaction, every call shape
        for name in INTERACTIONS:
            application.run(name, sessions[round_index % 4])
        deployment.tick(0.1)
    for _ in range(30):  # ... including the one-in-five new-customer branch
        application.run("customer_registration", sessions[0])
    link = caches[0].server.linked_servers.get("backend")
    parses = backend.statement_cache_stats()["parses"]
    prepares, by_handle = link.prepares, link.prepared_executions
    shipped = link.queries_shipped + link.statements_shipped
    statements = link.statements_shipped

    rng = random.Random(9)
    for step in range(200):
        application.run(MIXES["Ordering"].sample(rng), sessions[step % 4])
        if step % 10 == 0:
            deployment.tick(0.1)

    assert link.statements_shipped > statements + 100  # forwarded EXEC and DML happened
    assert backend.statement_cache_stats()["parses"] == parses
    assert link.prepares == prepares
    # Every remote call — subexpression, DML, EXEC — went by handle.
    assert link.prepared_executions - by_handle == (
        link.queries_shipped + link.statements_shipped - shipped
    )


def test_forwarded_exec_returns_what_the_backend_returns(backend, cache, echo):
    params = {"d": datetime.datetime(2003, 6, 9, 12, 30, 1)}
    direct = backend.execute(echo, params, database="shop")
    forwarded = cache.execute(echo, params)
    assert forwarded.rows == direct.rows == [
        (7, "it's -- not /* a comment */", params["d"], None)
    ]
    assert [column.name for column in forwarded.schema] == ["a", "s", "d", "n"]


def test_forwarded_exec_ships_one_text_for_every_value(backend, cache, link, echo):
    cache.execute(echo, {"d": None})
    parses, handles, prepares = backend.parses, len(link._handles), link.prepares
    for value in range(50):
        sql = f"EXEC echo {value}, 'v{value}', @d = NULL, @n = {value}"
        assert cache.execute(sql).rows == [(value, f"v{value}", None, value)]
    assert len(link._handles) <= handles + 1  # @d = NULL is a second call shape
    assert link.prepares <= prepares + 1
    assert backend.parses <= parses + 1


def test_a_statement_fault_covers_forwarded_dml_and_exec_alike(cache, link, injector, echo):
    update = "UPDATE customer SET cname = 'x' WHERE cid = 1"
    for position, (sql, params) in enumerate([(update, None), (echo, {"d": None})], 1):
        injector.wound_link(link, kind="statement", count=1)
        cache.execute(sql, params)
        assert link.retries == position
    # Forwarded statements run by handle but are not the ``prepared`` path.
    injector.wound_link(link, kind="prepared", count=None)
    cache.execute(update)
    cache.execute(echo, {"d": None})
    assert link.retries == 2
    injector.heal_link(link)

    injector.wound_link(link, kind="statement", count=None)
    for sql, params in [(update, None), (echo, {"d": None})]:
        with pytest.raises((LinkUnavailableError, CircuitOpenError)):
            cache.execute(sql, params)
    assert link.breaker.state == link.breaker.OPEN
    with pytest.raises(CircuitOpenError):
        cache.execute(echo, {"d": None})
