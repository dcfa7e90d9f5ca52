"""Shared fixtures: a small shop database and an MTCache deployment."""

from __future__ import annotations

import os
import threading

import pytest

from repro import MTCacheDeployment, Server

# Checked execution for the whole suite: every server verifies each
# freshly optimized plan against the repro.analysis invariants. The
# default is read when each Server is constructed, so setting it at
# conftest import time covers every test.
os.environ.setdefault("REPRO_CHECKED_PLANS", "1")

# Lock witness for the whole suite: every lock minted through the
# repro.common.locks chokepoints records its acquisitions into the
# process-wide witness graph; the session gate below fails the run if
# any test produced a lock-order inversion or an edge outside the
# modeled hierarchy.
os.environ.setdefault("REPRO_LOCK_WITNESS", "1")


@pytest.fixture(scope="session", autouse=True)
def _lock_witness_gate():
    """Assert the suite's observed lock graph embeds in the hierarchy."""
    yield
    from repro.analysis.concurrency import verify_witness
    from repro.common.witness import active_witness

    witness = active_witness()
    if witness is None:  # REPRO_LOCK_WITNESS=0: explicitly disabled
        return
    problems = [str(diagnostic) for diagnostic in verify_witness(witness)]
    assert not problems, "lock witness recorded violations:\n" + "\n".join(problems)


def stop_wire_server(server) -> None:
    """``stop()`` a ReproServer, then: no acceptor or handler thread outlives it."""
    server.stop()
    leaked = []
    for thread in threading.enumerate():
        if thread.name.startswith("repro-net-"):
            # A handler whose client left earlier may still be unwinding.
            thread.join(timeout=1)
            if thread.is_alive():
                leaked.append(thread.name)
    assert not leaked, f"server threads alive after stop(): {leaked}"


def make_shop_backend(customers: int = 200, orders: int = 400) -> Server:
    """A small backend with customer/orders tables and statistics."""
    server = Server("backend")
    server.create_database("shop")
    server.execute(
        """
        CREATE TABLE customer (
            cid INT PRIMARY KEY,
            cname VARCHAR(40) NOT NULL,
            caddress VARCHAR(60),
            segment VARCHAR(10)
        );
        CREATE TABLE orders (
            oid INT PRIMARY KEY,
            o_cid INT NOT NULL,
            total FLOAT,
            status VARCHAR(10)
        );
        CREATE INDEX ix_orders_cid ON orders (o_cid);
        CREATE INDEX ix_customer_segment ON customer (segment);
        """
    )
    database = server.database("shop")
    database.bulk_load(
        "customer",
        [
            (
                i,
                f"cust{i}",
                f"addr{i}",
                "gold" if i % 3 == 0 else "base",
            )
            for i in range(1, customers + 1)
        ],
    )
    database.bulk_load(
        "orders",
        [
            (
                i,
                (i % customers) + 1,
                round(i * 1.5, 2),
                "OPEN" if i % 4 else "SHIPPED",
            )
            for i in range(1, orders + 1)
        ],
    )
    database.analyze_all()
    return server


@pytest.fixture
def backend() -> Server:
    return make_shop_backend()


@pytest.fixture
def deployment(backend):
    return MTCacheDeployment(backend, "shop")


@pytest.fixture
def cache(deployment):
    """A cache server with the paper's running-example cached view."""
    cache_server = deployment.add_cache_server("cache1")
    cache_server.create_cached_view(
        "CREATE CACHED VIEW Cust1000 AS "
        "SELECT cid, cname, caddress FROM customer WHERE cid <= 100"
    )
    return cache_server


def assert_bound_as_fresh(server: Server, database, sql: str) -> int:
    """The binding the server holds for ``sql`` equals a fresh derivation.

    Looks the text up the way an execution does (the parse cache's bound
    batch) and compares, for every statement and — through a local
    ``EXEC`` — every statement of the procedure bodies beneath it, the
    bound lock plan with a fresh ``statement_lock_plan`` (and its resolved
    table locks with the database's own) and the bound
    object list with the names an independent AST walk finds. Returns how
    many bindings were compared.
    """
    from repro.analysis.concurrency.atomicity import _walk_table_names
    from repro.engine.locks import LockMode, statement_lock_plan
    from repro.sql import ast

    seen = set()

    def check(bound) -> None:
        if id(bound) in seen:  # a recursive procedure
            return
        seen.add(id(bound))
        statement = bound.statement
        assert bound.version == database.version, statement
        plan = bound.lock_plan
        assert plan == statement_lock_plan(statement, database.catalog), statement
        if plan is not None and plan.latch is LockMode.SHARED:
            # Resolved once, to this database's own table locks.
            assert bound.table_locks.locks == tuple(
                (database.lock_manager.lock_for(name), mode is LockMode.EXCLUSIVE)
                for name, mode in plan.tables
            ), statement
        else:
            assert bound.table_locks is None, statement
        named = {name.object_name.lower() for name in _walk_table_names(statement)}
        if isinstance(statement, ast.Execute) and len(statement.procedure) != 4:
            named.add(statement.procedure[-1].lower())
        assert {name.lower() for _, name in bound.objects} == named, statement
        if bound.procedure is not None:
            for nested in bound.procedure.statements:
                check(nested)

    batch, _ = server._parse_sql(sql, database)
    for bound in batch.bound:
        check(bound)
    return len(seen)
