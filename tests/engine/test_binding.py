"""Binding is never stale and never redone.

A statement's lock plan, named objects, dispatch target, plan slot and —
for ``EXEC`` — procedure body are derived once per schema version
(:mod:`repro.engine.binding`) and ride on the parse-cache entry or the
prepared handle. These tests are the guard that this changed nothing
observable:

* *equivalence* — the bindings a provisioned TPC-W tier holds (backend,
  cache, shard) equal a fresh derivation;
* *rebind matrix* — after every kind of schema-version bump, the first
  execution of a text and of a prepared handle (through a linked server)
  binds again and answers as a never-seen text would; the second does
  not bind. ``GRANT`` takes effect without a bump;
* *flatness* — once warm, TPC-W traffic binds nothing and never calls
  ``statement_lock_plan``;
* *threads* — sessions sharing one text while another runs DDL lose no
  rebind and add no lock-order edge.
"""

from __future__ import annotations

import random
import sys
import threading
import time

import pytest

from repro import MTCacheDeployment, Server, Session
from repro.client import connect
from repro.engine.locks import LockMode
from repro.errors import BindError, PermissionError_
from repro.sharding import ShardedDeployment
from repro.tpcw import MIXES, TPCWApplication, TPCWConfig, build_backend, enable_caching
from repro.tpcw.workload import INTERACTIONS
from tests.conftest import assert_bound_as_fresh, make_shop_backend


def binds(server: Server) -> int:
    return server.metrics.counter("engine.statement_binds").value


# -- multi-column subqueries are a bind error ---------------------------------


@pytest.fixture
def cached_pair():
    backend = make_shop_backend(customers=20, orders=40)
    cache = MTCacheDeployment(backend, "shop").add_cache_server("cache1")
    return backend, cache


@pytest.mark.parametrize(
    "sql",
    [
        "SELECT cid FROM customer WHERE cid IN (SELECT oid, o_cid FROM orders)",
        "SELECT cid FROM customer WHERE cid NOT IN (SELECT oid, o_cid FROM orders)",
        "SELECT cid FROM customer WHERE cid = (SELECT oid, o_cid FROM orders WHERE oid = 1)",
        "SELECT cid FROM customer WHERE cid IN (SELECT * FROM orders)",
        "UPDATE customer SET cname = 'x' WHERE cid IN (SELECT oid, o_cid FROM orders)",
        "SET @x = (SELECT oid, o_cid FROM orders WHERE oid = 1)",
    ],
)
def test_multi_column_subquery_is_a_bind_error(cached_pair, sql):
    backend, cache = cached_pair
    for execute in (lambda: backend.execute(sql, database="shop"), lambda: cache.execute(sql)):
        with pytest.raises(BindError, match="only one expression can be specified"):
            execute()


def test_single_column_and_exists_subqueries_stay_legal(cached_pair):
    backend, cache = cached_pair
    for execute in (lambda sql: backend.execute(sql, database="shop"), cache.execute):
        assert execute(
            "SELECT COUNT(*) FROM customer WHERE EXISTS (SELECT oid, o_cid FROM orders)"
        ).scalar == 20
        assert execute(
            "SELECT COUNT(*) FROM customer WHERE cid IN (SELECT o_cid FROM orders)"
        ).scalar == 20
        assert execute(
            "SELECT COUNT(*) FROM customer WHERE cid IN (SELECT * FROM (SELECT o_cid FROM orders) AS d)"
        ).scalar == 20


def test_a_batch_that_creates_what_its_subquery_stars_over_still_runs():
    server = Server("s")
    server.create_database("db")
    result = server.execute(
        "CREATE TABLE one (a INT PRIMARY KEY); INSERT INTO one VALUES (7); "
        "SELECT a FROM one WHERE a IN (SELECT * FROM one)"
    )
    assert result.rows == [(7,)]


# -- (a) equivalence: held bindings equal a fresh derivation ------------------

TPCW_CONFIG = dict(num_items=60, num_ebs=4, seed=11)


def _exec_texts(database):
    """``EXEC p @a = @a, ...`` for every procedure of the catalog."""
    for procedure in database.catalog.procedures.values():
        arguments = ", ".join(f"@{param.name} = @{param.name}" for param in procedure.params)
        yield f"EXEC {procedure.name} {arguments}".strip()


def test_tpcw_bindings_equal_a_fresh_derivation_on_every_tier():
    config = TPCWConfig(**TPCW_CONFIG)
    backend, _ = build_backend(config)
    deployment, (cache,) = enable_caching(backend, ["cache1"], config)
    sharded = ShardedDeployment(config=TPCWConfig(**TPCW_CONFIG), shards=2)
    # Traffic first, so the bindings compared are ones executions used.
    app = TPCWApplication(connect(cache), config, random.Random(5))
    session = app.new_session()
    for name in INTERACTIONS:
        app.run(name, session)
    tiers = [(backend, backend.database("tpcw")), (cache.server, cache.database)]
    tiers += [(shard.server, shard.database) for shard in sharded.shards.values()]
    tiers.append((sharded.backend, sharded.backend.database("tpcw")))
    for server, database in tiers:
        compared = 0
        for text in _exec_texts(backend.database("tpcw")):
            compared += assert_bound_as_fresh(server, database, text)
        # Every EXEC, plus the body statements of those held locally.
        assert compared >= len(backend.database("tpcw").catalog.procedures)
    local = assert_bound_as_fresh(cache.server, cache.database, "EXEC getBestSellers @subject = @subject")
    assert local > 1  # a copied procedure: its body is bound beneath the EXEC


# -- (b) the rebind matrix ----------------------------------------------------


class BothWays:
    """One statement against one engine server as a text and by a
    linked-server handle — each under its own spelling of the text
    (trailing blanks), so each holds its own parse-cache entry and must
    rebind for itself."""

    def __init__(self, target, sql: str, params=None):
        self.engine = getattr(target, "server", target)
        self.database = self.engine.database()
        self.sql, self.params = sql, params
        client = Server("client")
        link = client.linked_servers.register("target", self.engine, self.database.name)
        handle = link.prepare(sql + " ")
        self.ways = {
            "text": lambda: target.execute(sql, params).rows,
            "link": lambda: handle.execute(params).rows,
        }

    def warm(self):
        """Run every way until none binds; returns the rows."""
        rows = [way() for way in self.ways.values()]
        before = binds(self.engine)
        assert [way() for way in self.ways.values()] == rows
        assert binds(self.engine) == before, "a warm statement bound again"
        assert all(answer == rows[0] for answer in rows)
        return rows[0]

    def after_bump(self):
        """Every way binds exactly on its first execution after a version
        bump and answers as a text never seen before does; returns the rows."""
        cold = self.engine.execute(self.sql + "   ", self.params, database=self.database.name).rows
        for name, way in self.ways.items():
            before = binds(self.engine)
            first = way()
            assert binds(self.engine) > before, f"{name}: no rebind after the version moved"
            before = binds(self.engine)
            second = way()
            assert binds(self.engine) == before, f"{name}: bound twice for one version"
            assert first == second == cold, name
        for spelling in ("", " "):
            assert_bound_as_fresh(self.engine, self.database, self.sql + spelling)
        return cold

    def bound(self):
        return self.engine._parse_sql(self.sql, self.database)[0].bound[0]


def test_create_index_rebinds_and_the_new_plan_seeks_it():
    backend = make_shop_backend(customers=50, orders=50)
    ways = BothWays(backend, "SELECT cid FROM customer WHERE cname = @n", {"n": "cust7"})
    assert ways.warm() == [(7,)]
    assert "ix_customer_cname" not in ways.bound().planned.explain()
    version = backend.database("shop").version
    backend.execute("CREATE INDEX ix_customer_cname ON customer (cname)")
    assert backend.database("shop").version > version
    assert ways.after_bump() == [(7,)]
    assert "ix_customer_cname" in ways.bound().planned.explain()


def test_analyze_rebinds():
    backend = make_shop_backend(customers=50, orders=50)
    ways = BothWays(backend, "SELECT COUNT(*) FROM orders WHERE o_cid = @c", {"c": 3})
    rows = ways.warm()
    backend.database("shop").analyze("orders")
    assert ways.after_bump() == rows


READS = "CREATE PROCEDURE touch AS BEGIN SELECT COUNT(*) FROM customer WHERE cid <= 3 END"
WRITES = (
    "CREATE PROCEDURE touch AS BEGIN "
    "UPDATE customer SET cname = cname WHERE cid = 1 "
    "SELECT COUNT(*) FROM customer WHERE cid <= 3 END"
)


def test_procedure_redefined_read_only_to_writing_and_back(monkeypatch):
    backend = make_shop_backend(customers=10, orders=10)
    backend.execute(READS)
    latch = backend.database("shop").latch
    exclusive = []
    acquire = latch.acquire_exclusive
    monkeypatch.setattr(
        latch, "acquire_exclusive", lambda *a, **k: exclusive.append(1) or acquire(*a, **k)
    )
    ways = BothWays(backend, "EXEC touch")
    assert ways.warm() == [(3,)]
    assert ways.bound().lock_plan is None  # a read-only body locks per statement
    exclusive.clear()
    ways.warm()
    assert not exclusive

    backend.execute("DROP PROCEDURE touch; " + WRITES)
    exclusive.clear()
    assert ways.after_bump() == [(3,)]
    assert ways.bound().lock_plan.latch is LockMode.EXCLUSIVE
    assert len(exclusive) >= 5  # the cold text, then two executions per way

    backend.execute("DROP PROCEDURE touch; " + READS)
    exclusive.clear()
    assert ways.after_bump() == [(3,)]
    assert ways.bound().lock_plan is None
    assert not exclusive


def test_redefined_callee_of_a_nested_exec():
    backend = make_shop_backend(customers=10, orders=10)
    backend.execute(
        "CREATE PROCEDURE inner_p AS BEGIN SELECT cname FROM customer WHERE cid = 1 END; "
        "CREATE PROCEDURE outer_p AS BEGIN EXEC inner_p END"
    )
    ways = BothWays(backend, "EXEC outer_p")
    assert ways.warm() == [("cust1",)]
    backend.execute(
        "DROP PROCEDURE inner_p; "
        "CREATE PROCEDURE inner_p AS BEGIN SELECT cname FROM customer WHERE cid = 2 END"
    )
    assert ways.after_bump() == [("cust2",)]


def test_copy_procedure_moves_the_call_to_the_cache():
    backend = make_shop_backend(customers=10, orders=10)
    backend.execute("CREATE PROCEDURE countOrders AS BEGIN SELECT COUNT(*) FROM orders END")
    cache = MTCacheDeployment(backend, "shop").add_cache_server("cache1")
    link = cache.server.linked_servers.get("backend")
    ways = BothWays(cache, "EXEC countOrders")
    assert ways.warm() == [(10,)]
    assert ways.bound().forward is not None and ways.bound().procedure is None
    cache.copy_procedure("countOrders")
    forwarded = link.statements_shipped
    assert ways.after_bump() == [(10,)]
    assert ways.bound().forward is None and ways.bound().procedure is not None
    assert link.statements_shipped == forwarded  # the EXEC itself no longer travels


def test_refresh_catalog_rebinds():
    backend = make_shop_backend(customers=10, orders=10)
    deployment = MTCacheDeployment(backend, "shop")
    cache = deployment.add_cache_server("cache1")
    ways = BothWays(cache, "SELECT cname FROM customer WHERE cid = @c", {"c": 4})
    assert ways.warm() == [("cust4",)]
    backend.execute("CREATE INDEX ix_customer_cname ON customer (cname)")
    deployment.refresh_catalog()
    assert ways.after_bump() == [("cust4",)]


def test_create_cached_view_brings_the_query_home():
    backend = make_shop_backend(customers=40, orders=10)
    cache = MTCacheDeployment(backend, "shop").add_cache_server("cache1")
    link = cache.server.linked_servers.get("backend")
    ways = BothWays(cache, "SELECT cname FROM customer WHERE cid = @c", {"c": 4})
    assert ways.warm() == [("cust4",)]
    cache.execute(
        "CREATE CACHED VIEW near AS SELECT cid, cname FROM customer WHERE cid <= 20"
    )
    shipped = link.queries_shipped
    assert ways.after_bump() == [("cust4",)]
    assert link.queries_shipped == shipped  # answered from the view


def test_mark_remote_turns_a_local_update_into_a_forwarded_one():
    backend = make_shop_backend(customers=10, orders=10)
    middle = Server("middle")
    middle.create_database("shop")
    middle.execute("CREATE TABLE customer (cid INT PRIMARY KEY, cname VARCHAR(40))")
    middle.execute("INSERT INTO customer VALUES (1, 'local')")
    middle.linked_servers.register("backend", backend, "shop")
    ways = BothWays(middle, "UPDATE customer SET cname = @n WHERE cid = 1", {"n": "moved"})
    ways.warm()
    assert ways.bound().forward is None
    assert backend.execute("SELECT cname FROM customer WHERE cid = 1").scalar == "cust1"
    middle.database("shop").mark_remote(["customer"], "backend")
    ways.after_bump()
    assert ways.bound().forward[0] == "backend"
    assert backend.execute("SELECT cname FROM customer WHERE cid = 1").scalar == "moved"


def test_shard_boundary_move_rebinds_on_the_shard():
    sharded = ShardedDeployment(config=TPCWConfig(num_items=100, num_ebs=4, seed=29), shards=2)
    left, right = sorted(sharded.shards)
    low, high = sharded.partitioner.slice(left)
    item = high  # the left shard's last key: lost when the cut moves down
    ways = BothWays(sharded.shards[left], "EXEC getBook @i_id = @i_id", {"i_id": item})
    rows = ways.warm()
    assert rows == sharded.backend.execute(
        "EXEC getBook @i_id = @i_id", {"i_id": item}, database="tpcw"
    ).rows
    sharded.move_boundary(left, right, high - 10)
    assert ways.after_bump() == rows  # through the guard's backend branch now


def test_grant_and_revoke_take_effect_without_a_version_bump():
    backend = make_shop_backend(customers=10, orders=10)
    database = backend.database("shop")
    alice = Session(principal="alice", database="shop")
    sql = "SELECT cname FROM customer WHERE cid IN (SELECT o_cid FROM orders WHERE oid = 3)"
    with pytest.raises(PermissionError_):
        backend.execute(sql, session=alice)
    version, bound = database.version, binds(backend)
    backend.execute("GRANT SELECT ON customer TO alice")
    with pytest.raises(PermissionError_, match="lacks SELECT on 'orders'"):
        backend.execute(sql, session=alice)
    backend.execute("GRANT SELECT ON orders TO alice")
    assert backend.execute(sql, session=alice).rows == [("cust4",)]
    database.catalog.permissions.revoke("SELECT", "orders", "alice")
    with pytest.raises(PermissionError_, match="lacks SELECT on 'orders'"):
        backend.execute(sql, session=alice)
    assert database.version == version
    assert binds(backend) == bound + 2  # the two GRANT texts; the SELECT never rebound


# -- (c) flatness: a warm workload binds nothing ------------------------------


def test_warm_tpcw_traffic_binds_nothing_and_derives_no_lock_plan(monkeypatch):
    import repro.engine.locks as locks

    config = TPCWConfig(num_items=80, num_ebs=4, seed=3)
    backend, _ = build_backend(config)
    deployment, (cache,) = enable_caching(backend, ["cache1"], config)
    app = TPCWApplication(connect(cache), config, random.Random(17))
    sessions = [app.new_session() for _ in range(4)]
    for round_index in range(12):  # warm-up: every branch of every interaction
        for name in INTERACTIONS:
            app.run(name, sessions[round_index % len(sessions)])
    deployment.tick(1.0)

    derivations = []
    original = locks.statement_lock_plan

    def counting(*args, **kwargs):
        derivations.append(args[0])
        return original(*args, **kwargs)

    for module in list(sys.modules.values()):  # every importer of the name
        if getattr(module, "statement_lock_plan", None) is original:
            monkeypatch.setattr(module, "statement_lock_plan", counting)

    before = binds(cache.server), binds(backend)
    rng = random.Random(23)
    for mix in ("Browsing", "Ordering"):
        for index in range(200):
            app.run(MIXES[mix].sample(rng), sessions[index % len(sessions)])
            if index % 50 == 0:
                deployment.tick(1.0)
    assert derivations == []
    assert (binds(cache.server), binds(backend)) == before


# -- (d) threads: one text, two sessions, concurrent DDL ----------------------


def test_sessions_sharing_a_text_rebind_under_concurrent_ddl():
    from repro.common.witness import active_witness

    backend = make_shop_backend(customers=60, orders=120)
    backend.execute("CREATE PROCEDURE ordersOf @c INT AS BEGIN SELECT COUNT(*) FROM orders WHERE o_cid = @c END")
    select = "SELECT cid FROM customer WHERE cname = @n"
    call = "EXEC ordersOf @c = @c"
    ddl = ("CREATE INDEX ix_customer_cname ON customer (cname)", "DROP INDEX ix_customer_cname")

    def one_round(session) -> None:
        assert backend.execute(select, {"n": "cust9"}, session=session).rows == [(9,)]
        assert backend.execute(call, {"c": 9}, session=session).rows == [(2,)]

    # Single-threaded first: every statement kind, DDL included, has
    # recorded whatever lock-order edges it produces.
    one_round(Session(database="shop"))
    for statement in ddl:
        backend.execute(statement)
        one_round(Session(database="shop"))
    witness = active_witness()
    edges_before = set(witness.edges) if witness is not None else None

    stop = threading.Event()
    failures = []
    rounds = [0, 0]

    def worker(slot: int) -> None:
        session = Session(database="shop")
        try:
            while not stop.is_set():
                one_round(session)
                rounds[slot] += 1
        except BaseException as exc:  # noqa: BLE001 - reported by the main thread
            failures.append(exc)

    def churn() -> None:
        try:
            while not stop.is_set():
                for statement in ddl:
                    backend.execute(statement)
        except BaseException as exc:  # noqa: BLE001
            failures.append(exc)

    threads = [threading.Thread(target=worker, args=(slot,)) for slot in (0, 1)]
    threads.append(threading.Thread(target=churn))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)
    try:
        for thread in threads:
            thread.start()
        deadline = time.monotonic() + 20.0
        while min(rounds) < 150 and not failures and time.monotonic() < deadline:
            time.sleep(0.01)
    finally:
        stop.set()
        for thread in threads:
            thread.join(timeout=20.0)
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not failures, failures
    assert min(rounds) >= 150

    # No lost rebind: whatever version the churn stopped at, the next
    # execution of the shared texts runs under a binding for it.
    one_round(Session(database="shop"))
    database = backend.database("shop")
    assert_bound_as_fresh(backend, database, select)
    assert_bound_as_fresh(backend, database, call)
    if witness is not None:
        assert set(witness.edges) == edges_before
