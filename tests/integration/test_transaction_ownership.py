"""One session per conversation; the session owns its transaction.

The caller's :class:`~repro.engine.session.Session` travels with every
statement through every in-process hop, ``BEGIN`` makes it the holder of
its home database's latch (no thread is), and the home server's
``crash()`` is the one place a transaction scope ends without its
session. Every test here fails at the commit before this module existed.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro import MTCacheDeployment
from repro.client import Connection, ConnectionPool, connect
from repro.client.shard_router import ShardRouter
from repro.engine.session import Session
from repro.errors import (
    PermissionError_,
    ReproError,
    TransactionError,
    TransactionLostError,
)
from repro.net import ReproServer, register_inproc, unregister_inproc
from repro.resilience import AdmissionController
from repro.sharding import ShardedDeployment
from repro.sharding.policy import ShardingPolicy, TablePartition
from repro.sharding.ring import RangePartitioner
from repro.tpcw import TPCWConfig
from tests.conftest import make_shop_backend, stop_wire_server

W1 = "UPDATE customer SET cname = 'w1' WHERE cid = 1"
W2 = "UPDATE customer SET cname = 'w2' WHERE cid = 2"


class Tier:
    """A small shop backend, one cache with a view of ``customer``, and
    every kind of execution target over them."""

    def __init__(self):
        self.backend = make_shop_backend(customers=20, orders=20)
        self.deployment = MTCacheDeployment(self.backend, "shop")
        self.cache = self.deployment.add_cache_server("cache1")
        self.cache.create_cached_view(
            "CREATE CACHED VIEW Cust AS SELECT cid, cname FROM customer WHERE cid <= 10"
        )
        self.servers = [self.backend, self.cache.server]
        self.failover = self.deployment.failover_connection(self.cache, probe_interval=0.5)
        self.shard_router = ShardRouter(
            backend=self.backend,
            database="shop",
            partitioner=RangePartitioner(["cache1"], 1, 20),
            policy=ShardingPolicy(
                key_domain=(1, 20),
                partitions={"customer": TablePartition("customer", "cid")},
                views=["CREATE CACHED VIEW Cust AS SELECT cid, cname FROM customer"],
            ),
            shard_targets={"cache1": self.deployment.failover_connection(self.cache)},
        )
        self._closers = []

    def open(self, kind: str):
        """``(connection, give_back, home server)`` for one kind of target."""
        if kind == "server":
            connection = connect(self.backend, database="shop")
        elif kind == "cache":
            connection = connect(self.cache)
        elif kind == "failover":
            connection = connect(self.failover)
        elif kind == "shard_router":
            connection = connect(self.shard_router)
        elif kind == "tcp":
            wire = ReproServer.serve(self.backend)
            self._closers.append(lambda: stop_wire_server(wire))
            connection = connect(wire.dsn, timeout=5)
        else:
            assert kind == "pooled"
            pool = ConnectionPool(lambda: connect(self.backend, database="shop"), size=2)
            self._closers.append(pool.close)
            connection = pool.acquire()
            return connection, lambda: pool.release(connection), self.backend
        home = self.cache.server if kind in ("cache", "failover") else self.backend
        return connection, connection.close, home

    def close(self):
        for closer in reversed(self._closers):
            closer()

    # -- what must hold once a conversation is over -------------------------

    def assert_quiescent(self):
        databases = [db for server in self.servers for db in server.databases.values()]
        for _ in range(100):  # a wire handler cleans up on its own thread
            if all(database.latch.holder is None for database in databases):
                break
            time.sleep(0.02)
        for database in databases:
            assert database.latch.holder is None, database.latch
            assert database.transactions.active_transactions() == []

    def assert_next_writer_proceeds(self, within: float = 1.0):
        """A writer (and a cache reader) on a fresh thread gets through."""
        done = []

        def run():
            with connect(self.backend, database="shop") as connection:
                connection.begin()
                connection.cursor().execute("UPDATE orders SET status = 'probe' WHERE oid = 1")
                connection.commit()
            self.cache.server.execute("SELECT cname FROM Cust WHERE cid = 3", database="shop")
            done.append(True)

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        thread.join(within)
        assert done, f"next writer still blocked after {within}s"

    def applied(self):
        """Which of W1/W2 the backend shows."""
        rows = self.backend.execute(
            "SELECT cname FROM customer WHERE cid <= 2 ORDER BY cid", database="shop"
        ).rows
        return {name for (name,) in rows if name in ("w1", "w2")}


@pytest.fixture
def tier():
    tier = Tier()
    yield tier
    tier.close()


@pytest.fixture
def thread_errors(monkeypatch):
    """Exceptions that escaped any thread while the test ran."""
    escaped = []
    monkeypatch.setattr(threading, "excepthook", lambda args: escaped.append(args.exc_value))
    return escaped


# -- (c) a crash under a wire client's transaction leaks nothing -------------


def test_crash_under_a_wire_transaction_leaves_the_latch_unowned(tier, thread_errors):
    backend = tier.backend
    latch = backend.database("shop").latch
    connection, give_back, _ = tier.open("tcp")
    connection.begin()
    connection.cursor().execute(W1)
    assert isinstance(latch.holder, Session)
    backend.crash()
    assert latch.holder is None  # crash() itself ended the scope, on this thread
    give_back()  # the client leaves; the handler's cleanup ROLLBACK must not raise
    backend.restart()
    tier.assert_quiescent()
    tier.close()  # joins the handler thread: whatever it raised has escaped by now
    assert thread_errors == []
    tier.assert_next_writer_proceeds(within=1.0)
    assert tier.applied() == set()
    # Three further writers, each on its own (possibly recycled) thread ident.
    for _ in range(3):
        tier.assert_next_writer_proceeds(within=1.0)


# -- (d) a transaction is not bound to a thread -------------------------------


def _on_thread(function):
    failure = []

    def run():
        try:
            function()
        except BaseException as exc:  # noqa: BLE001 — reported to the test thread
            failure.append(exc)

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    thread.join(2.0)
    assert not thread.is_alive(), "blocked on its own transaction's latch"
    if failure:
        raise failure[0]


@pytest.mark.parametrize("kind", ["server", "pooled"])
def test_begin_update_commit_on_three_threads(tier, kind):
    connection, give_back, _ = tier.open(kind)
    _on_thread(connection.begin)
    assert connection.in_transaction()
    _on_thread(lambda: connection.cursor().execute(W1))
    _on_thread(lambda: connection.cursor().execute(W2))
    assert tier.backend.database("shop").latch.holder is connection.session
    _on_thread(connection.commit)
    give_back()
    assert tier.applied() == {"w1", "w2"}
    tier.assert_quiescent()


# -- (b) the caller's principal reaches the engine through every router ------


def _guard(tier):
    tier.backend.execute(
        "CREATE TABLE secret (v INT); INSERT INTO secret VALUES (42); "
        "GRANT SELECT ON secret TO bob",
        database="shop",
    )
    tier.deployment.refresh_catalog()
    tier.cache.database.catalog.permissions = (
        tier.backend.database("shop").catalog.permissions.copy()
    )


@pytest.mark.parametrize("transport", ["tcp", "inproc"])
@pytest.mark.parametrize("router", ["failover", "shard_router"])
def test_a_router_behind_a_dsn_runs_as_the_dialing_principal(tier, router, transport):
    _guard(tier)
    target = getattr(tier, router)
    if transport == "tcp":
        server = ReproServer.serve(target)
        dsn = f"tcp://{server.host}:{server.port}/shop"
    else:
        register_inproc("ownership/router", target, database="shop")
        dsn = "inproc://ownership/router"
    try:
        with connect(f"{dsn}?principal=alice") as alice:
            with pytest.raises(PermissionError_, match="lacks SELECT on 'secret'"):
                alice.cursor().execute("SELECT v FROM secret")
        with connect(f"{dsn}?principal=bob") as bob:
            assert bob.cursor().execute("SELECT v FROM secret").fetchall() == [(42,)]
        with connect(dsn) as dbo:
            assert dbo.cursor().execute("SELECT v FROM secret").fetchall() == [(42,)]
    finally:
        if transport == "tcp":
            stop_wire_server(server)
        else:
            unregister_inproc("ownership/router")


# -- (5) one client, one Connection, one Session ------------------------------


def test_a_sharded_connection_is_one_connection_and_one_session(monkeypatch):
    sharded = ShardedDeployment(config=TPCWConfig(num_items=40, num_ebs=2, seed=7), shards=2)
    built = {"Connection": 0, "Session": 0}
    for cls in (Connection, Session):
        original = cls.__init__

        def counted(self, *args, _original=original, _name=cls.__name__, **kwargs):
            built[_name] += 1
            _original(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counted)
    connection = sharded.connect(principal="alice")
    assert built == {"Connection": 1, "Session": 1}
    assert connection.session.principal == "alice"
    # ... and that one session is what every engine server under it sees.
    from repro.engine.server import Server

    seen = []
    execute_bound = Server.execute_bound

    def spying(self, bound, params, session, database):
        seen.append((self.name, session))
        return execute_bound(self, bound, params, session, database)

    monkeypatch.setattr(Server, "execute_bound", spying)
    cursor = connection.cursor()
    sharded.backend.execute("GRANT SELECT ON item TO alice", database="tpcw")
    for shard in sharded.shards.values():
        shard.server.execute("GRANT SELECT ON item TO alice", database="tpcw")
    seen.clear()
    cursor.execute("SELECT i_title FROM item WHERE i_id = 7")  # key route: a shard
    cursor.execute("SELECT COUNT(*) FROM item")  # the backend
    assert {name for name, _ in seen} >= {"backend", sharded.partitioner.owner(7)}
    assert all(session is connection.session for _, session in seen)


# -- (4) the matrix: target x fault x phase -----------------------------------

TARGETS = ["server", "cache", "failover", "shard_router", "tcp", "pooled"]
FAULTS = ["backend_crash", "cache_crash", "disconnect", "failover", "shed", "deadline"]
PHASES = ["before_first_write", "between_writes", "at_commit"]


def _cells():
    for target in TARGETS:
        for fault in FAULTS:
            if fault == "failover" and target != "failover":
                # Nothing to fail over — or, behind the shard router, nothing
                # to trip it with: the transaction holds the backend, where
                # every rerouted statement would go.
                continue
            for phase in PHASES:
                yield pytest.param(target, fault, phase, id=f"{target}-{fault}-{phase}")


class Gone(Exception):
    """The client walked away mid-transaction."""


@pytest.mark.parametrize("target,fault,phase", _cells())
def test_no_fault_leaks_a_latch_or_splits_a_transaction(tier, thread_errors, target, fault, phase):
    backend, cache = tier.backend, tier.cache
    connection, give_back, home = tier.open(target)
    cursor = connection.cursor()
    timeout = {}  # the next statement's deadline, when the fault is an expired one
    shedding = []

    def strike():
        if fault == "backend_crash":
            backend.crash()
        elif fault == "cache_crash":
            cache.server.crash()
        elif fault == "failover":
            # The router's primary dies and another conversation trips the
            # router over to the backend while this transaction is open.
            cache.server.crash()
            with connect(tier.failover) as other:
                other.cursor().execute("UPDATE orders SET status = 'other' WHERE oid = 2")
            assert tier.failover.state == tier.failover.FAILED_OVER
        elif fault == "disconnect":
            raise Gone()
        elif fault == "shed":
            for server in tier.servers:
                server.admission = AdmissionController(server.clock, rate=0.001, burst=0.0)
                shedding.append(server)
        else:
            timeout["timeout"] = 0.0

    def settle():
        """The fault lasts for one statement."""
        timeout.clear()
        while shedding:
            shedding.pop().admission = None

    steps = [
        ("before_first_write", W1, "w1"),
        ("between_writes", W2, "w2"),
        ("at_commit", "COMMIT", "commit"),
    ]
    acknowledged = set()
    errors = []
    try:
        connection.begin()
        for at, sql, name in steps:
            if at == phase:
                strike()
            cursor.execute(sql, **timeout)
            settle()
            acknowledged.add(name)
    except Gone:
        pass
    except ReproError as exc:
        errors.append(exc)
    settle()
    crashed = [server for server in tier.servers if not server.available]
    home_crashed = home in crashed
    for server in crashed:
        server.restart()
    lost = [exc for exc in errors if isinstance(exc, TransactionLostError)]
    if home_crashed:
        # Answered on the session's next statement — whatever it was, with
        # the server still down — and only once: the conversation goes on.
        assert len(lost) == 1
        assert not connection.in_transaction()
        assert cursor.execute("SELECT cname FROM customer WHERE cid = 3").fetchall() == [("cust3",)]
    else:
        assert lost == []
    give_back()

    assert thread_errors == []
    tier.assert_quiescent()
    tier.assert_next_writer_proceeds(within=1.0)
    applied = tier.applied()
    if home is backend:
        # All or nothing — and nothing unless COMMIT was acknowledged.
        assert applied == ({"w1", "w2"} if "commit" in acknowledged else set())
    else:
        # A cache forwards each write to the backend as its own statement:
        # exactly the acknowledged ones are there, and after a loss nothing
        # more of the transaction went anywhere.
        assert applied == acknowledged - {"commit"}
    if home_crashed:
        assert "commit" not in acknowledged


def test_a_failover_mid_transaction_is_a_lost_transaction_not_a_split_one(tier):
    """The parent sent the rest — and ``COMMIT`` — to a target that never
    saw ``BEGIN``."""
    connection = connect(tier.failover)
    cursor = connection.cursor()
    connection.begin()
    cursor.execute(W1)
    tier.cache.server.crash()
    with pytest.raises(TransactionLostError) as info:
        cursor.execute(W2)
    assert not info.value.transient
    assert isinstance(info.value, TransactionError)
    assert tier.failover.rerouted_statements == 0  # nothing of it went to the fallback
    assert not connection.in_transaction()
    connection.commit()  # a no-op now, not an error, not a stray COMMIT
    # The conversation goes on, rerouted like any other.
    cursor.execute(W2)
    assert tier.failover.state == tier.failover.FAILED_OVER
    connection.close()
    tier.cache.server.restart()
    tier.assert_quiescent()


def test_rollback_and_close_on_a_lost_session_are_clean(tier):
    pool = ConnectionPool(lambda: connect(tier.backend, database="shop"), size=1)
    connection = pool.acquire()
    connection.begin()
    connection.cursor().execute(W1)
    tier.backend.crash()
    pool.release(connection)  # server still down: rolls back as a no-op, nothing swallowed
    assert pool.idle == 1
    tier.backend.restart()
    again = pool.acquire()
    assert again is connection and not again.in_transaction()
    again.begin()
    tier.backend.crash()
    again.rollback()
    again.close()
    pool.release(again)
    pool.close()
    tier.backend.restart()
    tier.assert_quiescent()
    assert tier.applied() == set()
