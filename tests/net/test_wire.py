"""End-to-end wire tests: WireConnection against a live ReproServer."""

from __future__ import annotations

import datetime
import socket
import sys
import threading
import time

import pytest

from repro import MTCacheDeployment
from repro.client import connect
from repro.errors import (
    BindError,
    ConnectionLostError,
    ConstraintError,
    DeadlineExceededError,
    HandshakeError,
    OverloadError,
    ProtocolError,
    is_transient,
)
from repro.net import ReproServer, WireConnection, protocol
from repro.obs.metrics import global_registry
from repro.obs.tracing import Tracer, global_collector
from tests.conftest import make_shop_backend, stop_wire_server


class TestBasicExecution:
    def test_select_matches_in_process(self, wire_server):
        backend, server = wire_server
        local = backend.execute(
            "SELECT cid, cname, segment FROM customer WHERE cid <= @n ORDER BY cid",
            {"n": 10},
            database="shop",
        )
        connection = connect(server.dsn)
        try:
            remote = connection.cursor().execute(
                "SELECT cid, cname, segment FROM customer WHERE cid <= @n ORDER BY cid",
                {"n": 10},
            ).result
            assert remote.rows == local.rows
            assert remote.rowcount == local.rowcount
            assert [c.name for c in remote.schema] == [c.name for c in local.schema]
            assert [c.sql_type for c in remote.schema] == [
                c.sql_type for c in local.schema
            ]
        finally:
            connection.close()

    def test_cursor_surface_over_the_wire(self, wire_server):
        _, server = wire_server
        with connect(server.dsn) as connection:
            cursor = connection.cursor()
            cursor.execute("SELECT cid, cname FROM customer WHERE cid <= 5 ORDER BY cid")
            assert cursor.fetchone() == (1, "cust1")
            assert len(cursor.fetchall()) == 4
            assert cursor.description[0][0] == "cid"

    def test_temporal_and_null_values_roundtrip(self, wire_server):
        _, server = wire_server
        with connect(server.dsn) as connection:
            connection.cursor().execute(
                "CREATE TABLE events (eid INT PRIMARY KEY, at DATETIME, day DATE, note VARCHAR(20))"
            )
            stamp = datetime.datetime(2003, 6, 9, 12, 0, 1)
            day = datetime.date(2003, 6, 9)
            connection.cursor().execute(
                "INSERT INTO events (eid, at, day, note) VALUES (@e, @at, @day, @note)",
                {"e": 1, "at": stamp, "day": day, "note": None},
            )
            row = connection.cursor().execute(
                "SELECT at, day, note FROM events WHERE eid = 1"
            ).fetchone()
            assert row == (stamp, day, None)

    def test_server_errors_cross_as_their_own_class(self, wire_server):
        _, server = wire_server
        with connect(server.dsn) as connection:
            with pytest.raises(ConstraintError):
                connection.cursor().execute(
                    "INSERT INTO customer (cid, cname) VALUES (1, 'dup')"
                )
            with pytest.raises(BindError):
                connection.cursor().execute("SELECT x FROM no_such_table")

    @pytest.mark.parametrize(
        "fetch_rows, rows_frames", [(1, 200), (16, 13), (None, 1)],
        ids=["row-at-a-time", "batches-of-16", "server-default"],
    )
    def test_batched_fetch_reassembles_large_results(
        self, wire_server, monkeypatch, fetch_rows, rows_frames
    ):
        backend, server = wire_server
        sql = "SELECT cid, cname, segment FROM customer ORDER BY cid"
        local = backend.execute(sql, database="shop")
        opcodes = []
        read_frame = protocol.read_frame

        def recording(sock):
            frame = read_frame(sock)
            opcodes.append(frame[0])
            return frame

        monkeypatch.setattr(protocol, "read_frame", recording)
        dsn = server.dsn if fetch_rows is None else f"{server.dsn}?fetch_rows={fetch_rows}"
        with connect(dsn) as connection:
            remote = connection.cursor().execute(sql).result
        assert len(remote.rows) == 200
        assert remote.rows == local.rows
        assert opcodes.count(protocol.OP_ROWS) == rows_frames


class TestTransactions:
    def test_remote_transaction_state_is_mirrored(self, wire_server):
        _, server = wire_server
        with connect(server.dsn) as connection:
            assert connection.in_transaction() is False
            connection.begin()
            assert connection.in_transaction() is True
            connection.cursor().execute(
                "INSERT INTO customer (cid, cname) VALUES (9001, 'txn')"
            )
            connection.rollback()
            assert connection.in_transaction() is False
            assert connection.cursor().execute(
                "SELECT cid FROM customer WHERE cid = 9001"
            ).result.rows == []

    def test_commit_persists_across_connections(self, wire_server):
        backend, server = wire_server
        with connect(server.dsn) as connection:
            connection.begin()
            connection.cursor().execute(
                "INSERT INTO customer (cid, cname) VALUES (9002, 'committed')"
            )
            connection.commit()
        assert backend.execute(
            "SELECT cname FROM customer WHERE cid = 9002", database="shop"
        ).scalar == "committed"

    def test_disconnect_rolls_back_and_releases_the_latch(self, wire_server):
        backend, server = wire_server
        connection = connect(server.dsn)
        connection.begin()
        connection.cursor().execute("INSERT INTO customer (cid, cname) VALUES (9003, 'lost')")
        # Drop the socket without COMMIT: server-side cleanup must roll
        # back and release the exclusive latch, or this execute blocks.
        connection.target._drop()
        connection.closed = True  # skip the facade's rollback-on-close
        latch = backend.database("shop").latch
        for _ in range(200):  # wait for server-side cleanup to run
            if latch.holder is None:
                break
            time.sleep(0.05)
        assert latch.holder is None
        rows = backend.execute(
            "SELECT cid FROM customer WHERE cid = 9003", database="shop"
        ).rows
        assert rows == []


def _raw_session(server):
    """A raw socket past the handshake, for frames no client would send."""
    raw = socket.create_connection((server.host, server.port), timeout=5)
    raw.sendall(
        protocol.encode_frame(
            protocol.OP_HELLO, {"protocol": protocol.PROTOCOL_VERSION, "database": "shop"}
        )
    )
    assert protocol.read_frame(raw)[0] == protocol.OP_WELCOME
    return raw


class TestOneWayIn:
    """A client request is a text plus parameters, through the target (the
    retired PREPARE opcodes: ``test_protocol_fuzz.py``)."""

    def test_every_request_reaches_a_minimal_shadow_cache_through_its_forwarding(self):
        backend = make_shop_backend(customers=20, orders=20)
        deployment = MTCacheDeployment(backend, "shop")
        cache = deployment.add_cache_server("cache1", shadow_tables=["customer"])
        server = ReproServer.serve(cache)
        sql = "SELECT oid FROM orders WHERE o_cid = @c ORDER BY oid"
        expected = backend.execute(sql, {"c": 3}, database="shop").rows
        try:
            with connect(server.dsn) as connection:
                cursor = connection.cursor()
                assert cursor.execute(sql, {"c": 3}).fetchall() == expected
                assert cursor.execute(sql, {"c": 3}).fetchall() == expected  # repeated
            with _raw_session(server) as raw:  # the version-1 way around the target
                raw.sendall(protocol.encode_frame(0x04, {"sql": sql}))
                opcode, payload, _ = protocol.read_frame(raw)
            assert opcode == protocol.OP_ERROR
            with pytest.raises(ProtocolError, match="unexpected opcode"):
                protocol.raise_error(payload)
        finally:
            stop_wire_server(server)
        assert cache.statements_forwarded == 2


class TestHandshake:
    def test_version_mismatch_rejected(self, wire_server):
        _, server = wire_server
        with socket.create_connection((server.host, server.port), timeout=5) as raw:
            raw.sendall(
                protocol.encode_frame(
                    protocol.OP_HELLO, {"protocol": 999, "database": "shop"}
                )
            )
            opcode, payload, _ = protocol.read_frame(raw)
        assert opcode == protocol.OP_ERROR
        with pytest.raises(HandshakeError, match="version mismatch"):
            protocol.raise_error(payload)

    def test_a_version_1_client_is_refused(self, wire_server):
        _, server = wire_server
        with socket.create_connection((server.host, server.port), timeout=5) as raw:
            raw.sendall(
                protocol.encode_frame(protocol.OP_HELLO, {"protocol": 1, "database": "shop"})
            )
            opcode, payload, _ = protocol.read_frame(raw)
        assert opcode == protocol.OP_ERROR
        with pytest.raises(HandshakeError, match="client speaks 1"):
            protocol.raise_error(payload)

    def test_unknown_database_rejected_at_connect(self, wire_server):
        _, server = wire_server
        with pytest.raises(HandshakeError, match="does not serve database"):
            connect(f"tcp://{server.host}:{server.port}/nope")

    def test_statement_before_hello_is_a_protocol_error(self, wire_server):
        _, server = wire_server
        with socket.create_connection((server.host, server.port), timeout=5) as raw:
            raw.sendall(
                protocol.encode_frame(protocol.OP_EXECUTE, {"sql": "SELECT 1"})
            )
            opcode, payload, _ = protocol.read_frame(raw)
        assert opcode == protocol.OP_ERROR
        with pytest.raises(ProtocolError, match="before HELLO"):
            protocol.raise_error(payload)

    def test_second_hello_is_refused_and_its_transaction_rolled_back(self, wire_server):
        backend, server = wire_server
        hello = protocol.encode_frame(
            protocol.OP_HELLO,
            {"protocol": protocol.PROTOCOL_VERSION, "database": "shop"},
        )
        begin = protocol.encode_frame(protocol.OP_EXECUTE, {"sql": "BEGIN TRANSACTION"})
        with socket.create_connection((server.host, server.port), timeout=5) as raw:
            raw.sendall(hello)
            assert protocol.read_frame(raw)[0] == protocol.OP_WELCOME
            raw.sendall(begin)
            assert protocol.read_frame(raw)[0] == protocol.OP_RESULT
            assert protocol.read_frame(raw)[0] == protocol.OP_ROWS
            raw.sendall(hello)
            opcode, payload, _ = protocol.read_frame(raw)
        assert opcode == protocol.OP_ERROR
        with pytest.raises(ProtocolError, match="already has a session"):
            protocol.raise_error(payload)
        # The session that ran BEGIN is still the connection's session, so
        # the disconnect rolled it back: nobody is left holding the latch.
        with connect(server.dsn, timeout=3) as other:
            rows = other.cursor().execute("SELECT cid FROM customer WHERE cid = 1").fetchall()
        assert rows == [(1,)]
        assert backend.database("shop").latch.holder is None

    def test_connect_refused_is_transient(self):
        with socket.socket() as probe:  # find a port nobody listens on
            probe.bind(("127.0.0.1", 0))
            free_port = probe.getsockname()[1]
        with pytest.raises(ConnectionLostError) as info:
            connect(f"tcp://127.0.0.1:{free_port}/shop", timeout=0.5)
        assert is_transient(info.value)


class TestOverloadShedding:
    def test_connections_beyond_limit_are_shed(self):
        backend = make_shop_backend()
        server = ReproServer.serve(backend, max_connections=1)
        try:
            first = connect(server.dsn)
            with pytest.raises(OverloadError) as info:
                connect(server.dsn)
            assert is_transient(info.value)
            first.close()
            # Capacity freed: the next dial succeeds.
            for _ in range(50):
                try:
                    second = connect(server.dsn)
                    break
                except OverloadError:
                    continue
            second.close()
        finally:
            stop_wire_server(server)


@pytest.mark.concurrency
def test_connection_churn_loses_no_update_and_no_connection(wire_server):
    """More clients than cores dial, run a read-modify-write transaction and
    hang up, over and over, under aggressive preemption: every statement of
    a connection — and its cleanup — runs on that connection's one thread,
    so the latch serializes the increments and the live table stays exact."""
    backend, server = wire_server
    workers, rounds = 8, 12
    backend.execute("CREATE TABLE counter (k INT PRIMARY KEY, n INT)", database="shop")
    backend.execute("INSERT INTO counter VALUES (1, 0)", database="shop")
    accepted = backend.metrics.counter("net.server.connections_accepted")
    before = accepted.value
    failures = []

    def churn():
        try:
            for _ in range(rounds):
                with connect(server.dsn, timeout=30) as connection:
                    cursor = connection.cursor()
                    connection.begin()
                    n = cursor.execute("SELECT n FROM counter WHERE k = 1").fetchone()[0]
                    cursor.execute("UPDATE counter SET n = @n WHERE k = 1", {"n": n + 1})
                    connection.commit()
        except Exception as exc:  # noqa: BLE001 — reported by the main thread
            failures.append(exc)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)
    try:
        threads = [threading.Thread(target=churn) for _ in range(workers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(old)
    assert not failures and not any(thread.is_alive() for thread in threads)
    total = backend.execute("SELECT n FROM counter WHERE k = 1", database="shop").scalar
    assert total == workers * rounds
    assert accepted.value == before + workers * rounds
    active = backend.metrics.gauge("net.server.connections_active")
    for _ in range(200):  # the last handlers unwind on their own threads
        if active.value == 0:
            break
        time.sleep(0.05)
    assert active.value == 0 and server._live == {}


class _SlowGauge:
    """A gauge whose ``set`` yields for a while: it widens whatever window
    the accept thread leaves between starting a handler and counting it."""

    def __init__(self, gauge):
        self.gauge = gauge

    def set(self, value):
        time.sleep(0.01)
        self.gauge.set(value)


@pytest.mark.concurrency
def test_an_accepted_connection_is_counted_before_it_is_served(wire_server, monkeypatch):
    """A client holding its WELCOME finds itself in ``connections_accepted``
    — what the churn test's exact count relies on."""
    backend, server = wire_server
    monkeypatch.setattr(server, "_m_active", _SlowGauge(server._m_active))
    accepted = backend.metrics.counter("net.server.connections_accepted")
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)
    try:
        for _ in range(20):
            before = accepted.value
            with connect(server.dsn, timeout=5):
                assert accepted.value == before + 1
    finally:
        sys.setswitchinterval(old)


class TestDeadlinesAndTracing:
    def test_spent_budget_fails_fast_across_the_wire(self, wire_server):
        _, server = wire_server
        with connect(server.dsn) as connection:
            with pytest.raises(DeadlineExceededError):
                connection.cursor().execute(
                    "SELECT cid FROM customer", timeout=0.0
                )
            # An ample budget sails through.
            rows = connection.cursor().execute(
                "SELECT cid FROM customer WHERE cid = 1", timeout=30.0
            ).fetchall()
            assert rows == [(1,)]

    def test_trace_id_propagates_into_server_spans(self, wire_server):
        _, server = wire_server
        collector = global_collector()
        collector.clear()
        tracer = Tracer(service="client-app")
        with connect(server.dsn) as connection:
            with tracer.span("interaction") as span:
                connection.cursor().execute("SELECT cid FROM customer WHERE cid = 1")
                client_trace = span.trace_id
        services = {
            recorded.service
            for recorded in collector.trace(client_trace)
        }
        assert "backend" in services  # server-side spans joined the trace

    def test_wire_metrics_recorded(self, wire_server):
        backend, server = wire_server
        roundtrips = global_registry().counter("net.client.roundtrips")
        with connect(server.dsn) as connection:
            before = roundtrips.value
            connection.cursor().execute("SELECT cid FROM customer WHERE cid = 1")
            assert roundtrips.value == before + 1
            assert connection.healthy()
            assert roundtrips.value == before + 2  # one request path: counted alike
        assert backend.metrics.counter("net.server.requests").value > 0
        assert backend.metrics.counter("net.server.bytes_in").value > 0
        assert backend.metrics.counter("net.server.bytes_out").value > 0


class TestConnectionFacade:
    def test_healthy_probe_and_failover_surface(self, wire_server):
        backend, server = wire_server
        with connect(server.dsn) as connection:
            assert connection.healthy() is True
            backend.crash()
            # ServerUnavailableError crosses the wire as itself (transient).
            from repro.errors import ServerUnavailableError

            with pytest.raises(ServerUnavailableError):
                connection.cursor().execute("SELECT cid FROM customer WHERE cid = 1")
            backend.restart()
            assert connection.healthy() is True

    def test_wire_connection_object_still_accepted(self, wire_server):
        _, server = wire_server
        wire = WireConnection(server.host, server.port, database="shop")
        try:
            connection = connect(wire)  # back-compat: plain object target
            assert connection.cursor().execute(
                "SELECT cid FROM customer WHERE cid = 1"
            ).result.rows == [(1,)]
            connection.close()
            # The facade did not own the handed-in target: still usable.
            assert wire.healthy()
        finally:
            wire.close()

