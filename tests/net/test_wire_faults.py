"""Fault injection on real frames: mid-frame disconnects and retry recovery.

The server's ``net:<name>:request`` / ``net:<name>:result`` sites let a
:class:`FaultInjector` sever the TCP transport at precise points — before
a statement runs (never executed) or after it runs but before the reply
(executed, reply lost).  The client must surface both as a *transient*
:class:`ConnectionLostError` so RetryPolicy / FailoverRouter recover.
"""

from __future__ import annotations

import socket
import struct

import pytest

from repro.client import connect
from repro.errors import ConnectionLostError, ProtocolError, is_transient
from repro.faults import FaultInjector
from repro.net import ReproServer, protocol
from repro.obs.metrics import global_registry
from repro.resilience import RetryPolicy
from tests.conftest import make_shop_backend, stop_wire_server


@pytest.fixture()
def faulty_server():
    backend = make_shop_backend()
    injector = FaultInjector(backend.clock, seed=7)
    server = ReproServer.serve(backend, injector=injector)
    try:
        yield backend, server, injector
    finally:
        stop_wire_server(server)


class TestMidFrameDisconnect:
    def test_reply_lost_is_a_transient_connection_error(self, faulty_server):
        backend, server, injector = faulty_server
        connection = connect(server.dsn)
        try:
            # Arm: sever the link after the NEXT statement executes, before
            # its reply frame is written.
            injector.rule(f"net:{server.name}:result", action="unavailable", count=1)
            with pytest.raises(ConnectionLostError) as info:
                connection.cursor().execute("SELECT cid FROM customer WHERE cid = 1")
            assert is_transient(info.value)
            # The very next call redials transparently and succeeds.
            redials = global_registry().counter("net.client.redials")
            before = redials.value
            rows = connection.cursor().execute("SELECT cid FROM customer WHERE cid = 1").result.rows
            assert rows == [(1,)]
            assert redials.value == before + 1
        finally:
            connection.close()

    def test_retry_policy_recovers_reads_exactly_once(self, faulty_server):
        backend, server, injector = faulty_server
        connection = connect(server.dsn)
        try:
            injector.rule(f"net:{server.name}:result", action="unavailable", count=2)
            policy = RetryPolicy(max_attempts=4, base_delay=0.01, max_delay=0.05)
            result = policy.run(
                lambda: connection.cursor().execute(
                    "SELECT cname FROM customer WHERE cid = @id", {"id": 5}
                ).result,
                clock=connection.target.clock,
            )
            assert result.rows == [("cust5",)]
            assert injector.injected == 2  # both armed faults actually fired
        finally:
            connection.close()

    def test_request_site_drop_means_statement_never_ran(self, faulty_server):
        backend, server, injector = faulty_server
        connection = connect(server.dsn)
        try:
            injector.rule(f"net:{server.name}:request", action="unavailable", count=1)
            with pytest.raises(ConnectionLostError):
                connection.cursor().execute(
                    "INSERT INTO customer (cid, cname) VALUES (9100, 'ghost')"
                )
            # Dropped BEFORE dispatch: the write must not have applied, so a
            # retry of the same INSERT is safe (no duplicate-key surprise).
            rows = backend.execute(
                "SELECT cid FROM customer WHERE cid = 9100", database="shop"
            ).rows
            assert rows == []
            connection.cursor().execute(
                "INSERT INTO customer (cid, cname) VALUES (9100, 'ghost')"
            )
            assert backend.execute(
                "SELECT cname FROM customer WHERE cid = 9100", database="shop"
            ).scalar == "ghost"
        finally:
            connection.close()

    def test_latency_fault_delays_but_completes(self, faulty_server):
        backend, server, injector = faulty_server
        # Latency rides the injector's clock; with the simulated backend
        # clock this is instantaneous wall-time but exercises the path.
        injector.rule(
            f"net:{server.name}:result", action="latency", latency=0.5, count=1
        )
        with connect(server.dsn) as connection:
            rows = connection.cursor().execute("SELECT cid FROM customer WHERE cid = 1").result.rows
            assert rows == [(1,)]
        assert injector.injected == 1


def _framed(payload: bytes) -> bytes:
    body = bytes([protocol.OP_EXECUTE]) + payload
    return struct.pack("!I", len(body)) + body


MALFORMED_FRAMES = {
    "zero-length": struct.pack("!I", 0),
    "2GiB-length": struct.pack("!I", 2**31),
    "unknown-value-tag": _framed(b"\x7f"),
    "invalid-utf8-string": _framed(b"\x06\x00\x00\x00\x01\xff"),
    "date-that-is-not-one": _framed(b"\x08\x00\x00\x00\x03abc"),
    "5000-nested-lists": _framed(b"\x0a\x00\x00\x00\x01" * 5000 + b"\x00"),
}


@pytest.mark.parametrize("data", MALFORMED_FRAMES.values(), ids=MALFORMED_FRAMES.keys())
def test_malformed_frame_gets_an_error_frame_and_ends_only_its_connection(
    wire_server, capfd, data
):
    backend, server = wire_server
    errors = backend.metrics.counter("net.server.request_errors")
    before = errors.value
    with socket.create_connection((server.host, server.port), timeout=5) as raw:
        raw.sendall(data)
        opcode, payload, _ = protocol.read_frame(raw)
        assert opcode == protocol.OP_ERROR
        with pytest.raises(ProtocolError):
            protocol.raise_error(payload)
        with pytest.raises(EOFError):  # ...and the offender is disconnected
            protocol.read_frame(raw)
    assert errors.value == before + 1
    with connect(server.dsn, timeout=3) as connection:  # the listener still serves
        rows = connection.cursor().execute("SELECT cid FROM customer WHERE cid = 1").fetchall()
    assert rows == [(1,)]
    assert capfd.readouterr().err == ""  # no handler thread died with a traceback
