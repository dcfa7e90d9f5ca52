"""Fault injection on real frames: mid-frame disconnects and retry recovery.

The server's ``net:<name>:request`` / ``net:<name>:result`` sites let a
:class:`FaultInjector` sever the TCP transport at precise points — before
a statement runs (never executed) or after it runs but before the reply
(executed, reply lost).  The client must surface both as a *transient*
:class:`ConnectionLostError` so RetryPolicy / FailoverRouter recover.
"""

from __future__ import annotations

import pytest

from repro.client import connect
from repro.errors import ConnectionLostError, is_transient
from repro.faults import FaultInjector
from repro.net import ReproServer
from repro.resilience import RetryPolicy
from tests.conftest import make_shop_backend


@pytest.fixture()
def faulty_server():
    backend = make_shop_backend()
    injector = FaultInjector(backend.clock, seed=7)
    server = ReproServer.serve(backend, injector=injector)
    try:
        yield backend, server, injector
    finally:
        server.stop()


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
            generation = connection.target.generation
            rows = connection.cursor().execute("SELECT cid FROM customer WHERE cid = 1").result.rows
            assert rows == [(1,)]
            assert connection.target.generation == generation + 1
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
