"""Regression tests: pooled wire connections and close() ownership.

A Connection handed out by :class:`ConnectionPool` owns exactly one
socket.  Closing it must never disturb a sibling checkout, closing it
twice must be a no-op, and a cursor that already fetched its result
keeps serving buffered rows after the connection goes away.
"""

from __future__ import annotations

import pytest

from repro.client import ConnectionPool, connect
from repro.errors import ClientError


class TestPooledWireClose:
    def test_closing_one_checkout_spares_the_sibling(self, wire_server):
        _, server = wire_server
        pool = ConnectionPool(lambda: connect(server.dsn), size=2)
        try:
            first = pool.acquire()
            second = pool.acquire()
            # Close the first checkout's socket outright (not a release).
            first.close()
            # The sibling's socket must be untouched: same dial, live query.
            sock = second.target._sock
            rows = second.cursor().execute("SELECT cid FROM customer WHERE cid = 1").result.rows
            assert rows == [(1,)]
            assert second.target._sock is sock  # no redial
            pool.release(second)
        finally:
            pool.close()

    def test_double_close_is_safe(self, wire_server):
        _, server = wire_server
        connection = connect(server.dsn)
        connection.cursor().execute("SELECT cid FROM customer WHERE cid = 1")
        connection.close()
        connection.close()  # second close: silent no-op
        with pytest.raises(ClientError, match="closed"):
            connection.cursor().execute("SELECT cid FROM customer WHERE cid = 1")

    def test_close_while_fetching_keeps_buffered_rows(self, wire_server):
        _, server = wire_server
        connection = connect(server.dsn)
        cursor = connection.cursor()
        cursor.execute("SELECT cid FROM customer ORDER BY cid")
        first = cursor.fetchone()
        connection.close()
        # The result set was fully reassembled client-side before close:
        # iteration continues from the buffer.
        assert first == (1,)
        assert cursor.fetchone() == (2,)
        remaining = cursor.fetchall()
        assert len(remaining) == 198
        # But new statements on the closed connection must fail loudly.
        with pytest.raises(ClientError, match="closed"):
            connection.cursor().execute("SELECT 1 AS one")

    def test_pool_close_tears_down_every_wire_connection(self, wire_server):
        _, server = wire_server
        dialed = []

        def factory():
            conn = connect(server.dsn)
            dialed.append(conn)
            return conn

        pool = ConnectionPool(factory, size=2)
        with pool.connection() as first:
            first.cursor().execute("SELECT cid FROM customer WHERE cid = 1")
        with pool.connection() as again:
            again.cursor().execute("SELECT cid FROM customer WHERE cid = 2")
        pool.close()
        assert dialed  # the pool actually dialed at least once
        for conn in dialed:
            assert conn.closed
