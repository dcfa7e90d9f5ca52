"""E8 — wire protocol overhead and batched fetch.

Two measurements for the network front end:

* **Round-trip overhead**: the same point query executed in-process and
  over a real TCP loopback socket.  The wire adds serialization, framing
  and a socket round trip per statement; the bench records the absolute
  cost of both paths and their ratio so later transport work has a
  baseline to beat.  No gate — loopback latency is environmental — but
  the overhead factor is recorded in the trajectory.
* **Batched fetch vs row-at-a-time**: a large scan fetched over the wire
  with the default server batch size versus ``fetch_rows=1`` (one ROWS
  frame per row, the classic chatty-cursor anti-pattern the paper's
  mid-tier exists to avoid).  Gate: batching must be **at least 2x
  faster** end to end.
"""

from __future__ import annotations

import time

from benchmarks.conftest import emit
from repro.client import connect
from repro.engine import Server
from repro.net import ReproServer

SCAN_ROWS = 4_000
POINT_QUERY = "SELECT cid, cname FROM customer WHERE cid = @cid"
SCAN_QUERY = "SELECT cid, cname, segment FROM customer ORDER BY cid"


def _build_server() -> Server:
    server = Server("wirebench")
    server.create_database("shop")
    server.execute(
        "CREATE TABLE customer (cid INT PRIMARY KEY, cname VARCHAR(40), "
        "segment VARCHAR(10))"
    )
    database = server.database("shop")
    database.bulk_load(
        "customer",
        [
            (i, f"cust{i}", "gold" if i % 7 == 0 else "retail")
            for i in range(1, SCAN_ROWS + 1)
        ],
    )
    database.analyze_all()
    return server


def _best_of(fn, repetitions: int, rounds: int = 3) -> float:
    """Best-of-rounds mean seconds per call, on a warmed path."""
    fn()  # warm plan cache / dialed socket
    best = float("inf")
    for _ in range(rounds):
        started = time.perf_counter()
        for _ in range(repetitions):
            fn()
        best = min(best, time.perf_counter() - started)
    return best / repetitions


def test_bench_wire_roundtrip_overhead(benchmark, capsys, bench_recorder):
    backend = _build_server()
    server = ReproServer.serve(backend)
    try:
        local = connect(backend, database="shop")
        remote = connect(server.dsn)

        params = {"cid": 42}
        local_cursor, remote_cursor = local.cursor(), remote.cursor()
        expected = local_cursor.execute(POINT_QUERY, params).fetchall()
        assert remote_cursor.execute(POINT_QUERY, params).fetchall() == expected

        local_seconds = _best_of(lambda: local_cursor.execute(POINT_QUERY, params), 200)
        wire_seconds = _best_of(lambda: remote_cursor.execute(POINT_QUERY, params), 200)
        overhead = wire_seconds / local_seconds

        emit(
            capsys,
            "E8: wire round-trip overhead (point query, TCP loopback)",
            [
                f"in-process          {local_seconds * 1e6:10.1f} us/stmt",
                f"over the wire       {wire_seconds * 1e6:10.1f} us/stmt",
                f"overhead            {overhead:10.2f}x",
            ],
        )
        bench_recorder.record(
            "wire_roundtrip",
            in_process_us=round(local_seconds * 1e6, 2),
            wire_us=round(wire_seconds * 1e6, 2),
            overhead_factor=round(overhead, 3),
        )
        assert wire_seconds > 0 and local_seconds > 0

        benchmark(lambda: remote_cursor.execute(POINT_QUERY, params))
        remote.close()
        local.close()
    finally:
        server.stop()


def test_bench_wire_batched_fetch(capsys, bench_recorder):
    backend = _build_server()
    server = ReproServer.serve(backend)
    try:
        batched_connection = connect(server.dsn)  # server default batch size
        chatty_connection = connect(f"{server.dsn}?fetch_rows=1")  # one frame per row
        batched, chatty = batched_connection.cursor(), chatty_connection.cursor()

        rows_batched = batched.execute(SCAN_QUERY).fetchall()
        rows_chatty = chatty.execute(SCAN_QUERY).fetchall()
        assert rows_batched == rows_chatty
        assert len(rows_batched) == SCAN_ROWS

        batched_seconds = _best_of(lambda: batched.execute(SCAN_QUERY), 5)
        chatty_seconds = _best_of(lambda: chatty.execute(SCAN_QUERY), 5)
        speedup = chatty_seconds / batched_seconds

        emit(
            capsys,
            "E8: batched fetch vs row-at-a-time (4k-row scan, TCP loopback)",
            [
                f"rows fetched        {SCAN_ROWS:10,d}",
                f"row-at-a-time       {chatty_seconds * 1e3:10.2f} ms/scan",
                f"batched frames      {batched_seconds * 1e3:10.2f} ms/scan",
                f"speedup             {speedup:10.2f}x  (gate: >= 2.0x)",
            ],
        )
        bench_recorder.record(
            "wire_batched_fetch",
            rows=SCAN_ROWS,
            row_at_a_time_ms=round(chatty_seconds * 1e3, 3),
            batched_ms=round(batched_seconds * 1e3, 3),
            speedup=round(speedup, 3),
        )
        assert speedup >= 2.0, (
            f"batched fetch must be at least 2x faster than row-at-a-time "
            f"over the wire, measured {speedup:.2f}x"
        )
        batched_connection.close()
        chatty_connection.close()
    finally:
        server.stop()
